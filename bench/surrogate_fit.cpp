/**
 * Surrogate fit microbench: the cost of one Bayesian-optimization model
 * step — a default 30-tree `RandomForest::fit` plus one acquisition
 * round of 384 `predict_with_variance` calls (256 random + 128 mutated
 * candidates in the optimizer's defaults) — on quarter-turn rows at
 * the widths and history sizes of the paper-default searches. No
 * google-benchmark: like `telemetry_overhead` it builds everywhere and
 * emits one JSON file the perf gate diffs against
 * `bench/baselines/BENCH_surrogate.json`.
 *
 * Keys end in `_ms`/`_us`, so `bench_check` treats every timing as a
 * ceiling. Each case's mean prediction over the round is its `energy`
 * leaf, so the gate also fails when the fitted model changes.
 *
 * Usage: surrogate_fit [--json PATH] [--quick]
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "opt/random_forest.hpp"

namespace {

using clock_type = std::chrono::steady_clock;
using Rows = std::vector<std::vector<double>>;

[[noreturn]] void
fail(const std::string& message)
{
    std::cerr << "surrogate_fit: " << message << '\n';
    std::exit(1);
}

double
ms_between(clock_type::time_point a, clock_type::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

std::vector<double>
quarter_turn_row(cafqa::Rng& rng, std::size_t width)
{
    std::vector<double> row(width);
    for (double& v : row) {
        v = static_cast<double>(rng.uniform_int(0, 3));
    }
    return row;
}

struct CaseResult
{
    std::size_t width = 0;
    std::size_t rows = 0;
    double fit_ms = 0.0;
    double predict_us = 0.0;
    double energy = 0.0;
};

CaseResult
run_case(std::size_t width, std::size_t rows, int repeats)
{
    cafqa::Rng rng(1000 * width + rows);
    Rows x;
    std::vector<double> y;
    for (std::size_t r = 0; r < rows; ++r) {
        x.push_back(quarter_turn_row(rng, width));
        // Energy-like targets: a molecular scale plus a spread that
        // depends on the row, so splits have something to find.
        double e = -7.86;
        for (std::size_t f = 0; f < width; f += 3) {
            e += 1e-2 * (x.back()[f] - 1.5);
        }
        y.push_back(e + rng.normal(0.0, 1e-2));
    }
    Rows candidates;
    for (std::size_t c = 0; c < 384; ++c) {
        candidates.push_back(quarter_turn_row(rng, width));
    }

    CaseResult result;
    result.width = width;
    result.rows = rows;
    std::vector<double> fits;
    std::vector<double> predicts;
    for (int rep = 0; rep < repeats; ++rep) {
        cafqa::RandomForest forest;
        const auto fit_start = clock_type::now();
        forest.fit(x, y, 17);
        const auto fit_end = clock_type::now();
        double sum = 0.0;
        for (const auto& candidate : candidates) {
            sum += forest.predict_with_variance(candidate).mean;
        }
        const auto predict_end = clock_type::now();
        fits.push_back(ms_between(fit_start, fit_end));
        predicts.push_back(1e3 * ms_between(fit_end, predict_end) /
                           static_cast<double>(candidates.size()));
        const double energy = sum / static_cast<double>(candidates.size());
        if (rep > 0 && energy != result.energy) {
            fail("refitting the same data changed the predictions");
        }
        result.energy = energy;
    }
    result.fit_ms = median(fits);
    result.predict_us = median(predicts);
    return result;
}

} // namespace

int
main(int argc, char** argv)
{
    using cafqa::format_real;

    std::string json_path = "BENCH_surrogate.json";
    int repeats = 15;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            if (i + 1 >= argc) {
                fail("--json requires a value");
            }
            json_path = argv[++i];
        } else if (arg == "--quick") {
            repeats = 3;
        } else {
            fail("unknown option '" + arg + "'");
        }
    }

    std::vector<CaseResult> results;
    for (const std::size_t width : {16u, 48u}) {
        for (const std::size_t rows : {200u, 500u}) {
            results.push_back(run_case(width, rows, repeats));
        }
    }

    std::cout << "surrogate_fit: 30-tree fit + 384-candidate round, median"
                 " of "
              << repeats << '\n';
    for (const CaseResult& r : results) {
        std::cout << "  w" << r.width << " n" << r.rows << "  fit "
                  << format_real(r.fit_ms) << " ms  predict "
                  << format_real(r.predict_us) << " us/candidate  mean "
                  << format_real(r.energy) << '\n';
    }

    std::ofstream json(json_path);
    if (!json) {
        fail("cannot write '" + json_path + "'");
    }
    json << "{\n  \"bench\": \"surrogate_fit\",\n  \"repeats\": " << repeats
         << ",\n  \"cases\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CaseResult& r = results[i];
        json << "    {\"case\": \"w" << r.width << "_n" << r.rows
             << "\", \"width\": " << r.width << ", \"rows\": " << r.rows
             << ", \"fit_ms\": " << format_real(r.fit_ms)
             << ", \"predict_us\": " << format_real(r.predict_us)
             << ", \"energy\": " << format_real(r.energy) << '}'
             << (i + 1 < results.size() ? "," : "") << '\n';
    }
    json << "  ]\n}\n";
    return 0;
}
