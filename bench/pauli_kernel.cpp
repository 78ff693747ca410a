/**
 * Pauli-sum kernel microbench: the two dense-statevector costs of a
 * molecular run — one Hamiltonian expectation on a prepared ansatz
 * state through the `"statevector"` backend (the VQA tuning hot path)
 * and one `exact=1` Lanczos ground-state solve — for H6 (10 qubits),
 * N2 and BeH2 (12 qubits) at the bonds of the `scan_anneal` sweep. No
 * google-benchmark: like `surrogate_fit` it builds everywhere and
 * emits one JSON file the perf gate diffs against
 * `bench/baselines/BENCH_pauli_kernel.json`.
 *
 * Keys end in `_us`/`_ms`, so `bench_check` treats every timing as a
 * ceiling. Each case's Lanczos ground energy is its `energy` leaf, so
 * the gate also fails when the solve's result drifts.
 *
 * Usage: pauli_kernel [--json PATH]
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
#include "core/evaluator.hpp"
#include "problems/molecule_factory.hpp"
#include "statevector/lanczos.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

[[noreturn]] void
fail(const std::string& message)
{
    std::cerr << "pauli_kernel: " << message << '\n';
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

struct CaseResult
{
    std::string name;
    std::size_t qubits = 0;
    std::size_t terms = 0;
    double expectation_us = 0.0;
    double lanczos_ms = 0.0;
    double energy = 0.0;
};

constexpr int kExpectationRounds = 7;
constexpr int kExpectationsPerRound = 25;
constexpr int kLanczosRepeats = 3;

CaseResult
run_case(const std::string& molecule, double bond)
{
    const cafqa::problems::MolecularSystem system =
        cafqa::problems::make_molecular_system(molecule, bond);
    CaseResult result;
    result.name = molecule + "_" + cafqa::format_real(bond);
    result.qubits = system.num_qubits;
    result.terms = system.hamiltonian.num_terms();

    // A generic dense state: the ansatz at seeded random angles.
    cafqa::Rng rng(17);
    std::vector<double> params(system.ansatz.num_params());
    for (double& p : params) {
        p = rng.uniform_real(0.0, 6.283185307179586);
    }
    cafqa::IdealEvaluator evaluator(system.ansatz);
    evaluator.prepare(params);
    // The first call pays the per-observable set-up a tuning stage
    // pays once; the rounds time the calls after it.
    const double value = evaluator.expectation(system.hamiltonian);
    std::vector<double> rounds;
    for (int round = 0; round < kExpectationRounds; ++round) {
        const auto start = clock_type::now();
        for (int i = 0; i < kExpectationsPerRound; ++i) {
            if (evaluator.expectation(system.hamiltonian) != value) {
                fail(result.name + ": repeated expectation changed");
            }
        }
        rounds.push_back(1e3 * ms_between(start, clock_type::now()) /
                         kExpectationsPerRound);
    }
    result.expectation_us = median(rounds);

    std::vector<double> solves;
    for (int rep = 0; rep < kLanczosRepeats; ++rep) {
        const auto start = clock_type::now();
        const double energy =
            cafqa::lanczos_ground_state(system.hamiltonian).energy;
        solves.push_back(ms_between(start, clock_type::now()));
        if (rep > 0 && energy != result.energy) {
            fail(result.name + ": repeated Lanczos solve changed");
        }
        result.energy = energy;
    }
    result.lanczos_ms = median(solves);
    return result;
}

} // namespace

int
main(int argc, char** argv)
{
    using cafqa::format_real;

    std::string json_path = "BENCH_pauli_kernel.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            if (i + 1 >= argc) {
                fail("--json requires a value");
            }
            json_path = argv[++i];
        } else {
            fail("unknown option '" + arg + "'");
        }
    }

    std::vector<CaseResult> results;
    results.push_back(run_case("H6", 0.9));
    results.push_back(run_case("N2", 1.1));
    results.push_back(run_case("BeH2", 1.3));

    std::cout << "pauli_kernel: Hamiltonian expectation (median of "
              << kExpectationRounds << " rounds of " << kExpectationsPerRound
              << ") and Lanczos solve (median of " << kLanczosRepeats
              << ")\n";
    for (const CaseResult& r : results) {
        std::cout << "  " << r.name << "  " << r.qubits << " qubits "
                  << r.terms << " terms  expectation "
                  << format_real(r.expectation_us) << " us  lanczos "
                  << format_real(r.lanczos_ms) << " ms  energy "
                  << format_real(r.energy) << '\n';
    }

    std::ofstream json(json_path);
    if (!json) {
        fail("cannot write '" + json_path + "'");
    }
    json << "{\n  \"bench\": \"pauli_kernel\",\n  \"cases\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CaseResult& r = results[i];
        json << "    {\"case\": \"" << r.name << "\", \"qubits\": "
             << r.qubits << ", \"terms\": " << r.terms
             << ", \"expectation_us\": " << format_real(r.expectation_us)
             << ", \"lanczos_ms\": " << format_real(r.lanczos_ms)
             << ", \"energy\": " << format_real(r.energy) << '}'
             << (i + 1 < results.size() ? "," : "") << '\n';
    }
    json << "  ]\n}\n";
    return 0;
}
