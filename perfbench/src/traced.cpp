#include "traced.hpp"

#include <algorithm>

#include "bench_util.hpp"
#include "core/backend_registry.hpp"
#include "core/pipeline.hpp"
#include "core/run_spec.hpp"
#include "opt/random_forest.hpp"

namespace perfbench {

namespace {

using cafqa::PipelineEvent;

/** Probe results land here so the timed calls cannot be elided. */
volatile double g_sink = 0.0;

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

/** Uniform integer in [0, bound) from a counter-based stream. */
int
draw(std::uint64_t& state, int bound)
{
    state = mix64(state);
    return static_cast<int>(state % static_cast<std::uint64_t>(bound));
}

} // namespace

TracedJob
run_traced_job(const cafqa::RunSpec& spec)
{
    TracedJob out;
    std::size_t next_id = 2;
    const auto add = [&out, &next_id](const char* name, std::size_t parent,
                                      double start, double end) {
        const std::size_t id = next_id++;
        out.spans.push_back(Span{name, id, parent, start, end});
        return id;
    };

    const double call = now_ms();
    spec.validate();
    out.problem = std::make_shared<const cafqa::problems::Problem>(
        cafqa::problems::make_problem(spec.problem));
    const cafqa::problems::Problem& problem = *out.problem;
    const double built = now_ms();
    add("problem_build", 1, call, built);

    // From here on this mirrors execute_run_spec line by line, so the
    // record matches the untraced one; `wall_ms` starts where it does
    // there (after the problem build).
    const auto start = Clock::now();
    cafqa::RunRecord record;
    record.spec = spec;
    record.problem_key = problem.key;
    record.problem_name = problem.name;
    record.num_qubits = problem.num_qubits;
    record.metrics = problem.metrics;
    record.reference_energy = problem.reference_energy;

    cafqa::PipelineConfig config = cafqa::make_pipeline_config(spec, problem);
    const bool model_search = spec.search == "bayes";
    const std::size_t boundary =
        config.search.seed_steps.size() + config.search.warmup;
    cafqa::CafqaPipeline pipeline(std::move(config));

    double stage_begin = 0.0;
    double model_start = -1.0;
    std::size_t progress = 0;
    pipeline.set_observer([&](const PipelineEvent& event) {
        switch (event.event) {
        case PipelineEvent::Kind::StageBegin:
            stage_begin = now_ms();
            model_start = -1.0;
            progress = 0;
            break;
        case PipelineEvent::Kind::Progress:
            ++progress;
            if (model_search && event.stage == "clifford_search" &&
                event.evaluation == boundary) {
                model_start = now_ms();
            }
            break;
        case PipelineEvent::Kind::StageEnd: {
            const double end = now_ms();
            if (event.stage == "clifford_search") {
                const std::size_t search = add("search", 1, stage_begin, end);
                const double split = model_start < 0.0 ? end : model_start;
                add("search_eval", search, stage_begin, split);
                add("search_model", search, split, end);
                out.search_evals = progress;
                if (model_start >= 0.0) {
                    out.warmup_evals = boundary;
                    out.model_iters = progress - boundary;
                }
            } else if (event.stage == "t_boost") {
                add("tboost", 1, stage_begin, end);
                out.tboost_evals = progress;
            } else {
                add("tune", 1, stage_begin, end);
                out.tune_evals = progress;
            }
            break;
        }
        }
    });
    add("core_setup", 1, built, now_ms());

    pipeline.run_clifford_search();
    if (spec.max_t > 0) {
        pipeline.run_t_boost(spec.max_t);
        record.t_gates = pipeline.t_boost_result().t_positions.size();
    }
    if (spec.tune > 0) {
        record.tuned_value = pipeline.run_vqa_tune().final_value;
        record.tune_stop_reason =
            to_string(pipeline.tune_result().stop_reason);
    }

    const double glue = now_ms();
    const cafqa::CafqaResult& search = pipeline.clifford_result();
    record.best_objective = pipeline.t_boost_done()
                                ? pipeline.t_boost_result().best_objective
                                : search.best_objective;
    record.cafqa_energy = pipeline.best_energy();
    record.best_steps = pipeline.best_steps();
    record.evaluations = search.history.size();
    record.evaluations_to_best = search.evaluations_to_best;
    record.stop_reason = to_string(search.stop_reason);
    out.search_history = search.history;
    const double exact_start = now_ms();
    add("core_record", 1, glue, exact_start);
    if (spec.exact) {
        record.exact_energy = problem.exact_energy();
    }
    const double exact_end = now_ms();
    add("exact_solve", 1, exact_start, exact_end);
    if (record.exact_energy.has_value()) {
        const double threshold = *record.exact_energy + 1.6e-3;
        for (std::size_t i = 0; i < search.best_trace.size(); ++i) {
            if (search.best_trace[i] <= threshold) {
                record.evals_to_accuracy = i + 1;
                break;
            }
        }
    }
    record.ok = true;
    record.wall_ms = ms_between(start, Clock::now());
    out.record = std::move(record);

    const double end = now_ms();
    add("core_record", 1, exact_end, end);
    out.spans.push_back(Span{"job", 1, 0, call, end});
    out.latency_ms = end - call;
    return out;
}

ForestProbe
probe_forest(std::size_t width, std::size_t rows,
             const std::vector<double>& history, std::uint64_t seed)
{
    ForestProbe probe{width, rows, 0.0, 0.0};
    std::uint64_t state = seed;
    const auto random_row = [&state, width] {
        std::vector<double> row(width);
        for (double& value : row) {
            value = draw(state, 4);
        }
        return row;
    };
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (std::size_t r = 0; r < rows; ++r) {
        x.push_back(random_row());
        y.push_back(history.empty() ? 0.0 : history[r % history.size()]);
    }
    // One acquisition round's candidate pool (256 random + 128
    // mutations in the optimizer's defaults).
    std::vector<std::vector<double>> candidates;
    for (std::size_t c = 0; c < 384; ++c) {
        candidates.push_back(random_row());
    }

    constexpr int kRepeats = 3;
    std::vector<double> fits;
    std::vector<double> predicts;
    for (int rep = 0; rep < kRepeats; ++rep) {
        cafqa::RandomForest forest;
        const auto fit_start = Clock::now();
        forest.fit(x, y, seed + 17 * static_cast<std::uint64_t>(rep + 1));
        const auto fit_end = Clock::now();
        for (const auto& candidate : candidates) {
            g_sink = forest.predict_with_variance(candidate).mean;
        }
        const auto predict_end = Clock::now();
        fits.push_back(ms_between(fit_start, fit_end));
        predicts.push_back(1e3 * ms_between(fit_end, predict_end) /
                           static_cast<double>(candidates.size()));
    }
    probe.fit_ms = median(fits);
    probe.predict_us = median(predicts);
    return probe;
}

EvalProbe
probe_evaluation(const cafqa::problems::Problem& problem, std::uint64_t seed)
{
    EvalProbe probe;
    probe.problem_key = problem.key;
    cafqa::BackendConfig config;
    config.kind = "clifford";
    config.ansatz = problem.ansatz;
    const std::unique_ptr<cafqa::DiscreteBackend> backend =
        cafqa::make_discrete_backend(config);

    // The search gathers the observables once and evaluates every
    // candidate as prepare + expectations + combine; so does the probe.
    const std::vector<cafqa::PauliSum> observables =
        problem.objective.gather_observables();
    constexpr std::size_t kPoints = 64;
    std::uint64_t state = seed;
    std::vector<double> prepares;
    std::vector<double> expectations;
    std::vector<double> objectives;
    for (std::size_t p = 0; p < kPoints; ++p) {
        std::vector<int> steps(problem.ansatz.num_params());
        for (int& step : steps) {
            step = draw(state, 4);
        }
        const auto t0 = Clock::now();
        backend->prepare(steps);
        const auto t1 = Clock::now();
        g_sink = backend->expectation(problem.hamiltonian());
        const auto t2 = Clock::now();
        g_sink = problem.objective.combine(backend->expectations(observables));
        const auto t3 = Clock::now();
        prepares.push_back(1e3 * ms_between(t0, t1));
        expectations.push_back(1e3 * ms_between(t1, t2));
        objectives.push_back(1e3 * (ms_between(t0, t1) + ms_between(t2, t3)));
    }
    probe.prepare_us = median(prepares);
    probe.expectation_us = median(expectations);
    probe.objective_us = median(objectives);
    return probe;
}

} // namespace perfbench
