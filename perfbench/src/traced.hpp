/**
 * @file
 * The traced path: one RunSpec executed by the benchmark's own code
 * through the same public calls `execute_run_spec` makes
 * (`problems::make_problem`, `make_pipeline_config`, the three
 * `CafqaPipeline` stages, `Problem::exact_energy`), with a span around
 * each call and the pipeline's Progress stamps splitting the Bayesian
 * search into its warm-up and its model-guided phase. The record it
 * assembles must equal the untraced record field by field apart from
 * `wall_ms`; the harness checks that.
 *
 * Also the layer probes: `RandomForest::fit`/`predict_with_variance`
 * replayed on a recorded search history, and one `expectation` call
 * on a clifford backend at random step points.
 */
#ifndef CAFQA_PERFBENCH_TRACED_HPP
#define CAFQA_PERFBENCH_TRACED_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "problems/problem.hpp"

namespace perfbench {

/** One closed interval of work. Ids are job-local; id 1 is the job's
 *  root span, parent 0 means none. */
struct Span
{
    std::string name;
    std::size_t id = 0;
    std::size_t parent = 0;
    double start_ms = 0.0;
    double end_ms = 0.0;
};

/** Everything the traced execution of one spec observed. */
struct TracedJob
{
    cafqa::RunRecord record;
    /** Call to return of the whole job, problem build included. */
    double latency_ms = 0.0;
    /** Progress events per stage. */
    std::size_t search_evals = 0;
    std::size_t tboost_evals = 0;
    std::size_t tune_evals = 0;
    /** Model-guided iterations (Progress events after the warm-up
     *  boundary; 0 for searches without a surrogate). */
    std::size_t model_iters = 0;
    /** Recorded evaluations before the first model-guided one (prior
     *  seeds + random warm-up); 0 for searches without a surrogate. */
    std::size_t warmup_evals = 0;
    /** The search's recorded objective history (the probe replays it). */
    std::vector<double> search_history;
    std::shared_ptr<const cafqa::problems::Problem> problem;
    std::vector<Span> spans;
};

/** Execute `spec` on the traced path. Throws what the public calls
 *  throw. */
TracedJob run_traced_job(const cafqa::RunSpec& spec);

/** `RandomForest` cost at one training-set shape. */
struct ForestProbe
{
    std::size_t width = 0;
    std::size_t rows = 0;
    /** Median of repeated fits. */
    double fit_ms = 0.0;
    /** Median per-call `predict_with_variance` time. */
    double predict_us = 0.0;
};

/**
 * Replay the surrogate on `rows` training points of `width` quarter-
 * turn features: the targets cycle through `history` (a recorded
 * objective history), the rows are drawn uniformly from {0,1,2,3}^width
 * (the warm-up distribution) with `seed`. Forest options are the
 * optimizer defaults.
 */
ForestProbe probe_forest(std::size_t width, std::size_t rows,
                         const std::vector<double>& history,
                         std::uint64_t seed);

/** Per-call evaluation cost on one problem's clifford backend. */
struct EvalProbe
{
    std::string problem_key;
    /** Median `prepare(steps)` time. */
    double prepare_us = 0.0;
    /** Median `expectation(hamiltonian)` time on a prepared state. */
    double expectation_us = 0.0;
    /** Median prepare + full objective (Hamiltonian and penalties) —
     *  one search evaluation. */
    double objective_us = 0.0;
};

EvalProbe probe_evaluation(const cafqa::problems::Problem& problem,
                           std::uint64_t seed);

} // namespace perfbench

#endif // CAFQA_PERFBENCH_TRACED_HPP
