/**
 * @file
 * CAFQA search option and result types (paper Section 3, red box of
 * Fig. 4: Bayesian optimization over the discrete Clifford parameter
 * space, with every candidate evaluated exactly and noise-free by the
 * stabilizer simulator) and `exhaustive_clifford_search`, the
 * brute-force reference the searches are certified against.
 *
 * The stages themselves run through the `CafqaPipeline` facade
 * (`core/pipeline.hpp`), which consumes `CafqaOptions` and produces
 * `CafqaResult` and `TBoostResult`.
 */
#ifndef CAFQA_CORE_CAFQA_DRIVER_HPP
#define CAFQA_CORE_CAFQA_DRIVER_HPP

#include "circuit/circuit.hpp"
#include "core/objective.hpp"
#include "opt/bayes_opt.hpp"

namespace cafqa {

/** CAFQA search controls (forwarded to the Bayesian optimizer). */
struct CafqaOptions
{
    /** Random warm-up evaluations (paper Fig. 7 uses 1000). */
    std::size_t warmup = 200;
    /** Model-guided search evaluations. */
    std::size_t iterations = 300;
    std::uint64_t seed = 2023;
    /** Early stop after this many non-improving evaluations (0 = off). */
    std::size_t stall_limit = 0;
    /** Step assignments evaluated before the warm-up (prior injection).
     *  Seeding the Hartree-Fock point guarantees CAFQA never returns a
     *  state worse than the HF baseline — the paper's "equal to or
     *  better than" property. */
    std::vector<std::vector<int>> seed_steps;
    /** Forwarded knobs for the underlying optimizer. */
    BayesOptOptions bayes;
};

/** Search outcome: the Clifford initialization for subsequent VQA. */
struct CafqaResult
{
    /** Best quarter-turn assignment (one entry per ansatz parameter). */
    std::vector<int> best_steps;
    /** Bare Hamiltonian expectation at the best steps. */
    double best_energy = 0.0;
    /** Objective (energy + penalties) at the best steps. */
    double best_objective = 0.0;
    /** Objective of every evaluation in order. */
    std::vector<double> history;
    /** Running best objective. */
    std::vector<double> best_trace;
    /** Evaluation count at which the best configuration appeared
     *  (Fig. 15 metric). */
    std::size_t evaluations_to_best = 0;
    std::size_t num_parameters = 0;
    /** Why the search ended (budget, target-value early exit, ...). */
    StopReason stop_reason = StopReason::BudgetExhausted;
};

/**
 * Outcome of the greedy Clifford + kT boost stage (paper Section 8 /
 * Fig. 16). When no T insertion improves the objective, `t_positions`
 * is empty and the fields echo the Clifford-stage optimum over the
 * unmodified ansatz.
 */
struct TBoostResult
{
    /** Rotation-slot indices where T gates were inserted, in acceptance
     *  order. */
    std::vector<std::size_t> t_positions;
    /** Best quarter-turn assignment over `circuit`. */
    std::vector<int> best_steps;
    /** Bare Hamiltonian expectation at the best steps. */
    double best_energy = 0.0;
    /** Objective (energy + penalties) at the best steps. */
    double best_objective = 0.0;
    /** The ansatz with the accepted T gates inserted. */
    Circuit circuit;
};

/**
 * Exhaustive enumeration of the 4^num_params Clifford space — tractable
 * for small ansatze (<= 12 parameters) and used to certify that the
 * Bayesian search found the true Clifford optimum. Fanned out across
 * the shared thread pool with per-worker backend clones; the result is
 * identical to a serial ascending scan (first code achieving the
 * minimum wins).
 */
CafqaResult exhaustive_clifford_search(const Circuit& ansatz,
                                       const VqaObjective& objective);

} // namespace cafqa

#endif // CAFQA_CORE_CAFQA_DRIVER_HPP
