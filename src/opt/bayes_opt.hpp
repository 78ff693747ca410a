/**
 * @file
 * Discrete Bayesian optimization over categorical parameter spaces —
 * CAFQA's search engine (paper Section 5, replacing HyperMapper).
 *
 * The loop alternates a random-forest surrogate fit with a greedy
 * acquisition over a candidate pool (uniform random samples plus local
 * mutations of the best configurations found so far), after an initial
 * random warm-up phase (Fig. 7: "the first 1000 iterations are a warm-up
 * period").
 *
 * `BayesOptimizer` is the `DiscreteOptimizer` implementation (registry
 * key "bayes").
 */
#ifndef CAFQA_OPT_BAYES_OPT_HPP
#define CAFQA_OPT_BAYES_OPT_HPP

#include <functional>
#include <vector>

#include "opt/optimizer.hpp"
#include "opt/random_forest.hpp"

namespace cafqa {

/** Bayesian optimization controls. */
struct BayesOptOptions
{
    /** Random-sampling warm-up evaluations. */
    std::size_t warmup = 200;
    /** Model-guided evaluations after warm-up. */
    std::size_t iterations = 300;
    std::uint64_t seed = 2023;
    /** Uniform random candidates per acquisition round. */
    std::size_t random_candidates = 256;
    /** Mutated candidates per acquisition round (from top configs). */
    std::size_t mutation_candidates = 128;
    /** Top configurations used as mutation seeds. */
    std::size_t elite_size = 8;
    /** Probability of taking a random candidate instead of the greedy
     *  argmin (exploration). */
    double epsilon_random = 0.05;
    /** Forest refit cadence (1 = every iteration). */
    std::size_t refit_every = 1;
    ForestOptions forest;
    /** Stop early after this many non-improving iterations (0 = off). */
    std::size_t stall_limit = 0;
    /** Configurations evaluated before the random warm-up (prior
     *  injection — e.g. the Hartree-Fock point, which guarantees the
     *  search result never falls behind the HF baseline). Merged with
     *  `SearchContext::seed_configs` (options first, duplicates
     *  skipped). */
    std::vector<std::vector<int>> seed_configs;
    /** Optional progress callback (evaluation index, current best);
     *  invoked in addition to `SearchContext::progress`. */
    std::function<void(std::size_t, double)> progress;
    /**
     * Optional batched evaluator for the warm-up phase: given a block of
     * configurations, return their objective values in order. The warm-up
     * configurations are generated up front with the same RNG/dedup
     * sequence as the serial path and the results are recorded in
     * generation order, so the search trajectory is bit-identical to the
     * serial path — but the block can be fanned out across a thread pool
     * (the objective must then be safe to evaluate concurrently, e.g. on
     * per-thread backend clones). `SearchContext::batch` takes
     * precedence when both are set.
     */
    std::function<std::vector<double>(const std::vector<std::vector<int>>&)>
        warmup_batch;
};

/** Random-forest Bayesian optimization (registry key "bayes"). */
class BayesOptimizer final : public DiscreteOptimizer
{
  public:
    explicit BayesOptimizer(BayesOptOptions options = {});

    std::string_view name() const override { return "bayes"; }

    OptimizeOutcome minimize(const DiscreteObjective& objective,
                             const DiscreteSpace& space,
                             const StoppingCriteria& criteria = {},
                             const SearchContext& context = {}) override;

  private:
    BayesOptOptions options_;
};

} // namespace cafqa

#endif // CAFQA_OPT_BAYES_OPT_HPP
