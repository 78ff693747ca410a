// Tests for the optimization substrate: the Optimizer interfaces and
// registry, a contract suite run over every registered optimizer,
// Nelder-Mead, SPSA, regression trees/forests, the discrete Bayesian
// optimizer, and the unguided baselines.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "opt/bayes_opt.hpp"
#include "opt/nelder_mead.hpp"
#include "opt/optimizer_registry.hpp"
#include "opt/search_baselines.hpp"
#include "opt/simulated_annealing.hpp"
#include "opt/spsa.hpp"

namespace cafqa {
namespace {

TEST(NelderMead, Quadratic)
{
    auto f = [](const std::vector<double>& x) {
        return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0);
    };
    const OptimizeOutcome r = NelderMeadOptimizer().minimize(f, {0.0, 0.0});
    EXPECT_NEAR(r.best_x[0], 1.0, 1e-5);
    EXPECT_NEAR(r.best_x[1], -2.0, 1e-5);
    EXPECT_LT(r.best_value, 1e-9);
    EXPECT_EQ(r.stop_reason, StopReason::Converged);
}

TEST(NelderMead, Rosenbrock)
{
    auto f = [](const std::vector<double>& x) {
        const double a = 1.0 - x[0];
        const double b = x[1] - x[0] * x[0];
        return a * a + 100.0 * b * b;
    };
    const OptimizeOutcome r =
        NelderMeadOptimizer({.max_evaluations = 5000, .f_tolerance = 1e-14,
                             .initial_step = 0.5})
            .minimize(f, {-1.2, 1.0});
    EXPECT_NEAR(r.best_x[0], 1.0, 1e-3);
    EXPECT_NEAR(r.best_x[1], 1.0, 1e-3);
}

TEST(Spsa, NoiselessQuadratic)
{
    auto f = [](const std::vector<double>& x) {
        double s = 0.0;
        for (const double v : x) {
            s += (v - 0.5) * (v - 0.5);
        }
        return s;
    };
    const OptimizeOutcome r = SpsaOptimizer({.iterations = 800,
                                             .a = 0.5,
                                             .c = 0.1,
                                             .alpha = 0.602,
                                             .gamma = 0.101,
                                             .stability = 10.0,
                                             .seed = 5})
                                  .minimize(f, {3.0, -2.0, 1.0});
    EXPECT_LT(r.best_value, 1e-2);
    // Start-point value plus one recorded value per iteration; the +/-
    // probes are counted but not recorded.
    EXPECT_EQ(r.history.size(), 801u);
    EXPECT_EQ(r.evaluations, 1u + 3u * 800u);
}

TEST(Spsa, NoisyObjectiveStillDescends)
{
    Rng noise(3);
    auto f = [&](const std::vector<double>& x) {
        double s = 0.0;
        for (const double v : x) {
            s += v * v;
        }
        return s + noise.normal(0.0, 0.01);
    };
    const OptimizeOutcome r =
        SpsaOptimizer({.iterations = 500}).minimize(f, {2.0, 2.0});
    EXPECT_LT(r.best_value, 0.5);
}

TEST(DecisionTree, FitsPiecewiseConstantExactly)
{
    // y = 1 if x0 <= 0.5 else 3.
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 32; ++i) {
        const double v = i / 31.0;
        x.push_back({v});
        y.push_back(v <= 0.5 ? 1.0 : 3.0);
    }
    DecisionTree tree;
    Rng rng(1);
    tree.fit(x, y, rng, {.max_depth = 4, .min_samples_leaf = 1,
                         .feature_subset = 0});
    EXPECT_NEAR(tree.predict({0.2}), 1.0, 1e-12);
    EXPECT_NEAR(tree.predict({0.9}), 3.0, 1e-12);
}

TEST(DecisionTree, DiscreteFeatures)
{
    // y = x0 XOR x1 on {0,1}^2 — needs depth 2.
    std::vector<std::vector<double>> x = {
        {0, 0}, {0, 1}, {1, 0}, {1, 1},
        {0, 0}, {0, 1}, {1, 0}, {1, 1}};
    std::vector<double> y = {0, 1, 1, 0, 0, 1, 1, 0};
    DecisionTree tree;
    Rng rng(2);
    tree.fit(x, y, rng, {.max_depth = 4, .min_samples_leaf = 1,
                         .feature_subset = 0});
    EXPECT_NEAR(tree.predict({0, 1}), 1.0, 1e-12);
    EXPECT_NEAR(tree.predict({1, 1}), 0.0, 1e-12);
}

TEST(RandomForest, PredictsSmoothFunction)
{
    Rng data_rng(7);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 400; ++i) {
        const double a = data_rng.uniform_real(0, 3);
        const double b = data_rng.uniform_real(0, 3);
        x.push_back({a, b});
        y.push_back(a * a + b);
    }
    RandomForest forest;
    forest.fit(x, y, 42, {.num_trees = 40, .tree = {}, .bootstrap_fraction = 1.0});
    double mse = 0.0;
    for (int i = 0; i < 50; ++i) {
        const double a = 0.05 + (i % 10) * 0.3;
        const double b = 0.05 + (i / 10) * 0.6;
        const double pred = forest.predict({a, b});
        mse += (pred - (a * a + b)) * (pred - (a * a + b));
    }
    EXPECT_LT(mse / 50.0, 0.5);
}

TEST(RandomForest, VarianceIsNonnegativeAndInformative)
{
    std::vector<std::vector<double>> x = {{0}, {1}, {2}, {3}};
    std::vector<double> y = {0, 1, 2, 3};
    RandomForest forest;
    forest.fit(x, y, 9, {.num_trees = 16, .tree = {.max_depth = 3,
                                                   .min_samples_leaf = 1,
                                                   .feature_subset = 0},
                         .bootstrap_fraction = 1.0});
    const ForestPrediction p = forest.predict_with_variance({1.5});
    EXPECT_GE(p.variance, 0.0);
    EXPECT_GT(p.mean, 0.0);
    EXPECT_LT(p.mean, 3.0);
}

// ---- Split-order oracle --------------------------------------------
//
// The comparison-sort tree the counting-sort split search replaced,
// kept verbatim as the reference: every node sorts (value, index) pairs
// per feature. DecisionTree and RandomForest must reproduce it bit for
// bit — same nodes, same thresholds, same floating-point sums, same RNG
// draws.

class SortSplitTree
{
  public:
    void fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y, Rng& rng,
             const TreeOptions& options)
    {
        nodes_.clear();
        std::vector<std::size_t> indices(x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
            indices[i] = i;
        }
        build(x, y, indices, 0, rng, options);
    }

    double predict(const std::vector<double>& x) const
    {
        std::size_t node = 0;
        while (nodes_[node].feature >= 0) {
            const auto f = static_cast<std::size_t>(nodes_[node].feature);
            node = static_cast<std::size_t>(
                (x[f] <= nodes_[node].threshold) ? nodes_[node].left
                                                 : nodes_[node].right);
        }
        return nodes_[node].value;
    }

    std::size_t node_count() const { return nodes_.size(); }

  private:
    struct Node
    {
        int feature = -1;
        double threshold = 0.0;
        double value = 0.0;
        int left = -1;
        int right = -1;
    };

    static double mean_of(const std::vector<double>& y,
                          const std::vector<std::size_t>& idx)
    {
        double sum = 0.0;
        for (const std::size_t i : idx) {
            sum += y[i];
        }
        return sum / static_cast<double>(idx.size());
    }

    int build(const std::vector<std::vector<double>>& x,
              const std::vector<double>& y,
              std::vector<std::size_t>& indices, std::size_t depth,
              Rng& rng, const TreeOptions& options)
    {
        const int node_id = static_cast<int>(nodes_.size());
        nodes_.push_back(Node{});
        nodes_[static_cast<std::size_t>(node_id)].value = mean_of(y, indices);

        if (depth >= options.max_depth ||
            indices.size() < 2 * options.min_samples_leaf) {
            return node_id;
        }

        const std::size_t num_features = x[0].size();
        std::size_t subset = options.feature_subset;
        if (subset == 0 || subset > num_features) {
            subset = num_features;
        }
        const std::vector<std::size_t> features =
            rng.sample_without_replacement(num_features, subset);

        double best_score = std::numeric_limits<double>::infinity();
        int best_feature = -1;
        double best_threshold = 0.0;

        std::vector<std::pair<double, std::size_t>> sorted;
        for (const std::size_t f : features) {
            sorted.clear();
            for (const std::size_t i : indices) {
                sorted.emplace_back(x[i][f], i);
            }
            std::sort(sorted.begin(), sorted.end());

            double left_sum = 0.0;
            double left_sq = 0.0;
            double right_sum = 0.0;
            double right_sq = 0.0;
            for (const auto& [value, i] : sorted) {
                (void)value;
                right_sum += y[i];
                right_sq += y[i] * y[i];
            }
            for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
                const double yi = y[sorted[k].second];
                left_sum += yi;
                left_sq += yi * yi;
                right_sum -= yi;
                right_sq -= yi * yi;
                if (sorted[k].first == sorted[k + 1].first) {
                    continue;
                }
                const std::size_t nl = k + 1;
                const std::size_t nr = sorted.size() - nl;
                if (nl < options.min_samples_leaf ||
                    nr < options.min_samples_leaf) {
                    continue;
                }
                const double sse_left =
                    left_sq - left_sum * left_sum / static_cast<double>(nl);
                const double sse_right = right_sq - right_sum * right_sum /
                                                        static_cast<double>(nr);
                const double score = sse_left + sse_right;
                if (score < best_score) {
                    best_score = score;
                    best_feature = static_cast<int>(f);
                    best_threshold =
                        0.5 * (sorted[k].first + sorted[k + 1].first);
                }
            }
        }

        if (best_feature < 0) {
            return node_id;
        }

        std::vector<std::size_t> left_idx;
        std::vector<std::size_t> right_idx;
        for (const std::size_t i : indices) {
            if (x[i][static_cast<std::size_t>(best_feature)] <=
                best_threshold) {
                left_idx.push_back(i);
            } else {
                right_idx.push_back(i);
            }
        }
        if (left_idx.empty() || right_idx.empty()) {
            return node_id;
        }

        nodes_[static_cast<std::size_t>(node_id)].feature = best_feature;
        nodes_[static_cast<std::size_t>(node_id)].threshold = best_threshold;
        const int left = build(x, y, left_idx, depth + 1, rng, options);
        const int right = build(x, y, right_idx, depth + 1, rng, options);
        nodes_[static_cast<std::size_t>(node_id)].left = left;
        nodes_[static_cast<std::size_t>(node_id)].right = right;
        return node_id;
    }

    std::vector<Node> nodes_;
};

/** The forest over SortSplitTree: bootstraps drawn from the same Rng
 *  sequence, each tree fitted on copied rows. */
class SortSplitForest
{
  public:
    void fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y, std::uint64_t seed,
             ForestOptions options)
    {
        Rng rng(seed);
        trees_.assign(options.num_trees, SortSplitTree{});
        if (options.tree.feature_subset == 0) {
            options.tree.feature_subset = std::max<std::size_t>(
                1, static_cast<std::size_t>(std::round(
                       std::sqrt(static_cast<double>(x[0].size())))));
        }
        const auto sample_size = static_cast<std::size_t>(
            std::max(1.0, options.bootstrap_fraction *
                              static_cast<double>(x.size())));
        std::vector<std::vector<double>> bx;
        std::vector<double> by;
        for (auto& tree : trees_) {
            bx.clear();
            by.clear();
            for (std::size_t s = 0; s < sample_size; ++s) {
                const auto i = static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(x.size()) - 1));
                bx.push_back(x[i]);
                by.push_back(y[i]);
            }
            tree.fit(bx, by, rng, options.tree);
        }
    }

    ForestPrediction predict_with_variance(const std::vector<double>& x) const
    {
        double sum = 0.0;
        double sq = 0.0;
        for (const auto& tree : trees_) {
            const double p = tree.predict(x);
            sum += p;
            sq += p * p;
        }
        const double n = static_cast<double>(trees_.size());
        ForestPrediction out;
        out.mean = sum / n;
        out.variance = std::max(0.0, sq / n - out.mean * out.mean);
        return out;
    }

  private:
    std::vector<SortSplitTree> trees_;
};

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

using Rows = std::vector<std::vector<double>>;

/** Rows of `width` features drawn from `values`, targets N(0, 1). */
void
draw_rows(Rng& rng, std::size_t n, std::size_t width,
          const std::vector<double>& values, Rows& x, std::vector<double>& y)
{
    x.clear();
    y.clear();
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> row(width);
        for (double& v : row) {
            v = values[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(values.size()) - 1))];
        }
        x.push_back(std::move(row));
        y.push_back(rng.normal());
    }
}

/** Probe rows: every training row, then rows mixing the training
 *  values, the half-steps between quarter turns (the thresholds a
 *  quarter-turn tree holds) and uniform reals; 2000 at least. */
Rows
probe_rows(const Rows& x, std::uint64_t seed)
{
    Rng rng(seed);
    Rows probes = x;
    const std::size_t width = x[0].size();
    while (probes.size() < x.size() + 2000) {
        std::vector<double> row(width);
        for (std::size_t f = 0; f < width; ++f) {
            double& v = row[f];
            switch (rng.uniform_int(0, 2)) {
            case 0:
                v = x[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(x.size()) - 1))][f];
                break;
            case 1:
                v = 0.5 * static_cast<double>(rng.uniform_int(-1, 7));
                break;
            default:
                v = rng.uniform_real(-3.0, 4.0);
            }
        }
        probes.push_back(std::move(row));
    }
    return probes;
}

/** Fit both trees from the same Rng state and compare them exactly. */
void
expect_tree_matches_oracle(const Rows& x, const std::vector<double>& y,
                           const TreeOptions& options, std::uint64_t seed)
{
    SortSplitTree oracle;
    Rng oracle_rng(seed);
    oracle.fit(x, y, oracle_rng, options);
    DecisionTree tree;
    Rng rng(seed);
    tree.fit(x, y, rng, options);

    ASSERT_EQ(tree.node_count(), oracle.node_count());
    // Same number of feature-subset draws.
    ASSERT_EQ(rng.engine()(), oracle_rng.engine()());
    for (const auto& probe : probe_rows(x, seed + 1)) {
        ASSERT_EQ(bits(tree.predict(probe)), bits(oracle.predict(probe)));
    }
}

TEST(DecisionTree, CountingSortMatchesSortOracleOnQuarterTurnGrids)
{
    const std::vector<double> steps = {0.0, 1.0, 2.0, 3.0};
    Rng data(11);
    Rows x;
    std::vector<double> y;
    for (const std::size_t width : {1u, 16u, 48u}) {
        for (const std::size_t n : {1u, 2u, 3u, 5u, 200u, 500u}) {
            draw_rows(data, n, width, steps, x, y);
            for (const std::size_t leaf : {1u, 2u}) {
                for (const std::size_t depth : {1u, 16u}) {
                    for (const std::size_t subset : {0u, 4u}) {
                        SCOPED_TRACE("width " + std::to_string(width) +
                                     " n " + std::to_string(n) + " leaf " +
                                     std::to_string(leaf) + " depth " +
                                     std::to_string(depth) + " subset " +
                                     std::to_string(subset));
                        expect_tree_matches_oracle(
                            x, y,
                            {.max_depth = depth,
                             .min_samples_leaf = leaf,
                             .feature_subset = subset},
                            width * 1000 + n);
                    }
                }
            }
        }
    }
}

TEST(DecisionTree, CountingSortMatchesSortOracleOnDuplicateRows)
{
    // 400 rows drawn from 6 distinct ones, each with its own target
    // noise: long tie runs whose order decides the running sums.
    Rng data(12);
    Rows distinct;
    std::vector<double> unused;
    draw_rows(data, 6, 16, {0.0, 1.0, 2.0, 3.0}, distinct, unused);
    Rows x;
    std::vector<double> y;
    for (int i = 0; i < 400; ++i) {
        x.push_back(distinct[static_cast<std::size_t>(data.uniform_int(0, 5))]);
        y.push_back(data.normal(0.0, 1e3));
    }
    for (const std::size_t leaf : {1u, 2u}) {
        for (const std::size_t depth : {1u, 16u}) {
            SCOPED_TRACE("leaf " + std::to_string(leaf) + " depth " +
                         std::to_string(depth));
            expect_tree_matches_oracle(
                x, y, {.max_depth = depth, .min_samples_leaf = leaf}, 5);
        }
    }
}

TEST(DecisionTree, CountingSortMatchesSortOracleOnContinuousColumns)
{
    Rng data(13);
    // Continuous, then mixed (continuous next to quarter-turn and
    // signed-zero columns), each at a few sizes.
    for (const std::size_t n : {3u, 50u, 300u}) {
        Rows x;
        std::vector<double> y;
        for (std::size_t i = 0; i < n; ++i) {
            x.push_back({data.uniform_real(-2.0, 2.0),
                         data.uniform_real(0.0, 1e-3),
                         data.normal(0.0, 10.0)});
            y.push_back(data.normal());
        }
        for (const std::size_t leaf : {1u, 2u}) {
            for (const std::size_t depth : {1u, 16u}) {
                SCOPED_TRACE("continuous n " + std::to_string(n) + " leaf " +
                             std::to_string(leaf) + " depth " +
                             std::to_string(depth));
                expect_tree_matches_oracle(
                    x, y, {.max_depth = depth, .min_samples_leaf = leaf}, n);
            }
        }

        const std::vector<double> signed_values = {-2.5, -1.0, -0.0, 0.0,
                                                   0.75, 3.0};
        for (std::size_t i = 0; i < n; ++i) {
            x[i].push_back(static_cast<double>(data.uniform_int(0, 3)));
            x[i].push_back(signed_values[static_cast<std::size_t>(
                data.uniform_int(0, 5))]);
            x[i].push_back(data.bernoulli(0.5) ? -0.0 : 0.0);
        }
        for (const std::size_t leaf : {1u, 2u}) {
            for (const std::size_t depth : {1u, 16u}) {
                SCOPED_TRACE("mixed n " + std::to_string(n) + " leaf " +
                             std::to_string(leaf) + " depth " +
                             std::to_string(depth));
                expect_tree_matches_oracle(
                    x, y, {.max_depth = depth, .min_samples_leaf = leaf},
                    n + 1);
            }
        }
    }
}

TEST(RandomForest, BootstrapByPositionMatchesCopiedRowOracle)
{
    Rng data(14);
    Rows x;
    std::vector<double> y;
    struct Case
    {
        std::size_t width;
        std::size_t n;
        std::vector<double> values;
        ForestOptions options;
    };
    const std::vector<Case> cases = {
        {16, 200, {0.0, 1.0, 2.0, 3.0}, {}},
        {48, 500, {0.0, 1.0, 2.0, 3.0}, {}},
        {8, 120, {-1.5, -0.0, 0.0, 0.25, 2.0},
         {.num_trees = 7, .tree = {}, .bootstrap_fraction = 0.6}},
        {4, 90, {0.0, 1.0, 2.0, 3.0},
         {.num_trees = 5,
          .tree = {.max_depth = 3, .min_samples_leaf = 1,
                   .feature_subset = 0},
          .bootstrap_fraction = 1.5}},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE("width " + std::to_string(c.width) + " n " +
                     std::to_string(c.n));
        draw_rows(data, c.n, c.width, c.values, x, y);
        SortSplitForest oracle;
        oracle.fit(x, y, 77, c.options);
        RandomForest forest;
        forest.fit(x, y, 77, c.options);
        ASSERT_EQ(forest.num_trees(), c.options.num_trees);
        for (const auto& probe : probe_rows(x, c.n)) {
            const ForestPrediction got = forest.predict_with_variance(probe);
            const ForestPrediction want = oracle.predict_with_variance(probe);
            ASSERT_EQ(bits(got.mean), bits(want.mean));
            ASSERT_EQ(bits(got.variance), bits(want.variance));
        }
    }
}

TEST(BayesOpt, FindsDiscreteOptimum)
{
    // Separable objective over {0..3}^6, optimum at all-2s.
    auto f = [](const std::vector<int>& config) {
        double s = 0.0;
        for (const int v : config) {
            s += (v - 2) * (v - 2);
        }
        return s;
    };
    DiscreteSpace space;
    space.cardinalities.assign(6, 4);
    const OptimizeOutcome r =
        BayesOptimizer({.warmup = 40, .iterations = 120, .seed = 3})
            .minimize(f, space);
    EXPECT_EQ(r.best_value, 0.0);
    for (const int v : r.best_config) {
        EXPECT_EQ(v, 2);
    }
}

TEST(BayesOpt, TraceIsMonotoneAndConsistent)
{
    auto f = [](const std::vector<int>& config) {
        return static_cast<double>(config[0] * 7 + config[1]);
    };
    DiscreteSpace space;
    space.cardinalities = {4, 4};
    const OptimizeOutcome r =
        BayesOptimizer({.warmup = 8, .iterations = 20, .seed = 1})
            .minimize(f, space);
    ASSERT_EQ(r.best_trace.size(), r.history.size());
    for (std::size_t i = 1; i < r.best_trace.size(); ++i) {
        EXPECT_LE(r.best_trace[i], r.best_trace[i - 1] + 1e-15);
        EXPECT_LE(r.best_trace[i], r.history[i] + 1e-15);
    }
    EXPECT_GE(r.evaluations_to_best, 1u);
    EXPECT_NEAR(r.history[r.evaluations_to_best - 1], r.best_value, 1e-15);
}

TEST(BayesOpt, BeatsShortRandomSearchOnStructuredProblem)
{
    // A correlated objective where model guidance should help: count
    // matches to a hidden pattern, with interactions between neighbors.
    const std::vector<int> hidden = {1, 3, 0, 2, 1, 3, 0, 2, 1, 3};
    auto f = [&](const std::vector<int>& config) {
        double s = 0.0;
        for (std::size_t i = 0; i < config.size(); ++i) {
            s += std::abs(config[i] - hidden[i]);
            if (i > 0 && config[i] == config[i - 1]) {
                s += 0.5;
            }
        }
        return s;
    };
    DiscreteSpace space;
    space.cardinalities.assign(10, 4);

    const OptimizeOutcome guided =
        BayesOptimizer({.warmup = 60, .iterations = 240, .seed = 11})
            .minimize(f, space);
    const OptimizeOutcome random_only =
        BayesOptimizer({.warmup = 300, .iterations = 0, .seed = 11})
            .minimize(f, space);
    EXPECT_LT(guided.best_value, random_only.best_value + 1e-12);
}

TEST(BayesOpt, StallLimitStopsEarly)
{
    auto f = [](const std::vector<int>& config) {
        return static_cast<double>(config[0]);
    };
    DiscreteSpace space;
    space.cardinalities = {2};
    const OptimizeOutcome r =
        BayesOptimizer(
            {.warmup = 2, .iterations = 500, .seed = 1, .stall_limit = 5})
            .minimize(f, space);
    EXPECT_LT(r.history.size(), 60u);
    EXPECT_EQ(r.best_value, 0.0);
    EXPECT_EQ(r.stop_reason, StopReason::Stalled);
}

TEST(BayesOpt, SeedConfigsAreEvaluatedFirst)
{
    auto f = [](const std::vector<int>& config) {
        return static_cast<double>(config[0] + config[1]);
    };
    DiscreteSpace space;
    space.cardinalities = {4, 4};
    BayesOptOptions options{.warmup = 5, .iterations = 5, .seed = 2};
    options.seed_configs = {{0, 0}};
    const OptimizeOutcome r = BayesOptimizer(options).minimize(f, space);
    EXPECT_EQ(r.best_value, 0.0);
    EXPECT_EQ(r.evaluations_to_best, 1u);
    EXPECT_NEAR(r.history.front(), 0.0, 1e-15);
}

TEST(BayesOpt, SeedConfigValidation)
{
    auto f = [](const std::vector<int>&) { return 0.0; };
    DiscreteSpace space;
    space.cardinalities = {4, 4};
    BayesOptOptions options{.warmup = 2, .iterations = 2, .seed = 2};
    options.seed_configs = {{0, 9}};
    EXPECT_THROW(BayesOptimizer(options).minimize(f, space),
                 std::invalid_argument);
}

TEST(BayesOpt, WarmupNeverDispatchesDuplicateConfigurations)
{
    // On a space small enough that the bounded dedup retries can run
    // out, the warm-up used to dispatch the stale duplicate anyway —
    // evaluating it twice and double-counting it against the budget.
    // Now the exhausted draw is dropped: every configuration is
    // evaluated at most once, in both the serial and batched paths.
    DiscreteSpace space;
    space.cardinalities = {2, 2}; // 4 configurations, warmup 32
    BayesOptOptions options;
    options.warmup = 32;
    options.iterations = 0;
    options.seed = 21;

    auto run = [&](bool batched) {
        std::map<std::vector<int>, int> counts;
        auto objective = [&](const std::vector<int>& config) {
            ++counts[config];
            return static_cast<double>(config[0] * 2 + config[1]);
        };
        SearchContext context;
        if (batched) {
            context.batch =
                [&](const std::vector<std::vector<int>>& block) {
                    std::vector<double> values;
                    values.reserve(block.size());
                    for (const auto& config : block) {
                        values.push_back(objective(config));
                    }
                    return values;
                };
        }
        BayesOptimizer optimizer(options);
        const OptimizeOutcome outcome =
            optimizer.minimize(objective, space, {}, context);
        for (const auto& [config, count] : counts) {
            EXPECT_EQ(count, 1) << "config evaluated " << count
                                << " times in "
                                << (batched ? "batched" : "serial")
                                << " warm-up";
        }
        EXPECT_LE(outcome.evaluations, 4u);
        return outcome;
    };

    const OptimizeOutcome serial = run(false);
    const OptimizeOutcome batched = run(true);
    // The batched path must still mirror the serial trajectory exactly.
    EXPECT_EQ(serial.history, batched.history);
    EXPECT_EQ(serial.best_config, batched.best_config);
}

TEST(SimulatedAnnealing, FindsDiscreteOptimum)
{
    auto f = [](const std::vector<int>& config) {
        double s = 0.0;
        for (const int v : config) {
            s += (v - 1) * (v - 1);
        }
        return s;
    };
    DiscreteSpace space;
    space.cardinalities.assign(6, 4);
    const OptimizeOutcome r =
        SimulatedAnnealingOptimizer(
            {.iterations = 2000, .initial_temperature = 2.0,
             .final_temperature = 1e-3, .seed = 4, .mutations_per_step = 1})
            .minimize(f, space);
    EXPECT_EQ(r.best_value, 0.0);
    EXPECT_EQ(r.history.size(), 2000u);
    // Trace is a running minimum.
    for (std::size_t i = 1; i < r.best_trace.size(); ++i) {
        EXPECT_LE(r.best_trace[i], r.best_trace[i - 1] + 1e-15);
    }
}

TEST(BayesOpt, SpaceSizeAccounting)
{
    DiscreteSpace space;
    space.cardinalities.assign(48, 4);
    EXPECT_NEAR(space.log10_size(), 48 * std::log10(4.0), 1e-12);
}

TEST(ExhaustiveSearch, EnumeratesWholeSpaceAscending)
{
    auto f = [](const std::vector<int>& config) {
        return static_cast<double>(config[0] + 10 * config[1]);
    };
    DiscreteSpace space;
    space.cardinalities = {3, 2};
    ExhaustiveOptimizer optimizer;
    const OptimizeOutcome r = optimizer.minimize(f, space);
    EXPECT_EQ(r.evaluations, 6u);
    EXPECT_EQ(r.stop_reason, StopReason::SpaceExhausted);
    EXPECT_EQ(r.best_value, 0.0);
    EXPECT_EQ(r.best_config, (std::vector<int>{0, 0}));
    // Ascending odometer order: first coordinate fastest.
    EXPECT_EQ(r.history,
              (std::vector<double>{0, 1, 2, 10, 11, 12}));
}

TEST(ExhaustiveSearch, RefusesUnboundedHugeSpace)
{
    DiscreteSpace space;
    space.cardinalities.assign(48, 4);
    ExhaustiveOptimizer optimizer;
    auto f = [](const std::vector<int>&) { return 0.0; };
    EXPECT_THROW(optimizer.minimize(f, space), std::invalid_argument);
    // A budget makes the same space legal.
    StoppingCriteria criteria;
    criteria.max_evaluations = 10;
    const OptimizeOutcome r = optimizer.minimize(f, space, criteria);
    EXPECT_EQ(r.evaluations, 10u);
}

TEST(RandomSearch, BatchPathMatchesSerial)
{
    auto f = [](const std::vector<int>& config) {
        return static_cast<double>(config[0] * 3 + config[1]);
    };
    DiscreteSpace space;
    space.cardinalities = {4, 4, 4};
    RandomSearchOptions options{.samples = 30, .seed = 17};

    RandomSearchOptimizer serial(options);
    const OptimizeOutcome a = serial.minimize(f, space);

    SearchContext context;
    context.batch = [&](const std::vector<std::vector<int>>& block) {
        std::vector<double> values;
        values.reserve(block.size());
        for (const auto& config : block) {
            values.push_back(f(config));
        }
        return values;
    };
    RandomSearchOptimizer batched(options);
    const OptimizeOutcome b = batched.minimize(f, space, {}, context);

    EXPECT_EQ(a.history, b.history);
    EXPECT_EQ(a.best_config, b.best_config);
}

// ---------------------------------------------------------------------
// Contract suite: every registered optimizer, resolved through the
// registry, must recover a planted optimum, honor the stopping
// criteria, keep a consistent monotone trace, evaluate seeds first,
// and be deterministic under a fixed seed.
// ---------------------------------------------------------------------

/** Planted optimum at {1, 3, 0} on {0..3}^3 (64 configurations). */
const std::vector<int> kPlanted = {1, 3, 0};

double
planted_objective(const std::vector<int>& config)
{
    double s = 0.0;
    for (std::size_t i = 0; i < config.size(); ++i) {
        s += std::abs(config[i] - kPlanted[i]);
    }
    return s;
}

DiscreteSpace
planted_space()
{
    DiscreteSpace space;
    space.cardinalities.assign(3, 4);
    return space;
}

/** Budgets sized for the tiny contract problems. */
OptimizerConfig
contract_config(const std::string& kind)
{
    OptimizerConfig config = optimizer_config(kind);
    config.bayes.warmup = 40;
    config.bayes.iterations = 100;
    config.anneal.iterations = 300;
    config.anneal.initial_temperature = 2.0;
    config.random.samples = 300;
    config.nelder_mead.max_evaluations = 600;
    config.spsa = {.iterations = 500,
                   .a = 0.5,
                   .c = 0.1,
                   .alpha = 0.602,
                   .gamma = 0.101,
                   .stability = 10.0,
                   .seed = 5};
    return config;
}

void
expect_trace_consistent(const OptimizeOutcome& r)
{
    ASSERT_FALSE(r.history.empty());
    ASSERT_EQ(r.best_trace.size(), r.history.size());
    for (std::size_t i = 0; i < r.history.size(); ++i) {
        EXPECT_LE(r.best_trace[i],
                  (i ? r.best_trace[i - 1] : r.history[0]) + 1e-15);
        EXPECT_LE(r.best_trace[i], r.history[i] + 1e-15);
    }
    EXPECT_DOUBLE_EQ(r.best_trace.back(), r.best_value);
    EXPECT_GE(r.evaluations, r.history.size());
    ASSERT_GE(r.evaluations_to_best, 1u);
    ASSERT_LE(r.evaluations_to_best, r.history.size());
    EXPECT_DOUBLE_EQ(r.history[r.evaluations_to_best - 1], r.best_value);
}

class DiscreteOptimizerContract
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DiscreteOptimizerContract, RecoversPlantedOptimumWithConsistentTrace)
{
    const auto optimizer =
        make_discrete_optimizer(contract_config(GetParam()));
    const OptimizeOutcome r =
        optimizer->minimize(planted_objective, planted_space());
    EXPECT_EQ(r.best_value, 0.0);
    EXPECT_EQ(r.best_config, kPlanted);
    expect_trace_consistent(r);
}

TEST_P(DiscreteOptimizerContract, RespectsEvaluationBudget)
{
    const auto optimizer =
        make_discrete_optimizer(contract_config(GetParam()));
    StoppingCriteria criteria;
    criteria.max_evaluations = 17;
    const OptimizeOutcome r =
        optimizer->minimize(planted_objective, planted_space(), criteria);
    EXPECT_EQ(r.evaluations, 17u);
    EXPECT_EQ(r.history.size(), 17u);
    EXPECT_EQ(r.stop_reason, StopReason::BudgetExhausted);
}

TEST_P(DiscreteOptimizerContract, TargetValueStopsEarly)
{
    const auto optimizer =
        make_discrete_optimizer(contract_config(GetParam()));
    StoppingCriteria criteria;
    criteria.max_evaluations = 300;
    criteria.target_value = 2.0;
    const OptimizeOutcome r =
        optimizer->minimize(planted_objective, planted_space(), criteria);
    EXPECT_EQ(r.stop_reason, StopReason::TargetReached);
    EXPECT_LE(r.best_value, 2.0);
    EXPECT_LT(r.evaluations, 300u);
}

TEST_P(DiscreteOptimizerContract, SeedConfigsAreEvaluatedFirst)
{
    const auto optimizer =
        make_discrete_optimizer(contract_config(GetParam()));
    SearchContext context;
    context.seed_configs = {kPlanted};
    const OptimizeOutcome r = optimizer->minimize(
        planted_objective, planted_space(), {}, context);
    EXPECT_DOUBLE_EQ(r.history.front(), 0.0);
    EXPECT_EQ(r.evaluations_to_best, 1u);
    EXPECT_EQ(r.best_config, kPlanted);
}

TEST_P(DiscreteOptimizerContract, DeterministicUnderFixedSeed)
{
    const OptimizerConfig config = contract_config(GetParam());
    const OptimizeOutcome a =
        make_discrete_optimizer(config)->minimize(planted_objective,
                                                  planted_space());
    const OptimizeOutcome b =
        make_discrete_optimizer(config)->minimize(planted_objective,
                                                  planted_space());
    EXPECT_EQ(a.history, b.history);
    EXPECT_EQ(a.best_config, b.best_config);
    EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST_P(DiscreteOptimizerContract, CancelTokenStopsMidRunWithBestSoFar)
{
    // The cancellation contract every strategy must honor: a token
    // raised mid-run (here by the objective itself, at its 9th call)
    // stops the search at the next recorded evaluation with
    // StopReason::Cancelled and the best point found so far intact.
    const auto optimizer =
        make_discrete_optimizer(contract_config(GetParam()));
    const auto cancel = std::make_shared<std::atomic<bool>>(false);
    std::size_t calls = 0;
    const auto objective = [&](const std::vector<int>& config) {
        if (++calls == 9) {
            cancel->store(true, std::memory_order_relaxed);
        }
        return planted_objective(config);
    };
    StoppingCriteria criteria;
    criteria.max_evaluations = 300;
    criteria.cancel = cancel;
    const OptimizeOutcome r =
        optimizer->minimize(objective, planted_space(), criteria);
    EXPECT_EQ(r.stop_reason, StopReason::Cancelled);
    // The cancel is observed when the 9th call's value is recorded
    // (block-evaluating strategies may call the objective further
    // ahead, but never record past the token).
    ASSERT_EQ(r.history.size(), 9u);
    expect_trace_consistent(r);
    ASSERT_EQ(r.best_config.size(), 3u);
    EXPECT_DOUBLE_EQ(planted_objective(r.best_config), r.best_value);
    EXPECT_DOUBLE_EQ(
        *std::min_element(r.history.begin(), r.history.end()),
        r.best_value);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, DiscreteOptimizerContract,
    ::testing::ValuesIn(registered_discrete_optimizers()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

double
bowl_objective(const std::vector<double>& x)
{
    double s = 0.0;
    for (const double v : x) {
        s += (v - 0.5) * (v - 0.5);
    }
    return s;
}

class ContinuousOptimizerContract
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ContinuousOptimizerContract, ConvergesOnQuadraticBowl)
{
    const auto optimizer =
        make_continuous_optimizer(contract_config(GetParam()));
    const OptimizeOutcome r =
        optimizer->minimize(bowl_objective, {3.0, -2.0, 1.0});
    EXPECT_LT(r.best_value, 1e-2);
    ASSERT_EQ(r.best_x.size(), 3u);
    for (const double v : r.best_x) {
        EXPECT_NEAR(v, 0.5, 0.1);
    }
    expect_trace_consistent(r);
}

TEST_P(ContinuousOptimizerContract, RespectsEvaluationBudget)
{
    const auto optimizer =
        make_continuous_optimizer(contract_config(GetParam()));
    StoppingCriteria criteria;
    criteria.max_evaluations = 25;
    const OptimizeOutcome r =
        optimizer->minimize(bowl_objective, {3.0, -2.0, 1.0}, criteria);
    EXPECT_LE(r.evaluations, 25u);
    EXPECT_GE(r.evaluations, 10u);
}

TEST_P(ContinuousOptimizerContract, TargetValueStopsEarly)
{
    const auto optimizer =
        make_continuous_optimizer(contract_config(GetParam()));
    StoppingCriteria criteria;
    criteria.target_value = 0.5;
    const OptimizeOutcome r =
        optimizer->minimize(bowl_objective, {3.0, -2.0, 1.0}, criteria);
    EXPECT_EQ(r.stop_reason, StopReason::TargetReached);
    EXPECT_LE(r.best_value, 0.5);
}

TEST_P(ContinuousOptimizerContract, DeterministicUnderFixedSeed)
{
    const OptimizerConfig config = contract_config(GetParam());
    const OptimizeOutcome a = make_continuous_optimizer(config)->minimize(
        bowl_objective, {3.0, -2.0, 1.0});
    const OptimizeOutcome b = make_continuous_optimizer(config)->minimize(
        bowl_objective, {3.0, -2.0, 1.0});
    EXPECT_EQ(a.history, b.history);
    EXPECT_EQ(a.best_x, b.best_x);
}

TEST_P(ContinuousOptimizerContract, CancelTokenStopsMidRunWithBestSoFar)
{
    const auto optimizer =
        make_continuous_optimizer(contract_config(GetParam()));
    const auto cancel = std::make_shared<std::atomic<bool>>(false);
    std::size_t calls = 0;
    const auto objective = [&](const std::vector<double>& x) {
        if (++calls == 9) {
            cancel->store(true, std::memory_order_relaxed);
        }
        return bowl_objective(x);
    };
    StoppingCriteria criteria;
    criteria.max_evaluations = 200;
    criteria.cancel = cancel;
    const OptimizeOutcome r =
        optimizer->minimize(objective, {3.0, -2.0, 1.0}, criteria);
    EXPECT_EQ(r.stop_reason, StopReason::Cancelled);
    ASSERT_FALSE(r.history.empty());
    // Unrecorded probe calls (SPSA's gradient probes) do not check the
    // token, so the stop lands at the next *recorded* evaluation — a
    // couple of calls past the 9th, never a full run.
    EXPECT_LE(r.history.size(), 12u);
    expect_trace_consistent(r);
    ASSERT_EQ(r.best_x.size(), 3u);
    EXPECT_DOUBLE_EQ(
        *std::min_element(r.history.begin(), r.history.end()),
        r.best_value);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ContinuousOptimizerContract,
    ::testing::ValuesIn(registered_continuous_optimizers()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

TEST(StoppingCriteria, PatienceStopsStalledSearch)
{
    // Constant objective: no improvement is ever possible, so the run
    // must end after the patience window.
    auto f = [](const std::vector<int>&) { return 1.0; };
    DiscreteSpace space;
    space.cardinalities.assign(4, 4);
    StoppingCriteria criteria;
    criteria.max_evaluations = 300;
    criteria.patience = 7;
    RandomSearchOptimizer optimizer({.samples = 300, .seed = 9});
    const OptimizeOutcome r = optimizer.minimize(f, space, criteria);
    EXPECT_EQ(r.stop_reason, StopReason::Stalled);
    EXPECT_EQ(r.history.size(), 8u);
}

TEST(StoppingCriteria, WallClockBudgetStopsSlowSearch)
{
    // Each evaluation sleeps ~2ms; a 20ms budget must end the run long
    // before the 10k-sample budget.
    auto f = [](const std::vector<int>&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return 1.0;
    };
    DiscreteSpace space;
    space.cardinalities.assign(8, 4);
    StoppingCriteria criteria;
    criteria.max_seconds = 0.02;
    RandomSearchOptimizer optimizer({.samples = 10000, .seed = 9});
    const OptimizeOutcome r = optimizer.minimize(f, space, criteria);
    EXPECT_EQ(r.stop_reason, StopReason::TimeExpired);
    EXPECT_LT(r.evaluations, 10000u);
}

TEST(OptimizerRegistry, StopReasonNames)
{
    EXPECT_EQ(to_string(StopReason::BudgetExhausted), "budget");
    EXPECT_EQ(to_string(StopReason::TargetReached), "target");
    EXPECT_EQ(to_string(StopReason::SpaceExhausted), "space-exhausted");
}

TEST(OptimizerRegistry, BuiltInsConstructibleByKey)
{
    for (const char* kind : {"bayes", "anneal", "random", "exhaustive",
                             "nelder-mead", "spsa"}) {
        EXPECT_EQ(std::ranges::count(registered_optimizers(), kind), 1)
            << kind;
        const auto optimizer = make_optimizer(optimizer_config(kind));
        EXPECT_EQ(optimizer->name(), kind);
    }
    // Containment, not equality: other tests may register extra kinds
    // in the process-global registry (robust under --gtest_shuffle).
    const auto discrete = registered_discrete_optimizers();
    for (const char* kind : {"anneal", "bayes", "exhaustive", "random"}) {
        EXPECT_NE(std::find(discrete.begin(), discrete.end(), kind),
                  discrete.end())
            << kind;
    }
    const auto continuous = registered_continuous_optimizers();
    for (const char* kind : {"nelder-mead", "spsa"}) {
        EXPECT_NE(std::find(continuous.begin(), continuous.end(), kind),
                  continuous.end())
            << kind;
    }
}

TEST(OptimizerRegistry, RejectsUnknownAndWrongSpaceKinds)
{
    EXPECT_THROW(make_optimizer(optimizer_config("no-such-optimizer")),
                 std::invalid_argument);
    EXPECT_THROW(make_discrete_optimizer(optimizer_config("spsa")),
                 std::invalid_argument);
    EXPECT_THROW(make_continuous_optimizer(optimizer_config("bayes")),
                 std::invalid_argument);
}

TEST(OptimizerRegistry, RuntimeExtension)
{
    // A caller-registered strategy is immediately constructible. (The
    // registry is process-global; the enumeration assertions elsewhere
    // check containment of the built-ins, not exact lists, so order
    // does not matter.)
    register_optimizer("random-wide", [](const OptimizerConfig& config) {
        RandomSearchOptions options = config.random;
        options.samples *= 2;
        return std::make_unique<RandomSearchOptimizer>(options);
    });
    EXPECT_EQ(std::ranges::count(registered_optimizers(), "random-wide"), 1);
    const auto optimizer =
        make_discrete_optimizer(optimizer_config("random-wide"));
    const OptimizeOutcome r =
        optimizer->minimize(planted_objective, planted_space());
    EXPECT_EQ(r.best_value, 0.0);
}

} // namespace
} // namespace cafqa
