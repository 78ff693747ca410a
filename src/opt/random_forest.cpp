#include "opt/random_forest.hpp"

#include <cmath>

#include "common/error.hpp"

namespace cafqa {

void
RandomForest::fit(const std::vector<std::vector<double>>& x,
                  const std::vector<double>& y, std::uint64_t seed,
                  ForestOptions options)
{
    CAFQA_REQUIRE(!x.empty() && x.size() == y.size(),
                  "training data shape mismatch");
    CAFQA_REQUIRE(options.num_trees > 0, "a forest needs at least one tree");
    // Every tree splits on the same columns, so code them once.
    const DecisionTree::RankedColumns columns(x);
    Rng rng(seed);
    trees_.assign(options.num_trees, DecisionTree{});

    // Default per-split feature count: sqrt(d), the usual forest choice.
    if (options.tree.feature_subset == 0) {
        options.tree.feature_subset = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::round(std::sqrt(static_cast<double>(x[0].size())))));
    }

    const auto sample_size = static_cast<std::size_t>(
        std::max(1.0, options.bootstrap_fraction *
                          static_cast<double>(x.size())));

    // A bootstrap sample is a list of row ids in draw order; the trees
    // index the shared columns instead of copying rows.
    std::vector<std::uint32_t> rows(sample_size);
    DecisionTree::FitScratch scratch(x.size(), sample_size);
    for (auto& tree : trees_) {
        for (auto& row : rows) {
            row = static_cast<std::uint32_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(x.size()) - 1));
        }
        tree.fit_rows(columns, y, rows, scratch, rng, options.tree);
    }
}

double
RandomForest::predict(const std::vector<double>& x) const
{
    return predict_with_variance(x).mean;
}

ForestPrediction
RandomForest::predict_with_variance(const std::vector<double>& x) const
{
    CAFQA_REQUIRE(!trees_.empty(), "forest has not been fitted");
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

} // namespace cafqa
