/**
 * @file
 * Regression tree over discrete/continuous feature vectors — the building
 * block of the random-forest surrogate model used by CAFQA's Bayesian
 * optimization (paper Section 5).
 */
#ifndef CAFQA_OPT_DECISION_TREE_HPP
#define CAFQA_OPT_DECISION_TREE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace cafqa {

/** Tree growth controls. */
struct TreeOptions
{
    std::size_t max_depth = 16;
    std::size_t min_samples_leaf = 2;
    /** Features considered per split; 0 means all. */
    std::size_t feature_subset = 0;
};

/** CART-style regression tree (variance-reduction splits). */
class DecisionTree
{
  public:
    /**
     * Fit to rows `x[i]` with targets `y[i]`. `rng` drives the random
     * feature subsets (pass a fixed-seed Rng for determinism). Rows must
     * all have the width of `x[0]` and hold only finite values.
     */
    void fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y, Rng& rng,
             const TreeOptions& options = {});

    /** Predict the target for one row. */
    double predict(const std::vector<double>& x) const;

    /** Number of nodes (for tests). */
    std::size_t node_count() const { return nodes_.size(); }

  private:
    friend class RandomForest;

    struct Node
    {
        // Leaf when feature < 0.
        int feature = -1;
        double threshold = 0.0;
        double value = 0.0;
        int left = -1;
        int right = -1;
    };

    /**
     * Training rows rank-coded for split search, built once per fit and
     * shared by every tree of a forest: per column, its sorted distinct
     * values, and per (column, row) the index of the row's value among
     * them.
     */
    struct RankedColumns
    {
        /** Validates and codes `x`; rejects ragged rows and non-finite
         *  values. */
        explicit RankedColumns(const std::vector<std::vector<double>>& x);

        std::size_t rows = 0;
        std::vector<std::vector<double>> levels;
        /** Column-major: `codes[f * rows + i]` indexes `levels[f]`. */
        std::vector<std::uint32_t> codes;
    };

    /** Buffers one fit call reuses across nodes (and trees). */
    struct FitScratch
    {
        /** A column has at most `rows` levels. */
        FitScratch(std::size_t rows, std::size_t sample_size)
            : counts(rows + 1), sorted_y(sample_size), right_rows(sample_size)
        {
        }

        std::vector<std::uint32_t> counts;
        std::vector<double> sorted_y;
        std::vector<std::uint32_t> right_rows;
    };

    /**
     * Fit on the training rows listed in `rows`, whose order is the
     * sample's position order (ties between equal feature values split
     * in that order). Partitions `rows` in place.
     */
    void fit_rows(const RankedColumns& columns, const std::vector<double>& y,
                  std::vector<std::uint32_t>& rows, FitScratch& scratch,
                  Rng& rng, const TreeOptions& options);

    int build(const RankedColumns& columns, const std::vector<double>& y,
              std::uint32_t* rows, std::size_t count, std::size_t depth,
              FitScratch& scratch, Rng& rng, const TreeOptions& options);

    std::vector<Node> nodes_;
};

} // namespace cafqa

#endif // CAFQA_OPT_DECISION_TREE_HPP
