#include "opt/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace cafqa {

DecisionTree::RankedColumns::RankedColumns(
    const std::vector<std::vector<double>>& x)
    : rows(x.size())
{
    CAFQA_REQUIRE(rows <= std::numeric_limits<std::uint32_t>::max(),
                  "too many training rows");
    const std::size_t width = x.empty() ? 0 : x[0].size();
    for (const auto& row : x) {
        CAFQA_REQUIRE(row.size() == width, "training rows differ in width");
        for (const double v : row) {
            CAFQA_REQUIRE(std::isfinite(v),
                          "training features must be finite");
        }
    }
    levels.resize(width);
    codes.resize(width * rows);
    std::vector<double> values(rows);
    for (std::size_t f = 0; f < width; ++f) {
        for (std::size_t i = 0; i < rows; ++i) {
            values[i] = x[i][f];
        }
        // std::unique compares with ==, so -0.0 and +0.0 share a level
        // exactly as they tie in a comparison sort.
        std::sort(values.begin(), values.end());
        levels[f].assign(values.begin(),
                         std::unique(values.begin(), values.end()));
        const std::vector<double>& level = levels[f];
        for (std::size_t i = 0; i < rows; ++i) {
            codes[f * rows + i] = static_cast<std::uint32_t>(
                std::lower_bound(level.begin(), level.end(), x[i][f]) -
                level.begin());
        }
    }
}

void
DecisionTree::fit(const std::vector<std::vector<double>>& x,
                  const std::vector<double>& y, Rng& rng,
                  const TreeOptions& options)
{
    CAFQA_REQUIRE(!x.empty() && x.size() == y.size(),
                  "training data shape mismatch");
    const RankedColumns columns(x);
    std::vector<std::uint32_t> rows(x.size());
    std::iota(rows.begin(), rows.end(), std::uint32_t{0});
    FitScratch scratch(x.size(), rows.size());
    fit_rows(columns, y, rows, scratch, rng, options);
}

void
DecisionTree::fit_rows(const RankedColumns& columns,
                       const std::vector<double>& y,
                       std::vector<std::uint32_t>& rows, FitScratch& scratch,
                       Rng& rng, const TreeOptions& options)
{
    nodes_.clear();
    build(columns, y, rows.data(), rows.size(), 0, scratch, rng, options);
}

int
DecisionTree::build(const RankedColumns& columns, const std::vector<double>& y,
                    std::uint32_t* rows, std::size_t count, std::size_t depth,
                    FitScratch& scratch, Rng& rng, const TreeOptions& options)
{
    const int node_id = static_cast<int>(nodes_.size());
    nodes_.push_back(Node{});
    double sum = 0.0;
    for (std::size_t k = 0; k < count; ++k) {
        sum += y[rows[k]];
    }
    nodes_[static_cast<std::size_t>(node_id)].value =
        sum / static_cast<double>(count);

    if (depth >= options.max_depth || count < 2 * options.min_samples_leaf) {
        return node_id;
    }

    const std::size_t num_features = columns.levels.size();
    std::size_t subset = options.feature_subset;
    if (subset == 0 || subset > num_features) {
        subset = num_features;
    }
    const std::vector<std::size_t> features =
        rng.sample_without_replacement(num_features, subset);

    // Find the split minimizing the summed squared error of children.
    double best_score = std::numeric_limits<double>::infinity();
    int best_feature = -1;
    double best_threshold = 0.0;

    std::uint32_t* counts = scratch.counts.data();
    double* sorted_y = scratch.sorted_y.data();
    for (const std::size_t f : features) {
        const std::uint32_t* code = columns.codes.data() + f * columns.rows;
        const std::vector<double>& level = columns.levels[f];
        const std::size_t num_levels = level.size();

        // Stable two-pass counting sort of the node's targets by rank.
        // `rows` is in sample-position order, so this is the (value,
        // position) order a comparison sort of the pairs would give.
        std::fill_n(counts, num_levels + 1, 0u);
        for (std::size_t k = 0; k < count; ++k) {
            ++counts[code[rows[k]] + 1];
        }
        for (std::size_t r = 1; r < num_levels; ++r) {
            counts[r] += counts[r - 1];
        }
        for (std::size_t k = 0; k < count; ++k) {
            const std::uint32_t row = rows[k];
            sorted_y[counts[code[row]]++] = y[row];
        }
        // counts[r] now ends rank r's run in sorted_y.

        // Prefix sums enable O(1) variance updates while scanning.
        double left_sum = 0.0;
        double left_sq = 0.0;
        double right_sum = 0.0;
        double right_sq = 0.0;
        for (std::size_t k = 0; k < count; ++k) {
            right_sum += sorted_y[k];
            right_sq += sorted_y[k] * sorted_y[k];
        }
        // A threshold is only valid between two ranks present in the
        // node, i.e. after the last entry of each run but the final one.
        std::size_t k = 0;
        std::size_t prev = 0;
        for (std::size_t r = 0; r < num_levels; ++r) {
            const std::size_t end = counts[r];
            if (end == k) {
                continue;
            }
            const std::size_t nl = k;
            const std::size_t nr = count - nl;
            if (nl > 0 && nl >= options.min_samples_leaf &&
                nr >= options.min_samples_leaf) {
                const double sse_left =
                    left_sq - left_sum * left_sum / static_cast<double>(nl);
                const double sse_right =
                    right_sq - right_sum * right_sum / static_cast<double>(nr);
                const double score = sse_left + sse_right;
                if (score < best_score) {
                    best_score = score;
                    best_feature = static_cast<int>(f);
                    best_threshold = 0.5 * (level[prev] + level[r]);
                }
            }
            for (; k < end; ++k) {
                const double yi = sorted_y[k];
                left_sum += yi;
                left_sq += yi * yi;
                right_sum -= yi;
                right_sq -= yi * yi;
            }
            prev = r;
        }
    }

    if (best_feature < 0) {
        return node_id; // no useful split found
    }

    // Stable in-place partition: left rows compact to the front, right
    // rows go through scratch, so both children keep position order.
    const auto f = static_cast<std::size_t>(best_feature);
    const std::uint32_t* code = columns.codes.data() + f * columns.rows;
    const std::vector<double>& level = columns.levels[f];
    std::uint32_t* right_rows = scratch.right_rows.data();
    std::size_t num_left = 0;
    std::size_t num_right = 0;
    for (std::size_t k = 0; k < count; ++k) {
        const std::uint32_t row = rows[k];
        if (level[code[row]] <= best_threshold) {
            rows[num_left++] = row;
        } else {
            right_rows[num_right++] = row;
        }
    }
    if (num_left == 0 || num_right == 0) {
        return node_id;
    }
    std::copy_n(right_rows, num_right, rows + num_left);

    nodes_[static_cast<std::size_t>(node_id)].feature = best_feature;
    nodes_[static_cast<std::size_t>(node_id)].threshold = best_threshold;
    const int left = build(columns, y, rows, num_left, depth + 1, scratch,
                           rng, options);
    const int right = build(columns, y, rows + num_left, num_right, depth + 1,
                            scratch, rng, options);
    nodes_[static_cast<std::size_t>(node_id)].left = left;
    nodes_[static_cast<std::size_t>(node_id)].right = right;
    return node_id;
}

double
DecisionTree::predict(const std::vector<double>& x) const
{
    CAFQA_REQUIRE(!nodes_.empty(), "tree has not been fitted");
    std::size_t node = 0;
    while (nodes_[node].feature >= 0) {
        const auto f = static_cast<std::size_t>(nodes_[node].feature);
        CAFQA_REQUIRE(f < x.size(), "feature vector too short");
        node = static_cast<std::size_t>(
            (x[f] <= nodes_[node].threshold) ? nodes_[node].left
                                             : nodes_[node].right);
    }
    return nodes_[node].value;
}

} // namespace cafqa
