#include "src/model/random_forest.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/common/lanes.h"

namespace llamatune {

namespace {

// One node of a fitted tree. A split sends x[feature] left when
// x <= value (a threshold) or, if categorical, when x == value (a
// category). A leaf is its own left and right child, with feature 0.
struct Node {
  double value = 0.0;
  int feature = 0;
  bool categorical = false;
  int left = 0;
  int right = 0;
};

struct LeafStats {
  double mean = 0.0;
  double variance = 0.0;
};

// Both comparisons, then a select on the node's kind.
inline bool GoesLeft(const Node& node, double x) {
  bool below = x <= node.value;
  bool equal = x == node.value;
  return (node.categorical & equal) | (!node.categorical & below);
}

// The child `node` sends `x` to. Compilers lower the select to a
// conditional move, so no branch depends on the data.
inline int Child(const Node& node, double x) {
  return GoesLeft(node, x) ? node.left : node.right;
}

}  // namespace

struct RandomForest::Tree {
  std::vector<Node> nodes;
  std::vector<LeafStats> leaves;  // parallel to `nodes`; set on leaves
  int depth = 0;                  // the deepest leaf's
};

namespace {

// The three thresholds of a feature are scored together, one per lane
// (the fourth lane repeats the third).
using LaneMask = decltype(Lanes{} <= Lanes{});

// Makes node `index` a leaf over the targets ys[0, m).
void MakeLeaf(int index, const double* ys, int m, Node* node,
              LeafStats* leaf) {
  *node = Node{};
  node->left = node->right = index;
  double sum = 0.0;
  for (int k = 0; k < m; ++k) sum += ys[k];
  double n = static_cast<double>(m);
  leaf->mean = m == 0 ? 0.0 : sum / n;
  double acc = 0.0;
  for (int k = 0; k < m; ++k) {
    acc += (ys[k] - leaf->mean) * (ys[k] - leaf->mean);
  }
  leaf->variance = m < 2 ? 0.0 : acc / n;
}

Node MakeSplit(int feature, bool categorical, double value) {
  Node split;
  split.feature = feature;
  split.categorical = categorical;
  split.value = value;
  return split;
}

// One side of a candidate split.
struct Side {
  int count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;

  void Add(double y) {
    ++count;
    sum += y;
    sum_sq += y * y;
  }
  // n times the population variance. Both sums run in `idx` order, as
  // a pass over this side alone would.
  double VarianceTimesN() const {
    return count < 2 ? 0.0 : sum_sq - sum * sum / static_cast<double>(count);
  }
};

struct SplitChoice {
  bool valid = false;
  Node split;
  double score = std::numeric_limits<double>::infinity();
};

// Searches one node's split: the best of a few random thresholds per
// feature (extra-trees style randomized split search: fast and a good
// exploration/variance trade-off for surrogate forests). `y` holds the
// node's targets in `idx` order.
struct NodeSplitter {
  int m;
  const double* y;
  int min_samples_leaf;
  SplitChoice* best;

  // `x` holds the feature's values in `idx` order, and `lo` and `hi`
  // their min and max.
  void TryFeature(const SearchSpace& space, int feature, const double* x,
                  double lo, double hi, Rng* rng) {
    if (!(hi > lo)) return;  // constant feature in this node

    if (space.dim(feature).type == SearchDim::Type::kCategorical) {
      // One-vs-rest split on a category present in this node.
      double cat = x[rng->UniformInt(0, m - 1)];
      OfferCategory(feature, cat, x);
      // Also try one more random present category for better splits.
      double cat2 = x[rng->UniformInt(0, m - 1)];
      if (cat2 != cat) OfferCategory(feature, cat2, x);
    } else {
      // Every threshold is drawn before scoring, which draws nothing.
      double thresholds[3];
      for (double& threshold : thresholds) threshold = rng->Uniform(lo, hi);
      OfferThresholds(feature, thresholds, x);
    }
  }

  void Offer(const Node& split, const Side& left, const Side& right) {
    if (left.count < min_samples_leaf || right.count < min_samples_leaf) {
      return;
    }
    double score = left.VarianceTimesN() + right.VarianceTimesN();
    if (score < best->score) {
      best->valid = true;
      best->split = split;
      best->score = score;
    }
  }

  void OfferCategory(int feature, double category, const double* x) {
    Side left, right;
    for (int k = 0; k < m; ++k) (x[k] == category ? left : right).Add(y[k]);
    Offer(MakeSplit(feature, /*categorical=*/true, category), left, right);
  }

  // Scores three thresholds in one pass. A sample adds +0.0 to the
  // side it is not on; the sums start at +0.0 and so never hold -0.0,
  // which makes each lane's sums those of its subset alone.
  void OfferThresholds(int feature, const double (&thresholds)[3],
                       const double* x) {
    const Lanes t = {thresholds[0], thresholds[1], thresholds[2],
                     thresholds[2]};
    Lanes left_sum = {}, left_sq = {}, right_sum = {}, right_sq = {};
    LaneMask left_count = {};
    for (int k = 0; k < m; ++k) {
      const Lanes x_lanes = {x[k], x[k], x[k], x[k]};
      const Lanes y_lanes = {y[k], y[k], y[k], y[k]};
      const LaneMask go_left = x_lanes <= t;  // all ones where left
      const Lanes left = (Lanes)((LaneMask)y_lanes & go_left);
      const Lanes right = (Lanes)((LaneMask)y_lanes & ~go_left);
      left_count -= go_left;
      left_sum += left;
      left_sq += left * left;
      right_sum += right;
      right_sq += right * right;
    }
    for (int j = 0; j < 3; ++j) {
      int count = static_cast<int>(left_count[j]);
      Offer(MakeSplit(feature, /*categorical=*/false, thresholds[j]),
            {count, left_sum[j], left_sq[j]},
            {m - count, right_sum[j], right_sq[j]});
    }
  }
};

// Stable in-place partition of idx[0, m) by `split`; returns the left
// side's size. Both sides keep their `idx` order.
int Partition(const Node& split, const double* column, int* idx, int m,
              int* scratch) {
  int left = 0, right = 0;
  for (int k = 0; k < m; ++k) {
    if (GoesLeft(split, column[idx[k]])) {
      idx[left++] = idx[k];
    } else {
      scratch[right++] = idx[k];
    }
  }
  std::copy(scratch, scratch + right, idx + left);
  return left;
}

// Gathers the values of features[0, count) at rows idx[0, m) into `x`,
// feature j's at x + j * m in `idx` order, with their min and max in
// lo[j] and hi[j]. Four features share each pass over the rows, so
// their eight min/max chains run side by side; a short last group
// repeats its last feature. `x`, `lo` and `hi` have room for `count`
// rounded up to a multiple of four.
void GatherFeatures(const double* columns, int n, const int* features,
                    int count, const int* idx, int m, double* x, double* lo,
                    double* hi) {
  constexpr int kWidth = 4;
  for (int j = 0; j < count; j += kWidth) {
    const double* column[kWidth];
    double* out[kWidth];
    double group_lo[kWidth], group_hi[kWidth];
    for (int q = 0; q < kWidth; ++q) {
      int f = features[std::min(j + q, count - 1)];
      column[q] = columns + static_cast<size_t>(f) * n;
      out[q] = x + static_cast<size_t>(j + q) * m;
      group_lo[q] = std::numeric_limits<double>::infinity();
      group_hi[q] = -std::numeric_limits<double>::infinity();
    }
    for (int k = 0; k < m; ++k) {
      const int row = idx[k];
      for (int q = 0; q < kWidth; ++q) {
        const double value = column[q][row];
        out[q][k] = value;
        group_lo[q] = std::min(group_lo[q], value);
        group_hi[q] = std::max(group_hi[q], value);
      }
    }
    std::copy(group_lo, group_lo + kWidth, lo + j);
    std::copy(group_hi, group_hi + kWidth, hi + j);
  }
}

}  // namespace

RandomForest::RandomForest(const SearchSpace& space,
                           RandomForestOptions options, uint64_t seed)
    : space_(space), options_(options), rng_(seed) {}

RandomForest::~RandomForest() = default;
RandomForest::RandomForest(RandomForest&&) noexcept = default;
RandomForest& RandomForest::operator=(RandomForest&&) noexcept = default;

void RandomForest::Fit(const std::vector<std::vector<double>>& xs,
                       const std::vector<double>& ys) {
  int n = static_cast<int>(xs.size());
  int d = space_.num_dims();
  int features_per_split = std::min(
      d, std::max(1, static_cast<int>(
                         std::ceil(options_.feature_fraction * d))));

  // X feature-major: column f starts at column(f).
  std::vector<double> columns(static_cast<size_t>(d) * n);
  auto column = [&](int f) {
    return columns.data() + static_cast<size_t>(f) * n;
  };
  for (int i = 0; i < n; ++i) {
    for (int f = 0; f < d; ++f) column(f)[i] = xs[i][f];
  }
  // Each tree partitions one index buffer in place; a node owns the
  // range [begin, end) of it.
  std::vector<int> idx(n), scratch(n), features(d);
  const int gathered = (features_per_split + 3) / 4 * 4;
  std::vector<double> node_x(static_cast<size_t>(gathered) * n),
      node_lo(gathered), node_hi(gathered), node_y(n);

  trees_.resize(options_.num_trees);
  for (Tree& tree : trees_) {
    // A refit reuses each tree's buffers.
    tree.nodes.assign(1, Node{});
    tree.leaves.assign(1, LeafStats{});
    tree.depth = 0;
    if (options_.bootstrap && n > 1) {
      for (int i = 0; i < n; ++i) {
        idx[i] = static_cast<int>(rng_.UniformInt(0, n - 1));
      }
    } else {
      std::iota(idx.begin(), idx.end(), 0);
    }

    // Iterative tree growth with an explicit work stack.
    struct Work {
      int node;
      int begin;
      int end;
      int depth;
    };
    std::vector<Work> stack;
    stack.push_back({0, 0, n, 0});
    while (!stack.empty()) {
      Work work = stack.back();
      stack.pop_back();
      int* node_idx = idx.data() + work.begin;
      int m = work.end - work.begin;
      for (int k = 0; k < m; ++k) node_y[k] = ys[node_idx[k]];
      bool can_split =
          m >= options_.min_samples_split && work.depth < options_.max_depth;
      SplitChoice best;
      NodeSplitter splitter{m, node_y.data(), options_.min_samples_leaf,
                            &best};
      if (can_split) {
        // The draws of Rng::SampleWithoutReplacement, into a reused buffer.
        std::iota(features.begin(), features.end(), 0);
        std::shuffle(features.begin(), features.end(), rng_.engine());
        // Gathering draws nothing, so the features still draw and offer
        // one after another in shuffled order.
        GatherFeatures(columns.data(), n, features.data(), features_per_split,
                       node_idx, m, node_x.data(), node_lo.data(),
                       node_hi.data());
        for (int j = 0; j < features_per_split; ++j) {
          splitter.TryFeature(space_, features[j],
                              node_x.data() + static_cast<size_t>(j) * m,
                              node_lo[j], node_hi[j], &rng_);
        }
      }
      if (!best.valid) {
        MakeLeaf(work.node, node_y.data(), m, &tree.nodes[work.node],
                 &tree.leaves[work.node]);
        tree.depth = std::max(tree.depth, work.depth);
        continue;
      }
      int mid = work.begin + Partition(best.split, column(best.split.feature),
                                       node_idx, m, scratch.data());
      int left = static_cast<int>(tree.nodes.size());
      tree.nodes[work.node] = best.split;
      tree.nodes[work.node].left = left;
      tree.nodes[work.node].right = left + 1;
      tree.nodes.resize(left + 2);
      tree.leaves.resize(left + 2);
      stack.push_back({left, work.begin, mid, work.depth + 1});
      stack.push_back({left + 1, mid, work.end, work.depth + 1});
    }
  }
  fitted_ = !xs.empty();
}

void RandomForest::Predict(const std::vector<double>& x, double* mean,
                           double* variance) const {
  PredictBatch(&x, 1, mean, variance);
}

void RandomForest::PredictBatch(const std::vector<double>* xs, int n,
                                double* means, double* variances) const {
  constexpr int kGroup = 8;  // rows walked side by side
  constexpr int kBlock = kBlockRows;
  const int m = static_cast<int>(trees_.size());
  for (int begin = 0; begin < n; begin += kBlock) {
    const int count = std::min(kBlock, n - begin);
    double sum[kBlock], sum_sq[kBlock], within[kBlock];
    std::fill_n(sum, count, 0.0);
    std::fill_n(sum_sq, count, 0.0);
    std::fill_n(within, count, 0.0);
    for (const Tree& tree : trees_) {
      const Node* nodes = tree.nodes.data();
      for (int g = 0; g < count; g += kGroup) {
        const int rows = std::min(kGroup, count - g);
        // A short last group walks copies of its last row, so every
        // group steps all kGroup walks.
        const double* x[kGroup];
        int at[kGroup];
        for (int r = 0; r < kGroup; ++r) {
          x[r] = xs[begin + g + std::min(r, rows - 1)].data();
          at[r] = 0;
        }
        for (int step = 0; step < tree.depth; ++step) {
          for (int r = 0; r < kGroup; ++r) {
            const Node& node = nodes[at[r]];
            at[r] = Child(node, x[r][node.feature]);
          }
        }
        for (int r = 0; r < rows; ++r) {
          const LeafStats& leaf = tree.leaves[at[r]];
          sum[g + r] += leaf.mean;
          sum_sq[g + r] += leaf.mean * leaf.mean;
          within[g + r] += leaf.variance;
        }
      }
    }
    for (int r = 0; r < count; ++r) {
      double mu = sum[r] / m;
      // Law of total variance: Var[leaf means] + E[leaf variances].
      double between = std::max(0.0, sum_sq[r] / m - mu * mu);
      means[begin + r] = mu;
      variances[begin + r] = between + within[r] / m;
    }
  }
}

double RandomForest::PredictMean(const std::vector<double>& x) const {
  double mean = 0.0, variance = 0.0;
  Predict(x, &mean, &variance);
  return mean;
}

}  // namespace llamatune
