#include "src/model/random_forest.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/common/lanes.h"

namespace llamatune {

namespace {

struct Node {
  bool is_leaf = true;
  // Split definition.
  int feature = -1;
  double threshold = 0.0;     // continuous: x[f] <= threshold goes left
  double category = -1.0;     // categorical: x[f] == category goes left
  bool categorical_split = false;
  int left = -1;
  int right = -1;
  // Leaf statistics.
  double mean = 0.0;
  double variance = 0.0;
};

bool GoesLeft(const Node& split, double x) {
  return split.categorical_split ? x == split.category : x <= split.threshold;
}

}  // namespace

struct RandomForest::Tree {
  std::vector<Node> nodes;

  const Node& Descend(const std::vector<double>& x) const {
    int idx = 0;
    while (!nodes[idx].is_leaf) {
      const Node& node = nodes[idx];
      idx = GoesLeft(node, x[node.feature]) ? node.left : node.right;
    }
    return nodes[idx];
  }
};

namespace {

// The three thresholds of a feature are scored together, one per lane
// (the fourth lane repeats the third).
using LaneMask = decltype(Lanes{} <= Lanes{});

void MakeLeaf(Node* node, const double* ys, int m) {
  node->is_leaf = true;
  double sum = 0.0;
  for (int k = 0; k < m; ++k) sum += ys[k];
  double n = static_cast<double>(m);
  node->mean = m == 0 ? 0.0 : sum / n;
  double acc = 0.0;
  for (int k = 0; k < m; ++k) {
    acc += (ys[k] - node->mean) * (ys[k] - node->mean);
  }
  node->variance = m < 2 ? 0.0 : acc / n;
}

Node MakeSplit(int feature, bool categorical, double value) {
  Node split;
  split.is_leaf = false;
  split.feature = feature;
  split.categorical_split = categorical;
  (categorical ? split.category : split.threshold) = value;
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
// node's targets and `x` receives one feature's values at a time, both
// in `idx` order.
struct NodeSplitter {
  const int* idx;
  int m;
  const double* y;
  double* x;
  int min_samples_leaf;
  SplitChoice* best;

  // `column` is the feature's column of X.
  void TryFeature(const SearchSpace& space, int feature,
                  const double* column, Rng* rng) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (int k = 0; k < m; ++k) {
      x[k] = column[idx[k]];
      lo = std::min(lo, x[k]);
      hi = std::max(hi, x[k]);
    }
    if (!(hi > lo)) return;  // constant feature in this node

    if (space.dim(feature).type == SearchDim::Type::kCategorical) {
      // One-vs-rest split on a category present in this node.
      double cat = x[rng->UniformInt(0, m - 1)];
      OfferCategory(feature, cat);
      // Also try one more random present category for better splits.
      double cat2 = x[rng->UniformInt(0, m - 1)];
      if (cat2 != cat) OfferCategory(feature, cat2);
    } else {
      // Every threshold is drawn before scoring, which draws nothing.
      double thresholds[3];
      for (double& threshold : thresholds) threshold = rng->Uniform(lo, hi);
      OfferThresholds(feature, thresholds);
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

  void OfferCategory(int feature, double category) {
    Side left, right;
    for (int k = 0; k < m; ++k) (x[k] == category ? left : right).Add(y[k]);
    Offer(MakeSplit(feature, /*categorical=*/true, category), left, right);
  }

  // Scores three thresholds in one pass. A sample adds +0.0 to the
  // side it is not on; the sums start at +0.0 and so never hold -0.0,
  // which makes each lane's sums those of its subset alone.
  void OfferThresholds(int feature, const double (&thresholds)[3]) {
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

}  // namespace

RandomForest::RandomForest(const SearchSpace& space,
                           RandomForestOptions options, uint64_t seed)
    : space_(space), options_(options), rng_(seed) {}

RandomForest::~RandomForest() = default;
RandomForest::RandomForest(RandomForest&&) noexcept = default;
RandomForest& RandomForest::operator=(RandomForest&&) noexcept = default;

void RandomForest::Fit(const std::vector<std::vector<double>>& xs,
                       const std::vector<double>& ys) {
  trees_.clear();
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
  std::vector<double> node_x(n), node_y(n);

  for (int t = 0; t < options_.num_trees; ++t) {
    auto tree = std::make_unique<Tree>();
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
    tree->nodes.emplace_back();
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
      NodeSplitter splitter{node_idx, m, node_y.data(), node_x.data(),
                            options_.min_samples_leaf, &best};
      if (can_split) {
        // The draws of Rng::SampleWithoutReplacement, into a reused buffer.
        std::iota(features.begin(), features.end(), 0);
        std::shuffle(features.begin(), features.end(), rng_.engine());
        for (int j = 0; j < features_per_split; ++j) {
          int f = features[j];
          splitter.TryFeature(space_, f, column(f), &rng_);
        }
      }
      if (!best.valid) {
        MakeLeaf(&tree->nodes[work.node], node_y.data(), m);
        continue;
      }
      tree->nodes[work.node] = best.split;
      int mid = work.begin + Partition(best.split, column(best.split.feature),
                                       node_idx, m, scratch.data());
      int left = static_cast<int>(tree->nodes.size());
      tree->nodes.emplace_back();
      tree->nodes.emplace_back();
      tree->nodes[work.node].left = left;
      tree->nodes[work.node].right = left + 1;
      stack.push_back({left, work.begin, mid, work.depth + 1});
      stack.push_back({left + 1, mid, work.end, work.depth + 1});
    }
    trees_.push_back(std::move(tree));
  }
  fitted_ = !xs.empty();
}

void RandomForest::Predict(const std::vector<double>& x, double* mean,
                           double* variance) const {
  double sum = 0.0, sum_sq = 0.0, within = 0.0;
  int m = static_cast<int>(trees_.size());
  for (const auto& tree : trees_) {
    const Node& leaf = tree->Descend(x);
    sum += leaf.mean;
    sum_sq += leaf.mean * leaf.mean;
    within += leaf.variance;
  }
  double mu = sum / m;
  // Law of total variance: Var[leaf means] + E[leaf variances].
  double between = std::max(0.0, sum_sq / m - mu * mu);
  *mean = mu;
  *variance = between + within / m;
}

double RandomForest::PredictMean(const std::vector<double>& x) const {
  double mean = 0.0, variance = 0.0;
  Predict(x, &mean, &variance);
  return mean;
}

}  // namespace llamatune
