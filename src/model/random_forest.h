#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/optimizer/search_space.h"

namespace llamatune {

/// \brief Hyperparameters of the random-forest surrogate.
struct RandomForestOptions {
  int num_trees = 10;
  int min_samples_split = 3;
  int min_samples_leaf = 1;
  int max_depth = 24;
  /// Fraction of features considered at each split (SMAC uses 5/6).
  double feature_fraction = 5.0 / 6.0;
  /// Bootstrap-resample the training set per tree.
  bool bootstrap = true;
};

/// \brief Random-forest regression surrogate (the SMAC model, paper
/// §2.2).
///
/// Regression trees with variance-reduction splits. Continuous
/// features split on thresholds; categorical features split on
/// one-vs-rest category membership — no artificial ordering is imposed
/// on categorical knobs, which is the property that makes RF
/// surrogates effective on heterogeneous DBMS spaces.
///
/// The predictive distribution follows SMAC: the mean is the average
/// of per-tree leaf means, and the variance applies the law of total
/// variance across trees (variance of leaf means + mean of leaf
/// variances).
///
/// ## Layout and traversal
///
/// Fit writes each tree as one flat node array, the only form a tree
/// has. A node holds its split value (threshold or category), its
/// feature, its kind and its `left`/`right` children; a leaf is its own
/// left and right child, and its mean and variance sit in an array
/// parallel to the nodes. Each tree records its depth, the deepest
/// leaf's.
///
/// Prediction steps every row exactly `depth` times with a branch-free
/// select: a row that reaches its leaf early stays on it, so each row
/// ends on the leaf a walk that stops at the first leaf would reach,
/// NaN and infinite inputs included (both comparisons are false for
/// NaN, which therefore goes right). The kernel walks one tree at a
/// time over a group of 8 rows, so the 8 walks are independent load
/// chains rather than one mispredicted chain. It then adds each leaf's
/// mean, squared mean and variance to its row's sums in tree order,
/// the order a one-row prediction adds them in; the sums, and so every
/// bit of the result, do not depend on how many rows share a call.
class RandomForest {
 public:
  /// PredictBatch keeps the sums of this many rows at a time on the
  /// stack; a caller that splits a pool into blocks uses it as the
  /// block size.
  static constexpr int kBlockRows = 64;

  RandomForest(const SearchSpace& space, RandomForestOptions options,
               uint64_t seed);
  ~RandomForest();
  RandomForest(RandomForest&&) noexcept;
  RandomForest& operator=(RandomForest&&) noexcept;

  /// Fits the forest to (X, y). Re-fitting replaces all trees.
  void Fit(const std::vector<std::vector<double>>& xs,
           const std::vector<double>& ys);

  /// Predictive mean and variance at `x`. Must be fitted first.
  void Predict(const std::vector<double>& x, double* mean,
               double* variance) const;

  /// Predictive mean and variance of the `n` rows xs[0, n), into
  /// means[0, n) and variances[0, n). Each row gets the bits Predict
  /// gives it alone.
  void PredictBatch(const std::vector<double>* xs, int n, double* means,
                    double* variances) const;

  double PredictMean(const std::vector<double>& x) const;

  bool fitted() const { return fitted_; }
  int num_trees() const { return options_.num_trees; }

 private:
  struct Tree;

  SearchSpace space_;
  RandomForestOptions options_;
  Rng rng_;
  std::vector<Tree> trees_;
  bool fitted_ = false;
};

}  // namespace llamatune
