#pragma once

#include <cstdint>
#include <vector>

#include "src/common/matrix.h"
#include "src/common/status.h"
#include "src/model/gp.h"
#include "src/model/kernels.h"
#include "src/optimizer/search_space.h"

namespace llamatune {

/// \brief Inducing-point sparse Gaussian process (FITC) for n >> 500.
///
/// The exact GP's per-round cost grows as O(n^3) at hyperparameter
/// re-optimizations and O(n^2) per candidate at prediction — the wall
/// that keeps tuning budgets at a few hundred iterations. This model
/// approximates the same Matérn-5/2 x Hamming posterior through m
/// inducing points (m << n) with the FITC likelihood (Snelson &
/// Ghahramani 2006): fit is O(n m^2), prediction O(m^2) per candidate,
/// independent of n.
///
/// Inducing points are selected *deterministically* from the training
/// history by greedy max-min (farthest-point) traversal in the
/// normalized space — no RNG, no dependence on the executor count — so
/// sparse trajectories replay bit-for-bit, which is what lets
/// checkpoint/resume cross the exact->sparse switchover (see
/// tests/checkpoint_test.cc).
///
/// Shares GpOptions (reopt schedule, restarts, num_inducing), the
/// flat Matrix/Cholesky kernels, and the global ThreadPool with the
/// exact GaussianProcess. Targets are standardized per fit; the
/// predictive variance includes the learned noise floor, matching the
/// exact model's Predict() convention.
class SparseGaussianProcess {
 public:
  SparseGaussianProcess(const SearchSpace& space, GpOptions options,
                        uint64_t seed);

  /// Replaces the training set with (X, y) and refits.
  Status Fit(const std::vector<std::vector<double>>& xs,
             const std::vector<double>& ys);

  /// Appends one training observation without refitting. O(d).
  void AddObservation(const std::vector<double>& x, double y);

  /// Fits to all observations added so far: re-selects inducing
  /// points, re-standardizes targets, re-optimizes hyperparameters on
  /// the GpOptions::reopt_interval schedule (FITC marginal likelihood,
  /// parallel restarts), and rebuilds the O(n m^2) predictor caches.
  /// O(1) when no observations were added and no re-optimization is
  /// due — the cached predictor is reused as-is.
  Status Refit();

  /// Drops all observations and the cached fit state.
  void Reset();

  /// Predictive mean and variance at `x`. O(m^2).
  void Predict(const std::vector<double>& x, double* mean,
               double* variance) const;

  /// Predictive mean and variance for every point in `xs`, blockwise
  /// and in parallel across blocks; per-point results are bit-for-bit
  /// identical to Predict().
  void PredictBatch(const std::vector<std::vector<double>>& xs,
                    std::vector<double>* means,
                    std::vector<double>* variances) const;

  int num_observations() const { return n_; }
  /// Inducing points in use (min(GpOptions::num_inducing, n)).
  int num_inducing() const { return m_; }
  /// Training-history indices of the selected inducing points.
  const std::vector<int>& inducing_indices() const { return inducing_; }
  bool fitted() const { return fitted_; }
  const KernelParams& params() const { return params_; }

  /// FITC log marginal likelihood of the current fit (diagnostics).
  double log_marginal_likelihood() const { return lml_; }

 private:
  /// Greedy max-min selection of m_ inducing points over the
  /// normalized training set (squared scaled distance + categorical
  /// mismatch count; ties break to the lowest index). Deterministic.
  void SelectInducing();
  /// Builds the (s0, mismatch) geometry between every training point
  /// and the current inducing set, plus the inducing-inducing block.
  void BuildCrossGeometry();
  /// Builds the FITC predictor caches for `params`: L_u = chol(K_uu),
  /// B = L_u^-1 K_uf, the FITC diagonal, L_m = chol(I + B D^-1 B^T),
  /// and the prediction vector w. O(n m^2).
  Status FactorPredictor(const KernelParams& params);
  /// FITC log marginal likelihood for candidate hyperparameters, from
  /// the cached cross geometry. O(n m^2).
  double EvaluateFitcLml(const KernelParams& params) const;
  /// Kernel row k(x, U) against the m_ inducing points (dim-major
  /// sweeps; `scratch` holds m_ doubles). Predict and PredictBatch
  /// both go through this, so they agree bit-for-bit.
  void KStarInducing(const BoundKernel& kernel, const double* cont,
                     const double* cat, double* row, double* scratch) const;

  SearchSpace space_;
  GpOptions options_;
  KernelSpaceCache geometry_;
  uint64_t seed_;
  int fit_count_ = 0;

  int n_ = 0;
  Matrix train_cont_;  // n x num_cont normalized continuous coords
  Matrix train_cat_;   // n x num_cat categorical coords
  std::vector<double> ys_;
  std::vector<double> ys_std_;

  int m_ = 0;
  std::vector<int> inducing_;  // training indices, selection order
  Matrix ind_cont_t_;  // num_cont x m (dim-major, for k* sweeps)
  Matrix ind_cat_t_;   // num_cat x m
  Matrix cross_s0_;    // n x m sqrt(5 * squared scaled distance)
  Matrix cross_mm_;    // n x m categorical mismatch counts (if any)
  Matrix ind_s0_;      // m x m (lower triangle)
  Matrix ind_mm_;      // m x m (lower triangle, if any)

  KernelParams params_;
  Matrix lu_;                       // chol(K_uu + jitter), m x m
  Matrix lm_;                       // chol(I + B D^-1 B^T), m x m
  std::vector<double> w_;           // M^-1 B D^-1 y_std, m
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  double lml_ = 0.0;
  bool fitted_ = false;
  /// Observation count the cached predictor was fit on; a Refit() with
  /// no new data and no reopt due is O(1).
  int fitted_n_ = 0;
};

}  // namespace llamatune
