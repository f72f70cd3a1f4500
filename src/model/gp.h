#pragma once

#include <cstdint>
#include <vector>

#include "src/common/matrix.h"
#include "src/common/status.h"
#include "src/model/kernels.h"
#include "src/optimizer/search_space.h"

namespace llamatune {

/// \brief Options for GP fitting.
struct GpOptions {
  /// Random-search restarts for hyperparameter selection by maximum
  /// log marginal likelihood.
  int hyperparameter_restarts = 24;
  /// Re-optimize hyperparameters every this many Refit() calls (1 =
  /// always); between re-optimizations the previous optimum is reused.
  int reopt_interval = 5;
  double min_noise_variance = 1e-6;
  /// Between hyperparameter re-optimizations, extend the cached
  /// Cholesky factor by one row/column per new observation (O(n^2))
  /// instead of refactorizing from scratch (O(n^3)). The extension
  /// arithmetic is bit-for-bit identical to a full refactorization of
  /// the same Gram matrix, and any extension failure falls back to the
  /// full path, so this is purely a performance switch.
  bool incremental = true;
  /// Executor cap for parallel sections (hyperparameter restarts,
  /// batch prediction). 0 = shared pool size; 1 = serial.
  int num_threads = 0;
  /// Exact -> sparse switchover for GP-BO: once the training set
  /// reaches this many observations, suggestion scoring runs through
  /// the inducing-point SparseGaussianProcess (O(n m^2) fit, O(m^2)
  /// predict) instead of the exact model. 0 disables the switchover —
  /// and trajectories below the threshold are bit-for-bit identical to
  /// a sparse-disabled run, so enabling it can only change large-n
  /// behavior. Consumed by GpBoOptimizer and SparseGaussianProcess,
  /// not by the exact GaussianProcess itself.
  int sparse_threshold = 0;
  /// Inducing-point budget m for the sparse predictor (clamped to the
  /// training-set size). Larger m tracks the exact posterior more
  /// closely at O(n m^2) fit cost.
  int num_inducing = 64;
};

/// \brief Exact Gaussian-process regression over a mixed search space.
///
/// Uses the Matérn-5/2 x Hamming product kernel (see kernels.h), a
/// Cholesky factorization of the Gram matrix, and marginal-likelihood
/// hyperparameter selection via seeded random search. Targets are
/// internally standardized (zero mean, unit variance) for numerical
/// stability; predictions are returned on the original scale.
///
/// The fitting hot path is incremental: training points accumulate via
/// AddObservation(), the pairwise (distance, mismatch) geometry and the
/// Cholesky factor are cached across Refit() calls, and — between
/// hyperparameter re-optimizations — each new observation extends the
/// cached factor in O(n^2) rather than refitting in O(n^3).
///
/// Target standardization follows the hyperparameter schedule: the
/// (mean, stddev) pair refreshes at re-optimization boundaries (where
/// the full O(n^3) refactorization happens anyway) and stays frozen
/// between them — the hyperparameters in use were selected under that
/// standardization, so the model stays internally consistent. The
/// freeze is what makes the *alpha-prefix invariant* hold: the forward
/// -solve vector z = L^-1 y_std is cached alongside the factor, a
/// CholeskyExtend step appends exactly one new z entry (forward
/// substitution is prefix-stable), and refreshing alpha costs one
/// O(n^2) back-substitution instead of two full triangular solves.
/// The cached-prefix arithmetic is bit-for-bit identical to solving
/// from scratch against the same factor (tests/gp_test.cc pins the
/// incremental path against the full-refit path over a session).
class GaussianProcess {
 public:
  GaussianProcess(const SearchSpace& space, GpOptions options, uint64_t seed);

  /// Replaces the training set with (X, y) and refits: equivalent to
  /// Reset() + AddObservation()* + Refit(). Returns an error if the
  /// Cholesky factorization fails even after jitter escalation.
  Status Fit(const std::vector<std::vector<double>>& xs,
             const std::vector<double>& ys);

  /// Appends one training observation without refitting. O(d).
  void AddObservation(const std::vector<double>& x, double y);

  /// Fits to all observations added so far. Incremental when possible
  /// (see class comment): between re-optimizations each new
  /// observation costs one O(n^2) factor extension plus one O(n^2)
  /// back-substitution (the forward-solve prefix is cached), and with
  /// no new data the call is O(1) — the cached fit is already current.
  Status Refit();

  /// Advances the Refit() schedule by `steps` extra calls without
  /// fitting. A batch-aware optimizer that refits once per q-point
  /// round (instead of once per suggestion) calls this with q-1 so the
  /// hyperparameter re-optimization cadence stays "every
  /// reopt_interval suggestions", matching the sequential path's model
  /// quality per observation. A re-optimization boundary inside the
  /// skipped stretch is not lost: the next Refit() honors it (without
  /// this, a batch size sharing a factor with reopt_interval could
  /// phase-skip every boundary and never re-optimize again).
  void AdvanceFitSchedule(int steps);

  /// Drops all observations and the cached fit state.
  void Reset();

  /// Fantasy conditioning: appends (x, y) as a training observation and
  /// rank-extends the cached Cholesky factor under the *current*
  /// hyperparameters and target standardization — no hyperparameter
  /// re-optimization, no Refit() schedule advance. O(n^2), and
  /// bit-for-bit deterministic at any thread count. Requires fitted().
  ///
  /// This is the greedy q-EI primitive: a *copy* of a fitted GP is
  /// conditioned on hallucinated outcomes (the posterior mean at each
  /// picked point) so subsequent acquisition maximizations are pushed
  /// away from points the batch already covers, then the copy is
  /// discarded. The real model never sees fantasies.
  Status Condition(const std::vector<double>& x, double y);

  /// Predictive mean and variance at `x`.
  void Predict(const std::vector<double>& x, double* mean,
               double* variance) const;

  /// Predictive mean and variance for every point in `xs` in one pass:
  /// all k_star columns are solved against the cached Cholesky factor
  /// blockwise (and in parallel across blocks). Per-point results are
  /// bit-for-bit identical to Predict().
  void PredictBatch(const std::vector<std::vector<double>>& xs,
                    std::vector<double>* means,
                    std::vector<double>* variances) const;

  /// k(X_fit, x) for every x in xs[lo, hi), one column per candidate
  /// against the fitted prefix (fitted n x (hi - lo)): the block
  /// PredictBatch solves. Requires a fitted model. Public so that
  /// benches can time the kernel build apart from the solves.
  Matrix KStarBlock(const std::vector<std::vector<double>>& xs, int lo,
                    int hi) const;

  int num_observations() const { return n_; }
  bool fitted() const { return fitted_; }
  const KernelParams& params() const { return params_; }

  /// Log marginal likelihood of the current fit (diagnostics).
  double log_marginal_likelihood() const { return lml_; }

 private:
  /// Extends the cached pairwise distance/mismatch matrices to cover
  /// all n_ observations (O(new_rows * n * d)).
  void ExtendGeometry();
  /// Materializes the Gram matrix (no nugget) for `kernel` from the
  /// cached geometry in O(n^2) — one exp per pair.
  void BuildGram(const BoundKernel& kernel, Matrix* out) const;
  /// Full factorization with jitter escalation: the Gram matrix is
  /// built once; failed attempts only bump the diagonal nugget and
  /// refactor (no O(n^2 d) kernel-matrix rebuild).
  Status FactorFull(const KernelParams& params);
  /// Rank-extends the cached factor for rows [old_n, n_). Falls back
  /// to FactorFull() if the extension loses positive definiteness.
  Status ExtendFactor(int old_n);
  /// Recomputes alpha = K^-1 y_std and the log marginal likelihood
  /// from the cached factor, resuming the cached forward-solve prefix
  /// z_ where it left off: after a FactorFull the prefix is empty and
  /// this is the classic two full solves; after a CholeskyExtend it is
  /// one new z entry plus one O(n^2) back-substitution. Bit-for-bit
  /// identical either way (forward substitution is prefix-stable).
  void ComputeAlphaAndLml();
  double EvaluateLml(const KernelParams& params) const;

  SearchSpace space_;
  GpOptions options_;
  KernelSpaceCache geometry_;
  uint64_t seed_;
  int fit_count_ = 0;
  /// AdvanceFitSchedule() jumped over a reopt boundary: the next
  /// Refit() re-optimizes hyperparameters regardless of phase.
  bool reopt_owed_ = false;

  /// Kernel row k(x, X_train) for a split/normalized query against the
  /// first `m` training points, via dim-major sweeps over the
  /// transposed training blocks (vectorizes across training points).
  /// `sq_scratch` must hold m doubles. Both Predict and PredictBatch
  /// go through this (by way of KStarBlock), so their results are
  /// bit-for-bit identical.
  void KStarRow(const BoundKernel& kernel, const double* cont,
                const double* cat, int m, double* row,
                double* sq_scratch) const;

  int n_ = 0;
  Matrix train_cont_;   // n x num_cont normalized continuous coords
  Matrix train_cat_;    // n x num_cat categorical coords
  Matrix train_cont_t_;  // num_cont x n (dim-major, for prediction sweeps)
  Matrix train_cat_t_;   // num_cat x n
  std::vector<double> ys_;
  std::vector<double> ys_std_;
  Matrix s0_;           // n x n sqrt(5 * squared scaled distance)
  Matrix mismatch_;     // n x n categorical mismatch counts (if any)
  int geometry_rows_ = 0;

  KernelParams params_;
  Matrix gram_;         // cached Gram (no nugget) for params_
  Matrix chol_;         // lower-triangular L, chol_.rows() rows factored
  /// Cached forward-solve prefix z = L^-1 y_std, valid for the first
  /// z_.size() rows of chol_. Cleared whenever the factor or the
  /// standardization is rebuilt (FactorFull); extended in O(n) per new
  /// row otherwise.
  std::vector<double> z_;
  std::vector<double> alpha_;  // K^-1 (y - mean)
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  double lml_ = 0.0;
  bool fitted_ = false;
};

/// Draws the hyperparameter-restart candidates for fit call
/// `fit_count` from a fixed serial RNG stream (log-uniform priors,
/// noise clamped to GpOptions::min_noise_variance). One definition
/// shared by the exact and sparse models, so their restart priors can
/// never drift apart; candidates are scored in parallel by the caller
/// and the stream is executor-independent.
std::vector<KernelParams> DrawKernelRestarts(const GpOptions& options,
                                             uint64_t seed, int fit_count);

}  // namespace llamatune
