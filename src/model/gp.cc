#include "src/model/gp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/math_util.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"

namespace llamatune {

namespace {
constexpr double kPi = 3.14159265358979323846;
}  // namespace

std::vector<KernelParams> DrawKernelRestarts(const GpOptions& options,
                                             uint64_t seed, int fit_count) {
  Rng rng(HashCombine(seed, static_cast<uint64_t>(fit_count)));
  std::vector<KernelParams> candidates(options.hyperparameter_restarts);
  for (KernelParams& cand : candidates) {
    cand.signal_variance = std::exp(rng.Uniform(std::log(0.25), std::log(4.0)));
    cand.lengthscale = std::exp(rng.Uniform(std::log(0.05), std::log(3.0)));
    cand.hamming_weight = std::exp(rng.Uniform(std::log(0.1), std::log(5.0)));
    cand.noise_variance = std::exp(rng.Uniform(std::log(1e-6), std::log(1e-1)));
    cand.noise_variance =
        std::max(cand.noise_variance, options.min_noise_variance);
  }
  return candidates;
}

// ---------------------------------------------------------------------------
// GaussianProcess
// ---------------------------------------------------------------------------

GaussianProcess::GaussianProcess(const SearchSpace& space, GpOptions options,
                                 uint64_t seed)
    : space_(space),
      options_(options),
      geometry_(space_),
      seed_(seed),
      train_cont_(0, geometry_.num_cont),
      train_cat_(0, geometry_.num_cat) {}

void GaussianProcess::Reset() {
  n_ = 0;
  train_cont_ = Matrix(0, geometry_.num_cont);
  train_cat_ = Matrix(0, geometry_.num_cat);
  train_cont_t_ = Matrix();
  train_cat_t_ = Matrix();
  ys_.clear();
  ys_std_.clear();
  s0_ = Matrix();
  mismatch_ = Matrix();
  geometry_rows_ = 0;
  gram_ = Matrix();
  chol_ = Matrix();
  z_.clear();
  alpha_.clear();
  params_ = KernelParams{};
  fit_count_ = 0;
  reopt_owed_ = false;
  y_mean_ = 0.0;
  y_std_ = 1.0;
  lml_ = 0.0;
  fitted_ = false;
}

void GaussianProcess::AddObservation(const std::vector<double>& x, double y) {
  std::vector<double> cont(geometry_.num_cont);
  std::vector<double> cat(geometry_.num_cat);
  SplitPoint(geometry_, x.data(), cont.data(), cat.data());
  train_cont_.AppendRow(cont.data());
  train_cat_.AppendRow(cat.data());
  ys_.push_back(y);
  ++n_;
}

void GaussianProcess::ExtendGeometry() {
  if (geometry_rows_ == n_) return;
  bool track_mismatch = geometry_.num_cat > 0;
  // Dim-major copies of the new training points for prediction sweeps.
  train_cont_t_.ResizePreserve(geometry_.num_cont, n_, 0.0);
  train_cat_t_.ResizePreserve(geometry_.num_cat, n_, 0.0);
  for (int i = geometry_rows_; i < n_; ++i) {
    for (int d = 0; d < geometry_.num_cont; ++d) {
      train_cont_t_.at(d, i) = train_cont_.at(i, d);
    }
    for (int d = 0; d < geometry_.num_cat; ++d) {
      train_cat_t_.at(d, i) = train_cat_.at(i, d);
    }
  }
  s0_.ResizePreserve(n_, n_, 0.0);
  if (track_mismatch) mismatch_.ResizePreserve(n_, n_, 0.0);
  // Only the lower triangle is maintained — every consumer (Gram
  // builds, factor extensions) reads rows j <= i.
  for (int r = geometry_rows_; r < n_; ++r) {
    const double* cont_r = train_cont_.Row(r);
    const double* cat_r = train_cat_.Row(r);
    double* s0_row = s0_.Row(r);
    for (int j = 0; j <= r; ++j) {
      double sq = SquaredDistance(cont_r, train_cont_.Row(j),
                                  geometry_.num_cont);
      s0_row[j] = std::sqrt(5.0 * sq);
    }
    if (track_mismatch) {
      double* mm_row = mismatch_.Row(r);
      for (int j = 0; j <= r; ++j) {
        mm_row[j] =
            CountMismatches(cat_r, train_cat_.Row(j), geometry_.num_cat);
      }
    }
  }
  geometry_rows_ = n_;
}

void GaussianProcess::BuildGram(const BoundKernel& kernel,
                                Matrix* out) const {
  bool track_mismatch = geometry_.num_cat > 0;
  out->ResizePreserve(n_, n_, 0.0);
  // Lower triangle only — the factorization never reads above the
  // diagonal (and zeroes it on output). Two passes keep the Matérn
  // sweep branch- and gather-free; element-wise arithmetic matches
  // FromPrecomputed.
  for (int i = 0; i < n_; ++i) {
    double* out_row = out->Row(i);
    const double* s0_row = s0_.Row(i);
    for (int j = 0; j <= i; ++j) out_row[j] = kernel.MaternFromS0(s0_row[j]);
    if (track_mismatch) {
      const double* mm_row = mismatch_.Row(i);
      for (int j = 0; j <= i; ++j) {
        out_row[j] *= kernel.HammingFactor(mm_row[j]);
      }
    }
  }
}

Status GaussianProcess::FactorFull(const KernelParams& params) {
  // A rebuilt factor (possibly with an escalated nugget) invalidates
  // the cached forward-solve prefix.
  z_.clear();
  BuildGram(BoundKernel(geometry_, params), &gram_);
  KernelParams p = params;
  // Jitter escalation: grow the nugget until the Gram matrix factors.
  // The Gram matrix itself is built once — each retry only re-copies it
  // and bumps the diagonal (the nugget is the only thing that changed).
  for (int attempt = 0; attempt < 6; ++attempt) {
    chol_ = gram_;
    for (int i = 0; i < n_; ++i) chol_.at(i, i) += p.noise_variance;
    if (CholeskyFactorInPlace(&chol_).ok()) {
      params_ = p;
      return Status::OK();
    }
    p.noise_variance = std::max(p.noise_variance, 1e-8) * 10.0;
  }
  return Status::Internal("GP fit failed: Gram matrix never factored");
}

Status GaussianProcess::ExtendFactor(int old_n) {
  bool track_mismatch = geometry_.num_cat > 0;
  BoundKernel kernel(geometry_, params_);
  std::vector<double> krow;
  for (int r = old_n; r < n_; ++r) {
    krow.resize(r + 1);
    const double* s0_row = s0_.Row(r);
    for (int j = 0; j <= r; ++j) krow[j] = kernel.MaternFromS0(s0_row[j]);
    if (track_mismatch) {
      const double* mm_row = mismatch_.Row(r);
      for (int j = 0; j <= r; ++j) krow[j] *= kernel.HammingFactor(mm_row[j]);
    }
    krow[r] += params_.noise_variance;
    Status st = CholeskyExtend(&chol_, krow.data());
    if (!st.ok()) {
      // Lost positive definiteness (e.g. a near-duplicate point):
      // rebuild from scratch with jitter escalation.
      return FactorFull(params_);
    }
  }
  return Status::OK();
}

void GaussianProcess::ComputeAlphaAndLml() {
  // Resume the cached forward-solve prefix: entry i of z = L^-1 y_std
  // depends only on rows [0, i] of L and y_std, both of which a
  // CholeskyExtend leaves untouched, so continuing the substitution
  // from z_.size() is bit-for-bit a full TriangularSolveLower. After a
  // FactorFull the prefix is empty and this IS the full solve.
  int start = static_cast<int>(z_.size());
  z_.resize(n_, 0.0);
  for (int i = start; i < n_; ++i) {
    const double* row_i = chol_.Row(i);
    double acc = ys_std_[i];
    for (int k = 0; k < i; ++k) acc -= row_i[k] * z_[k];
    z_[i] = acc / row_i[i];
  }
  alpha_.assign(n_, 0.0);
  TriangularSolveLowerTransposed(chol_, z_.data(), alpha_.data());
  // lml = -1/2 y^T alpha - sum log L_ii - n/2 log(2 pi)
  double lml = 0.0;
  for (int i = 0; i < n_; ++i) lml -= 0.5 * ys_std_[i] * alpha_[i];
  for (int i = 0; i < n_; ++i) lml -= std::log(chol_.at(i, i));
  lml -= 0.5 * static_cast<double>(n_) * std::log(2.0 * kPi);
  lml_ = lml;
}

double GaussianProcess::EvaluateLml(const KernelParams& params) const {
  Matrix l;
  BuildGram(BoundKernel(geometry_, params), &l);
  for (int i = 0; i < n_; ++i) l.at(i, i) += params.noise_variance;
  if (!CholeskyFactorInPlace(&l).ok()) {
    return -std::numeric_limits<double>::infinity();
  }
  std::vector<double> z(n_, 0.0);
  TriangularSolveLower(l, ys_std_.data(), z.data());
  std::vector<double> alpha(n_, 0.0);
  TriangularSolveLowerTransposed(l, z.data(), alpha.data());
  double lml = 0.0;
  for (int i = 0; i < n_; ++i) lml -= 0.5 * ys_std_[i] * alpha[i];
  for (int i = 0; i < n_; ++i) lml -= std::log(l.at(i, i));
  lml -= 0.5 * static_cast<double>(n_) * std::log(2.0 * kPi);
  return lml;
}

void GaussianProcess::AdvanceFitSchedule(int steps) {
  if (steps <= 0) return;
  int interval = std::max(1, options_.reopt_interval);
  // Refit() tests fit_count_ % interval before incrementing, so the
  // values skipped here — [fit_count_, fit_count_ + steps - 1] minus
  // the one the next Refit() will test — may contain a boundary.
  // Conservatively flag any boundary in the advanced-over range that
  // the next call's own test would miss.
  int lo = fit_count_;
  int hi = fit_count_ + steps - 1;
  if ((hi / interval) * interval >= lo) reopt_owed_ = true;
  fit_count_ += steps;
  if (fit_count_ % interval == 0) reopt_owed_ = false;  // next test catches it
}

Status GaussianProcess::Refit() {
  if (n_ == 0) {
    return Status::InvalidArgument("GP::Refit requires observations");
  }
  bool reopt = reopt_owed_ ||
               (fit_count_ % std::max(1, options_.reopt_interval)) == 0 ||
               !fitted_;
  reopt_owed_ = false;
  ++fit_count_;

  // Target standardization refreshes at re-optimization boundaries and
  // stays frozen between them (see class comment): the frozen prefix
  // of ys_std_ is what lets the cached forward-solve vector z_ survive
  // factor extensions. New observations since the last boundary are
  // standardized with the frozen (mean, stddev).
  if (reopt) {
    y_mean_ = Mean(ys_);
    y_std_ = std::max(Stddev(ys_), 1e-9);
    ys_std_.resize(n_);
    for (int i = 0; i < n_; ++i) ys_std_[i] = (ys_[i] - y_mean_) / y_std_;
  } else {
    for (int i = static_cast<int>(ys_std_.size()); i < n_; ++i) {
      ys_std_.push_back((ys_[i] - y_mean_) / y_std_);
    }
  }

  ExtendGeometry();

  KernelParams best = params_;
  if (reopt) {
    // Candidates are drawn sequentially (a fixed RNG stream), then
    // scored in parallel: the selected optimum is independent of the
    // executor count.
    std::vector<KernelParams> candidates =
        DrawKernelRestarts(options_, seed_, fit_count_);
    int restarts = static_cast<int>(candidates.size());
    std::vector<double> lmls(restarts, 0.0);
    ThreadPool::Global().ParallelFor(
        restarts, [&](int r) { lmls[r] = EvaluateLml(candidates[r]); },
        options_.num_threads);
    double best_lml = -std::numeric_limits<double>::infinity();
    for (int r = 0; r < restarts; ++r) {
      if (lmls[r] > best_lml) {
        best_lml = lmls[r];
        best = candidates[r];
      }
    }
    if (!std::isfinite(best_lml)) {
      best = KernelParams{};  // fall back to defaults
    }
  }

  int factored = fitted_ ? chol_.rows() : 0;
  Status st;
  if (reopt || factored == 0) {
    st = FactorFull(best);
  } else if (factored == n_) {
    // No new observations since the cached factor (e.g. several
    // suggestions between evaluations): with the standardization
    // frozen between boundaries, the factor, z prefix, alpha, and lml
    // are all still current — nothing to do.
    if (static_cast<int>(z_.size()) == n_ &&
        static_cast<int>(alpha_.size()) == n_) {
      return Status::OK();
    }
    st = Status::OK();
  } else if (options_.incremental) {
    st = ExtendFactor(factored);
  } else {
    st = FactorFull(params_);
  }
  if (!st.ok()) {
    // A failed factorization leaves chol_ partially overwritten; drop
    // the fit state so the next Refit rebuilds from scratch instead of
    // reusing (or rank-extending) the corrupted factor.
    fitted_ = false;
    chol_ = Matrix();
    z_.clear();
    return st;
  }
  ComputeAlphaAndLml();
  fitted_ = true;
  return Status::OK();
}

Status GaussianProcess::Condition(const std::vector<double>& x, double y) {
  if (!fitted_ || chol_.rows() != n_) {
    return Status::FailedPrecondition(
        "GP::Condition requires a fitted model with a current factor");
  }
  int old_n = n_;
  AddObservation(x, y);
  ExtendGeometry();
  // The standardization stays frozen at the last Refit(): fantasies
  // are drawn from the fitted posterior, whose scale they must share.
  ys_std_.push_back((y - y_mean_) / y_std_);
  Status st = ExtendFactor(old_n);
  if (!st.ok()) {
    // ExtendFactor already fell back to a full refactorization; a
    // failure here means even jitter escalation could not recover.
    fitted_ = false;
    chol_ = Matrix();
    z_.clear();
    return st;
  }
  ComputeAlphaAndLml();
  return Status::OK();
}

void GaussianProcess::KStarRow(const BoundKernel& kernel, const double* cont,
                               const double* cat, int m, double* row,
                               double* sq_scratch) const {
  // Squared distances via dim-major passes: each pass streams one
  // contiguous coordinate row and vectorizes across training points.
  for (int i = 0; i < m; ++i) sq_scratch[i] = 0.0;
  for (int d = 0; d < geometry_.num_cont; ++d) {
    double cd = cont[d];
    const double* __restrict__ td = train_cont_t_.Row(d);
    double* __restrict__ sq = sq_scratch;
    for (int i = 0; i < m; ++i) {
      double diff = cd - td[i];
      sq[i] += diff * diff;
    }
  }
  for (int i = 0; i < m; ++i) {
    row[i] = kernel.MaternFromS0(std::sqrt(5.0 * sq_scratch[i]));
  }
  if (geometry_.num_cat > 0) {
    for (int i = 0; i < m; ++i) sq_scratch[i] = 0.0;
    for (int d = 0; d < geometry_.num_cat; ++d) {
      double cd = cat[d];
      const double* __restrict__ td = train_cat_t_.Row(d);
      double* __restrict__ mm = sq_scratch;
      for (int i = 0; i < m; ++i) mm[i] += cd != td[i] ? 1.0 : 0.0;
    }
    for (int i = 0; i < m; ++i) {
      row[i] *= kernel.HammingFactor(sq_scratch[i]);
    }
  }
}

Status GaussianProcess::Fit(const std::vector<std::vector<double>>& xs,
                            const std::vector<double>& ys) {
  if (xs.empty() || xs.size() != ys.size()) {
    return Status::InvalidArgument("GP::Fit requires matched non-empty data");
  }
  Reset();
  for (size_t i = 0; i < xs.size(); ++i) AddObservation(xs[i], ys[i]);
  return Refit();
}

void GaussianProcess::Predict(const std::vector<double>& x, double* mean,
                              double* variance) const {
  // One-element batch: Predict() and PredictBatch() share every
  // instruction of the scoring path (k_star build, triangular solves,
  // reductions), so their results are bit-for-bit identical by
  // construction — there is no separate scalar path to drift.
  std::vector<double> means, variances;
  PredictBatch({x}, &means, &variances);
  *mean = means[0];
  *variance = variances[0];
}

Matrix GaussianProcess::KStarBlock(const std::vector<std::vector<double>>& xs,
                                   int lo, int hi) const {
  BoundKernel kernel(geometry_, params_);
  int n = chol_.rows();  // fitted prefix
  int bm = hi - lo;
  // Rows candidate-major for the kernel sweep, then transposed.
  Matrix k_star(bm, n);
  std::vector<double> cont(geometry_.num_cont);
  std::vector<double> cat(geometry_.num_cat);
  std::vector<double> scratch(n);
  for (int c = 0; c < bm; ++c) {
    SplitPoint(geometry_, xs[lo + c].data(), cont.data(), cat.data());
    KStarRow(kernel, cont.data(), cat.data(), n, k_star.Row(c),
             scratch.data());
  }
  Matrix v(n, bm);
  for (int i = 0; i < n; ++i) {
    double* v_row = v.Row(i);
    for (int c = 0; c < bm; ++c) v_row[c] = k_star.at(c, i);
  }
  return v;
}

void GaussianProcess::PredictBatch(const std::vector<std::vector<double>>& xs,
                                   std::vector<double>* means,
                                   std::vector<double>* variances) const {
  int m = static_cast<int>(xs.size());
  means->assign(m, 0.0);
  variances->assign(m, 0.0);
  if (m == 0) return;
  if (!fitted_ || n_ == 0) {
    // Prior-only batch: fill the same constants Predict() returns for
    // an unfitted model in one contiguous pass (no per-candidate
    // scalar fallback — every entry is bit-for-bit Predict()).
    double prior_var =
        (params_.signal_variance + params_.noise_variance) * y_std_ * y_std_;
    for (int c = 0; c < m; ++c) {
      (*means)[c] = y_mean_;
      (*variances)[c] = prior_var;
    }
    return;
  }
  // A fitted model always takes the blockwise path — observations
  // appended after the last Refit() (pending mid-round points) simply
  // cap the solve at the factored prefix, exactly as Predict() does.

  BoundKernel kernel(geometry_, params_);
  double k_xx = kernel.FromDistance(0.0, 0.0) + params_.noise_variance;
  double var_scale = y_std_ * y_std_;
  constexpr int kBlock = 128;
  int num_blocks = (m + kBlock - 1) / kBlock;
  ThreadPool::Global().ParallelFor(
      num_blocks,
      [&](int b) {
        int lo = b * kBlock;
        int hi = std::min(m, lo + kBlock);
        int bm = hi - lo;
        // Column per candidate: the mean k*^T alpha runs one lane per
        // candidate, and one multi-solve against the cached factor
        // serves every k_star column.
        Matrix v = KStarBlock(xs, lo, hi);
        std::vector<double> mu_std = v.ApplyTransposed(alpha_);
        TriangularSolveLowerMulti(chol_, &v);
        std::vector<double> sum_sq = v.ColumnSumsOfSquares();
        for (int c = 0; c < bm; ++c) {
          (*means)[lo + c] = mu_std[c] * y_std_ + y_mean_;
          double var_std = std::max(k_xx - sum_sq[c], 1e-12);
          (*variances)[lo + c] = var_std * var_scale;
        }
      },
      options_.num_threads);
}

}  // namespace llamatune
