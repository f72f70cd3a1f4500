#include "src/model/sparse_gp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/lanes.h"
#include "src/common/math_util.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"

namespace llamatune {

namespace {
constexpr double kPi = 3.14159265358979323846;
/// Base diagonal jitter on K_uu. The inducing Gram block has no noise
/// nugget of its own (noise lives on the FITC diagonal), so a small
/// fixed jitter keeps near-duplicate inducing points factorable; the
/// predictor build escalates it like the exact GP's FactorFull.
constexpr double kInducingJitter = 1e-8;
}  // namespace

SparseGaussianProcess::SparseGaussianProcess(const SearchSpace& space,
                                             GpOptions options, uint64_t seed)
    : space_(space),
      options_(options),
      geometry_(space_),
      seed_(seed),
      train_cont_(0, geometry_.num_cont),
      train_cat_(0, geometry_.num_cat) {}

void SparseGaussianProcess::Reset() {
  n_ = 0;
  train_cont_ = Matrix(0, geometry_.num_cont);
  train_cat_ = Matrix(0, geometry_.num_cat);
  ys_.clear();
  ys_std_.clear();
  m_ = 0;
  inducing_.clear();
  ind_cont_t_ = Matrix();
  ind_cat_t_ = Matrix();
  cross_s0_ = Matrix();
  cross_mm_ = Matrix();
  ind_s0_ = Matrix();
  ind_mm_ = Matrix();
  params_ = KernelParams{};
  lu_ = Matrix();
  lm_ = Matrix();
  w_.clear();
  fit_count_ = 0;
  y_mean_ = 0.0;
  y_std_ = 1.0;
  lml_ = 0.0;
  fitted_ = false;
  fitted_n_ = 0;
}

void SparseGaussianProcess::AddObservation(const std::vector<double>& x,
                                           double y) {
  std::vector<double> cont(geometry_.num_cont);
  std::vector<double> cat(geometry_.num_cat);
  SplitPoint(geometry_, x.data(), cont.data(), cat.data());
  train_cont_.AppendRow(cont.data());
  train_cat_.AppendRow(cat.data());
  ys_.push_back(y);
  ++n_;
}

void SparseGaussianProcess::SelectInducing() {
  m_ = std::min(std::max(1, options_.num_inducing), n_);
  inducing_.clear();
  inducing_.reserve(m_);
  // Farthest-point traversal seeded at the first observation: each
  // round adds the training point with the largest distance to the
  // already-selected set (squared scaled continuous distance plus raw
  // categorical mismatch count — the same normalized geometry the
  // kernel runs on). Pure index arithmetic, ties to the lowest index:
  // the selection is a deterministic function of the history alone.
  inducing_.push_back(0);
  std::vector<double> min_dist(n_, std::numeric_limits<double>::infinity());
  int last = 0;
  for (int round = 1; round < m_; ++round) {
    const double* cont_l = train_cont_.Row(last);
    const double* cat_l = train_cat_.Row(last);
    int next = -1;
    double next_dist = -1.0;
    for (int i = 0; i < n_; ++i) {
      double d = SquaredDistance(train_cont_.Row(i), cont_l,
                                 geometry_.num_cont);
      if (geometry_.num_cat > 0) {
        d += CountMismatches(train_cat_.Row(i), cat_l, geometry_.num_cat);
      }
      if (d < min_dist[i]) min_dist[i] = d;
      if (min_dist[i] > next_dist) {
        next_dist = min_dist[i];
        next = i;
      }
    }
    // All remaining points coincide with selected ones: a smaller
    // inducing set already covers the history exactly.
    if (next < 0 || next_dist <= 0.0) break;
    inducing_.push_back(next);
    last = next;
  }
  m_ = static_cast<int>(inducing_.size());
}

void SparseGaussianProcess::BuildCrossGeometry() {
  bool track_mismatch = geometry_.num_cat > 0;
  ind_cont_t_ = Matrix(geometry_.num_cont, m_);
  ind_cat_t_ = Matrix(geometry_.num_cat, m_);
  for (int u = 0; u < m_; ++u) {
    int idx = inducing_[u];
    for (int d = 0; d < geometry_.num_cont; ++d) {
      ind_cont_t_.at(d, u) = train_cont_.at(idx, d);
    }
    for (int d = 0; d < geometry_.num_cat; ++d) {
      ind_cat_t_.at(d, u) = train_cat_.at(idx, d);
    }
  }
  cross_s0_ = Matrix(n_, m_);
  if (track_mismatch) cross_mm_ = Matrix(n_, m_);
  for (int i = 0; i < n_; ++i) {
    const double* cont_i = train_cont_.Row(i);
    const double* cat_i = train_cat_.Row(i);
    double* s0_row = cross_s0_.Row(i);
    for (int u = 0; u < m_; ++u) {
      double sq = SquaredDistance(cont_i, train_cont_.Row(inducing_[u]),
                                  geometry_.num_cont);
      s0_row[u] = std::sqrt(5.0 * sq);
    }
    if (track_mismatch) {
      double* mm_row = cross_mm_.Row(i);
      for (int u = 0; u < m_; ++u) {
        mm_row[u] = CountMismatches(cat_i, train_cat_.Row(inducing_[u]),
                                    geometry_.num_cat);
      }
    }
  }
  // The inducing-inducing block is just the cross rows at the inducing
  // indices.
  ind_s0_ = Matrix(m_, m_);
  if (track_mismatch) ind_mm_ = Matrix(m_, m_);
  for (int u = 0; u < m_; ++u) {
    const double* s0_row = cross_s0_.Row(inducing_[u]);
    for (int v = 0; v < m_; ++v) ind_s0_.at(u, v) = s0_row[v];
    if (track_mismatch) {
      const double* mm_row = cross_mm_.Row(inducing_[u]);
      for (int v = 0; v < m_; ++v) ind_mm_.at(u, v) = mm_row[v];
    }
  }
}

namespace {

/// Shared FITC assembly: factors K_uu + jitter, solves B = L_u^-1 K_uf,
/// builds the FITC diagonal inverse, r = B D^-1 y_std and
/// M = I + B D^-1 B^T, and factors M. Returns false if either
/// factorization fails at this jitter.
struct FitcParts {
  Matrix lu;                    // chol(K_uu + jitter)
  std::vector<double> d_inv;    // FITC diagonal inverse (n)
  double sum_log_d = 0.0;       // sum log d_i
  std::vector<double> r;        // B D^-1 y_std (m)
  Matrix lm;                    // chol(I + B D^-1 B^T)
};

bool BuildFitcParts(const BoundKernel& kernel, const KernelParams& params,
                    const Matrix& ind_s0, const Matrix& ind_mm,
                    const Matrix& cross_s0, const Matrix& cross_mm,
                    const std::vector<double>& ys_std, int n, int m,
                    bool track_mismatch, double jitter, int num_threads,
                    FitcParts* out) {
  // K_uu (lower triangle) + jitter.
  out->lu = Matrix(m, m);
  for (int u = 0; u < m; ++u) {
    double* row = out->lu.Row(u);
    const double* s0_row = ind_s0.Row(u);
    for (int v = 0; v <= u; ++v) row[v] = kernel.MaternFromS0(s0_row[v]);
    if (track_mismatch) {
      const double* mm_row = ind_mm.Row(u);
      for (int v = 0; v <= u; ++v) row[v] *= kernel.HammingFactor(mm_row[v]);
    }
    row[u] += jitter;
  }
  if (!CholeskyFactorInPlace(&out->lu).ok()) return false;

  // B = L_u^-1 K_uf, all n columns in one sweep.
  Matrix b(m, n);
  for (int u = 0; u < m; ++u) {
    double* b_row = b.Row(u);
    for (int i = 0; i < n; ++i) {
      double k = kernel.MaternFromS0(cross_s0.at(i, u));
      if (track_mismatch) k *= kernel.HammingFactor(cross_mm.at(i, u));
      b_row[i] = k;
    }
  }
  TriangularSolveLowerMulti(out->lu, &b);

  // FITC diagonal d_i = k_ii - q_ii + noise, q_ii = sum_u B(u,i)^2.
  // q_ii <= k_ii in exact arithmetic (jitter only lowers it), so d_i
  // >= noise; the floor guards rounding.
  double k_ii = kernel.FromDistance(0.0, 0.0);
  std::vector<double> q = b.ColumnSumsOfSquares();
  out->d_inv.assign(n, 0.0);
  out->sum_log_d = 0.0;
  for (int i = 0; i < n; ++i) {
    double d = std::max(k_ii - q[i] + params.noise_variance, 1e-12);
    out->d_inv[i] = 1.0 / d;
    out->sum_log_d += std::log(d);
  }

  // The rest reads B transposed, so that B's columns u lie side by side
  // in lanes.
  Matrix bt(n, m);
  for (int u = 0; u < m; ++u) {
    const double* b_row = b.Row(u);
    for (int i = 0; i < n; ++i) bt.at(i, u) = b_row[i];
  }

  // r_u = sum_i (B(u,i) d_i^-1) y_i over ascending i, one lane per u.
  out->r.assign(m, 0.0);
  double* r = out->r.data();
  for (int i = 0; i < n; ++i) {
    const double* bt_row = bt.Row(i);
    const double d_i = out->d_inv[i];
    const double y_i = ys_std[i];
    int u = 0;
    for (; u + 4 <= m; u += 4) {
      *AsLanes(r + u) += *AsLanes(bt_row + u) * d_i * y_i;
    }
    for (; u < m; ++u) r[u] += bt_row[u] * d_i * y_i;
  }

  // M = I + B D^-1 B^T (lower triangle). Each (u, v) entry is an
  // index-ordered reduction over i, so the result is independent of
  // the executor count.
  out->lm = Matrix(m, m);
  WeightedGramLower(bt, out->d_inv.data(), &out->lm, num_threads);
  for (int u = 0; u < m; ++u) out->lm.at(u, u) += 1.0;
  return CholeskyFactorInPlace(&out->lm).ok();
}

/// FITC log marginal likelihood from assembled parts:
/// -1/2 [y^T D^-1 y - g^T g] - 1/2 [sum log d_i + 2 sum log L_m,ii]
/// - n/2 log 2pi, with g = L_m^-1 B D^-1 y (the matrix determinant
/// lemma through the same factors the predictor uses). Shared by the
/// restart scoring and the final fit, so the stored diagnostic can
/// never diverge from the value the restarts optimized. `g_out`, when
/// non-null, receives g for the predictor's w = L_m^-T g solve.
double FitcLmlFromParts(const FitcParts& parts,
                        const std::vector<double>& ys_std, int n, int m,
                        std::vector<double>* g_out) {
  std::vector<double> g(m, 0.0);
  TriangularSolveLower(parts.lm, parts.r.data(), g.data());
  double quad = 0.0;
  for (int i = 0; i < n; ++i) quad += ys_std[i] * ys_std[i] * parts.d_inv[i];
  for (int u = 0; u < m; ++u) quad -= g[u] * g[u];
  double logdet = parts.sum_log_d;
  for (int u = 0; u < m; ++u) logdet += 2.0 * std::log(parts.lm.at(u, u));
  if (g_out != nullptr) *g_out = std::move(g);
  return -0.5 * quad - 0.5 * logdet -
         0.5 * static_cast<double>(n) * std::log(2.0 * kPi);
}

}  // namespace

double SparseGaussianProcess::EvaluateFitcLml(
    const KernelParams& params) const {
  BoundKernel kernel(geometry_, params);
  FitcParts parts;
  // Serial inner build: EvaluateFitcLml itself runs inside the
  // restart ParallelFor.
  if (!BuildFitcParts(kernel, params, ind_s0_, ind_mm_, cross_s0_, cross_mm_,
                      ys_std_, n_, m_, geometry_.num_cat > 0, kInducingJitter,
                      /*num_threads=*/1, &parts)) {
    return -std::numeric_limits<double>::infinity();
  }
  return FitcLmlFromParts(parts, ys_std_, n_, m_, nullptr);
}

Status SparseGaussianProcess::FactorPredictor(const KernelParams& params) {
  BoundKernel kernel(geometry_, params);
  double jitter = kInducingJitter;
  for (int attempt = 0; attempt < 6; ++attempt) {
    FitcParts parts;
    if (BuildFitcParts(kernel, params, ind_s0_, ind_mm_, cross_s0_, cross_mm_,
                       ys_std_, n_, m_, geometry_.num_cat > 0, jitter,
                       options_.num_threads, &parts)) {
      // w = M^-1 B D^-1 y_std — the O(m) prediction vector — and the
      // FITC log marginal likelihood from the same intermediates.
      std::vector<double> g;
      lml_ = FitcLmlFromParts(parts, ys_std_, n_, m_, &g);
      lu_ = std::move(parts.lu);
      lm_ = std::move(parts.lm);
      w_.assign(m_, 0.0);
      TriangularSolveLowerTransposed(lm_, g.data(), w_.data());
      params_ = params;
      return Status::OK();
    }
    jitter *= 10.0;
  }
  return Status::Internal("sparse GP fit failed: inducing block never factored");
}

Status SparseGaussianProcess::Refit() {
  if (n_ == 0) {
    return Status::InvalidArgument("SparseGP::Refit requires observations");
  }
  // The sparse model refits per suggestion (the batch-aware modes keep
  // the exact model), so unlike GaussianProcess there is no
  // AdvanceFitSchedule and no owed-boundary bookkeeping here.
  bool reopt = (fit_count_ % std::max(1, options_.reopt_interval)) == 0 ||
               !fitted_;
  ++fit_count_;

  // No new observations and no hyperparameter refresh due: the cached
  // predictor is already current (mirrors the exact GP's O(1) path —
  // e.g. several suggestions between evaluations).
  if (!reopt && fitted_ && fitted_n_ == n_) return Status::OK();

  y_mean_ = Mean(ys_);
  y_std_ = std::max(Stddev(ys_), 1e-9);
  ys_std_.resize(n_);
  for (int i = 0; i < n_; ++i) ys_std_[i] = (ys_[i] - y_mean_) / y_std_;

  SelectInducing();
  BuildCrossGeometry();

  KernelParams best = params_;
  if (reopt) {
    // Same candidate stream as the exact GP (shared priors), scored
    // in parallel: the selected optimum is independent of the
    // executor count.
    std::vector<KernelParams> candidates =
        DrawKernelRestarts(options_, seed_, fit_count_);
    int restarts = static_cast<int>(candidates.size());
    std::vector<double> lmls(restarts, 0.0);
    ThreadPool::Global().ParallelFor(
        restarts, [&](int r) { lmls[r] = EvaluateFitcLml(candidates[r]); },
        options_.num_threads);
    double best_lml = -std::numeric_limits<double>::infinity();
    for (int r = 0; r < restarts; ++r) {
      if (lmls[r] > best_lml) {
        best_lml = lmls[r];
        best = candidates[r];
      }
    }
    if (!std::isfinite(best_lml)) best = KernelParams{};
  }

  Status st = FactorPredictor(best);
  if (!st.ok()) {
    fitted_ = false;
    lu_ = Matrix();
    lm_ = Matrix();
    return st;
  }
  fitted_ = true;
  fitted_n_ = n_;
  return Status::OK();
}

Status SparseGaussianProcess::Fit(const std::vector<std::vector<double>>& xs,
                                  const std::vector<double>& ys) {
  if (xs.empty() || xs.size() != ys.size()) {
    return Status::InvalidArgument(
        "SparseGP::Fit requires matched non-empty data");
  }
  Reset();
  for (size_t i = 0; i < xs.size(); ++i) AddObservation(xs[i], ys[i]);
  return Refit();
}

void SparseGaussianProcess::KStarInducing(const BoundKernel& kernel,
                                          const double* cont, const double* cat,
                                          double* row, double* scratch) const {
  for (int u = 0; u < m_; ++u) scratch[u] = 0.0;
  for (int d = 0; d < geometry_.num_cont; ++d) {
    double cd = cont[d];
    const double* __restrict__ td = ind_cont_t_.Row(d);
    double* __restrict__ sq = scratch;
    for (int u = 0; u < m_; ++u) {
      double diff = cd - td[u];
      sq[u] += diff * diff;
    }
  }
  for (int u = 0; u < m_; ++u) {
    row[u] = kernel.MaternFromS0(std::sqrt(5.0 * scratch[u]));
  }
  if (geometry_.num_cat > 0) {
    for (int u = 0; u < m_; ++u) scratch[u] = 0.0;
    for (int d = 0; d < geometry_.num_cat; ++d) {
      double cd = cat[d];
      const double* __restrict__ td = ind_cat_t_.Row(d);
      double* __restrict__ mm = scratch;
      for (int u = 0; u < m_; ++u) mm[u] += cd != td[u] ? 1.0 : 0.0;
    }
    for (int u = 0; u < m_; ++u) row[u] *= kernel.HammingFactor(scratch[u]);
  }
}

void SparseGaussianProcess::Predict(const std::vector<double>& x, double* mean,
                                    double* variance) const {
  // One-element batch: like the exact GP, the scalar entry point runs
  // the blockwise path so both agree bit-for-bit by construction.
  std::vector<double> means, variances;
  PredictBatch({x}, &means, &variances);
  *mean = means[0];
  *variance = variances[0];
}

void SparseGaussianProcess::PredictBatch(
    const std::vector<std::vector<double>>& xs, std::vector<double>* means,
    std::vector<double>* variances) const {
  int count = static_cast<int>(xs.size());
  means->assign(count, 0.0);
  variances->assign(count, 0.0);
  if (count == 0) return;
  if (!fitted_ || n_ == 0) {
    double prior_var =
        (params_.signal_variance + params_.noise_variance) * y_std_ * y_std_;
    for (int c = 0; c < count; ++c) {
      (*means)[c] = y_mean_;
      (*variances)[c] = prior_var;
    }
    return;
  }
  BoundKernel kernel(geometry_, params_);
  double k_xx = kernel.FromDistance(0.0, 0.0) + params_.noise_variance;
  double var_scale = y_std_ * y_std_;
  constexpr int kBlock = 128;
  int num_blocks = (count + kBlock - 1) / kBlock;
  ThreadPool::Global().ParallelFor(
      num_blocks,
      [&](int blk) {
        int lo = blk * kBlock;
        int hi = std::min(count, lo + kBlock);
        int bm = hi - lo;
        // k* rows candidate-major, then transposed to column-per-
        // candidate for the multi-solves — the same SoA pass the exact
        // PredictBatch runs, at m columns instead of n.
        Matrix k_star(bm, m_);
        std::vector<double> cont(geometry_.num_cont);
        std::vector<double> cat(geometry_.num_cat);
        std::vector<double> scratch(m_);
        for (int c = 0; c < bm; ++c) {
          SplitPoint(geometry_, xs[lo + c].data(), cont.data(), cat.data());
          KStarInducing(kernel, cont.data(), cat.data(), k_star.Row(c),
                        scratch.data());
        }
        // Per candidate: a = L_u^-1 k*, c = L_m^-1 a. Mean = a^T w;
        // variance is the FITC form k** - a^T a + c^T c (the prior
        // term minus what the inducing set explains, plus the
        // posterior uncertainty of the inducing values themselves),
        // plus the noise floor to match the exact GP's convention.
        Matrix a(m_, bm);
        for (int u = 0; u < m_; ++u) {
          double* a_row = a.Row(u);
          for (int c = 0; c < bm; ++c) a_row[c] = k_star.at(c, u);
        }
        TriangularSolveLowerMulti(lu_, &a);
        std::vector<double> mu = a.ApplyTransposed(w_);
        std::vector<double> sum_a = a.ColumnSumsOfSquares();
        Matrix cmat = a;
        TriangularSolveLowerMulti(lm_, &cmat);
        std::vector<double> sum_c = cmat.ColumnSumsOfSquares();
        for (int c = 0; c < bm; ++c) {
          (*means)[lo + c] = mu[c] * y_std_ + y_mean_;
          double var_std = std::max(k_xx - sum_a[c] + sum_c[c], 1e-12);
          (*variances)[lo + c] = var_std * var_scale;
        }
      },
      options_.num_threads);
}

}  // namespace llamatune
