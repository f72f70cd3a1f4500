#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/math_util.h"
#include "src/common/matrix.h"
#include "src/common/rng.h"
#include "src/model/gp.h"
#include "src/model/kernels.h"
#include "src/model/sparse_gp.h"
#include "src/optimizer/gp_bo.h"
#include "src/optimizer/optimizer_registry.h"

namespace llamatune {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(SparseGpTest, RejectsEmptyOrMismatched) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0)});
  SparseGaussianProcess gp(space, {}, 1);
  EXPECT_FALSE(gp.Fit({}, {}).ok());
  EXPECT_FALSE(gp.Fit({{0.5}}, {1.0, 2.0}).ok());
  EXPECT_FALSE(gp.Refit().ok());
}

TEST(SparseGpTest, InterpolatesWithFullInducingSet) {
  // m = n: FITC collapses to the exact posterior (up to the inducing
  // jitter), so training targets are recovered like the exact GP's
  // interpolation test.
  SearchSpace space({SearchDim::Continuous(0.0, 1.0)});
  GpOptions options;
  options.num_inducing = 64;
  SparseGaussianProcess gp(space, options, 2);
  std::vector<std::vector<double>> xs = {{0.0}, {0.25}, {0.5}, {0.75}, {1.0}};
  std::vector<double> ys = {0.0, 1.0, 0.0, -1.0, 0.0};
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  EXPECT_EQ(gp.num_inducing(), 5);
  for (size_t i = 0; i < xs.size(); ++i) {
    double mean = 0, variance = 0;
    gp.Predict(xs[i], &mean, &variance);
    EXPECT_NEAR(mean, ys[i], 0.25);
    EXPECT_GE(variance, 0.0);
  }
}

TEST(SparseGpTest, SubsetInducingStillTracksSmoothFunction) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0)});
  GpOptions options;
  options.num_inducing = 12;
  SparseGaussianProcess gp(space, options, 3);
  Rng rng(3);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 80; ++i) {
    xs.push_back({rng.Uniform()});
    ys.push_back(std::sin(4.0 * xs.back()[0]));
  }
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  EXPECT_EQ(gp.num_inducing(), 12);
  double max_err = 0.0;
  for (double p = 0.05; p < 1.0; p += 0.1) {
    double mean = 0, variance = 0;
    gp.Predict({p}, &mean, &variance);
    max_err = std::max(max_err, std::abs(mean - std::sin(4.0 * p)));
  }
  EXPECT_LT(max_err, 0.25);
}

TEST(SparseGpTest, VarianceGrowsAwayFromData) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0)});
  GpOptions options;
  options.num_inducing = 8;
  SparseGaussianProcess gp(space, options, 4);
  Rng rng(4);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 30; ++i) {
    xs.push_back({rng.Uniform(0.0, 0.3)});
    ys.push_back(xs.back()[0] * 2.0);
  }
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  double mean_near = 0, var_near = 0, mean_far = 0, var_far = 0;
  gp.Predict({0.15}, &mean_near, &var_near);
  gp.Predict({0.95}, &mean_far, &var_far);
  EXPECT_GT(var_far, var_near);
}

TEST(SparseGpTest, InducingSelectionIsDeterministicAndDistinct) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0),
                     SearchDim::Categorical(3)});
  GpOptions options;
  options.num_inducing = 10;
  SparseGaussianProcess a(space, options, 5);
  SparseGaussianProcess b(space, options, 5);
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    std::vector<double> x = {rng.Uniform(),
                             static_cast<double>(rng.UniformInt(0, 2))};
    double y = x[0] + x[1];
    a.AddObservation(x, y);
    b.AddObservation(x, y);
  }
  ASSERT_TRUE(a.Refit().ok());
  ASSERT_TRUE(b.Refit().ok());
  EXPECT_EQ(a.inducing_indices(), b.inducing_indices());
  std::set<int> distinct(a.inducing_indices().begin(),
                         a.inducing_indices().end());
  EXPECT_EQ(distinct.size(), a.inducing_indices().size());
  EXPECT_EQ(a.inducing_indices().front(), 0);  // seeded at the first point
  for (int idx : a.inducing_indices()) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, 40);
  }
}

TEST(SparseGpTest, PredictBatchMatchesPredictBitForBit) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0),
                     SearchDim::Continuous(-2.0, 2.0),
                     SearchDim::Categorical(2)});
  GpOptions options;
  options.num_inducing = 16;
  SparseGaussianProcess gp(space, options, 6);
  Rng rng(6);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 60; ++i) {
    xs.push_back({rng.Uniform(), rng.Uniform(-2, 2),
                  static_cast<double>(rng.UniformInt(0, 1))});
    ys.push_back(std::sin(3.0 * xs.back()[0]) + xs.back()[1] * xs.back()[2]);
  }
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  std::vector<std::vector<double>> queries;
  for (int i = 0; i < 300; ++i) {
    queries.push_back({rng.Uniform(), rng.Uniform(-2, 2),
                       static_cast<double>(rng.UniformInt(0, 1))});
  }
  std::vector<double> means, variances;
  gp.PredictBatch(queries, &means, &variances);
  ASSERT_EQ(means.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    double mean = 0, variance = 0;
    gp.Predict(queries[i], &mean, &variance);
    ASSERT_TRUE(SameBits(means[i], mean)) << "query " << i;
    ASSERT_TRUE(SameBits(variances[i], variance)) << "query " << i;
  }
}

TEST(SparseGpTest, DeterministicAtAnyThreadCount) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0),
                     SearchDim::Continuous(0.0, 1.0)});
  GpOptions serial;
  serial.num_inducing = 12;
  serial.num_threads = 1;
  GpOptions pooled = serial;
  pooled.num_threads = 0;
  SparseGaussianProcess a(space, serial, 7);
  SparseGaussianProcess b(space, pooled, 7);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> x = {rng.Uniform(), rng.Uniform()};
    double y = x[0] * x[1];
    a.AddObservation(x, y);
    b.AddObservation(x, y);
    ASSERT_TRUE(a.Refit().ok());
    ASSERT_TRUE(b.Refit().ok());
  }
  for (int i = 0; i < 20; ++i) {
    std::vector<double> q = {rng.Uniform(), rng.Uniform()};
    double mean_a = 0, var_a = 0, mean_b = 0, var_b = 0;
    a.Predict(q, &mean_a, &var_a);
    b.Predict(q, &mean_b, &var_b);
    ASSERT_TRUE(SameBits(mean_a, mean_b)) << "query " << i;
    ASSERT_TRUE(SameBits(var_a, var_b)) << "query " << i;
  }
  ASSERT_TRUE(
      SameBits(a.log_marginal_likelihood(), b.log_marginal_likelihood()));
}

// The FITC fit rebuilt from one-column solves and naive loops, at an
// inducing count that is not a multiple of the kernels' 4-wide tiles
// and an n with n mod 4 = 1: the log marginal likelihood and every
// predicted mean and variance must match bit for bit.
TEST(SparseGpTest, MatchesNaiveFitcReferenceAtOddInducingCount) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0),
                     SearchDim::Continuous(-2.0, 2.0),
                     SearchDim::Categorical(3)});
  constexpr int n = 45;
  constexpr int m = 13;
  GpOptions options;
  options.num_inducing = m;
  SparseGaussianProcess gp(space, options, 11);
  Rng rng(11);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < n; ++i) {
    xs.push_back({rng.Uniform(), rng.Uniform(-2, 2),
                  static_cast<double>(rng.UniformInt(0, 2))});
    ys.push_back(std::cos(4.0 * xs.back()[0]) + 0.5 * xs.back()[1] +
                 0.3 * xs.back()[2]);
  }
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  ASSERT_EQ(gp.num_inducing(), m);

  // The model's geometry and kernel (2 continuous coordinates, so the
  // squared distance is one left-to-right sum either way).
  KernelSpaceCache geometry(space);
  BoundKernel kernel(geometry, gp.params());
  auto split = [&](const std::vector<double>& x) {
    std::vector<double> cont(geometry.num_cont), cat(geometry.num_cat);
    SplitPoint(geometry, x.data(), cont.data(), cat.data());
    cont.insert(cont.end(), cat.begin(), cat.end());
    return cont;
  };
  auto k = [&](const std::vector<double>& a, const std::vector<double>& b) {
    double sq = 0.0;
    for (int d = 0; d < geometry.num_cont; ++d) {
      double diff = a[d] - b[d];
      sq += diff * diff;
    }
    return kernel.FromPrecomputed(
        std::sqrt(5.0 * sq),
        CountMismatches(a.data() + geometry.num_cont,
                        b.data() + geometry.num_cont, geometry.num_cat));
  };
  std::vector<std::vector<double>> pts, ind;
  for (const auto& x : xs) pts.push_back(split(x));
  for (int idx : gp.inducing_indices()) ind.push_back(pts[idx]);
  double y_mean = Mean(ys);
  double y_std = std::max(Stddev(ys), 1e-9);
  std::vector<double> ys_std(n);
  for (int i = 0; i < n; ++i) ys_std[i] = (ys[i] - y_mean) / y_std;
  double noise = gp.params().noise_variance;

  Matrix lu(m, m);
  for (int u = 0; u < m; ++u) {
    for (int v = 0; v <= u; ++v) lu.at(u, v) = k(ind[u], ind[v]);
    lu.at(u, u) += 1e-8;  // the model's first inducing jitter
  }
  ASSERT_TRUE(CholeskyFactorInPlace(&lu).ok());
  Matrix b(m, n);  // B = L_u^-1 K_uf, one column at a time
  std::vector<double> col(m), solved(m);
  for (int i = 0; i < n; ++i) {
    for (int u = 0; u < m; ++u) col[u] = k(pts[i], ind[u]);
    TriangularSolveLower(lu, col.data(), solved.data());
    for (int u = 0; u < m; ++u) b.at(u, i) = solved[u];
  }
  double k_ii = kernel.FromDistance(0.0, 0.0);
  std::vector<double> d_inv(n);
  double sum_log_d = 0.0;
  for (int i = 0; i < n; ++i) {
    double q = 0.0;
    for (int u = 0; u < m; ++u) q += b.at(u, i) * b.at(u, i);
    double d = std::max(k_ii - q + noise, 1e-12);
    d_inv[i] = 1.0 / d;
    sum_log_d += std::log(d);
  }
  Matrix lm(m, m);
  for (int u = 0; u < m; ++u) {
    for (int v = 0; v <= u; ++v) {
      double acc = 0.0;
      for (int i = 0; i < n; ++i) acc += b.at(u, i) * b.at(v, i) * d_inv[i];
      lm.at(u, v) = acc;
    }
    lm.at(u, u) += 1.0;
  }
  ASSERT_TRUE(CholeskyFactorInPlace(&lm).ok());
  std::vector<double> r(m), g(m), w(m);
  for (int u = 0; u < m; ++u) {
    double acc = 0.0;
    for (int i = 0; i < n; ++i) acc += b.at(u, i) * d_inv[i] * ys_std[i];
    r[u] = acc;
  }
  TriangularSolveLower(lm, r.data(), g.data());
  TriangularSolveLowerTransposed(lm, g.data(), w.data());
  double quad = 0.0;
  for (int i = 0; i < n; ++i) quad += ys_std[i] * ys_std[i] * d_inv[i];
  for (int u = 0; u < m; ++u) quad -= g[u] * g[u];
  double logdet = sum_log_d;
  for (int u = 0; u < m; ++u) logdet += 2.0 * std::log(lm.at(u, u));
  double lml = -0.5 * quad - 0.5 * logdet -
               0.5 * static_cast<double>(n) *
                   std::log(2.0 * 3.14159265358979323846);
  EXPECT_TRUE(SameBits(gp.log_marginal_likelihood(), lml))
      << gp.log_marginal_likelihood() << " vs " << lml;

  // 150 queries: one full 128-candidate block and a 22-column one.
  std::vector<std::vector<double>> queries;
  for (int i = 0; i < 150; ++i) {
    queries.push_back({rng.Uniform(), rng.Uniform(-2, 2),
                       static_cast<double>(rng.UniformInt(0, 2))});
  }
  std::vector<double> means, variances;
  gp.PredictBatch(queries, &means, &variances);
  double k_xx = k_ii + noise;
  std::vector<double> a(m), c(m);
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<double> x = split(queries[q]);
    for (int u = 0; u < m; ++u) col[u] = k(x, ind[u]);
    TriangularSolveLower(lu, col.data(), a.data());
    TriangularSolveLower(lm, a.data(), c.data());
    double mu = 0.0, sum_a = 0.0, sum_c = 0.0;
    for (int u = 0; u < m; ++u) {
      mu += a[u] * w[u];
      sum_a += a[u] * a[u];
      sum_c += c[u] * c[u];
    }
    double mean = mu * y_std + y_mean;
    double variance = std::max(k_xx - sum_a + sum_c, 1e-12) * (y_std * y_std);
    ASSERT_TRUE(SameBits(means[q], mean)) << "query " << q;
    ASSERT_TRUE(SameBits(variances[q], variance)) << "query " << q;
  }
}

// Property: finite predictions, non-negative variance, across seeds.
class SparseGpSanity : public ::testing::TestWithParam<int> {};

TEST_P(SparseGpSanity, FinitePredictions) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0),
                     SearchDim::Continuous(-5.0, 5.0),
                     SearchDim::Categorical(3)});
  GpOptions options;
  options.num_inducing = 9;
  SparseGaussianProcess gp(space, options, GetParam());
  Rng rng(GetParam());
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 35; ++i) {
    xs.push_back({rng.Uniform(), rng.Uniform(-5, 5),
                  static_cast<double>(rng.UniformInt(0, 2))});
    ys.push_back(rng.Gaussian(0.0, 100.0));
  }
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  for (int i = 0; i < 40; ++i) {
    double mean = 0, variance = -1;
    gp.Predict({rng.Uniform(), rng.Uniform(-5, 5),
                static_cast<double>(rng.UniformInt(0, 2))},
               &mean, &variance);
    EXPECT_TRUE(std::isfinite(mean));
    EXPECT_GE(variance, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseGpSanity, ::testing::Range(1, 6));

TEST(SparseGpTest, SurvivesDuplicateAndConstantData) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0)});
  GpOptions options;
  options.num_inducing = 4;
  SparseGaussianProcess gp(space, options, 8);
  // Duplicates collapse the max-min traversal early and stress the
  // inducing-block jitter escalation; constant targets collapse the
  // standardization to its floor.
  std::vector<std::vector<double>> xs = {{0.5}, {0.5}, {0.5}, {0.9}, {0.9}};
  std::vector<double> ys = {1.0, 1.0, 1.0, 1.0, 1.0};
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  EXPECT_LE(gp.num_inducing(), 2);  // only two distinct sites
  double mean = 0, variance = 0;
  gp.Predict({0.7}, &mean, &variance);
  EXPECT_TRUE(std::isfinite(mean));
  EXPECT_GE(variance, 0.0);
}

// --- Large-n quality on the fixed-seed simulator grid ---------------------

// The ISSUE 5 acceptance tolerance: on the noiseless TPC-C / hesbo8
// grid (the same cells bm_largen emits into BENCH_largen.json), a
// sparse arm whose switchover engages right after the init design must
// stay within 5% mean final best-so-far of the exact "gpbo" arm.
// Per-seed gaps swing both ways by ~±13% on this needle landscape
// (sparse wins some seeds outright) — divergent trajectories land on
// different needles — so the pin is on the seed-grid mean, which
// currently measures ~1.2%. The grid is bit-for-bit deterministic at
// any thread count, so this is a pinned inequality: it either holds
// exactly or the sparse math changed.
TEST(SparseGpGridQualityTest, BestSoFarWithinToleranceOfExact) {
  constexpr int kIterations = 64;
  constexpr int kNumSeeds = 5;
  const char* kSparseKey = "gpbo-sparse-gridtest";
  if (!OptimizerRegistry::Global().Contains(kSparseKey)) {
    OptimizerRegistry::Global().Register(
        kSparseKey,
        [](const SearchSpace& space,
           uint64_t seed) -> Result<std::unique_ptr<Optimizer>> {
          GpBoOptions options;
          options.gp.sparse_threshold = 16;  // engages just past n_init
          options.gp.num_inducing = 20;
          return std::unique_ptr<Optimizer>(
              new GpBoOptimizer(space, options, seed));
        });
  }
  double exact_mean = 0.0, sparse_mean = 0.0;
  for (int s = 0; s < kNumSeeds; ++s) {
    uint64_t seed = bench::kBatchGridBaseSeed + static_cast<uint64_t>(s);
    exact_mean +=
        bench::RunBatchGridCell("gpbo", seed, kIterations, 1).kb
            .BestSoFarObjective()
            .back();
    sparse_mean +=
        bench::RunBatchGridCell(kSparseKey, seed, kIterations, 1).kb
            .BestSoFarObjective()
            .back();
  }
  exact_mean /= kNumSeeds;
  sparse_mean /= kNumSeeds;
  EXPECT_GE(sparse_mean, exact_mean - 0.05 * std::abs(exact_mean))
      << "sparse mean best " << sparse_mean << " vs exact " << exact_mean;
}

}  // namespace
}  // namespace llamatune
