#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/common/rng.h"
#include "src/model/gp.h"

namespace llamatune {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(KernelTest, Matern52Properties) {
  EXPECT_DOUBLE_EQ(Matern52(0.0), 1.0);
  EXPECT_GT(Matern52(0.5), Matern52(1.0));
  EXPECT_GT(Matern52(1.0), Matern52(2.0));
  EXPECT_GT(Matern52(5.0), 0.0);
}

TEST(KernelTest, MixedKernelSelfCovariance) {
  SearchSpace space(
      {SearchDim::Continuous(0.0, 1.0), SearchDim::Categorical(3)});
  KernelParams params;
  params.signal_variance = 2.0;
  std::vector<double> x = {0.5, 1.0};
  EXPECT_DOUBLE_EQ(MixedKernel(space, params, x, x), 2.0);
}

TEST(KernelTest, HammingPenalizesCategoryMismatch) {
  SearchSpace space(
      {SearchDim::Continuous(0.0, 1.0), SearchDim::Categorical(3)});
  KernelParams params;
  std::vector<double> a = {0.5, 0.0};
  std::vector<double> b = {0.5, 1.0};
  EXPECT_LT(MixedKernel(space, params, a, b),
            MixedKernel(space, params, a, a));
}

TEST(KernelTest, MatrixIsSymmetricWithNoiseOnDiagonal) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0)});
  KernelParams params;
  params.noise_variance = 0.5;
  std::vector<std::vector<double>> xs = {{0.1}, {0.5}, {0.9}};
  auto gram = KernelMatrix(space, params, xs);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(gram[i][i], params.signal_variance + 0.5, 1e-12);
    for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(gram[i][j], gram[j][i]);
  }
}

class GpFixture : public ::testing::Test {
 protected:
  SearchSpace space_{{SearchDim::Continuous(0.0, 1.0)}};
};

TEST_F(GpFixture, RejectsEmptyOrMismatched) {
  GaussianProcess gp(space_, {}, 1);
  EXPECT_FALSE(gp.Fit({}, {}).ok());
  EXPECT_FALSE(gp.Fit({{0.5}}, {1.0, 2.0}).ok());
}

TEST_F(GpFixture, InterpolatesTrainingData) {
  GaussianProcess gp(space_, {}, 2);
  std::vector<std::vector<double>> xs = {{0.0}, {0.25}, {0.5}, {0.75}, {1.0}};
  std::vector<double> ys = {0.0, 1.0, 0.0, -1.0, 0.0};
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  for (size_t i = 0; i < xs.size(); ++i) {
    double mean = 0, variance = 0;
    gp.Predict(xs[i], &mean, &variance);
    EXPECT_NEAR(mean, ys[i], 0.25);
  }
}

TEST_F(GpFixture, VarianceGrowsAwayFromData) {
  GaussianProcess gp(space_, {}, 3);
  std::vector<std::vector<double>> xs = {{0.1}, {0.15}, {0.2}};
  std::vector<double> ys = {1.0, 1.2, 1.1};
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  double mean_near = 0, var_near = 0, mean_far = 0, var_far = 0;
  gp.Predict({0.15}, &mean_near, &var_near);
  gp.Predict({0.95}, &mean_far, &var_far);
  EXPECT_GT(var_far, var_near);
}

TEST_F(GpFixture, LmlIsFinite) {
  GaussianProcess gp(space_, {}, 4);
  Rng rng(4);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back({rng.Uniform()});
    ys.push_back(std::sin(6.0 * xs.back()[0]));
  }
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  EXPECT_TRUE(std::isfinite(gp.log_marginal_likelihood()));
}

TEST_F(GpFixture, SurvivesDuplicatePoints) {
  // Duplicate rows make the Gram matrix singular without the nugget;
  // jitter escalation must keep the fit alive.
  GaussianProcess gp(space_, {}, 5);
  std::vector<std::vector<double>> xs = {{0.5}, {0.5}, {0.5}, {0.9}};
  std::vector<double> ys = {1.0, 1.01, 0.99, 2.0};
  EXPECT_TRUE(gp.Fit(xs, ys).ok());
  double mean = 0, variance = 0;
  gp.Predict({0.5}, &mean, &variance);
  EXPECT_NEAR(mean, 1.0, 0.3);
}

TEST_F(GpFixture, MixedSpacePrediction) {
  SearchSpace space(
      {SearchDim::Continuous(0.0, 1.0), SearchDim::Categorical(2)});
  GaussianProcess gp(space, {}, 6);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  Rng rng(6);
  for (int i = 0; i < 30; ++i) {
    double cat = static_cast<double>(rng.UniformInt(0, 1));
    double c = rng.Uniform();
    xs.push_back({c, cat});
    ys.push_back(cat == 1.0 ? 5.0 + c : c);
  }
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  double mean1 = 0, mean0 = 0, variance = 0;
  gp.Predict({0.5, 1.0}, &mean1, &variance);
  gp.Predict({0.5, 0.0}, &mean0, &variance);
  EXPECT_GT(mean1, mean0 + 2.0);
}

// Property: predictions are finite and variance non-negative for
// arbitrary data across seeds.
class GpSanity : public ::testing::TestWithParam<int> {};

TEST_P(GpSanity, FinitePredictions) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0),
                     SearchDim::Continuous(-5.0, 5.0),
                     SearchDim::Categorical(3)});
  GaussianProcess gp(space, {}, GetParam());
  Rng rng(GetParam());
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 25; ++i) {
    xs.push_back({rng.Uniform(), rng.Uniform(-5, 5),
                  static_cast<double>(rng.UniformInt(0, 2))});
    ys.push_back(rng.Gaussian(0.0, 100.0));
  }
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  for (int i = 0; i < 50; ++i) {
    double mean = 0, variance = -1;
    gp.Predict({rng.Uniform(), rng.Uniform(-5, 5),
                static_cast<double>(rng.UniformInt(0, 2))},
               &mean, &variance);
    EXPECT_TRUE(std::isfinite(mean));
    EXPECT_GE(variance, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GpSanity, ::testing::Range(1, 6));

// --- Incremental-fit equivalence suite -----------------------------------

// Pins the incremental-Cholesky GP to the full-refit GP over a
// 60-iteration seeded GP-BO-style session: both models see the same
// observation stream and Refit() schedule; the incremental one extends
// the cached factor between hyperparameter re-optimizations while the
// reference refactorizes from scratch every time. Divergence must stay
// within 1e-10 throughout (the extension arithmetic is in fact
// bit-for-bit identical).
TEST(GpIncrementalTest, MatchesFullRefitOverSession) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0),
                     SearchDim::Continuous(-5.0, 5.0),
                     SearchDim::Categorical(3)});
  GpOptions incremental_opts;
  incremental_opts.incremental = true;
  GpOptions full_opts;
  full_opts.incremental = false;
  GaussianProcess incremental(space, incremental_opts, 99);
  GaussianProcess full(space, full_opts, 99);

  Rng rng(99);
  auto draw_point = [&] {
    return std::vector<double>{rng.Uniform(), rng.Uniform(-5, 5),
                               static_cast<double>(rng.UniformInt(0, 2))};
  };
  std::vector<std::vector<double>> probes;
  for (int i = 0; i < 8; ++i) probes.push_back(draw_point());

  for (int iter = 0; iter < 60; ++iter) {
    std::vector<double> x = draw_point();
    double y = std::sin(3.0 * x[0]) + 0.1 * x[1] + x[2] +
               rng.Gaussian(0.0, 0.05);
    incremental.AddObservation(x, y);
    full.AddObservation(x, y);
    ASSERT_TRUE(incremental.Refit().ok()) << "iteration " << iter;
    ASSERT_TRUE(full.Refit().ok()) << "iteration " << iter;
    EXPECT_NEAR(incremental.log_marginal_likelihood(),
                full.log_marginal_likelihood(), 1e-10)
        << "iteration " << iter;
    for (const auto& probe : probes) {
      double mean_inc = 0, var_inc = 0, mean_full = 0, var_full = 0;
      incremental.Predict(probe, &mean_inc, &var_inc);
      full.Predict(probe, &mean_full, &var_full);
      ASSERT_NEAR(mean_inc, mean_full, 1e-10) << "iteration " << iter;
      ASSERT_NEAR(var_inc, var_full, 1e-10) << "iteration " << iter;
    }
  }
}

// The alpha-prefix invariant: the incremental path persists the
// forward-solve vector z = L^-1 y_std across CholeskyExtend steps and
// refreshes alpha with a single back-substitution, while the full path
// refactorizes and re-solves from scratch every Refit(). Both share
// the boundary-frozen target standardization, so every prediction and
// the log marginal likelihood must agree to the last bit over a
// GP-BO-style session — including across reopt boundaries (where both
// paths rebuild) and the in-between stretches (where only the
// incremental one resumes its cached prefix).
TEST(GpIncrementalTest, AlphaPrefixCacheIsBitForBitAgainstFullSolves) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0),
                     SearchDim::Continuous(-5.0, 5.0),
                     SearchDim::Categorical(3)});
  GpOptions incremental_opts;
  incremental_opts.incremental = true;
  GpOptions full_opts;
  full_opts.incremental = false;
  GaussianProcess incremental(space, incremental_opts, 321);
  GaussianProcess full(space, full_opts, 321);

  Rng rng(321);
  auto draw_point = [&] {
    return std::vector<double>{rng.Uniform(), rng.Uniform(-5, 5),
                               static_cast<double>(rng.UniformInt(0, 2))};
  };
  std::vector<std::vector<double>> probes;
  for (int i = 0; i < 6; ++i) probes.push_back(draw_point());

  for (int iter = 0; iter < 40; ++iter) {
    std::vector<double> x = draw_point();
    double y = std::cos(2.0 * x[0]) + 0.2 * x[1] - x[2];
    incremental.AddObservation(x, y);
    full.AddObservation(x, y);
    ASSERT_TRUE(incremental.Refit().ok()) << "iteration " << iter;
    ASSERT_TRUE(full.Refit().ok()) << "iteration " << iter;
    ASSERT_TRUE(SameBits(incremental.log_marginal_likelihood(),
                         full.log_marginal_likelihood()))
        << "iteration " << iter;
    for (const auto& probe : probes) {
      double mean_inc = 0, var_inc = 0, mean_full = 0, var_full = 0;
      incremental.Predict(probe, &mean_inc, &var_inc);
      full.Predict(probe, &mean_full, &var_full);
      ASSERT_TRUE(SameBits(mean_inc, mean_full)) << "iteration " << iter;
      ASSERT_TRUE(SameBits(var_inc, var_full)) << "iteration " << iter;
    }
  }
}

// A lost-positive-definiteness fallback mid-stretch (duplicate points
// force CholeskyExtend to fail and FactorFull to rebuild with jitter)
// must invalidate the cached prefix and still match the full path.
TEST(GpIncrementalTest, AlphaPrefixSurvivesExtensionFallback) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0)});
  GpOptions opts;
  opts.reopt_interval = 100;  // stay inside the incremental regime
  GaussianProcess gp(space, opts, 17);
  GpOptions full_opts = opts;
  full_opts.incremental = false;
  GaussianProcess full(space, full_opts, 17);
  auto observe_both = [&](double x, double y) {
    gp.AddObservation({x}, y);
    full.AddObservation({x}, y);
    ASSERT_TRUE(gp.Refit().ok());
    ASSERT_TRUE(full.Refit().ok());
  };
  observe_both(0.2, 1.0);
  observe_both(0.8, 2.0);
  // Duplicates: extension fails, FactorFull clears the z prefix.
  observe_both(0.5, 1.5);
  observe_both(0.5, 1.5);
  observe_both(0.6, 1.7);
  for (double p : {0.1, 0.5, 0.9}) {
    double mean_a = 0, var_a = 0, mean_b = 0, var_b = 0;
    gp.Predict({p}, &mean_a, &var_a);
    full.Predict({p}, &mean_b, &var_b);
    // The jitter-escalation entry point differs between the two paths
    // only in when it runs, not what it computes.
    EXPECT_TRUE(SameBits(mean_a, mean_b)) << "probe " << p;
    EXPECT_TRUE(SameBits(var_a, var_b)) << "probe " << p;
  }
}

TEST(GpIncrementalTest, AddObservationPlusRefitMatchesFit) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0)});
  Rng rng(5);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 15; ++i) {
    xs.push_back({rng.Uniform()});
    ys.push_back(std::cos(4.0 * xs.back()[0]));
  }
  GaussianProcess bulk(space, {}, 7);
  ASSERT_TRUE(bulk.Fit(xs, ys).ok());
  GaussianProcess streamed(space, {}, 7);
  for (size_t i = 0; i < xs.size(); ++i) streamed.AddObservation(xs[i], ys[i]);
  ASSERT_TRUE(streamed.Refit().ok());
  for (double p : {0.0, 0.3, 0.7, 1.0}) {
    double mean_a = 0, var_a = 0, mean_b = 0, var_b = 0;
    bulk.Predict({p}, &mean_a, &var_a);
    streamed.Predict({p}, &mean_b, &var_b);
    EXPECT_DOUBLE_EQ(mean_a, mean_b);
    EXPECT_DOUBLE_EQ(var_a, var_b);
  }
}

TEST(GpIncrementalTest, SurvivesDuplicateAppendsBetweenReopts) {
  // A duplicated point makes the Cholesky extension lose positive
  // definiteness; the fallback must rebuild with jitter escalation
  // instead of failing.
  SearchSpace space({SearchDim::Continuous(0.0, 1.0)});
  GpOptions opts;
  opts.reopt_interval = 100;  // stay inside the incremental regime
  GaussianProcess gp(space, opts, 13);
  gp.AddObservation({0.2}, 1.0);
  gp.AddObservation({0.8}, 2.0);
  ASSERT_TRUE(gp.Refit().ok());
  for (int i = 0; i < 4; ++i) {
    gp.AddObservation({0.5}, 1.5 + 1e-3 * i);
    ASSERT_TRUE(gp.Refit().ok()) << "append " << i;
  }
  double mean = 0, variance = 0;
  gp.Predict({0.5}, &mean, &variance);
  EXPECT_NEAR(mean, 1.5, 0.3);
  EXPECT_GE(variance, 0.0);
}

// Condition(): the greedy q-EI fantasy primitive. Conditioning a
// fitted GP on (x, y) must shrink the posterior variance at x, pull
// the mean toward y, and leave the original model untouched when the
// fantasy runs on a copy.
TEST(GpConditionTest, ShrinksVarianceAndPullsMeanAtConditionedPoint) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0)});
  GaussianProcess gp(space, {}, 11);
  std::vector<std::vector<double>> xs = {{0.1}, {0.3}, {0.9}};
  std::vector<double> ys = {1.0, 1.4, 0.2};
  ASSERT_TRUE(gp.Fit(xs, ys).ok());

  std::vector<double> x = {0.6};
  double mean_before = 0, var_before = 0;
  gp.Predict(x, &mean_before, &var_before);

  GaussianProcess fantasy = gp;  // the real model must never see fantasies
  double fantasy_y = mean_before + 1.0;
  ASSERT_TRUE(fantasy.Condition(x, fantasy_y).ok());
  EXPECT_EQ(fantasy.num_observations(), 4);

  double mean_after = 0, var_after = 0;
  fantasy.Predict(x, &mean_after, &var_after);
  EXPECT_LT(var_after, var_before);
  EXPECT_GT(mean_after, mean_before);  // pulled toward the higher fantasy

  // The copied-from model is untouched.
  EXPECT_EQ(gp.num_observations(), 3);
  double mean_orig = 0, var_orig = 0;
  gp.Predict(x, &mean_orig, &var_orig);
  EXPECT_EQ(mean_orig, mean_before);
  EXPECT_EQ(var_orig, var_before);
}

// AdvanceFitSchedule must not lose a hyperparameter-reopt boundary it
// jumps over: the next Refit() owes it, regardless of landing phase.
TEST(GpFitScheduleTest, AdvanceOwesSkippedReoptBoundary) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0)});
  GpOptions options;
  options.reopt_interval = 100;  // no natural boundary in this test
  GaussianProcess advanced(space, options, 5);
  GaussianProcess plain(space, options, 5);
  std::vector<std::vector<double>> xs = {{0.1}, {0.5}, {0.9}};
  std::vector<double> ys = {0.0, 1.0, 0.5};
  ASSERT_TRUE(advanced.Fit(xs, ys).ok());  // reopts (unfitted)
  ASSERT_TRUE(plain.Fit(xs, ys).ok());
  ASSERT_EQ(advanced.params().lengthscale, plain.params().lengthscale);

  // Jump over the boundary at fit call 100 without landing on one.
  advanced.AdvanceFitSchedule(150);
  advanced.AddObservation({0.3}, 2.0);
  plain.AddObservation({0.3}, 2.0);
  ASSERT_TRUE(advanced.Refit().ok());
  ASSERT_TRUE(plain.Refit().ok());
  // `plain` is still inside the interval: hyperparameters frozen.
  // `advanced` owed the skipped boundary: it re-optimized, and the
  // reopt RNG stream (seeded by fit count) draws different candidates.
  EXPECT_NE(advanced.params().lengthscale, plain.params().lengthscale);
}

TEST(GpConditionTest, RequiresFittedModel) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0)});
  GaussianProcess gp(space, {}, 12);
  EXPECT_FALSE(gp.Condition({0.5}, 1.0).ok());
  gp.AddObservation({0.2}, 1.0);
  // Observations added after the last Refit() are not covered by the
  // cached factor either.
  EXPECT_FALSE(gp.Condition({0.5}, 1.0).ok());
}

TEST(GpPredictBatchTest, MatchesSinglePredictions) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0),
                     SearchDim::Categorical(2)});
  GaussianProcess gp(space, {}, 21);
  Rng rng(21);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 40; ++i) {
    xs.push_back({rng.Uniform(), static_cast<double>(rng.UniformInt(0, 1))});
    ys.push_back(std::sin(5.0 * xs.back()[0]) + xs.back()[1]);
  }
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  std::vector<std::vector<double>> queries;
  for (int i = 0; i < 300; ++i) {
    queries.push_back(
        {rng.Uniform(), static_cast<double>(rng.UniformInt(0, 1))});
  }
  std::vector<double> means, variances;
  gp.PredictBatch(queries, &means, &variances);
  ASSERT_EQ(means.size(), queries.size());
  ASSERT_EQ(variances.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    double mean = 0, variance = 0;
    gp.Predict(queries[i], &mean, &variance);
    EXPECT_DOUBLE_EQ(means[i], mean) << "query " << i;
    EXPECT_DOUBLE_EQ(variances[i], variance) << "query " << i;
  }
}

// Pending observations (appended after the last Refit, mid-round) must
// not knock PredictBatch off the blockwise path: it solves against the
// factored prefix exactly as Predict() does, bit for bit.
TEST(GpPredictBatchTest, MatchesPredictWithPendingObservations) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0),
                     SearchDim::Categorical(2)});
  GaussianProcess gp(space, {}, 31);
  Rng rng(31);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back({rng.Uniform(), static_cast<double>(rng.UniformInt(0, 1))});
    ys.push_back(std::sin(5.0 * xs.back()[0]) + xs.back()[1]);
  }
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  // Mid-round: three observations stream in without a Refit.
  for (int i = 0; i < 3; ++i) {
    gp.AddObservation({rng.Uniform(), 0.0}, 0.5);
  }
  ASSERT_EQ(gp.num_observations(), 23);
  std::vector<std::vector<double>> queries;
  for (int i = 0; i < 200; ++i) {
    queries.push_back(
        {rng.Uniform(), static_cast<double>(rng.UniformInt(0, 1))});
  }
  std::vector<double> means, variances;
  gp.PredictBatch(queries, &means, &variances);
  for (size_t i = 0; i < queries.size(); ++i) {
    double mean = 0, variance = 0;
    gp.Predict(queries[i], &mean, &variance);
    ASSERT_TRUE(SameBits(means[i], mean)) << "query " << i;
    ASSERT_TRUE(SameBits(variances[i], variance)) << "query " << i;
  }
}

// The unfitted batch is a contiguous prior fill — still bit-for-bit
// what per-point Predict() returns.
TEST(GpPredictBatchTest, UnfittedBatchMatchesPredictPrior) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0)});
  GaussianProcess gp(space, {}, 32);
  gp.AddObservation({0.4}, 1.0);  // observations but no Refit yet
  std::vector<std::vector<double>> queries = {{0.1}, {0.5}, {0.9}};
  std::vector<double> means, variances;
  gp.PredictBatch(queries, &means, &variances);
  for (size_t i = 0; i < queries.size(); ++i) {
    double mean = 0, variance = 0;
    gp.Predict(queries[i], &mean, &variance);
    EXPECT_TRUE(SameBits(means[i], mean)) << "query " << i;
    EXPECT_TRUE(SameBits(variances[i], variance)) << "query " << i;
  }
}

}  // namespace
}  // namespace llamatune
