#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "src/common/math_util.h"
#include "src/common/rng.h"
#include "src/common/status.h"

namespace llamatune {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad knob");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad knob");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::OutOfRange("").code(),
      Status::NotFound("").code(),        Status::AlreadyExists("").code(),
      Status::FailedPrecondition("").code(), Status::Internal("").code(),
      Status::NotImplemented("").code()};
  EXPECT_EQ(codes.size(), 7u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyFriendly) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 7);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.2) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.2, 0.02);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(5);
  std::vector<int> perm = rng.Permutation(50);
  std::set<int> seen(perm.begin(), perm.end());
  EXPECT_EQ(perm.size(), 50u);
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(5);
  std::vector<int> s = rng.SampleWithoutReplacement(20, 8);
  std::set<int> seen(s.begin(), s.end());
  EXPECT_EQ(s.size(), 8u);
  EXPECT_EQ(seen.size(), 8u);
  for (int v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 20);
  }
}

TEST(HashTest, StableAndOrderSensitive) {
  EXPECT_EQ(HashDoubles({1.0, 2.0}), HashDoubles({1.0, 2.0}));
  EXPECT_NE(HashDoubles({1.0, 2.0}), HashDoubles({2.0, 1.0}));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// ------------------------------------------------------------- math_util

TEST(HashTest, Mix64IsTheSplitmix64Finalizer) {
  // Fault schedules and retry jitter draw from Mix64, so its bits are
  // pinned: splitmix64's first outputs for states 0 and 1.
  EXPECT_EQ(Mix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(Mix64(1), 0x910a2dec89025cc1ULL);
}

TEST(MathTest, ClampAndRescale) {
  EXPECT_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(Rescale(0.5, 0.0, 1.0, 10.0, 20.0), 15.0);
  EXPECT_DOUBLE_EQ(Rescale(2.0, 2.0, 4.0, 0.0, 1.0), 0.0);
  // Degenerate source range maps to target lo.
  EXPECT_DOUBLE_EQ(Rescale(3.0, 2.0, 2.0, 7.0, 9.0), 7.0);
}

TEST(MathTest, MeanVarianceStddev) {
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(Variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(Stddev(xs), 2.0);
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(Variance({1.0}), 0.0);
}

TEST(MathTest, PercentileInterpolates) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 25.0), 2.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

// Percentile sorts a copy and defers to PercentileSorted, so a caller
// that sorts once may take several percentiles from one vector.
TEST(MathTest, PercentileSortedMatchesPercentile) {
  for (int seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    std::vector<double> xs;
    for (int i = 0; i < 50 + 13 * seed; ++i) xs.push_back(rng.Uniform(-10, 10));
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.0, 1.0, 25.0, 50.0, 95.0, 99.0, 100.0}) {
      EXPECT_EQ(PercentileSorted(sorted, p), Percentile(xs, p))
          << "seed " << seed << " p " << p;
    }
  }
  EXPECT_EQ(PercentileSorted({4.5}, 95.0), 4.5);
  EXPECT_EQ(PercentileSorted({4.5}, 95.0), Percentile({4.5}, 95.0));
  EXPECT_EQ(PercentileSorted({}, 50.0), 0.0);
  EXPECT_EQ(PercentileSorted({}, 50.0), Percentile({}, 50.0));
}

TEST(MathTest, NormCdfPdfProperties) {
  EXPECT_NEAR(NormCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormCdf(3.0) + NormCdf(-3.0), 1.0, 1e-12);
  EXPECT_GT(NormPdf(0.0), NormPdf(1.0));
  EXPECT_NEAR(NormPdf(0.0), 0.3989422804014327, 1e-12);
}

TEST(MathTest, ArgMaxArgMin) {
  std::vector<double> xs = {3.0, 1.0, 4.0, 1.0, 5.0};
  EXPECT_EQ(ArgMax(xs), 4);
  EXPECT_EQ(ArgMin(xs), 1);
  EXPECT_EQ(ArgMax({}), -1);
}

TEST(MathTest, BestSoFarTransforms) {
  std::vector<double> xs = {3.0, 1.0, 4.0, 2.0};
  std::vector<double> mx = BestSoFarMax(xs);
  std::vector<double> mn = BestSoFarMin(xs);
  EXPECT_EQ(mx, (std::vector<double>{3.0, 3.0, 4.0, 4.0}));
  EXPECT_EQ(mn, (std::vector<double>{3.0, 1.0, 1.0, 1.0}));
}

TEST(MathTest, SaturatingShape) {
  EXPECT_EQ(Saturating(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Saturating(1.0, 1.0), 0.5);
  EXPECT_LT(Saturating(100.0, 1.0), 1.0);
  EXPECT_GT(Saturating(2.0, 1.0), Saturating(1.0, 1.0));
}

// Property: percentile is monotone in p (parameterized sweep).
class PercentileMonotone : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotone, MonotoneInP) {
  Rng rng(GetParam());
  std::vector<double> xs;
  for (int i = 0; i < 37; ++i) xs.push_back(rng.Uniform(-100, 100));
  double prev = Percentile(xs, 0);
  for (double p = 5; p <= 100; p += 5) {
    double cur = Percentile(xs, p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace llamatune
