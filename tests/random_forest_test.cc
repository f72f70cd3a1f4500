#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>

#include "src/common/rng.h"
#include "src/model/random_forest.h"
#include "src/sampling/uniform.h"

namespace llamatune {
namespace {

SearchSpace Space2d() {
  return SearchSpace(
      {SearchDim::Continuous(0.0, 1.0), SearchDim::Continuous(0.0, 1.0)});
}

TEST(RandomForestTest, UnfittedFlag) {
  RandomForest rf(Space2d(), {}, 1);
  EXPECT_FALSE(rf.fitted());
}

TEST(RandomForestTest, FitsConstantFunction) {
  RandomForest rf(Space2d(), {}, 1);
  Rng rng(1);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 40; ++i) {
    xs.push_back({rng.Uniform(), rng.Uniform()});
    ys.push_back(7.0);
  }
  rf.Fit(xs, ys);
  EXPECT_TRUE(rf.fitted());
  double mean = 0.0, variance = 1.0;
  rf.Predict({0.5, 0.5}, &mean, &variance);
  EXPECT_NEAR(mean, 7.0, 1e-9);
  EXPECT_NEAR(variance, 0.0, 1e-9);
}

TEST(RandomForestTest, LearnsStepFunction) {
  RandomForestOptions options;
  options.num_trees = 20;
  RandomForest rf(Space2d(), options, 2);
  Rng rng(3);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 200; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    xs.push_back({a, b});
    ys.push_back(a < 0.5 ? 0.0 : 10.0);
  }
  rf.Fit(xs, ys);
  EXPECT_LT(rf.PredictMean({0.1, 0.5}), 2.0);
  EXPECT_GT(rf.PredictMean({0.9, 0.5}), 8.0);
}

TEST(RandomForestTest, LearnsLinearTrendRanking) {
  RandomForestOptions options;
  options.num_trees = 20;
  RandomForest rf(Space2d(), options, 4);
  Rng rng(5);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 300; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    xs.push_back({a, b});
    ys.push_back(3.0 * a + 0.1 * b);
  }
  rf.Fit(xs, ys);
  // Ranking along the important axis is preserved.
  EXPECT_LT(rf.PredictMean({0.1, 0.5}), rf.PredictMean({0.5, 0.5}));
  EXPECT_LT(rf.PredictMean({0.5, 0.5}), rf.PredictMean({0.9, 0.5}));
}

TEST(RandomForestTest, VarianceHigherAwayFromData) {
  RandomForestOptions options;
  options.num_trees = 30;
  RandomForest rf(Space2d(), options, 6);
  Rng rng(7);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  // Train only in the left half, with a slope so leaves differ.
  for (int i = 0; i < 100; ++i) {
    double a = rng.Uniform(0.0, 0.4), b = rng.Uniform();
    xs.push_back({a, b});
    ys.push_back(5.0 * a + rng.Gaussian(0.0, 0.1));
  }
  rf.Fit(xs, ys);
  double mean_in = 0, var_in = 0, mean_out = 0, var_out = 0;
  rf.Predict({0.2, 0.5}, &mean_in, &var_in);
  rf.Predict({0.95, 0.5}, &mean_out, &var_out);
  EXPECT_GE(var_out, 0.0);
  EXPECT_GE(var_in, 0.0);
}

TEST(RandomForestTest, HandlesCategoricalSplits) {
  SearchSpace space(
      {SearchDim::Categorical(3), SearchDim::Continuous(0.0, 1.0)});
  RandomForestOptions options;
  options.num_trees = 20;
  RandomForest rf(space, options, 8);
  Rng rng(9);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 240; ++i) {
    double cat = static_cast<double>(rng.UniformInt(0, 2));
    xs.push_back({cat, rng.Uniform()});
    ys.push_back(cat == 1.0 ? 20.0 : 1.0);  // category 1 stands out
  }
  rf.Fit(xs, ys);
  EXPECT_GT(rf.PredictMean({1.0, 0.5}), 10.0);
  EXPECT_LT(rf.PredictMean({0.0, 0.5}), 8.0);
  EXPECT_LT(rf.PredictMean({2.0, 0.5}), 8.0);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  Rng rng(10);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 60; ++i) {
    xs.push_back({rng.Uniform(), rng.Uniform()});
    ys.push_back(xs.back()[0] * 2.0);
  }
  RandomForest a(Space2d(), {}, 77), b(Space2d(), {}, 77);
  a.Fit(xs, ys);
  b.Fit(xs, ys);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> x = {i / 20.0, 0.3};
    EXPECT_DOUBLE_EQ(a.PredictMean(x), b.PredictMean(x));
  }
}

TEST(RandomForestTest, RefitReplacesModel) {
  RandomForest rf(Space2d(), {}, 11);
  std::vector<std::vector<double>> xs = {{0.1, 0.1}, {0.9, 0.9}, {0.5, 0.5}};
  rf.Fit(xs, {1.0, 1.0, 1.0});
  EXPECT_NEAR(rf.PredictMean({0.5, 0.5}), 1.0, 1e-9);
  rf.Fit(xs, {5.0, 5.0, 5.0});
  EXPECT_NEAR(rf.PredictMean({0.5, 0.5}), 5.0, 1e-9);
}

// Property: law-of-total-variance output is always non-negative.
class RfVarianceProperty : public ::testing::TestWithParam<int> {};

TEST_P(RfVarianceProperty, NonNegativeVariance) {
  RandomForestOptions options;
  options.num_trees = 10;
  RandomForest rf(Space2d(), options, GetParam());
  Rng rng(GetParam());
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back({rng.Uniform(), rng.Uniform()});
    ys.push_back(rng.Gaussian(0.0, 3.0));
  }
  rf.Fit(xs, ys);
  for (int i = 0; i < 100; ++i) {
    double mean = 0, variance = -1;
    rf.Predict({rng.Uniform(), rng.Uniform()}, &mean, &variance);
    EXPECT_GE(variance, 0.0);
    EXPECT_TRUE(std::isfinite(mean));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RfVarianceProperty, ::testing::Range(1, 7));

// Golden pin of the forest's bits. Inputs come from a 64-bit LCG and
// plain arithmetic (no libm), so the same bits hold under every
// compiler and sanitizer build.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 11;
  }
  double Unit() { return static_cast<double>(Next()) * 0x1.0p-53; }
  double Below(uint64_t k) { return static_cast<double>(Next() % k); }

 private:
  uint64_t state_;
};

// Categorical, continuous, bucketed, constant, binary categorical and
// gridded (many ties) columns.
SearchSpace MixedSpace() {
  return SearchSpace({SearchDim::Categorical(4),
                      SearchDim::Continuous(0.0, 1.0),
                      SearchDim::Continuous(0.0, 10.0, 5),
                      SearchDim::Continuous(-1.0, 1.0),
                      SearchDim::Categorical(2),
                      SearchDim::Continuous(0.0, 1.0)});
}

std::vector<double> MixedPoint(Lcg* lcg) {
  return {lcg->Below(4), lcg->Unit(), 2.5 * lcg->Below(5), 0.25,
          lcg->Below(2), lcg->Below(9) / 8.0};
}

// Hash of Predict's mean and variance at 100 probes, after fitting n
// points of the mixed space.
uint64_t MixedForestHash(int n, bool bootstrap, int min_samples_leaf,
                         uint64_t seed) {
  Lcg lcg(seed);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < n; ++i) {
    std::vector<double> x = MixedPoint(&lcg);
    double y = 3.0 * x[1] - 2.0 * x[1] * x[1] + (x[0] == 2.0 ? 1.5 : 0.0) +
               0.3 * x[2] + x[4] * x[5] + 0.1 * lcg.Unit();
    // Every fifth target repeats a coarse value, so scores tie.
    if (i % 5 == 0) y = lcg.Below(3);
    xs.push_back(std::move(x));
    ys.push_back(y);
  }
  RandomForestOptions options;
  options.bootstrap = bootstrap;
  options.min_samples_leaf = min_samples_leaf;
  RandomForest rf(MixedSpace(), options, seed);
  rf.Fit(xs, ys);
  std::vector<double> out;
  for (int p = 0; p < 100; ++p) {
    std::vector<double> probe = p % 4 == 0 ? xs[p % n] : MixedPoint(&lcg);
    double mean = 0.0, variance = 0.0;
    rf.Predict(probe, &mean, &variance);
    out.push_back(mean);
    out.push_back(variance);
  }
  return HashDoubles(out);
}

TEST(RandomForestGoldenTest, MixedSpacePredictionsArePinned) {
  struct Case {
    int n;
    bool bootstrap;
    int min_samples_leaf;
    uint64_t hash;
  };
  const Case kCases[] = {
      {3, true, 1, 0xdb3417a276dc0bb2ULL},
      {3, true, 2, 0x83533decc429ac79ULL},
      {3, false, 1, 0xdac3071b0ef8fb5ULL},
      {3, false, 2, 0xd2b4fb0c545d7aULL},
      {7, true, 1, 0x54b14dd9a9ce8734ULL},
      {7, true, 2, 0x5c4caa12e8b43d77ULL},
      {7, false, 1, 0x5fbfbba0c3566f2dULL},
      {7, false, 2, 0xbc7313d02d1da996ULL},
      {40, true, 1, 0x9e1f4b351ca463f8ULL},
      {40, true, 2, 0x978736494e4f6a11ULL},
      {40, false, 1, 0x64d3e90dcaef6a2bULL},
      {40, false, 2, 0x667c57aaaa568839ULL},
      {150, true, 1, 0x371f9670b36dbf6cULL},
      {150, true, 2, 0x7b1aaa166fe5eb25ULL},
      {150, false, 1, 0x5983a98d3a5f576bULL},
      {150, false, 2, 0x9ab905a9d3ff55f1ULL},
  };
  uint64_t seed = 1;
  for (const Case& c : kCases) {
    uint64_t hash =
        MixedForestHash(c.n, c.bootstrap, c.min_samples_leaf, seed++);
    EXPECT_EQ(hash, c.hash)
        << "n=" << c.n << " bootstrap=" << c.bootstrap
        << " min_samples_leaf=" << c.min_samples_leaf << " hash=0x"
        << std::hex << hash;
  }
}

// Values the probes below plant in single columns: NaN, both
// infinities, every category, a non-category, the domain ends, and
// 0.25 and the double just above it. Column 3 of the edge-case fits
// holds only those last two, so each split on it draws a threshold from
// Uniform(0.25, 0.25 + ulp), which rounds to one of the two, and probes
// land exactly on a threshold.
constexpr double kNextAfterQuarter = 0x1.0000000000001p-2;

std::vector<double> EdgeProbe(Lcg* lcg) {
  const double kPlanted[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             0.0, 1.0, 2.0, 3.0, 1.5, -1.0, 10.0,
                             0.25, kNextAfterQuarter};
  std::vector<double> probe = MixedPoint(lcg);
  probe[3] = lcg->Below(2) == 0.0 ? 0.25 : kNextAfterQuarter;
  for (double& value : probe) {
    if (lcg->Below(3) == 0.0) {
      value = kPlanted[static_cast<size_t>(lcg->Below(std::size(kPlanted)))];
    }
  }
  return probe;
}

enum class EdgeFit {
  kMixed,          // MixedPoint rows, column 3 on the two planted values
  kIdenticalRows,  // every feature constant: one leaf per tree
  kConstantY,      // every target equal
};

// Hash of the batch predictions of the first b of 600 edge probes, for
// b in 1, 7, 8, 9, 63, 64, 65 and 600: the sizes around the kernel's
// group of 8 rows and SMAC's block of 64.
uint64_t EdgeForestHash(EdgeFit fit, int n, bool bootstrap, uint64_t seed) {
  Lcg lcg(seed);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < n; ++i) {
    std::vector<double> x = MixedPoint(&lcg);
    x[3] = lcg.Below(2) == 0.0 ? 0.25 : kNextAfterQuarter;
    if (fit == EdgeFit::kIdenticalRows && i > 0) x = xs[0];
    double y = 2.0 * x[1] + (x[3] == 0.25 ? 1.0 : 0.0) +
               (x[0] == 1.0 ? 0.75 : 0.0) + 0.1 * lcg.Unit();
    if (fit == EdgeFit::kConstantY) y = 4.5;
    xs.push_back(std::move(x));
    ys.push_back(y);
  }
  RandomForestOptions options;
  options.bootstrap = bootstrap;
  RandomForest rf(MixedSpace(), options, seed);
  rf.Fit(xs, ys);

  std::vector<std::vector<double>> probes;
  for (int p = 0; p < 600; ++p) {
    probes.push_back(p % 5 == 0 ? xs[p % n] : EdgeProbe(&lcg));
  }
  std::vector<double> out;
  for (int b : {1, 7, 8, 9, 63, 64, 65, 600}) {
    std::vector<double> means(b), variances(b);
    rf.PredictBatch(probes.data(), b, means.data(), variances.data());
    out.insert(out.end(), means.begin(), means.end());
    out.insert(out.end(), variances.begin(), variances.end());
  }
  return HashDoubles(out);
}

TEST(RandomForestGoldenTest, EdgeCaseBatchPredictionsArePinned) {
  struct Case {
    EdgeFit fit;
    int n;
    bool bootstrap;
    uint64_t hash;
  };
  const Case kCases[] = {
      {EdgeFit::kMixed, 40, true, 0xa15d09e1ba929963ULL},
      {EdgeFit::kMixed, 150, false, 0x598d905b8484c5baULL},
      // n = 1, and n = 2 below min_samples_split: one leaf per tree.
      {EdgeFit::kMixed, 1, true, 0x882c31c82a405532ULL},
      {EdgeFit::kMixed, 2, true, 0x8f3fc0c2a06d5058ULL},
      {EdgeFit::kIdenticalRows, 30, true, 0x21df08a47bf2f96aULL},
      {EdgeFit::kConstantY, 40, true, 0xa50589af270d6c16ULL},
  };
  uint64_t seed = 101;
  for (const Case& c : kCases) {
    uint64_t hash = EdgeForestHash(c.fit, c.n, c.bootstrap, seed++);
    EXPECT_EQ(hash, c.hash) << "fit=" << static_cast<int>(c.fit)
                            << " n=" << c.n << " hash=0x" << std::hex << hash;
  }
}

}  // namespace
}  // namespace llamatune
