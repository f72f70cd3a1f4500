#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "src/core/knowledge_base.h"
#include "src/dbsim/workloads.h"
#include "src/harness/tuner.h"
#include "src/optimizer/gp_bo.h"
#include "src/optimizer/random_search.h"
#include "src/optimizer/smac.h"

namespace llamatune {
namespace {

SearchSpace Box2d() {
  return SearchSpace(
      {SearchDim::Continuous(0.0, 1.0), SearchDim::Continuous(0.0, 1.0)});
}

// Smooth test objective with optimum at (0.7, 0.3).
double Quadratic(const std::vector<double>& p) {
  double dx = p[0] - 0.7, dy = p[1] - 0.3;
  return 10.0 - 25.0 * (dx * dx + dy * dy);
}

template <typename Opt>
double RunLoop(Opt* opt, int iters) {
  for (int i = 0; i < iters; ++i) {
    auto p = opt->Suggest();
    opt->Observe(p, Quadratic(p));
  }
  return opt->BestValue();
}

TEST(RandomSearchTest, SuggestionsInBounds) {
  RandomSearchOptimizer opt(Box2d(), 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(opt.space().Contains(opt.Suggest()));
  }
}

TEST(RandomSearchTest, BestTracking) {
  RandomSearchOptimizer opt(Box2d(), 2);
  EXPECT_EQ(opt.BestPoint().size(), 0u);
  opt.Observe({0.1, 0.1}, 1.0);
  opt.Observe({0.2, 0.2}, 5.0);
  opt.Observe({0.3, 0.3}, 3.0);
  EXPECT_EQ(opt.BestValue(), 5.0);
  EXPECT_EQ(opt.BestPoint(), (std::vector<double>{0.2, 0.2}));
  EXPECT_EQ(opt.history().size(), 3u);
}

TEST(SmacTest, InitialDesignIsLhsOfConfiguredSize) {
  SmacOptions options;
  options.n_init = 8;
  SmacOptimizer opt(Box2d(), options, 3);
  std::set<int> strata;
  for (int i = 0; i < 8; ++i) {
    auto p = opt.Suggest();
    EXPECT_TRUE(opt.space().Contains(p));
    strata.insert(std::min(7, static_cast<int>(p[0] * 8)));
    opt.Observe(p, Quadratic(p));
  }
  EXPECT_EQ(strata.size(), 8u);  // LHS stratification on dim 0
}

TEST(SmacTest, BeatsRandomSearchOnQuadratic) {
  double smac_total = 0.0, random_total = 0.0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SmacOptimizer smac(Box2d(), {}, seed);
    RandomSearchOptimizer random(Box2d(), seed);
    smac_total += RunLoop(&smac, 40);
    random_total += RunLoop(&random, 40);
  }
  EXPECT_GT(smac_total, random_total);
  EXPECT_GT(smac_total / 5.0, 9.5);  // near the optimum of 10
}

TEST(SmacTest, DeterministicGivenSeed) {
  SmacOptimizer a(Box2d(), {}, 17), b(Box2d(), {}, 17);
  for (int i = 0; i < 25; ++i) {
    auto pa = a.Suggest();
    auto pb = b.Suggest();
    EXPECT_EQ(pa, pb);
    a.Observe(pa, Quadratic(pa));
    b.Observe(pb, Quadratic(pb));
  }
}

TEST(SmacTest, SuggestionsStayValidWithCategoricalDims) {
  SearchSpace space({SearchDim::Continuous(0.0, 1.0),
                     SearchDim::Categorical(4),
                     SearchDim::Continuous(-1.0, 1.0, 101)});
  SmacOptimizer opt(space, {}, 4);
  for (int i = 0; i < 40; ++i) {
    auto p = opt.Suggest();
    EXPECT_TRUE(space.Contains(p));
    // Reward category 2 so the model has something to chase.
    opt.Observe(p, (p[1] == 2.0 ? 5.0 : 0.0) - p[0]);
  }
}

TEST(SmacTest, RandomInterleaveDisabledWorks) {
  SmacOptions options;
  options.random_interleave = 0;
  SmacOptimizer opt(Box2d(), options, 5);
  EXPECT_GT(RunLoop(&opt, 30), 8.0);
}

TEST(GpBoTest, BeatsRandomSearchOnQuadratic) {
  double gp_total = 0.0, random_total = 0.0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    GpBoOptimizer gp(Box2d(), {}, seed);
    RandomSearchOptimizer random(Box2d(), seed);
    gp_total += RunLoop(&gp, 35);
    random_total += RunLoop(&random, 35);
  }
  EXPECT_GT(gp_total, random_total);
  EXPECT_GT(gp_total / 3.0, 9.5);
}

TEST(GpBoTest, HandlesMixedSpace) {
  SearchSpace space(
      {SearchDim::Continuous(0.0, 1.0), SearchDim::Categorical(3)});
  GpBoOptimizer opt(space, {}, 6);
  for (int i = 0; i < 25; ++i) {
    auto p = opt.Suggest();
    EXPECT_TRUE(space.Contains(p));
    opt.Observe(p, (p[1] == 1.0 ? 3.0 : 0.0) + p[0]);
  }
  EXPECT_GT(opt.BestValue(), 3.0);
}

// Regression for the ArgmaxEi degenerate-pool guard: a constant
// objective collapses the target stddev to its floor, every pool
// variance to ~0, and every EI to exactly 0 — suggestions must stay
// valid points (never a NaN-comparison winner, never a crash), in
// every batch mode.
TEST(GpBoTest, SurvivesConstantObjective) {
  for (GpBatchMode mode :
       {GpBatchMode::kSequential, GpBatchMode::kFantasyQei,
        GpBatchMode::kLocalPenalization}) {
    GpBoOptions options;
    options.batch_mode = mode;
    GpBoOptimizer opt(Box2d(), options, 9);
    for (int i = 0; i < 8; ++i) {
      for (const auto& p : opt.SuggestBatch(2)) {
        EXPECT_TRUE(opt.space().Contains(p));
        for (double v : p) EXPECT_TRUE(std::isfinite(v));
        opt.Observe(p, 7.0);  // constant objective
      }
    }
  }
}

TEST(GpBoTest, SparseSwitchoverKeepsSuggestionsValid) {
  // Tiny threshold: the inducing-point path takes over a few
  // iterations past the init design and must keep producing valid,
  // deterministic suggestions.
  GpBoOptions options;
  options.gp.sparse_threshold = 14;
  options.gp.num_inducing = 8;
  GpBoOptimizer opt(Box2d(), options, 12);
  GpBoOptimizer twin(Box2d(), options, 12);
  for (int i = 0; i < 30; ++i) {
    auto p = opt.Suggest();
    auto q = twin.Suggest();
    EXPECT_EQ(p, q) << "iteration " << i;
    EXPECT_TRUE(opt.space().Contains(p));
    opt.Observe(p, Quadratic(p));
    twin.Observe(q, Quadratic(q));
  }
  EXPECT_GT(opt.BestValue(), 8.0);
}

// Below the threshold the sparse-enabled optimizer is bit-for-bit the
// plain one — enabling the switchover cannot change small-n runs.
TEST(GpBoTest, SparseConfigIdenticalBelowThreshold) {
  GpBoOptions sparse_options;
  sparse_options.gp.sparse_threshold = 100;  // never reached here
  sparse_options.gp.num_inducing = 8;
  GpBoOptimizer sparse(Box2d(), sparse_options, 23);
  GpBoOptimizer plain(Box2d(), {}, 23);
  for (int i = 0; i < 20; ++i) {
    auto ps = sparse.Suggest();
    auto pp = plain.Suggest();
    EXPECT_EQ(ps, pp) << "iteration " << i;
    sparse.Observe(ps, Quadratic(ps));
    plain.Observe(pp, Quadratic(pp));
  }
}

TEST(GpBoTest, DeterministicGivenSeed) {
  GpBoOptimizer a(Box2d(), {}, 23), b(Box2d(), {}, 23);
  for (int i = 0; i < 15; ++i) {
    auto pa = a.Suggest();
    auto pb = b.Suggest();
    EXPECT_EQ(pa, pb);
    a.Observe(pa, Quadratic(pa));
    b.Observe(pb, Quadratic(pb));
  }
}

// Property: on a bucketized space, every SMAC suggestion sits on the
// grid — the optimizer is truly aware of the coarser space (paper §5
// design requirement).
class SmacBucketProperty : public ::testing::TestWithParam<int> {};

TEST_P(SmacBucketProperty, SuggestionsOnBucketGrid) {
  int k = GetParam();
  SearchSpace space({SearchDim::Continuous(-1.0, 1.0, k),
                     SearchDim::Continuous(-1.0, 1.0, k)});
  SmacOptimizer opt(space, {}, 100 + k);
  for (int i = 0; i < 30; ++i) {
    auto p = opt.Suggest();
    EXPECT_TRUE(space.Contains(p)) << "k=" << k;
    opt.Observe(p, -(p[0] * p[0] + p[1] * p[1]));
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, SmacBucketProperty,
                         ::testing::Values(3, 11, 101, 10000));

// Golden pins of SMAC's trajectories: which candidates it picks, bit
// for bit, through the forest, the candidate pool and EI.
TEST(SmacGoldenTest, TpccLlamaTuneSessionIsPinned) {
  Result<std::unique_ptr<harness::Tuner>> tuner =
      harness::TunerBuilder()
          .Workload(dbsim::TpcC())
          .Optimizer("smac")
          .Adapter("llamatune")
          .Seed(13)
          .Iterations(100)
          .Build();
  ASSERT_TRUE(tuner.ok());
  SessionResult result = (*tuner)->Run();
  ASSERT_EQ(result.kb.size(), 100);
  std::vector<double> digest;
  for (const IterationRecord& record : result.kb.records()) {
    digest.insert(digest.end(), record.point.begin(), record.point.end());
    digest.push_back(record.measured);
    digest.push_back(record.objective);
    digest.push_back(static_cast<double>(record.outcome));
  }
  uint64_t hash = HashDoubles(digest);
  EXPECT_EQ(hash, 0xc02b53bef85cbd7eULL) << "hash=0x" << std::hex << hash;
}

// SuggestBatch(4) rounds on a mixed categorical and continuous space,
// through SuggestByModelDiverse's shared fit and exclusion scan.
TEST(SmacGoldenTest, MixedSpaceBatchRoundsArePinned) {
  SearchSpace space({SearchDim::Categorical(4),
                     SearchDim::Continuous(0.0, 1.0),
                     SearchDim::Continuous(0.0, 10.0, 5),
                     SearchDim::Continuous(-1.0, 1.0),
                     SearchDim::Categorical(2),
                     SearchDim::Continuous(0.0, 1.0)});
  SmacOptimizer opt(space, {}, 29);
  std::vector<double> digest;
  for (int round = 0; round < 15; ++round) {
    for (const std::vector<double>& p : opt.SuggestBatch(4)) {
      double value = 3.0 * p[1] - 2.0 * p[1] * p[1] +
                     (p[0] == 2.0 ? 1.5 : 0.0) + 0.3 * p[2] - p[3] * p[3] +
                     p[4] * p[5];
      opt.Observe(p, value);
      digest.insert(digest.end(), p.begin(), p.end());
      digest.push_back(value);
    }
  }
  uint64_t hash = HashDoubles(digest);
  EXPECT_EQ(hash, 0x6766728f0a7dd1f4ULL) << "hash=0x" << std::hex << hash;
}

}  // namespace
}  // namespace llamatune
