// Property battery for the multi-fidelity racing stage (ISSUE 9):
//
//  * RunningStat matches a two-pass batch oracle (same shift) to 1 ulp
//    and serializes bit-exactly, so checkpointed races resume on the
//    identical accumulator state.
//  * A racing session is bit-for-bit deterministic at any thread count
//    and under any Tell interleaving — same survivors, same champions,
//    same committed trajectory, same simulated work.
//  * The degenerate race (cohort 1, rungs 1) reduces bit-for-bit to
//    the non-racing session.
//  * Rung trials are exempt from pending-deadline expiry (a rung must
//    complete for the race to stay deterministic).
//  * On the shared bench grid (bench/bench_common.h — the same
//    definition bench/bm_racing.cc regression-tracks), racing matches
//    the fixed-budget session's best-found within 2% at <= 0.5x the
//    simulated measurement work.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/serde.h"
#include "src/core/adapter_registry.h"
#include "src/core/running_stat.h"
#include "src/core/tuning_session.h"
#include "src/dbsim/simulated_postgres.h"
#include "src/dbsim/workloads.h"
#include "src/optimizer/optimizer_registry.h"

namespace llamatune {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// RunningStat vs the two-pass batch oracle
// ---------------------------------------------------------------------------

/// Maps a double to a monotonically ordered integer so adjacent
/// representable values differ by exactly 1.
int64_t OrderedBits(double x) {
  int64_t i;
  std::memcpy(&i, &x, sizeof(double));
  return i >= 0 ? i
               : static_cast<int64_t>(0x8000000000000000ull -
                                      static_cast<uint64_t>(i));
}

uint64_t UlpDistance(double a, double b) {
  int64_t ia = OrderedBits(a);
  int64_t ib = OrderedBits(b);
  return ia >= ib ? static_cast<uint64_t>(ia) - static_cast<uint64_t>(ib)
                  : static_cast<uint64_t>(ib) - static_cast<uint64_t>(ia);
}

struct BatchOracle {
  double mean = 0.0;
  double variance = 0.0;
  /// The exact (extended-precision) batch sums, rounded to double —
  /// what the Neumaier-compensated running sums are pinned against.
  double sum = 0.0;
  double sum_sq = 0.0;
};

/// Two-pass batch reference with the same shift (the first value) and
/// the same per-observation terms RunningStat::Push sums — the terms
/// accumulate in extended precision, so the oracle sums are exact
/// where the accumulator's are Neumaier-compensated. The final
/// arithmetic mirrors Mean()/Variance() operation for operation.
BatchOracle TwoPassOracle(const std::vector<double>& xs) {
  BatchOracle oracle;
  if (xs.empty()) return oracle;
  const double shift = xs[0];
  long double s1 = 0.0L;
  long double s2 = 0.0L;
  for (double x : xs) {
    double d = x - shift;
    double sq = d * d;
    s1 += static_cast<long double>(d);
    s2 += static_cast<long double>(sq);
  }
  const double s = static_cast<double>(s1);
  const double ss = static_cast<double>(s2);
  const double n = static_cast<double>(xs.size());
  oracle.sum = s;
  oracle.sum_sq = ss;
  oracle.mean = shift + s / n;
  if (xs.size() >= 2) {
    double var = (ss - s * s / n) / (n - 1.0);
    oracle.variance = var > 0.0 ? var : 0.0;
  }
  return oracle;
}

struct RawSums {
  double sum = 0.0;
  double sum_sq = 0.0;
};

/// Reads the compensated running sums back through the serialized form
/// ("stat <count> <shift> <sum> <sum_c> <sum_sq> <sum_sq_c> <min>
/// <max>" as bit tokens) — the accumulator's only public window onto
/// its internal state, and exactly what a checkpoint persists.
RawSums ExtractSums(const RunningStat& stat) {
  std::istringstream in(stat.Serialize());
  std::string tag;
  int64_t count = 0;
  in >> tag >> count;
  double fields[7] = {};
  std::string token;
  for (double& field : fields) {
    in >> token;
    field = DecodeDoubleBits(token).ValueOrDie();
  }
  RawSums sums;
  sums.sum = fields[1] + fields[2];
  sums.sum_sq = fields[3] + fields[4];
  return sums;
}

// The documented numeric contract: the compensated running sums match
// the exact batch sums of the same per-observation terms to 1 ulp (and
// so does the mean). The variance pin is cancellation-aware: the
// subtraction (ss - s^2/n) amplifies a 1-ulp sum error by ss/variance,
// so its tolerance scales with the uncentered moment, not the result.
TEST(RunningStatTest, MatchesBatchOracleToOneUlp) {
  std::mt19937_64 rng(20260808);
  struct StreamSpec {
    const char* name;
    double center;
    double spread;
    int n;
  };
  // DES-throughput-like (narrow, far from zero — the distribution the
  // shift exists for), a brutally narrow large-offset stream, and a
  // zero-centered mixed-sign stream.
  const StreamSpec specs[] = {
      {"des-throughput", 3000.0, 40.0, 200},
      {"narrow-offset", 8.5e6, 1e-3, 333},
      {"mixed-sign", 0.0, 1.0, 500},
  };
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  for (const StreamSpec& spec : specs) {
    std::normal_distribution<double> dist(spec.center, spec.spread);
    std::vector<double> xs;
    RunningStat stat;
    for (int i = 0; i < spec.n; ++i) {
      double x = dist(rng);
      xs.push_back(x);
      stat.Push(x);
      BatchOracle oracle = TwoPassOracle(xs);
      RawSums sums = ExtractSums(stat);
      EXPECT_LE(UlpDistance(sums.sum, oracle.sum), 1u)
          << spec.name << " sum diverged at n=" << xs.size();
      EXPECT_LE(UlpDistance(sums.sum_sq, oracle.sum_sq), 1u)
          << spec.name << " sum_sq diverged at n=" << xs.size();
      EXPECT_LE(UlpDistance(stat.Mean(), oracle.mean), 1u)
          << spec.name << " mean diverged at n=" << xs.size();
      if (xs.size() >= 2) {
        double scale = oracle.sum_sq / (static_cast<double>(xs.size()) - 1.0);
        EXPECT_NEAR(stat.Variance(), oracle.variance, 16.0 * kEps * scale)
            << spec.name << " variance diverged at n=" << xs.size();
      }
    }
    EXPECT_EQ(stat.count(), spec.n);
  }
}

TEST(RunningStatTest, DegenerateCounts) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0);
  EXPECT_EQ(stat.Mean(), 0.0);
  EXPECT_EQ(stat.Variance(), 0.0);
  EXPECT_TRUE(std::isinf(stat.CiHalfWidth(1.96)));

  stat.Push(12.75);
  EXPECT_TRUE(SameBits(stat.Mean(), 12.75));
  EXPECT_EQ(stat.Variance(), 0.0);
  // One sample: the CI half-width is infinite, so a candidate measured
  // once can never be eliminated on CI overlap.
  EXPECT_TRUE(std::isinf(stat.CiHalfWidth(1.96)));

  stat.Push(12.75);
  EXPECT_TRUE(SameBits(stat.Mean(), 12.75));
  // A constant stream clamps to exactly zero variance.
  EXPECT_EQ(stat.Variance(), 0.0);
  EXPECT_EQ(stat.CiHalfWidth(1.96), 0.0);
  EXPECT_TRUE(SameBits(stat.Min(), 12.75));
  EXPECT_TRUE(SameBits(stat.Max(), 12.75));
}

TEST(RunningStatTest, SerializeParseRoundTripsBitExact) {
  std::mt19937_64 rng(7);
  std::normal_distribution<double> dist(2800.0, 55.0);
  RunningStat stat;
  for (int i = 0; i < 17; ++i) stat.Push(dist(rng));

  std::string line = stat.Serialize();
  Result<RunningStat> parsed = RunningStat::Parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Serialize(), line);
  EXPECT_EQ(parsed->count(), stat.count());
  EXPECT_TRUE(SameBits(parsed->Mean(), stat.Mean()));
  EXPECT_TRUE(SameBits(parsed->Variance(), stat.Variance()));
  EXPECT_TRUE(SameBits(parsed->CiHalfWidth(1.96), stat.CiHalfWidth(1.96)));
  EXPECT_TRUE(SameBits(parsed->Min(), stat.Min()));
  EXPECT_TRUE(SameBits(parsed->Max(), stat.Max()));

  // A resumed accumulator must continue bit-for-bit, not just report
  // the same summary at the restore point.
  RunningStat resumed = std::move(parsed).ValueOrDie();
  for (int i = 0; i < 9; ++i) {
    double x = dist(rng);
    stat.Push(x);
    resumed.Push(x);
  }
  EXPECT_EQ(resumed.Serialize(), stat.Serialize());

  EXPECT_FALSE(RunningStat::Parse("").ok());
  EXPECT_FALSE(RunningStat::Parse("stat 3 deadbeef").ok());
  EXPECT_FALSE(RunningStat::Parse("stats 0").ok());
  EXPECT_FALSE(RunningStat::Parse("stat -1 0 0 0 0 0 0 0").ok());
}

// ---------------------------------------------------------------------------
// Racing session determinism
// ---------------------------------------------------------------------------

::testing::AssertionResult ResultsBitIdentical(const SessionResult& a,
                                               const SessionResult& b) {
  if (a.iterations_run != b.iterations_run) {
    return ::testing::AssertionFailure()
           << "iterations_run " << a.iterations_run << " vs "
           << b.iterations_run;
  }
  if (!SameBits(a.default_performance, b.default_performance) ||
      !SameBits(a.best_performance, b.best_performance) ||
      !(a.best_config == b.best_config) || a.kb.size() != b.kb.size()) {
    return ::testing::AssertionFailure() << "summary fields differ";
  }
  if (!SameBits(a.simulated_work, b.simulated_work)) {
    return ::testing::AssertionFailure()
           << "simulated_work " << a.simulated_work << " vs "
           << b.simulated_work;
  }
  for (int i = 0; i < a.kb.size(); ++i) {
    const IterationRecord& ra = a.kb.record(i);
    const IterationRecord& rb = b.kb.record(i);
    if (ra.crashed != rb.crashed || !SameBits(ra.measured, rb.measured) ||
        !SameBits(ra.objective, rb.objective) || !(ra.config == rb.config) ||
        ra.point.size() != rb.point.size()) {
      return ::testing::AssertionFailure() << "record " << i << " differs";
    }
    for (size_t j = 0; j < ra.point.size(); ++j) {
      if (!SameBits(ra.point[j], rb.point[j])) {
        return ::testing::AssertionFailure()
               << "record " << i << " point[" << j << "] differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

struct Stack {
  std::unique_ptr<dbsim::SimulatedPostgres> objective;
  std::unique_ptr<SpaceAdapter> adapter;
  std::unique_ptr<Optimizer> optimizer;
  std::unique_ptr<TuningSession> session;
};

/// Noisy TPC-C through the discrete-event engine (short runs genuinely
/// noisier), hesbo8, random search — the racing grid's shape at a CI
/// friendly transaction count. `detached` builds an ask/tell-only
/// session; the test then drives evaluation itself.
Stack MakeRacingStack(uint64_t seed, SessionOptions options,
                      bool detached = false) {
  Stack stack;
  dbsim::SimulatedPostgresOptions db_options;
  db_options.engine = dbsim::EngineKind::kDiscreteEvent;
  db_options.des_transactions = 2000;
  db_options.noise_seed = seed;
  stack.objective = std::make_unique<dbsim::SimulatedPostgres>(
      dbsim::TpcC(), db_options);
  stack.adapter = std::move(AdapterRegistry::Global().Create(
                                "hesbo8", &stack.objective->config_space(),
                                seed))
                      .ValueOrDie();
  stack.optimizer = std::move(OptimizerRegistry::Global().Create(
                                  "random", stack.adapter->search_space(),
                                  seed))
                        .ValueOrDie();
  if (detached) {
    stack.session = std::make_unique<TuningSession>(
        &stack.objective->config_space(), stack.objective->maximize(),
        stack.adapter.get(), stack.optimizer.get(), options);
  } else {
    stack.session = std::make_unique<TuningSession>(
        stack.objective.get(), stack.adapter.get(), stack.optimizer.get(),
        options);
  }
  return stack;
}

RacingOptions SmallRacing() {
  RacingOptions racing;
  racing.cohort = 4;
  racing.rungs = 3;
  racing.min_fidelity = 0.25;
  racing.eta = 2.0;
  racing.ci_z = 1.96;
  return racing;
}

// Results are recorded in suggestion order and rung commits happen in
// draw order regardless of evaluation scheduling, so a fixed seed must
// produce one bit pattern at every executor width.
TEST(RacingDeterminismTest, BitIdenticalAcrossThreadCounts) {
  SessionOptions options;
  options.num_iterations = 3;
  options.racing = SmallRacing();
  std::vector<SessionResult> results;
  for (int threads : {1, 2, 8}) {
    options.num_threads = threads;
    Stack stack = MakeRacingStack(/*seed=*/42, options);
    results.push_back(stack.session->Run());
  }
  EXPECT_TRUE(ResultsBitIdentical(results[0], results[1]));
  EXPECT_TRUE(ResultsBitIdentical(results[0], results[2]));
  // Racing actually raced: three races committed exactly three
  // observations (plus the baseline) while spending more than three
  // full-run units of measurement on the tournament.
  EXPECT_EQ(results[0].iterations_run, 3);
  EXPECT_EQ(results[0].kb.size(), 3);
  EXPECT_GT(results[0].simulated_work, 4.0);
}

enum class TellOrder { kForward, kReverse, kEvensThenOdds, kSingleAsks };

/// Drives a detached racing session to completion: trials are always
/// *evaluated* in ask (slot) order on the one shared simulator — so
/// every variant measures identical values — and then told back in the
/// permuted order under test. Only the Tell interleaving differs.
void DriveDetached(uint64_t seed, const SessionOptions& options,
                   TellOrder order, SessionResult* out) {
  Stack stack = MakeRacingStack(seed, options, /*detached=*/true);
  TuningSession& session = *stack.session;

  Result<Trial> baseline = session.Ask();
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  {
    EvalResult eval = stack.objective->Evaluate(baseline->config);
    TrialResult result;
    result.trial_id = baseline->id;
    result.value = eval.value;
    result.outcome = eval.EffectiveOutcome();
    result.metrics = eval.metrics;
    result.fidelity = eval.fidelity;
    Status told = session.Tell(result);
    ASSERT_TRUE(told.ok()) << told.ToString();
  }

  while (!session.finished()) {
    std::vector<Trial> rung;
    if (order == TellOrder::kSingleAsks) {
      // Drain the rung one Ask at a time; the session answers
      // FailedPrecondition once the rung is fully handed out.
      for (;;) {
        Result<Trial> trial = session.Ask();
        if (!trial.ok()) break;
        rung.push_back(std::move(trial).ValueOrDie());
      }
    } else {
      Result<std::vector<Trial>> batch = session.AskBatch(64);
      if (!batch.ok()) break;
      rung = std::move(batch).ValueOrDie();
    }
    if (rung.empty()) break;

    std::vector<TrialResult> results;
    results.reserve(rung.size());
    for (const Trial& trial : rung) {
      EvalResult eval = trial.fidelity < 1.0
                            ? stack.objective->EvaluateAt(trial.config,
                                                          trial.fidelity)
                            : stack.objective->Evaluate(trial.config);
      TrialResult result;
      result.trial_id = trial.id;
      result.value = eval.value;
      result.outcome = eval.EffectiveOutcome();
      result.metrics = eval.metrics;
      result.fidelity = eval.fidelity;
      results.push_back(std::move(result));
    }

    std::vector<size_t> tell_order(results.size());
    std::iota(tell_order.begin(), tell_order.end(), size_t{0});
    switch (order) {
      case TellOrder::kReverse:
        std::reverse(tell_order.begin(), tell_order.end());
        break;
      case TellOrder::kEvensThenOdds:
        std::stable_partition(tell_order.begin(), tell_order.end(),
                              [](size_t i) { return i % 2 == 0; });
        break;
      default:
        break;
    }
    for (size_t i : tell_order) {
      Status told = session.Tell(results[i]);
      ASSERT_TRUE(told.ok()) << told.ToString();
    }
  }
  *out = session.Snapshot();
}

// Rung results may arrive in any order; the session buffers them and
// commits in slot (= draw) order, so survivors, champions, and the
// committed trajectory are invariant under the Tell interleaving.
TEST(RacingDeterminismTest, TellInterleavingDoesNotChangeTrajectory) {
  SessionOptions options;
  options.num_iterations = 3;
  options.racing = SmallRacing();
  SessionResult forward;
  DriveDetached(42, options, TellOrder::kForward, &forward);
  ASSERT_EQ(forward.iterations_run, 3);
  ASSERT_EQ(forward.kb.size(), 3);
  for (TellOrder order : {TellOrder::kReverse, TellOrder::kEvensThenOdds,
                          TellOrder::kSingleAsks}) {
    SessionResult permuted;
    DriveDetached(42, options, order, &permuted);
    EXPECT_TRUE(ResultsBitIdentical(forward, permuted))
        << "tell order " << static_cast<int>(order);
  }
}

// cohort 1 + rungs 1 degenerates to one full-fidelity candidate per
// iteration drawn through Suggest() — the identical optimizer call
// sequence and evaluation stream as the non-racing session, so the
// whole trajectory (and the simulated work) must be bit-for-bit equal.
TEST(RacingDeterminismTest, DegenerateRaceReducesToNonRacingSession) {
  SessionOptions plain;
  plain.num_iterations = 6;
  Stack plain_stack = MakeRacingStack(/*seed=*/42, plain);
  SessionResult plain_result = plain_stack.session->Run();

  SessionOptions degenerate = plain;
  RacingOptions racing;
  racing.cohort = 1;
  racing.rungs = 1;
  degenerate.racing = racing;
  Stack racing_stack = MakeRacingStack(/*seed=*/42, degenerate);
  SessionResult racing_result = racing_stack.session->Run();

  EXPECT_TRUE(ResultsBitIdentical(plain_result, racing_result));
  // Every committed trial ran at full fidelity: work = baseline + 6.
  EXPECT_TRUE(SameBits(racing_result.simulated_work, 7.0));
}

TEST(RacingDeterminismTest, AskBatchHandsOutARungInParts) {
  SessionOptions options;
  options.num_iterations = 2;
  options.racing = SmallRacing();
  // Two identical detached sessions: one takes rung 0 whole, the other
  // in parts of three.
  Stack whole = MakeRacingStack(/*seed=*/42, options, /*detached=*/true);
  Stack parts = MakeRacingStack(/*seed=*/42, options, /*detached=*/true);
  for (Stack* stack : {&whole, &parts}) {
    Result<Trial> baseline = stack->session->Ask();
    ASSERT_TRUE(baseline.ok());
    TrialResult result;
    result.trial_id = baseline->id;
    result.value = 1000.0;
    ASSERT_TRUE(stack->session->Tell(result).ok());
  }
  Result<std::vector<Trial>> rung = whole.session->AskBatch(64);
  ASSERT_TRUE(rung.ok());
  ASSERT_EQ(rung->size(), 4u);

  TuningSession& session = *parts.session;
  Result<std::vector<Trial>> head = session.AskBatch(3);
  ASSERT_TRUE(head.ok());
  ASSERT_EQ(head->size(), 3u);
  Result<std::vector<Trial>> tail = session.AskBatch(3);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 1u);
  // The whole rung is created when the race starts, so every slot is
  // pending before the first part is even handed out.
  EXPECT_EQ(session.pending_trials(), 4);

  std::vector<Trial> handed = *head;
  handed.push_back(tail->front());
  for (size_t i = 0; i < handed.size(); ++i) {
    EXPECT_EQ(handed[i].id, (*rung)[i].id);
    EXPECT_EQ(handed[i].point, (*rung)[i].point);
    EXPECT_EQ(handed[i].fidelity, 0.25);
  }

  // The rung is fully handed out: neither ask path draws a new race.
  Result<std::vector<Trial>> more = session.AskBatch(1);
  EXPECT_EQ(more.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Ask().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.pending_trials(), 4);
  EXPECT_EQ(session.next_trial_id(), handed.back().id + 1);
}

TEST(RacingDeterminismTest, RungTrialsAreExemptFromExpiry) {
  SessionOptions options;
  options.num_iterations = 2;
  options.racing = SmallRacing();
  options.pending_deadline_ms = 1;
  Stack stack = MakeRacingStack(/*seed=*/42, options, /*detached=*/true);
  TuningSession& session = *stack.session;

  Result<Trial> baseline = session.Ask();
  ASSERT_TRUE(baseline.ok());
  TrialResult baseline_result;
  baseline_result.trial_id = baseline->id;
  baseline_result.value = 1000.0;
  ASSERT_TRUE(session.Tell(baseline_result).ok());

  Result<std::vector<Trial>> rung = session.AskBatch(64);
  ASSERT_TRUE(rung.ok());
  ASSERT_EQ(rung->size(), 4u);

  // Explicit expiry of a rung slot is refused...
  Status expired = session.Expire(rung->front().id);
  EXPECT_EQ(expired.code(), StatusCode::kFailedPrecondition)
      << expired.ToString();
  // ...and the deadline sweep skips rung trials no matter how overdue
  // (9e12 ms is far past any wall clock this test runs under).
  EXPECT_TRUE(session.ExpireOverdue(9'000'000'000'000).empty());

  // The rung still completes normally: telling every slot commits it
  // and opens the next rung (survivors become the new pending trials —
  // the race has not committed its champion yet).
  for (const Trial& trial : *rung) {
    TrialResult result;
    result.trial_id = trial.id;
    result.value = 900.0;
    ASSERT_TRUE(session.Tell(result).ok());
  }
  EXPECT_GT(session.pending_trials(), 0);
  EXPECT_EQ(session.iterations_run(), 0);
  EXPECT_FALSE(session.finished());
}

// ---------------------------------------------------------------------------
// The work/quality acceptance pin on the shared bench grid
// ---------------------------------------------------------------------------

// Racing must reach the fixed-budget session's best-found quality
// (within 2%, by noise-free model throughput of the best config) at no
// more than half the simulated measurement work. Same grid definition
// bench/bm_racing.cc emits to BENCH_racing.json, so this pin and the
// CI regression baseline cannot drift apart.
TEST(RacingGridTest, HalfTheWorkWithinTwoPercentOfFixedBudget) {
  constexpr int kSeeds = 5;
  constexpr int kFixedIters = 40;
  constexpr int kRaces = 5;
  double sum_work_ratio = 0.0;
  double sum_quality_ratio = 0.0;
  for (int s = 0; s < kSeeds; ++s) {
    uint64_t seed = bench::kRacingGridBaseSeed + s;
    bench::RacingCell fixed =
        bench::RunRacingGridCell(seed, kFixedIters, /*racing=*/false);
    bench::RacingCell racing =
        bench::RunRacingGridCell(seed, kRaces, /*racing=*/true);
    ASSERT_GT(fixed.session.simulated_work, 0.0);
    ASSERT_GT(racing.true_best, 0.0);
    double work_ratio =
        racing.session.simulated_work / fixed.session.simulated_work;
    // Each seed individually stays under the work target with slack
    // for grid evolution (the committed baseline tracks exact values).
    EXPECT_LT(work_ratio, 0.5)
        << "seed " << seed << ": racing spent " << work_ratio
        << "x the fixed-budget simulated work";
    sum_work_ratio += work_ratio;
    sum_quality_ratio += fixed.true_best / racing.true_best;
  }
  EXPECT_LE(sum_work_ratio / kSeeds, 0.5);
  EXPECT_LE(sum_quality_ratio / kSeeds, 1.02);
}

}  // namespace
}  // namespace llamatune
