// The token codec (serde.h TokenWriter/TokenReader) and the decoders
// built on it: range-checked integers, forged counts, seeded fuzzing
// of the checkpoint, history and racing-statistic parsers, and the
// durable atomic file write.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/file_io.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/core/identity_adapter.h"
#include "src/core/running_stat.h"
#include "src/core/trial.h"
#include "src/core/tuning_session.h"
#include "src/knobs/config_space.h"
#include "src/net/message.h"
#include "src/optimizer/history_io.h"
#include "src/optimizer/random_search.h"

namespace llamatune {
namespace {

using net::DecodeAskBatch;
using net::DecodeClosedReply;
using net::DecodeSessionSpec;
using net::DecodeStatusReply;

constexpr char kForged[] = "9223372036854775807";

// ---------------------------------------------------------------------------
// TokenWriter / TokenReader
// ---------------------------------------------------------------------------

TEST(TokenCodecTest, FieldListRoundTripsEveryValueType) {
  auto fields = [](auto& io, auto& i32, auto& i64, auto& u64, auto& d,
                   auto& b, auto& s, auto& v) {
    io.Literal("msg");
    io.Field("i32", i32);
    io.Field("i64", i64);
    io.Field("u64", u64);
    io.Field("d", d);
    io.Field("b", b);
    io.Field("s", s);
    io.Field("v", v);
  };
  int i32 = -7;
  int64_t i64 = -9000000000;
  uint64_t u64 = 18446744073709551615ULL;
  double d = -0.0;
  bool b = true;
  std::string s = "two words";
  std::vector<double> v = {1.0, 0.5};
  const std::string text = WriteTokens(fields, i32, i64, u64, d, b, s, v);
  EXPECT_EQ(text,
            "msg i32 -7 i64 -9000000000 u64 18446744073709551615 d "
            "8000000000000000 b 1 s x74776f20776f726473 v 2 "
            "3ff0000000000000 3fe0000000000000");

  int i32b = 0;
  int64_t i64b = 0;
  uint64_t u64b = 0;
  double db = 1.0;
  bool bb = false;
  std::string sb;
  std::vector<double> vb;
  ASSERT_TRUE(ReadTokens(text, fields, i32b, i64b, u64b, db, bb, sb, vb).ok());
  EXPECT_EQ(i32b, i32);
  EXPECT_EQ(i64b, i64);
  EXPECT_EQ(u64b, u64);
  EXPECT_TRUE(std::signbit(db));
  EXPECT_TRUE(bb);
  EXPECT_EQ(sb, s);
  EXPECT_EQ(vb, v);
}

TEST(TokenCodecTest, FirstErrorIsSticky) {
  TokenReader in("a 1 b x");
  int64_t value = 5;
  in.Field("a", value);
  EXPECT_EQ(value, 1);
  in.Field("c", value);  // wrong tag
  EXPECT_FALSE(in.ok());
  const std::string first = in.status().message();
  in.Field("b", value);  // would otherwise fail differently
  in.Value(value);
  EXPECT_EQ(in.status().message(), first);
  EXPECT_EQ(value, 1);
}

TEST(TokenCodecTest, IntegersAreRangeChecked) {
  int narrow = 0;
  EXPECT_FALSE(ReadTokens("4294967396", [](auto& io, auto& v) { io.Value(v); },
                          narrow)
                   .ok());
  EXPECT_FALSE(ReadTokens("-2147483649", [](auto& io, auto& v) { io.Value(v); },
                          narrow)
                   .ok());
  ASSERT_TRUE(ReadTokens("-2147483648", [](auto& io, auto& v) { io.Value(v); },
                         narrow)
                  .ok());
  EXPECT_EQ(narrow, -2147483647 - 1);
  uint64_t u = 0;
  EXPECT_FALSE(
      ReadTokens("-1", [](auto& io, auto& v) { io.Value(v); }, u).ok());
  int64_t wide = 0;
  EXPECT_FALSE(ReadTokens("9223372036854775808",
                          [](auto& io, auto& v) { io.Value(v); }, wide)
                   .ok());
  EXPECT_FALSE(
      ReadTokens("12x", [](auto& io, auto& v) { io.Value(v); }, wide).ok());
}

TEST(TokenCodecTest, ForgedCountFailsFastWithoutAllocating) {
  std::vector<double> values;
  const std::string forged = std::string("n ") + kForged + " 3ff0000000000000";
  TokenReader in(forged);
  in.Field("n", values);
  EXPECT_FALSE(in.ok());
  EXPECT_LE(values.capacity(), 4096u);
  TokenReader negative("n -3");
  negative.Field("n", values);
  EXPECT_FALSE(negative.ok());
}

// ---------------------------------------------------------------------------
// Out-of-range wire integers fail instead of wrapping
// ---------------------------------------------------------------------------

TEST(TokenCodecTest, OutOfRangeWireIntsAreRejected) {
  Result<net::WireSessionSpec> spec = DecodeSessionSpec(
      "specdoc spec 3 workload x594353422d41 knobs 0 maximize 1 optimizer "
      "x736d6163 adapter x6c6c616d6174756e65 seed 42 iterations 4294967396 "
      "batch 1 threads 0 deadline 0 racing 0");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);

  std::string name;
  int n = 0;
  Status asked = DecodeAskBatch("askbatch name x73 n 4294967297", &name, &n);
  ASSERT_FALSE(asked.ok());
  EXPECT_EQ(asked.code(), StatusCode::kInvalidArgument);

  // The same read guards batch, threads, cohort and rungs ...
  for (const char* field : {"batch 4294967297 threads 0",
                            "batch 1 threads 4294967297"}) {
    EXPECT_FALSE(DecodeSessionSpec(
                     std::string("specdoc spec 3 workload x594353422d41 knobs "
                                 "0 maximize 1 optimizer x736d6163 adapter "
                                 "x6c6c616d6174756e65 seed 42 iterations 1 ") +
                     field + " deadline 0 racing 0")
                     .ok())
        << field;
  }
  EXPECT_FALSE(DecodeSessionSpec(
                   "specdoc spec 3 workload x594353422d41 knobs 0 maximize 1 "
                   "optimizer x736d6163 adapter x6c6c616d6174756e65 seed 42 "
                   "iterations 1 batch 1 threads 0 deadline 0 racing 1 cohort "
                   "4294967304 rungs 3 minfid 3fd0000000000000 eta "
                   "4000000000000000 ciz 3fff5c28f5c28f5c")
                   .ok());
  // ... the status counters and the closed-reply iteration count.
  EXPECT_FALSE(DecodeStatusReply(
                   "statusreply status name x optimizer x adapter x external 0 "
                   "iters 4294967296 total 0 pending 0 finished 0 defperf "
                   "0000000000000000 bestperf 0000000000000000 created 0 "
                   "active 0 driving 0")
                   .ok());
  EXPECT_FALSE(DecodeClosedReply("closed iterations 4294967305 best "
                                 "0000000000000000 default 0000000000000000")
                   .ok());
}

TEST(TokenCodecTest, ForgedCountsInPayloadsFailFast) {
  const std::string n(kForged);
  std::string name;
  std::vector<TrialResult> results;
  EXPECT_FALSE(
      net::DecodeTellBatch("tellbatch name x73 n " + n + " x", &name, &results)
          .ok());
  EXPECT_FALSE(net::DecodeTrialsReply("trialsreply n " + n).ok());
  EXPECT_FALSE(
      net::DecodeStatusListReply("statuslist n " + n + " status").ok());
  int64_t next = 0;
  std::vector<Trial> trials;
  EXPECT_FALSE(
      net::DecodePendingReply("pendingreply next 1 n " + n, &next, &trials)
          .ok());
  EXPECT_FALSE(net::DecodeStatsReply(
                   "stats lifecycle 0 pending 0 pendingexp 0 sessions 0 busy 0 "
                   "shedover 0 shedddl 0 evicted 0 autosaves 0 restored 0 "
                   "tenants " + n + " x 1")
                   .ok());
  EXPECT_FALSE(DecodeSessionSpec("specdoc spec 3 workload x knobs " + n +
                                 " knob")
                   .ok());
  EXPECT_FALSE(ParseTrial("trial 1 0 point " + n + " 3ff0000000000000").ok());
  EXPECT_FALSE(ParseTrialResult("result 1 0 3ff0000000000000 metrics " + n)
                   .ok());
  EXPECT_FALSE(ParseHistory("obs " + n + " 3ff0000000000000\n", -1).ok());
}

// ---------------------------------------------------------------------------
// Seeded fuzzing of the checkpoint, history and statistic parsers
// ---------------------------------------------------------------------------

/// Truncations and byte mutations of `seed`, in the style of
/// FuzzTest.PayloadDecodersNeverCrashOnRandomBytes.
std::vector<std::string> FuzzCases(const std::string& seed, uint64_t rng_seed,
                                   int mutations) {
  std::vector<std::string> cases;
  for (size_t cut = 0; cut < seed.size(); cut += 1 + seed.size() / 200) {
    cases.push_back(seed.substr(0, cut));
  }
  Rng rng(rng_seed);
  for (int round = 0; round < mutations; ++round) {
    std::string mutated = seed;
    for (int m = 0; m < 3 && !mutated.empty(); ++m) {
      mutated[rng.UniformInt(0, mutated.size() - 1)] =
          static_cast<char>(rng.UniformInt(0, 255));
    }
    cases.push_back(std::move(mutated));
  }
  return cases;
}

struct DetachedStack {
  std::unique_ptr<ConfigSpace> space;
  std::unique_ptr<IdentityAdapter> adapter;
  std::unique_ptr<RandomSearchOptimizer> optimizer;
  std::unique_ptr<TuningSession> session;
};

DetachedStack MakeDetached(const SessionOptions& options) {
  DetachedStack stack;
  stack.space = std::make_unique<ConfigSpace>(
      std::move(ConfigSpace::Create({RealKnob("a", 0.0, 1.0, 0.5),
                                     IntegerKnob("b", 0, 8, 4)}))
          .ValueOrDie());
  stack.adapter = std::make_unique<IdentityAdapter>(stack.space.get());
  stack.optimizer = std::make_unique<RandomSearchOptimizer>(
      stack.adapter->search_space(), /*seed=*/9);
  stack.session = std::make_unique<TuningSession>(
      stack.space.get(), /*maximize=*/true, stack.adapter.get(),
      stack.optimizer.get(), options);
  return stack;
}

SessionOptions RacingSessionOptions() {
  SessionOptions options;
  options.num_iterations = 3;
  RacingOptions racing;
  racing.cohort = 3;
  racing.rungs = 3;
  racing.min_fidelity = 0.25;
  options.racing = racing;
  return options;
}

/// A real checkpoint taken mid-race: one race committed, the next one
/// between rungs.
std::string MidRaceCheckpoint() {
  DetachedStack stack = MakeDetached(RacingSessionOptions());
  TuningSession& session = *stack.session;
  double value = 100.0;
  for (int asks = 0; asks < 5; ++asks) {
    Result<std::vector<Trial>> trials = session.AskBatch(8);
    EXPECT_TRUE(trials.ok());
    if (!trials.ok()) break;
    for (const Trial& trial : *trials) {
      TrialResult result;
      result.trial_id = trial.id;
      result.value = (value += 3.25);
      result.metrics = {value, -value};
      EXPECT_TRUE(session.Tell(result).ok());
    }
  }
  EXPECT_FALSE(session.PendingSnapshot().empty());
  return session.Save();
}

TEST(TokenCodecFuzzTest, RestoreNeverCrashesOnMutatedCheckpoints) {
  const std::string checkpoint = MidRaceCheckpoint();
  ASSERT_NE(checkpoint.find("\nround R "), std::string::npos);
  {
    DetachedStack fresh = MakeDetached(RacingSessionOptions());
    Status restored = fresh.session->Restore(checkpoint);
    ASSERT_TRUE(restored.ok()) << restored.ToString();
  }
  std::vector<std::string> cases = FuzzCases(checkpoint, 20261017, 400);
  // Forged counts in every count position must fail fast too.
  for (const char* section : {"\nrounds ", "\nhistory ", "\nclones "}) {
    size_t at = checkpoint.find(section);
    ASSERT_NE(at, std::string::npos) << section;
    size_t value = at + std::string(section).size();
    size_t end = checkpoint.find('\n', value);
    cases.push_back(checkpoint.substr(0, value) + kForged +
                    checkpoint.substr(end));
  }
  int accepted = 0;
  for (const std::string& text : cases) {
    DetachedStack fresh = MakeDetached(RacingSessionOptions());
    if (fresh.session->Restore(text).ok()) ++accepted;
  }
  // Some mutations land in ignored bytes (the optimizer-seconds token,
  // the text after "end"), so a few cases legitimately restore.
  EXPECT_LT(accepted, static_cast<int>(cases.size()));
}

TEST(TokenCodecFuzzTest, RestoreRejectsOutOfRangeRoundSizes) {
  const std::string checkpoint = MidRaceCheckpoint();
  const size_t round = checkpoint.find("\nround R ");
  ASSERT_NE(round, std::string::npos);
  const size_t requested = round + std::string("\nround R ").size();
  const size_t size = checkpoint.find(' ', requested) + 1;
  const size_t eol = checkpoint.find('\n', size);
  // requested and size wrap to small ints under a narrowing cast.
  for (const std::string& doctored :
       {checkpoint.substr(0, requested) + "4294967299" +
            checkpoint.substr(size - 1),
        checkpoint.substr(0, size) + "4294967299" + checkpoint.substr(eol)}) {
    DetachedStack fresh = MakeDetached(RacingSessionOptions());
    Status restored = fresh.session->Restore(doctored);
    EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument)
        << restored.ToString();
  }
}

TEST(TokenCodecFuzzTest, HistoryAndRunningStatParsersNeverCrash) {
  std::vector<Observation> history(3);
  history[0].point = {0.5, 0.25};
  history[0].value = 10.0;
  history[1].point = {-0.0, 1.0};
  history[1].value = 11.5;
  history[2].point = {0.125, 0.75};
  history[2].value = -3.0;
  const std::string text = SerializeHistory(history);
  ASSERT_TRUE(ParseHistory(text, 3).ok());
  for (const std::string& mutated : FuzzCases(text, 77003, 2000)) {
    Result<std::vector<Observation>> got = ParseHistory(mutated, -1);
    if (got.ok()) {
      EXPECT_LE(got->size(), 3u);
    }
  }

  RunningStat stat;
  for (double x : {100.0, 101.5, 99.25, 100.125}) stat.Push(x);
  const std::string line = stat.Serialize();
  ASSERT_TRUE(RunningStat::Parse(line).ok());
  for (const std::string& mutated : FuzzCases(line, 77004, 2000)) {
    Result<RunningStat> got = RunningStat::Parse(mutated);
    if (got.ok()) {
      EXPECT_GE(got->count(), 0);
    }
  }
  EXPECT_FALSE(RunningStat::Parse("stat -1").ok());
}

// ---------------------------------------------------------------------------
// AtomicWriteFile
// ---------------------------------------------------------------------------

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "llamatune-" + tag + "-" +
                    std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

bool Exists(const std::string& path) {
  struct stat sb;
  return ::stat(path.c_str(), &sb) == 0;
}

TEST(AtomicWriteFileTest, RoundTripsAndReplaces) {
  const std::string path = FreshDir("atomic") + "/file";
  ASSERT_TRUE(AtomicWriteFile(path, "first\n").ok());
  ASSERT_TRUE(AtomicWriteFile(path, std::string("se\0cond", 7)).ok());
  Result<std::string> read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, std::string("se\0cond", 7));
  EXPECT_FALSE(Exists(path + ".tmp"));
  EXPECT_EQ(ReadFile(path + ".missing").status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(AtomicWriteFileTest, TornOrFailedWriteKeepsThePreviousFile) {
  const std::string dir = FreshDir("atomic-torn");
  const std::string path = dir + "/file";
  const std::string previous = "previous contents\n";
  ASSERT_TRUE(AtomicWriteFile(path, previous).ok());

  // Torn: the simulated crash mid-write.
  ASSERT_TRUE(FaultInjection::Configure("test.atomic.torn=@0"));
  int renamed = 0;
  Status torn = AtomicWriteFile(path, "replacement that never lands\n",
                                "test.atomic.torn", [&renamed] { ++renamed; });
  FaultInjection::Reset();
  EXPECT_FALSE(torn.ok());
  EXPECT_EQ(renamed, 0);
  EXPECT_EQ(*ReadFile(path), previous);
  EXPECT_FALSE(Exists(path + ".tmp"));

  // Failed: the rename target is a directory, so the rename fails.
  const std::string blocked = dir + "/blocked";
  ASSERT_EQ(::mkdir(blocked.c_str(), 0755), 0);
  EXPECT_FALSE(AtomicWriteFile(blocked, "data").ok());
  EXPECT_FALSE(Exists(blocked + ".tmp"));
  EXPECT_FALSE(AtomicWriteFile(dir + "/no/such/dir/file", "data").ok());

  // A later clean write goes through and reports the rename once.
  ASSERT_TRUE(
      AtomicWriteFile(path, "next\n", "test.atomic.torn", [&renamed] {
        ++renamed;
      }).ok());
  EXPECT_EQ(renamed, 1);
  EXPECT_EQ(*ReadFile(path), "next\n");
  std::remove(path.c_str());
  ::rmdir(blocked.c_str());
}

}  // namespace
}  // namespace llamatune
