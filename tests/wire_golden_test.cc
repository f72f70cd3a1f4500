// Golden-byte fixtures for every text encoding the service persists or
// ships: wire payloads, trials and results, optimizer history, racing
// statistics and session checkpoints. Round-trip tests cannot catch a
// tag renamed (or a field reordered) in both directions at once; these
// literals can. A deliberate format change updates them: run
//
//   LLAMATUNE_PRINT_GOLDEN=1 ./wire_golden_test
//
// to print every encoding as a C++ literal, review the diff, and paste.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/identity_adapter.h"
#include "src/core/running_stat.h"
#include "src/core/trial.h"
#include "src/core/tuning_session.h"
#include "src/knobs/config_space.h"
#include "src/net/message.h"
#include "src/optimizer/history_io.h"
#include "src/optimizer/random_search.h"

namespace llamatune {
namespace net {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Prints `actual` as a C++ string literal when LLAMATUNE_PRINT_GOLDEN
/// is set, so a deliberate format change can refresh the fixtures.
void ExpectGolden(const char* name, const std::string& actual,
                  const std::string& expected) {
  if (std::getenv("LLAMATUNE_PRINT_GOLDEN") != nullptr) {
    std::printf("// %s\n\"", name);
    for (char c : actual) {
      if (c == '\n') {
        std::printf("\\n\"\n\"");
      } else if (c == '"' || c == '\\') {
        std::printf("\\%c", c);
      } else {
        std::printf("%c", c);
      }
    }
    std::printf("\"\n");
  }
  EXPECT_EQ(actual, expected) << name;
}

WireSessionSpec WorkloadSpec() {
  WireSessionSpec spec;
  spec.workload = "YCSB-A";
  return spec;
}

/// Exercises every spec field: knob space with empty and spaced
/// category names, special values with -0.0/NaN/+-Inf bits, the full
/// u64 seed range, a deadline and the racing block.
WireSessionSpec SpaceSpec() {
  WireSessionSpec spec;
  KnobSpec cache = IntegerKnob("cache mb", 0, 4096, 128);
  cache = WithSpecialValues(std::move(cache), {-0.0, kNaN, kInf, -kInf});
  cache.log_scale = true;
  cache.unit = "MB";
  KnobSpec policy = CategoricalKnob("policy", {"", "two words"}, 1);
  spec.space_knobs = {cache, policy};
  spec.maximize = false;
  spec.optimizer_key = "random";
  spec.adapter_key = "identity";
  spec.seed = 0xDEADBEEFCAFEF00DULL;
  spec.num_iterations = 33;
  spec.batch_size = 4;
  spec.num_threads = 2;
  spec.pending_deadline_ms = 1500;
  spec.racing = true;
  spec.racing_cohort = 6;
  spec.racing_rungs = 2;
  spec.racing_min_fidelity = 0.5;
  spec.racing_eta = 3.0;
  spec.racing_ci_z = 1.0;
  return spec;
}

Trial SampleTrial() {
  Trial trial;
  trial.id = 12;
  trial.point = {0.5, -0.0};
  trial.config = Configuration({128.0, kNaN});
  trial.fidelity = 0.25;
  return trial;
}

Trial BaselineTrial() {
  Trial trial;
  trial.id = 1;
  trial.is_baseline = true;
  trial.config = Configuration({64.0});
  return trial;
}

TrialResult SampleResult() {
  TrialResult result;
  result.trial_id = 12;
  result.value = 1234.5;
  result.outcome = TrialOutcome::kTimedOut;
  result.metrics = {kInf, -kInf};
  result.fidelity = 0.25;
  return result;
}

TrialResult FullResult() {
  TrialResult result;
  result.trial_id = 3;
  result.value = -0.0;
  return result;
}

WireSessionStatus SampleStatus() {
  WireSessionStatus status;
  status.status.name = "job 1";
  status.status.optimizer_key = "smac";
  status.status.adapter_key = "llamatune";
  status.status.external = true;
  status.status.iterations_run = 7;
  status.status.num_iterations = 100;
  status.status.pending_trials = 2;
  status.status.finished = false;
  status.status.default_performance = 1000.0;
  status.status.best_performance = 1500.25;
  status.status.created_unix_ms = 1700000000000;
  status.status.last_activity_unix_ms = 1700000000500;
  status.driving = true;
  return status;
}

// ---------------------------------------------------------------------------
// Wire payload encoders
// ---------------------------------------------------------------------------

TEST(WireGoldenTest, RequestEncoders) {
  ExpectGolden("hello-empty", EncodeHello(""),
               "hello tenant x");
  ExpectGolden("hello-spaced", EncodeHello("team a"),
               "hello tenant x7465616d2061");
  ExpectGolden("specdoc-workload", EncodeSessionSpec(WorkloadSpec()),
               "specdoc spec 3 workload x594353422d41 knobs 0 maximize 1 "
               "optimizer x736d6163 adapter x6c6c616d6174756e65 seed 42 "
               "iterations 100 batch 1 threads 0 deadline 0 racing 0");
  ExpectGolden("specdoc-space-racing", EncodeSessionSpec(SpaceSpec()),
               "specdoc spec 3 workload x knobs 2 knob name "
               "x6361636865206d62 type 0 min 0000000000000000 max "
               "40b0000000000000 log 1 default 4060000000000000 cats 0 "
               "specials 4 8000000000000000 7ff8000000000000 "
               "7ff0000000000000 fff0000000000000 unit x4d42 knob name "
               "x706f6c696379 type 2 min 0000000000000000 max "
               "3ff0000000000000 log 0 default 3ff0000000000000 cats 2 x "
               "x74776f20776f726473 specials 0 unit x maximize 0 optimizer "
               "x72616e646f6d adapter x6964656e74697479 seed "
               "16045690984503111693 iterations 33 batch 4 threads 2 "
               "deadline 1500 racing 1 cohort 6 rungs 2 minfid "
               "3fe0000000000000 eta 4008000000000000 ciz 3ff0000000000000");
  ExpectGolden("create", EncodeCreateSession("job 1", WorkloadSpec()),
               "create name x6a6f622031 spec 3 workload x594353422d41 "
               "knobs 0 maximize 1 optimizer x736d6163 adapter "
               "x6c6c616d6174756e65 seed 42 iterations 100 batch 1 threads "
               "0 deadline 0 racing 0");
  ExpectGolden("resume", EncodeResume("r", WorkloadSpec(), "cp\ntext"),
               "resume name x72 checkpoint x63700a74657874 spec 3 workload "
               "x594353422d41 knobs 0 maximize 1 optimizer x736d6163 "
               "adapter x6c6c616d6174756e65 seed 42 iterations 100 batch 1 "
               "threads 0 deadline 0 racing 0");
  ExpectGolden("name-only-empty", EncodeNameOnly(""),
               "session name x");
  ExpectGolden("askbatch", EncodeAskBatch("s", 5),
               "askbatch name x73 n 5");
  ExpectGolden("tell", EncodeTell("s", SampleResult()),
               "tell name x73 result "
               "x726573756c742031322032203430393334613030303030303030303020"
               "6d657472696373203220376666303030303030303030303030302066666"
               "63030303030303030303030303020666964203366643030303030303030"
               "3030303030");
  ExpectGolden("tellbatch", EncodeTellBatch("s", {FullResult(), FullResult()}),
               "tellbatch name x73 n 2 "
               "x726573756c74203320302038303030303030303030303030303030206d"
               "6574726963732030 "
               "x726573756c74203320302038303030303030303030303030303030206d"
               "6574726963732030");
  ExpectGolden("tellbatch-empty", EncodeTellBatch("s", {}),
               "tellbatch name x73 n 0");
  std::string with_rider = EncodeNameOnly("n");
  AppendDeadlineRider(&with_rider, 500);
  ExpectGolden("ddl-rider", with_rider,
               "session name x6e ddl 500");
  std::string no_rider = EncodeNameOnly("n");
  AppendDeadlineRider(&no_rider, 0);
  ExpectGolden("ddl-rider-off", no_rider,
               "session name x6e");
}

TEST(WireGoldenTest, ReplyEncoders) {
  ExpectGolden("error", EncodeError(WireError::kBusy, "m"),
               "error code 4 message x6d");
  ExpectGolden("error-retryms",
               EncodeError(WireError::kOverloaded, "shed load", 125),
               "error code 17 message x73686564206c6f6164 retryms 125");
  ExpectGolden("trialreply", EncodeTrialReply(SampleTrial()),
               "trialreply trial "
               "x747269616c203132203020706f696e7420322033666530303030303030"
               "303030303030203830303030303030303030303030303020636f6e66696"
               "72032203430363030303030303030303030303020376666383030303030"
               "30303030303030206669642033666430303030303030303030303030");
  ExpectGolden("trialsreply",
               EncodeTrialsReply({BaselineTrial(), SampleTrial()}),
               "trialsreply n 2 "
               "x747269616c2031203120706f696e74203020636f6e6669672031203430"
               "3530303030303030303030303030 "
               "x747269616c203132203020706f696e7420322033666530303030303030"
               "303030303030203830303030303030303030303030303020636f6e66696"
               "72032203430363030303030303030303030303020376666383030303030"
               "30303030303030206669642033666430303030303030303030303030");
  ExpectGolden("trialsreply-empty", EncodeTrialsReply({}),
               "trialsreply n 0");
  ExpectGolden("stepped-true", EncodeSteppedReply(true),
               "stepped progressed 1");
  ExpectGolden("stepped-false", EncodeSteppedReply(false),
               "stepped progressed 0");
  ExpectGolden("statusreply", EncodeStatusReply(SampleStatus()),
               "statusreply status name x6a6f622031 optimizer x736d6163 "
               "adapter x6c6c616d6174756e65 external 1 iters 7 total 100 "
               "pending 2 finished 0 defperf 408f400000000000 bestperf "
               "4097710000000000 created 1700000000000 active "
               "1700000000500 driving 1");
  ExpectGolden("statuslist-empty", EncodeStatusListReply({}),
               "statuslist n 0");
  WireSessionStatus idle;
  ExpectGolden("statuslist", EncodeStatusListReply({idle, SampleStatus()}),
               "statuslist n 2 status name x optimizer x adapter x "
               "external 0 iters 0 total 0 pending 0 finished 0 defperf "
               "0000000000000000 bestperf 0000000000000000 created 0 "
               "active 0 driving 0 status name x6a6f622031 optimizer "
               "x736d6163 adapter x6c6c616d6174756e65 external 1 iters 7 "
               "total 100 pending 2 finished 0 defperf 408f400000000000 "
               "bestperf 4097710000000000 created 1700000000000 active "
               "1700000000500 driving 1");
  ExpectGolden("checkpointreply-empty", EncodeCheckpointReply(""),
               "checkpointreply checkpoint x");
  WireCloseResult closed;
  closed.iterations_run = 9;
  closed.best_performance = kNaN;
  closed.default_performance = -0.0;
  ExpectGolden("closed", EncodeClosedReply(closed),
               "closed iterations 9 best 7ff8000000000000 default "
               "8000000000000000");
  ExpectGolden("pendingreply", EncodePendingReply(7, {BaselineTrial()}),
               "pendingreply next 7 n 1 "
               "x747269616c2031203120706f696e74203020636f6e6669672031203430"
               "3530303030303030303030303030");
  WireServerHealth health;
  health.lifecycle = ServerLifecycle::kDraining;
  health.pending_requests = 3;
  health.sessions = 4;
  ExpectGolden("health", EncodeHealthReply(health),
               "health lifecycle 1 pending 3 sessions 4");
  WireServerStats stats;
  stats.lifecycle = ServerLifecycle::kStopped;
  stats.pending_requests = 1;
  stats.pending_expensive = 2;
  stats.sessions = 3;
  stats.busy_rejections = 4;
  stats.shed_overload = 5;
  stats.shed_deadline = 6;
  stats.sessions_evicted = 7;
  stats.autosaves_written = 8;
  stats.sessions_restored = 9;
  stats.tenant_sessions = {{"", 1}, {"team a", 2}};
  ExpectGolden("stats", EncodeStatsReply(stats),
               "stats lifecycle 2 pending 1 pendingexp 2 sessions 3 busy 4 "
               "shedover 5 shedddl 6 evicted 7 autosaves 8 restored 9 "
               "tenants 2 x 1 x7465616d2061 2");
}

// ---------------------------------------------------------------------------
// Trials, results, history, racing statistics
// ---------------------------------------------------------------------------

TEST(WireGoldenTest, TrialAndResultLines) {
  ExpectGolden("trial-fid", SerializeTrial(SampleTrial()),
               "trial 12 0 point 2 3fe0000000000000 8000000000000000 "
               "config 2 4060000000000000 7ff8000000000000 fid "
               "3fd0000000000000");
  ExpectGolden("trial-baseline", SerializeTrial(BaselineTrial()),
               "trial 1 1 point 0 config 1 4050000000000000");
  ExpectGolden("result-fid", SerializeTrialResult(SampleResult()),
               "result 12 2 40934a0000000000 metrics 2 7ff0000000000000 "
               "fff0000000000000 fid 3fd0000000000000");
  ExpectGolden("result-full", SerializeTrialResult(FullResult()),
               "result 3 0 8000000000000000 metrics 0");
}

TEST(WireGoldenTest, HistoryAndRunningStat) {
  std::vector<Observation> history(2);
  history[0].point = {0.5, -0.0};
  history[0].value = 10.0;
  history[1].point = {};
  history[1].value = kNaN;
  ExpectGolden("history", SerializeHistory(history),
               "obs 2 3fe0000000000000 8000000000000000 4024000000000000\n"
               "obs 0 7ff8000000000000\n");
  ExpectGolden("history-empty", SerializeHistory({}),
               "");

  RunningStat stat;
  ExpectGolden("stat-empty", stat.Serialize(),
               "stat 0 0000000000000000 0000000000000000 0000000000000000 "
               "0000000000000000 0000000000000000 0000000000000000 "
               "0000000000000000");
  for (double x : {100.0, 101.5, 99.25}) stat.Push(x);
  ExpectGolden("stat", stat.Serialize(),
               "stat 3 4059000000000000 3fe8000000000000 0000000000000000 "
               "4006800000000000 0000000000000000 4058d00000000000 "
               "4059600000000000");
}

// ---------------------------------------------------------------------------
// Decoding literal payloads written by older peers
// ---------------------------------------------------------------------------

TEST(WireGoldenTest, SpecV1AndV2PayloadsDecode) {
  // spec 1: no deadline, no racing block.
  Result<WireSessionSpec> v1 = DecodeSessionSpec(
      "specdoc spec 1 workload x5450432d43 knobs 0 maximize 1 optimizer "
      "x736d6163 adapter x6c6c616d6174756e65 seed 7 iterations 50 batch 2 "
      "threads 3");
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(v1->workload, "TPC-C");
  EXPECT_TRUE(v1->maximize);
  EXPECT_EQ(v1->optimizer_key, "smac");
  EXPECT_EQ(v1->adapter_key, "llamatune");
  EXPECT_EQ(v1->seed, 7u);
  EXPECT_EQ(v1->num_iterations, 50);
  EXPECT_EQ(v1->batch_size, 2);
  EXPECT_EQ(v1->num_threads, 3);
  EXPECT_EQ(v1->pending_deadline_ms, 0);
  EXPECT_FALSE(v1->racing);

  // spec 2: adds the pending deadline; racing still off.
  std::string name;
  WireSessionSpec v2;
  Status created = DecodeCreateSession(
      "create name x6a spec 2 workload x knobs 1 knob name x6b type 1 min "
      "0000000000000000 max 3ff0000000000000 log 0 default 3fe0000000000000 "
      "cats 0 specials 1 bff0000000000000 unit x maximize 0 optimizer "
      "x72616e646f6d adapter x6964656e74697479 seed 18446744073709551615 "
      "iterations 9 batch 1 threads 0 deadline 2500",
      &name, &v2);
  ASSERT_TRUE(created.ok()) << created.ToString();
  EXPECT_EQ(name, "j");
  ASSERT_EQ(v2.space_knobs.size(), 1u);
  EXPECT_EQ(v2.space_knobs[0].name, "k");
  EXPECT_EQ(v2.space_knobs[0].type, KnobType::kReal);
  EXPECT_TRUE(SameBits(v2.space_knobs[0].default_value, 0.5));
  ASSERT_EQ(v2.space_knobs[0].special_values.size(), 1u);
  EXPECT_TRUE(SameBits(v2.space_knobs[0].special_values[0], -1.0));
  EXPECT_FALSE(v2.maximize);
  EXPECT_EQ(v2.seed, 18446744073709551615ULL);
  EXPECT_EQ(v2.num_iterations, 9);
  EXPECT_EQ(v2.pending_deadline_ms, 2500);
  EXPECT_FALSE(v2.racing);
}

TEST(WireGoldenTest, LiteralRepliesDecode) {
  WireError code = WireError::kInternal;
  std::string message;
  int64_t retry_ms = -1;
  ASSERT_TRUE(DecodeError("error code 17 message x73686564 retryms 80", &code,
                          &message, &retry_ms)
                  .ok());
  EXPECT_EQ(code, WireError::kOverloaded);
  EXPECT_EQ(message, "shed");
  EXPECT_EQ(retry_ms, 80);
  // Pre-hint peers send no retryms token.
  ASSERT_TRUE(
      DecodeError("error code 4 message x", &code, &message, &retry_ms).ok());
  EXPECT_EQ(code, WireError::kBusy);
  EXPECT_EQ(message, "");
  EXPECT_EQ(retry_ms, 0);

  // Pre-fidelity trial lines carry no fid token and decode at 1.0.
  Result<Trial> trial = DecodeTrialReply(
      "trialreply trial "
      "x747269616c2031203120706f696e74203020636f6e66696720312034303530"
      "303030303030303030303030");
  ASSERT_TRUE(trial.ok()) << trial.status().ToString();
  EXPECT_EQ(trial->id, 1);
  EXPECT_TRUE(trial->is_baseline);
  EXPECT_TRUE(trial->point.empty());
  EXPECT_EQ(trial->config.values(), std::vector<double>{64.0});
  EXPECT_TRUE(SameBits(trial->fidelity, 1.0));

  Result<WireServerStats> stats = DecodeStatsReply(
      "stats lifecycle 2 pending 1 pendingexp 2 sessions 3 busy 4 shedover 5 "
      "shedddl 6 evicted 7 autosaves 8 restored 9 tenants 2 x 1 "
      "x7465616d2061 2");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->lifecycle, ServerLifecycle::kStopped);
  EXPECT_EQ(stats->sessions_restored, 9);
  ASSERT_EQ(stats->tenant_sessions.size(), 2u);
  EXPECT_EQ(stats->tenant_sessions[1].first, "team a");
  EXPECT_EQ(stats->tenant_sessions[1].second, 2);
  EXPECT_EQ(DeadlineRiderMs("session name x6e ddl 500"), 500);
}

// ---------------------------------------------------------------------------
// Session checkpoints
// ---------------------------------------------------------------------------

/// A detached two-knob session: identity adapter over random search,
/// so every suggestion is a pure function of the seed.
struct DetachedStack {
  std::unique_ptr<ConfigSpace> space;
  std::unique_ptr<IdentityAdapter> adapter;
  std::unique_ptr<RandomSearchOptimizer> optimizer;
  std::unique_ptr<TuningSession> session;
};

DetachedStack MakeDetached(SessionOptions options) {
  DetachedStack stack;
  stack.space = std::make_unique<ConfigSpace>(
      std::move(ConfigSpace::Create({RealKnob("a", 0.0, 1.0, 0.5),
                                     IntegerKnob("b", 0, 8, 4)}))
          .ValueOrDie());
  stack.adapter = std::make_unique<IdentityAdapter>(stack.space.get());
  stack.optimizer = std::make_unique<RandomSearchOptimizer>(
      stack.adapter->search_space(), /*seed=*/5);
  stack.session = std::make_unique<TuningSession>(
      stack.space.get(), /*maximize=*/true, stack.adapter.get(),
      stack.optimizer.get(), options);
  return stack;
}

/// The optimizer-seconds token is wall-clock accounting (the one
/// nondeterministic checkpoint field); fixtures pin everything else.
std::string NormalizeSeconds(std::string checkpoint) {
  size_t state = checkpoint.find("\nstate ");
  if (state == std::string::npos) return checkpoint;
  size_t bits = checkpoint.find(' ', state + 7);
  if (bits == std::string::npos) return checkpoint;
  checkpoint.replace(bits + 1, 16, "<seconds>");
  return checkpoint;
}

const char kExpiredCheckpointV3[] =
    "llamatune-checkpoint v3\n"
    "maximize 1\n"
    "options 4 1 4008000000000000 4010000000000000 4010000000000000 60000 "
    "0 racing 0\n"
    "state 2 <seconds>\n"
    "baseline 1 4059000000000000 0\n"
    "objective 0\n"
    "clones -1\n"
    "rounds 3\n"
    "round D 1 1\n"
    "round B 2 2\n"
    "expired\n"
    "told 1 4040aaaaaaaaaaab 2 8000000000000000 4000000000000000\n"
    "round S 1 1\n"
    "told 0 405e200000000000 0\n"
    "history 2\n"
    "obs 2 3fccd6416420861e 3fe4000000000000 4040aaaaaaaaaaab\n"
    "obs 2 3fb72248d38a1f57 3fc0000000000000 405e200000000000\n"
    "end\n";

/// The same session as written by a pre-racing (v2) build.
const char kExpiredCheckpointV2[] =
    "llamatune-checkpoint v2\n"
    "maximize 1\n"
    "options 4 1 4008000000000000 4010000000000000 4010000000000000 60000 "
    "0\n"
    "state 2 0000000000000000\n"
    "baseline 1 4059000000000000 0\n"
    "objective 0\n"
    "clones -1\n"
    "rounds 3\n"
    "round D 1 1\n"
    "round B 2 2\n"
    "expired\n"
    "told 1 4040aaaaaaaaaaab 2 8000000000000000 4000000000000000\n"
    "round S 1 1\n"
    "told 0 405e200000000000 0\n"
    "history 2\n"
    "obs 2 3fccd6416420861e 3fe4000000000000 4040aaaaaaaaaaab\n"
    "obs 2 3fb72248d38a1f57 3fc0000000000000 405e200000000000\n"
    "end\n";

const char kMidRaceCheckpointV3[] =
    "llamatune-checkpoint v3\n"
    "maximize 1\n"
    "options 2 1 4010000000000000 4010000000000000 4010000000000000 0 0 "
    "racing 1 3 2 3fe0000000000000 4000000000000000 3ff8000000000000\n"
    "state 0 <seconds>\n"
    "baseline 1 4059000000000000 0\n"
    "objective 0\n"
    "clones -1\n"
    "rounds 2\n"
    "round D 1 1\n"
    "round R 3 3\n"
    "rung 0 4058600000000000 3fe0000000000000 0\n"
    "rung 0 405a400000000000 3fe0000000000000 0\n"
    "rung 0 405c200000000000 3fe0000000000000 0\n"
    "history 0\n"
    "end\n";

void TellValue(TuningSession* session, int64_t id, double value) {
  TrialResult result;
  result.trial_id = id;
  result.value = value;
  ASSERT_TRUE(session->Tell(result).ok());
}

TEST(WireGoldenTest, SaveWithExpiredSlot) {
  SessionOptions options;
  options.num_iterations = 4;
  options.pending_deadline_ms = 60000;
  options.crash_penalty_divisor = 3.0;
  DetachedStack stack = MakeDetached(options);
  TuningSession& session = *stack.session;
  Result<Trial> baseline = session.Ask();
  ASSERT_TRUE(baseline.ok());
  TellValue(&session, baseline->id, 100.0);
  Result<std::vector<Trial>> batch = session.AskBatch(2);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 2u);
  ASSERT_TRUE(session.Expire((*batch)[0].id).ok());
  TrialResult crashed;
  crashed.trial_id = (*batch)[1].id;
  crashed.outcome = TrialOutcome::kCrashed;
  crashed.metrics = {-0.0, 2.0};
  ASSERT_TRUE(session.Tell(crashed).ok());
  Result<Trial> single = session.Ask();
  ASSERT_TRUE(single.ok());
  TellValue(&session, single->id, 120.5);

  ExpectGolden("checkpoint-expired", NormalizeSeconds(session.Save()),
               kExpiredCheckpointV3);
}

TEST(WireGoldenTest, SaveMidRace) {
  SessionOptions options;
  options.num_iterations = 2;
  RacingOptions racing;
  racing.cohort = 3;
  racing.rungs = 2;
  racing.min_fidelity = 0.5;
  racing.eta = 2.0;
  racing.ci_z = 1.5;
  options.racing = racing;
  DetachedStack stack = MakeDetached(options);
  TuningSession& session = *stack.session;
  Result<Trial> baseline = session.Ask();
  ASSERT_TRUE(baseline.ok());
  TellValue(&session, baseline->id, 100.0);
  Result<std::vector<Trial>> rung = session.AskBatch(8);
  ASSERT_TRUE(rung.ok());
  ASSERT_EQ(rung->size(), 3u);
  double value = 90.0;
  for (const Trial& trial : *rung) TellValue(&session, trial.id, value += 7.5);
  // The final rung is open: its survivors are pending, uncommitted.
  ASSERT_FALSE(session.PendingSnapshot().empty());
  ExpectGolden("checkpoint-mid-race", NormalizeSeconds(session.Save()),
               kMidRaceCheckpointV3);
}

TEST(WireGoldenTest, CheckpointV2Restores) {
  SessionOptions options;
  options.num_iterations = 4;
  options.pending_deadline_ms = 60000;
  options.crash_penalty_divisor = 3.0;
  DetachedStack stack = MakeDetached(options);
  Status restored = stack.session->Restore(kExpiredCheckpointV2);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  // Re-saving upgrades to v3: the same bytes plus the version number
  // and the "racing 0" token.
  ExpectGolden("checkpoint-v2-upgraded",
               NormalizeSeconds(stack.session->Save()), kExpiredCheckpointV3);
}

}  // namespace
}  // namespace net
}  // namespace llamatune
