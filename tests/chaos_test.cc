// Chaos test: drives full tuning sessions over the wire while the
// deterministic fault-injection registry (src/common/fault_injection.h)
// tears connections, shortens reads, drops replies and crashes
// evaluations — then pins the surviving session history bit-for-bit
// against the fault-free run. A resilient client (retry + dedup +
// adoption) must make every injected transport fault invisible to the
// recorded trajectory.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/knobs/config_space.h"
#include "src/net/tuning_client.h"
#include "src/net/tuning_server.h"
#include "src/service/tuning_service.h"

namespace llamatune {
namespace net {
namespace {

double ExternalMeasure(const Configuration& config) {
  double x = config[0] / 100.0;
  double y = config[1];
  return 1000.0 - 900.0 * ((x - 0.31) * (x - 0.31) + (y - 0.77) * (y - 0.77));
}

std::vector<KnobSpec> TestKnobs() {
  return {IntegerKnob("cache_mb", 0, 100, 50),
          RealKnob("target_ratio", 0.0, 1.0, 0.5)};
}

WireSessionSpec ChaosWireSpec() {
  WireSessionSpec spec;
  spec.space_knobs = TestKnobs();
  spec.maximize = true;
  spec.optimizer_key = "random";
  spec.adapter_key = "identity";
  spec.seed = 9001;
  spec.num_iterations = 10;
  return spec;
}

/// Zeroes the wall-clock token of the checkpoint "state" line so
/// equality means "identical trial history" (same normalizer as
/// server_test.cc).
std::string Trajectory(const std::string& checkpoint) {
  std::istringstream in(checkpoint);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("state ", 0) == 0) {
      line = line.substr(0, line.find_last_of(' ')) + " <wall-clock>";
    }
    out << line << '\n';
  }
  return out.str();
}

TuningClientOptions ResilientOptions() {
  TuningClientOptions opts;
  opts.call_timeout_ms = 5000;
  opts.retry.max_attempts = 10;
  opts.retry.initial_backoff_ms = 1;
  opts.retry.max_backoff_ms = 50;
  opts.retry.retry_budget_ms = 20000;
  opts.retry.jitter_seed = 7;
  return opts;
}

/// Runs one full external ask/tell session against an in-process
/// server with `fault_spec` armed (empty = fault-free) and a
/// retry-enabled client, and returns the normalized final history.
std::string RunChaosSession(const std::string& fault_spec) {
  FaultInjection::Reset();
  TuningServer server;
  EXPECT_TRUE(server.Start().ok());
  TuningClient client(ResilientOptions());
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  if (!fault_spec.empty()) {
    EXPECT_TRUE(FaultInjection::Configure(fault_spec));
  }
  EXPECT_TRUE(client.CreateSession("chaos", ChaosWireSpec()).ok());
  for (;;) {
    Result<Trial> trial = client.Ask("chaos");
    if (!trial.ok()) break;
    TrialResult result;
    result.trial_id = trial->id;
    result.value = ExternalMeasure(trial->config);
    EXPECT_TRUE(client.Tell("chaos", result).ok());
  }
  // The history is fully formed; disarm injection so the final read
  // cannot be the one call whose retries run dry.
  FaultInjection::Reset();
  Result<std::string> checkpoint = client.Checkpoint("chaos");
  EXPECT_TRUE(checkpoint.ok());
  std::string trajectory = checkpoint.ok() ? Trajectory(*checkpoint) : "";
  server.Stop();
  return trajectory;
}

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjection::Reset(); }
};

TEST_F(ChaosTest, TransportChaosPreservesHistoryBitForBit) {
  const std::string baseline = RunChaosSession("");
  ASSERT_FALSE(baseline.empty());

  // Every transport fault site at once, probability-triggered: client
  // writes reset, client reads shortened, server reads shortened,
  // server replies dropped after commit. Retry + Tell dedup + Ask
  // adoption must reassemble the exact same history.
  const std::string chaotic = RunChaosSession(
      "seed=42;client.send.reset=p0.15;client.recv.short=p0.2;"
      "server.recv.short=p0.2;server.send.reset=p0.1");
  EXPECT_EQ(chaotic, baseline);
}

TEST_F(ChaosTest, SecondSeedStillConverges) {
  const std::string baseline = RunChaosSession("");
  const std::string chaotic = RunChaosSession(
      "seed=1337;client.send.reset=p0.2;server.send.reset=p0.15");
  EXPECT_EQ(chaotic, baseline);
}

TEST_F(ChaosTest, DroppedTellReplyIsDeduplicated) {
  const std::string baseline = RunChaosSession("");

  // Reply hit indices on the single connection: CreateSession = 0,
  // first Ask = 1, first Tell = 2. Dropping exactly the Tell reply
  // commits the observation but loses the acknowledgment; the retried
  // Tell earns AlreadyExists and the client dedups it back to OK.
  const std::string chaotic = RunChaosSession("server.send.reset=@2");
  EXPECT_EQ(chaotic, baseline);
}

TEST_F(ChaosTest, DroppedAskReplyIsAdoptedNotRedrawn) {
  const std::string baseline = RunChaosSession("");

  // Hit 1 is the first Ask's reply: the trial is drawn and pending on
  // the server, but the client never sees it. The resilient Ask must
  // adopt the orphaned pending trial via GetPending instead of asking
  // again — a fresh draw would double-advance the optimizer stream
  // and the trajectories would diverge.
  const std::string chaotic = RunChaosSession("server.send.reset=@1");
  EXPECT_EQ(chaotic, baseline);
}

/// RunChaosSession through AskBatch/TellBatch. After the baseline it
/// keeps two batches of three outstanding (ask A, ask B, tell A, tell
/// B), so a lost B reply leaves orphans above trials the client still
/// holds, and the last batch is clamped to the one trial left in the
/// budget. `fired` receives how many transport faults fired.
std::string RunBatchChaosSession(const std::string& fault_spec,
                                 uint64_t* fired) {
  FaultInjection::Reset();
  TuningServer server;
  EXPECT_TRUE(server.Start().ok());
  TuningClient client(ResilientOptions());
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  if (!fault_spec.empty()) {
    EXPECT_TRUE(FaultInjection::Configure(fault_spec));
  }
  EXPECT_TRUE(client.CreateSession("chaos", ChaosWireSpec()).ok());
  auto tell = [&client](const std::vector<Trial>& trials) {
    std::vector<TrialResult> results;
    for (const Trial& trial : trials) {
      TrialResult result;
      result.trial_id = trial.id;
      result.value = ExternalMeasure(trial.config);
      results.push_back(result);
    }
    EXPECT_TRUE(client.TellBatch("chaos", results).ok());
  };
  Result<std::vector<Trial>> baseline = client.AskBatch("chaos", 3);
  EXPECT_TRUE(baseline.ok());
  if (baseline.ok()) tell(*baseline);
  for (;;) {
    Result<std::vector<Trial>> first = client.AskBatch("chaos", 3);
    if (!first.ok()) break;
    Result<std::vector<Trial>> second = client.AskBatch("chaos", 3);
    tell(*first);
    if (!second.ok()) break;
    tell(*second);
  }
  *fired = FaultInjection::FireCount("server.send.reset") +
           FaultInjection::FireCount("client.send.reset");
  FaultInjection::Reset();
  Result<std::string> checkpoint = client.Checkpoint("chaos");
  EXPECT_TRUE(checkpoint.ok());
  std::string trajectory = checkpoint.ok() ? Trajectory(*checkpoint) : "";
  server.Stop();
  return trajectory;
}

TEST_F(ChaosTest, DroppedAskBatchReplyIsAdoptedNotRedrawn) {
  uint64_t fired = 0;
  const std::string baseline = RunBatchChaosSession("", &fired);
  ASSERT_FALSE(baseline.empty());

  // Server reply hits: CreateSession = 0, baseline AskBatch = 1, its
  // TellBatch = 2, then ask A = 3, ask B = 4. Losing B's reply leaves
  // its three trials pending above A's, which the client still holds:
  // only the watermark tells them apart, and all three must be adopted.
  EXPECT_EQ(RunBatchChaosSession("server.send.reset=@4", &fired), baseline);
  EXPECT_EQ(fired, 1u);
  // Hit 8 is the last ask, clamped to the one trial left in the
  // budget: one orphan of an n = 3 request is still the lost batch.
  EXPECT_EQ(RunBatchChaosSession("server.send.reset=@8", &fired), baseline);
  EXPECT_EQ(fired, 1u);
}

/// One baseline round, then a TellBatch of the next round's three
/// results plus one for a trial that does not exist: the server tells
/// the three, then fails on the fourth. Returns that TellBatch's status
/// code and the normalized history; `fired` receives how many replies
/// were lost.
std::pair<StatusCode, std::string> RunPrefixTellBatch(
    const std::string& fault_spec, uint64_t* fired) {
  FaultInjection::Reset();
  TuningServer server;
  EXPECT_TRUE(server.Start().ok());
  TuningClient client(ResilientOptions());
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  if (!fault_spec.empty()) {
    EXPECT_TRUE(FaultInjection::Configure(fault_spec));
  }
  EXPECT_TRUE(client.CreateSession("chaos", ChaosWireSpec()).ok());
  std::vector<TrialResult> results;
  StatusCode code = StatusCode::kOk;
  for (int round = 0; round < 2; ++round) {
    Result<std::vector<Trial>> trials = client.AskBatch("chaos", 3);
    EXPECT_TRUE(trials.ok());
    if (!trials.ok()) break;
    results.clear();
    for (const Trial& trial : *trials) {
      TrialResult result;
      result.trial_id = trial.id;
      result.value = ExternalMeasure(trial.config);
      results.push_back(result);
    }
    if (round == 1) {
      TrialResult unknown;
      unknown.trial_id = 999;
      unknown.value = 1.0;
      results.push_back(unknown);
    }
    code = client.TellBatch("chaos", results).code();
  }
  *fired = FaultInjection::FireCount("server.send.reset");
  FaultInjection::Reset();
  Result<std::string> checkpoint = client.Checkpoint("chaos");
  EXPECT_TRUE(checkpoint.ok());
  std::string trajectory = checkpoint.ok() ? Trajectory(*checkpoint) : "";
  server.Stop();
  return {code, trajectory};
}

TEST_F(ChaosTest, DroppedTellBatchReplyIsDeduplicated) {
  uint64_t fired = 0;
  const std::string baseline = RunBatchChaosSession("", &fired);

  // Hit 5 is tell A's reply: all three results are committed, so the
  // retry earns AlreadyExists, and re-telling them one by one dedups
  // each back to OK.
  EXPECT_EQ(RunBatchChaosSession("server.send.reset=@5", &fired), baseline);
  EXPECT_EQ(fired, 1u);

  // A batch that fails part way commits a prefix. Hits: CreateSession
  // = 0, baseline ask = 1 and tell = 2, ask = 3, the failing tell = 4.
  // With its reply lost, the re-tells must run past the committed
  // prefix's AlreadyExists to the unknown trial's NotFound, which the
  // uninterrupted call returned too.
  const std::pair<StatusCode, std::string> clean =
      RunPrefixTellBatch("", &fired);
  EXPECT_EQ(clean.first, StatusCode::kNotFound);
  EXPECT_EQ(RunPrefixTellBatch("server.send.reset=@4", &fired), clean);
  EXPECT_EQ(fired, 1u);
}

TEST_F(ChaosTest, AskBatchThatNeverLeftIsAskedAgain) {
  uint64_t fired = 0;
  const std::string baseline = RunBatchChaosSession("", &fired);

  // Client send hits count like the server's replies: ask B = 4 resets
  // before the request leaves. The retry's GetPending finds only A's
  // trials, all at or below the watermark, so nothing is adopted and
  // the re-sent ask makes the same draw the lost one would have.
  EXPECT_EQ(RunBatchChaosSession("client.send.reset=@4", &fired), baseline);
  EXPECT_EQ(fired, 1u);
}

TEST_F(ChaosTest, DroppedResumeReplyIsDeduplicated) {
  const std::string baseline = RunChaosSession("");
  ASSERT_FALSE(baseline.empty());

  // A wire checkpoint taken after the baseline and three iterations
  // is resumed on a fresh server whose first reply (the Resume's) is
  // lost: the resume committed, so the retry answers
  // SessionAlreadyExists, which reads as OK. The session then finishes
  // on the second server exactly as the uninterrupted one did.
  std::string checkpoint;
  {
    TuningServer source;
    ASSERT_TRUE(source.Start().ok());
    TuningClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", source.port()).ok());
    ASSERT_TRUE(client.CreateSession("chaos", ChaosWireSpec()).ok());
    for (int round = 0; round < 4; ++round) {
      Result<Trial> trial = client.Ask("chaos");
      ASSERT_TRUE(trial.ok());
      TrialResult result;
      result.trial_id = trial->id;
      result.value = ExternalMeasure(trial->config);
      ASSERT_TRUE(client.Tell("chaos", result).ok());
    }
    Result<std::string> saved = client.Checkpoint("chaos");
    ASSERT_TRUE(saved.ok());
    checkpoint = *saved;
    source.Stop();
  }
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  TuningClient client(ResilientOptions());
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(FaultInjection::Configure("server.send.reset=@0"));
  Status resumed = client.Resume("chaos", ChaosWireSpec(), checkpoint);
  EXPECT_TRUE(resumed.ok()) << resumed.ToString();
  EXPECT_EQ(FaultInjection::FireCount("server.send.reset"), 1u);
  FaultInjection::Reset();
  // The resumed session is live, and a plain Resume of it conflicts.
  EXPECT_EQ(client.Resume("chaos", ChaosWireSpec(), checkpoint).code(),
            StatusCode::kSessionAlreadyExists);
  for (;;) {
    Result<Trial> trial = client.Ask("chaos");
    if (!trial.ok()) break;
    TrialResult result;
    result.trial_id = trial->id;
    result.value = ExternalMeasure(trial->config);
    ASSERT_TRUE(client.Tell("chaos", result).ok());
  }
  Result<std::string> finished = client.Checkpoint("chaos");
  ASSERT_TRUE(finished.ok());
  EXPECT_EQ(Trajectory(*finished), baseline);
  server.Stop();
}

/// Drives a workload-backed session via wire Step calls to completion
/// and returns its normalized history.
std::string RunWorkloadSession(const std::string& fault_spec) {
  FaultInjection::Reset();
  TuningServer server;
  EXPECT_TRUE(server.Start().ok());
  TuningClient client;
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  WireSessionSpec spec;
  spec.workload = "YCSB-A";
  spec.optimizer_key = "random";
  spec.adapter_key = "llamatune";
  spec.seed = 7;
  spec.num_iterations = 6;
  EXPECT_TRUE(client.CreateSession("sim", spec).ok());
  if (!fault_spec.empty()) {
    EXPECT_TRUE(FaultInjection::Configure(fault_spec));
  }
  for (;;) {
    bool progressed = false;
    Status status = client.Step("sim", &progressed);
    if (!status.ok() || !progressed) break;
  }
  FaultInjection::Reset();
  Result<std::string> checkpoint = client.Checkpoint("sim");
  EXPECT_TRUE(checkpoint.ok());
  std::string trajectory = checkpoint.ok() ? Trajectory(*checkpoint) : "";
  server.Stop();
  return trajectory;
}

TEST_F(ChaosTest, EvaluationFaultScheduleIsDeterministic) {
  // Crash evaluation #1 and time out evaluation #3: the injected
  // failures land in the recorded history (failed outcomes, penalty
  // values), so the faulted run must differ from the clean run — but
  // identically-scheduled runs must be bit-for-bit equal.
  const std::string spec = "eval.crash=@1;eval.timeout=@3";
  const std::string first = RunWorkloadSession(spec);
  const std::string second = RunWorkloadSession(spec);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  const std::string clean = RunWorkloadSession("");
  EXPECT_NE(first, clean);
}

TEST_F(ChaosTest, DisabledInjectionIsInert) {
  FaultInjection::Reset();
  ASSERT_FALSE(FaultInjection::enabled());
  bool fired = false;
  for (int i = 0; i < 1000000; ++i) {
    fired |= FaultInjection::ShouldFail("hot.site");
  }
  EXPECT_FALSE(fired);
  // Disabled, ShouldFail must not even count hits — zero bookkeeping
  // on the hot path.
  EXPECT_EQ(FaultInjection::HitCount("hot.site"), 0u);
}

TEST_F(ChaosTest, SpecGrammarAndCounters) {
  // Schedule trigger: exactly hits 0 and 2 fire.
  ASSERT_TRUE(FaultInjection::Configure("seed=5;site.a=@0,2"));
  EXPECT_TRUE(FaultInjection::ShouldFail("site.a"));
  EXPECT_FALSE(FaultInjection::ShouldFail("site.a"));
  EXPECT_TRUE(FaultInjection::ShouldFail("site.a"));
  EXPECT_FALSE(FaultInjection::ShouldFail("site.a"));
  EXPECT_EQ(FaultInjection::HitCount("site.a"), 4u);
  EXPECT_EQ(FaultInjection::FireCount("site.a"), 2u);
  // Unconfigured sites never fire and stay untracked (no bookkeeping
  // grows for sites the spec didn't name).
  EXPECT_FALSE(FaultInjection::ShouldFail("site.b"));
  EXPECT_EQ(FaultInjection::HitCount("site.b"), 0u);

  // Probability triggers are deterministic in (seed, site, hit): the
  // same spec replayed yields the same fault sequence.
  auto sequence = [] {
    FaultInjection::Reset();
    EXPECT_TRUE(FaultInjection::Configure("seed=11;site.p=p0.5"));
    std::string bits;
    for (int i = 0; i < 64; ++i) {
      bits += FaultInjection::ShouldFail("site.p") ? '1' : '0';
    }
    return bits;
  };
  const std::string first = sequence();
  const std::string second = sequence();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find('1'), std::string::npos);
  EXPECT_NE(first.find('0'), std::string::npos);
}

TEST_F(ChaosTest, MalformedSpecsAreRejected) {
  EXPECT_FALSE(FaultInjection::Configure("site.a=p1.5"));   // p out of range
  EXPECT_FALSE(FaultInjection::Configure("site.a=banana")); // no trigger
  EXPECT_FALSE(FaultInjection::Configure("=p0.5"));         // empty name
  EXPECT_FALSE(FaultInjection::Configure("site.a=@x"));     // bad index
  // A failed Configure leaves injection disabled.
  EXPECT_FALSE(FaultInjection::enabled());
}

}  // namespace
}  // namespace net
}  // namespace llamatune
