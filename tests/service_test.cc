#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/file_io.h"
#include "src/common/serde.h"
#include "src/dbsim/workloads.h"
#include "src/harness/tuner.h"
#include "src/knobs/config_space.h"
#include "src/service/trial_wal.h"
#include "src/service/tuning_service.h"

namespace llamatune {
namespace {

using service::SessionSpec;
using service::SessionStatus;
using service::TrialWal;
using service::TuningService;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The "external DBMS" of these tests: a deterministic closed-form
/// performance surface per job, measured outside the service.
double ExternalMeasure(int job, const Configuration& config) {
  double x = config[0] / 100.0;
  double y = config[1];
  double peak_x = 0.2 + 0.08 * job;
  double peak_y = 0.9 - 0.07 * job;
  return 1000.0 - 900.0 * ((x - peak_x) * (x - peak_x) +
                           (y - peak_y) * (y - peak_y)) +
         25.0 * job;
}

class ServiceFixture : public ::testing::Test {
 protected:
  ServiceFixture()
      : space_(*ConfigSpace::Create({IntegerKnob("cache_mb", 0, 100, 50),
                                     RealKnob("target_ratio", 0.0, 1.0, 0.5)})) {
  }

  SessionSpec ExternalSpec(int job) const {
    SessionSpec spec;
    spec.space = &space_;
    spec.optimizer_key = "random";
    spec.adapter_key = "identity";
    spec.seed = 100 + job;
    spec.num_iterations = 20;
    return spec;
  }

  /// Drives one external session to completion through ask/tell.
  static void DriveExternal(TuningService& service, const std::string& name,
                            int job) {
    while (true) {
      Result<Trial> trial = service.Ask(name);
      if (!trial.ok()) break;
      TrialResult result;
      result.trial_id = trial->id;
      result.value = ExternalMeasure(job, trial->config);
      Status told = service.Tell(name, result);
      ASSERT_TRUE(told.ok()) << told.ToString();
    }
  }

  ConfigSpace space_;
};

TEST_F(ServiceFixture, EightConcurrentExternalSessionsAreDeterministic) {
  // Reference results: each job driven alone through a plain detached
  // tuner stack.
  std::vector<SessionResult> solo;
  for (int job = 0; job < 8; ++job) {
    Result<std::unique_ptr<harness::Tuner>> tuner =
        harness::TunerBuilder()
            .Space(&space_)
            .Optimizer("random")
            .Adapter("identity")
            .Seed(100 + job)
            .Iterations(20)
            .BuildDetached();
    ASSERT_TRUE(tuner.ok());
    while (true) {
      Result<Trial> trial = (*tuner)->Ask();
      if (!trial.ok()) break;
      TrialResult result;
      result.trial_id = trial->id;
      result.value = ExternalMeasure(job, trial->config);
      ASSERT_TRUE((*tuner)->Tell(result).ok());
    }
    solo.push_back((*tuner)->session().Snapshot());
  }

  // The service hosts all 8 sessions at once, each driven by its own
  // thread (asks/tells from different sessions interleave freely).
  TuningService service;
  for (int job = 0; job < 8; ++job) {
    ASSERT_TRUE(
        service.CreateSession("job-" + std::to_string(job), ExternalSpec(job))
            .ok());
  }
  EXPECT_EQ(service.session_count(), 8);

  std::vector<std::thread> workers;
  for (int job = 0; job < 8; ++job) {
    workers.emplace_back([&service, job] {
      DriveExternal(service, "job-" + std::to_string(job), job);
    });
  }
  for (std::thread& worker : workers) worker.join();

  // Per-session results are bit-for-bit identical to the solo runs,
  // regardless of the concurrent interleaving.
  for (int job = 0; job < 8; ++job) {
    Result<SessionResult> closed = service.Close("job-" + std::to_string(job));
    ASSERT_TRUE(closed.ok());
    EXPECT_EQ(closed->iterations_run, solo[job].iterations_run);
    EXPECT_TRUE(
        SameBits(closed->best_performance, solo[job].best_performance));
    EXPECT_TRUE(SameBits(closed->default_performance,
                         solo[job].default_performance));
    ASSERT_EQ(closed->kb.size(), solo[job].kb.size());
    for (int i = 0; i < closed->kb.size(); ++i) {
      EXPECT_TRUE(SameBits(closed->kb.record(i).measured,
                           solo[job].kb.record(i).measured));
      EXPECT_EQ(closed->kb.record(i).config, solo[job].kb.record(i).config);
    }
  }
  EXPECT_EQ(service.session_count(), 0);
}

TEST_F(ServiceFixture, CheckpointResumeThroughService) {
  TuningService service;
  SessionSpec spec = ExternalSpec(3);
  ASSERT_TRUE(service.CreateSession("job", spec).ok());

  // Drive half the budget, checkpoint, abandon the session.
  for (int round = 0; round < 11; ++round) {
    Result<Trial> trial = service.Ask("job");
    ASSERT_TRUE(trial.ok());
    TrialResult result;
    result.trial_id = trial->id;
    result.value = ExternalMeasure(3, trial->config);
    ASSERT_TRUE(service.Tell("job", result).ok());
  }
  Result<std::string> checkpoint = service.Checkpoint("job");
  ASSERT_TRUE(checkpoint.ok());
  ASSERT_TRUE(service.Close("job").ok());

  // Resume under a new name and finish.
  ASSERT_TRUE(service.Resume("job-resumed", spec, *checkpoint).ok());
  Result<SessionStatus> status = service.GetStatus("job-resumed");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->iterations_run, 10);  // 11 rounds = baseline + 10
  DriveExternal(service, "job-resumed", 3);
  Result<SessionResult> resumed = service.Close("job-resumed");
  ASSERT_TRUE(resumed.ok());

  // Reference: the same job driven to completion without interruption.
  TuningService reference_service;
  ASSERT_TRUE(reference_service.CreateSession("ref", spec).ok());
  DriveExternal(reference_service, "ref", 3);
  Result<SessionResult> reference = reference_service.Close("ref");
  ASSERT_TRUE(reference.ok());

  ASSERT_EQ(resumed->kb.size(), reference->kb.size());
  for (int i = 0; i < resumed->kb.size(); ++i) {
    EXPECT_TRUE(SameBits(resumed->kb.record(i).measured,
                         reference->kb.record(i).measured));
  }
  EXPECT_TRUE(
      SameBits(resumed->best_performance, reference->best_performance));
}

TEST_F(ServiceFixture, WorkloadSessionsStepAndDrive) {
  TuningService service;
  SessionSpec spec;
  spec.workload = dbsim::YcsbA();
  spec.optimizer_key = "random";
  spec.adapter_key = "llamatune";
  spec.seed = 5;
  spec.num_iterations = 6;
  ASSERT_TRUE(service.CreateSession("sim", spec).ok());

  bool progressed = false;
  ASSERT_TRUE(service.Step("sim", &progressed).ok());  // baseline
  EXPECT_TRUE(progressed);
  ASSERT_TRUE(service.Drive("sim").ok());

  Result<SessionStatus> status = service.GetStatus("sim");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->iterations_run, 6);
  EXPECT_TRUE(status->finished);
  EXPECT_FALSE(status->external);
  EXPECT_GT(status->best_performance, 0.0);

  ASSERT_TRUE(service.Step("sim", &progressed).ok());
  EXPECT_FALSE(progressed);
  ASSERT_TRUE(service.Close("sim").ok());
}

TEST_F(ServiceFixture, ErrorsSurfaceAsStatuses) {
  TuningService service;
  SessionSpec spec = ExternalSpec(0);

  // Unknown names carry the session-specific code — distinct from the
  // generic kNotFound a bad registry key produces below, so remote
  // callers can tell them apart without string matching.
  EXPECT_EQ(service.Ask("nope").status().code(), StatusCode::kSessionNotFound);
  EXPECT_EQ(service.Checkpoint("nope").status().code(),
            StatusCode::kSessionNotFound);
  EXPECT_EQ(service.Close("nope").status().code(),
            StatusCode::kSessionNotFound);
  EXPECT_EQ(service.GetStatus("nope").status().code(),
            StatusCode::kSessionNotFound);

  // Duplicate create.
  ASSERT_TRUE(service.CreateSession("job", spec).ok());
  EXPECT_EQ(service.CreateSession("job", spec).code(),
            StatusCode::kSessionAlreadyExists);

  // Step on an external session.
  EXPECT_EQ(service.Step("job").code(), StatusCode::kFailedPrecondition);

  // Bad specs.
  SessionSpec empty;
  EXPECT_EQ(service.CreateSession("bad", empty).code(),
            StatusCode::kInvalidArgument);
  SessionSpec both = spec;
  both.workload = dbsim::YcsbA();
  EXPECT_EQ(service.CreateSession("bad", both).code(),
            StatusCode::kInvalidArgument);
  SessionSpec bad_key = spec;
  bad_key.optimizer_key = "no-such-optimizer";
  EXPECT_EQ(service.CreateSession("bad", bad_key).code(),
            StatusCode::kNotFound);

  // Resume with a mismatched spec fails loudly and registers nothing.
  Result<Trial> baseline = service.Ask("job");
  ASSERT_TRUE(baseline.ok());
  TrialResult result;
  result.trial_id = baseline->id;
  result.value = ExternalMeasure(0, baseline->config);
  ASSERT_TRUE(service.Tell("job", result).ok());
  Result<std::string> checkpoint = service.Checkpoint("job");
  ASSERT_TRUE(checkpoint.ok());
  SessionSpec other_options = spec;
  other_options.num_iterations = 99;
  EXPECT_FALSE(service.Resume("resumed", other_options, *checkpoint).ok());
  EXPECT_EQ(service.GetStatus("resumed").status().code(),
            StatusCode::kSessionNotFound);

  // Resume into a live name is a session collision, not a generic
  // AlreadyExists.
  EXPECT_EQ(service.Resume("job", spec, *checkpoint).code(),
            StatusCode::kSessionAlreadyExists);
}

TEST_F(ServiceFixture, StatusCarriesTimestampsAndActivity) {
  TuningService service;
  int64_t before = NowUnixMillis();
  ASSERT_TRUE(service.CreateSession("job", ExternalSpec(0)).ok());

  Result<SessionStatus> created = service.GetStatus("job");
  ASSERT_TRUE(created.ok());
  EXPECT_GE(created->created_unix_ms, before);
  EXPECT_EQ(created->last_activity_unix_ms, created->created_unix_ms);

  // Status polling is not activity; asking is.
  Result<SessionStatus> polled = service.GetStatus("job");
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->last_activity_unix_ms, created->last_activity_unix_ms);

  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(service.Ask("job").ok());
  Result<SessionStatus> asked = service.GetStatus("job");
  ASSERT_TRUE(asked.ok());
  EXPECT_GT(asked->last_activity_unix_ms, created->last_activity_unix_ms);
  EXPECT_EQ(asked->created_unix_ms, created->created_unix_ms);
  EXPECT_EQ(asked->pending_trials, 1);
}

TEST_F(ServiceFixture, ListSessionsReportsAll) {
  TuningService service;
  for (int job = 0; job < 3; ++job) {
    ASSERT_TRUE(
        service.CreateSession("job-" + std::to_string(job), ExternalSpec(job))
            .ok());
  }
  std::vector<SessionStatus> statuses = service.ListSessions();
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_EQ(statuses[0].name, "job-0");
  EXPECT_EQ(statuses[2].name, "job-2");
  for (const SessionStatus& status : statuses) {
    EXPECT_TRUE(status.external);
    EXPECT_EQ(status.iterations_run, 0);
    EXPECT_EQ(status.num_iterations, 20);
    EXPECT_FALSE(status.finished);
    EXPECT_EQ(status.optimizer_key, "random");
    EXPECT_EQ(status.adapter_key, "identity");
  }
}

// ---------------------------------------------------------------------------
// WAL replay from any prefix reproduces state, in process: no server, no
// fork, no sleep (expiry runs on an explicit clock).
// ---------------------------------------------------------------------------

std::string FreshWalDir() {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "llamatune-svcwal-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(counter++);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

/// Everything a WAL replay must rebuild: the committed trajectory (its
/// wall-clock optimizer-seconds token zeroed), the pending trials and
/// the next trial id.
std::string SessionState(TuningService& service, const std::string& name) {
  Result<std::string> checkpoint = service.Checkpoint(name);
  int64_t next_id = 0;
  Result<std::vector<Trial>> pending = service.GetPending(name, &next_id);
  if (!checkpoint.ok() || !pending.ok()) return "<no session>";
  std::istringstream in(*checkpoint);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("state ", 0) == 0) {
      line = line.substr(0, line.find_last_of(' ')) + " <wall-clock>";
    }
    out << line << '\n';
  }
  out << "pending";
  for (const Trial& trial : *pending) out << ' ' << trial.id;
  out << "\nnext " << next_id << '\n';
  return out.str();
}

/// Where a store-backed service in `dir` keeps session `name`'s log.
std::string WalPath(const std::string& dir, const std::string& name) {
  return dir + "/" + EncodeBytes(name) + ".wal";
}

SessionSpec WalWorkloadSpec() {
  SessionSpec spec;
  spec.workload = dbsim::YcsbA();
  spec.optimizer_key = "random";
  spec.adapter_key = "llamatune";
  spec.seed = 11;
  spec.num_iterations = 8;
  spec.pending_deadline_ms = 1;  // only the explicit clock below expires
  return spec;
}

std::string JoinRecords(const std::vector<std::string>& records) {
  std::string text;
  for (const std::string& record : records) text += record + '\n';
  return text;
}

class WalReplayTest : public ::testing::Test {
 protected:
  /// Records one workload session in which every operation appends
  /// exactly one record and every record kind occurs; keeps the state
  /// before the first and after each operation.
  void SetUp() override {
    dir_ = FreshWalDir();
    TuningService service(dir_);
    ASSERT_TRUE(service.CreateSession("rec", WalWorkloadSpec()).ok());
    Result<std::string> start = service.Checkpoint("rec");
    ASSERT_TRUE(start.ok());
    start_ = *start;
    states_.push_back(SessionState(service, "rec"));

    auto measure = [](const Trial& trial) {
      TrialResult result;
      result.trial_id = trial.id;
      result.value = 100.0 + trial.config[0];
      return result;
    };
    std::vector<Trial> asked;
    const std::vector<std::function<Status()>> ops = {
        [&] { return service.Step("rec"); },  // step 0: the baseline
        [&] { return service.Step("rec"); },  // step 0: iteration 1
        [&] {
          Result<Trial> trial = service.Ask("rec");
          if (trial.ok()) asked.push_back(*trial);
          return trial.status();
        },
        [&] { return service.Tell("rec", measure(asked.at(0))); },
        [&] {
          Result<std::vector<Trial>> trials = service.AskBatch("rec", 2);
          if (trials.ok()) asked.insert(asked.end(), trials->begin(),
                                        trials->end());
          return trials.status();
        },
        [&] { return service.TellBatch("rec", {measure(asked.at(1))}); },
        [&] {
          return service.ExpireOverdue(int64_t{1} << 60) == 1
                     ? Status::OK()
                     : Status::Internal("expected one expiry");
        },
        [&] { return service.Step("rec"); },
        [&] {
          Result<Trial> trial = service.Ask("rec");
          return trial.status();
        },
    };
    for (const std::function<Status()>& op : ops) {
      Status status = op();
      ASSERT_TRUE(status.ok()) << status.ToString();
      states_.push_back(SessionState(service, "rec"));
    }
    Result<std::vector<std::string>> records =
        TrialWal::ReadRecords(WalPath(dir_, "rec"));
    ASSERT_TRUE(records.ok());
    records_ = *records;
    ASSERT_EQ(records_.size(), ops.size());
  }

  /// Recovers a session from `checkpoint` plus `records` and returns
  /// its state.
  std::string Replay(const std::string& checkpoint,
                     const std::vector<std::string>& records) {
    const std::string name = "replay-" + std::to_string(replays_++);
    const std::string path = WalPath(dir_, name);
    EXPECT_TRUE(AtomicWriteFile(path, JoinRecords(records)).ok());
    TuningService service(dir_);
    Status recovered = service.Recover(name, WalWorkloadSpec(), checkpoint);
    EXPECT_TRUE(recovered.ok()) << recovered.ToString();
    return SessionState(service, name);
  }

  std::string dir_;
  std::string start_;
  std::vector<std::string> states_;
  std::vector<std::string> records_;
  int replays_ = 0;
};

TEST_F(WalReplayTest, RecordsEveryKindInCommitOrder) {
  std::vector<std::string> kinds;
  for (const std::string& record : records_) {
    kinds.push_back(record.substr(0, record.find(' ')));
  }
  EXPECT_EQ(kinds, (std::vector<std::string>{"step", "step", "ask1", "tell",
                                             "askb", "tell", "expire", "step",
                                             "ask1"}));
}

TEST_F(WalReplayTest, EveryPrefixReplaysToTheStateAfterThatManyOperations) {
  for (size_t k = 0; k <= records_.size(); ++k) {
    SCOPED_TRACE("prefix of " + std::to_string(k) + " records");
    std::vector<std::string> prefix(records_.begin(), records_.begin() + k);
    EXPECT_EQ(Replay(start_, prefix), states_[k]);
  }
}

TEST_F(WalReplayTest, RecordsInsideTheCheckpointAreSkipped) {
  // A later checkpoint already covers the first four operations: their
  // ask records sit below the cursor and their tells answer
  // AlreadyExists; everything after the cursor is re-issued.
  std::vector<std::string> first_four(records_.begin(), records_.begin() + 4);
  EXPECT_EQ(Replay(start_, first_four), states_[4]);
  std::string mid_checkpoint;
  {
    TuningService recorder(dir_);
    const std::string path = WalPath(dir_, "mid");
    ASSERT_TRUE(AtomicWriteFile(path, JoinRecords(first_four)).ok());
    ASSERT_TRUE(recorder.Recover("mid", WalWorkloadSpec(), start_).ok());
    Result<std::string> checkpoint = recorder.Checkpoint("mid");
    ASSERT_TRUE(checkpoint.ok());
    mid_checkpoint = *checkpoint;
  }
  EXPECT_EQ(Replay(mid_checkpoint, records_), states_.back());
}

TEST_F(WalReplayTest, ReplayStopsAtAGap) {
  // Without the third operation's ask record, the askb record after
  // the two steps is above the cursor: replay stops there, at the state
  // after the first two operations. Nothing after a gap is applied,
  // not even the later step record, which would apply on its own.
  const std::vector<std::string> gapped = {records_[0], records_[1],
                                           records_[4], records_[7]};
  EXPECT_EQ(Replay(start_, gapped), states_[2]);
}

TEST_F(WalReplayTest, RecoveryCutsATornTailSoASecondCrashLosesNothing) {
  const std::string path = WalPath(dir_, "twice");
  const SessionSpec spec = WalWorkloadSpec();
  std::string checkpoint;
  {
    TuningService service(dir_);
    ASSERT_TRUE(service.CreateSession("twice", spec).ok());
    Result<std::string> start = service.Checkpoint("twice");
    ASSERT_TRUE(start.ok());
    checkpoint = *start;
    ASSERT_TRUE(service.Step("twice").ok());
    ASSERT_TRUE(service.Step("twice").ok());
  }
  // The append racing the first crash: a record with no newline.
  std::ofstream(path, std::ios::app) << "step 2";
  {
    TuningService service(dir_);
    ASSERT_TRUE(service.Recover("twice", spec, checkpoint).ok());
    // Both steps are acknowledged, so a second crash must keep them.
    ASSERT_TRUE(service.Step("twice").ok());
    ASSERT_TRUE(service.Step("twice").ok());
  }
  TuningService service(dir_);
  ASSERT_TRUE(service.Recover("twice", spec, checkpoint).ok());
  Result<SessionStatus> status = service.GetStatus("twice");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->iterations_run, 3);
}

TEST_F(WalReplayTest, RecoveryCutsAGapSoASecondCrashLosesNothing) {
  const std::string path = WalPath(dir_, "gapped");
  const SessionSpec spec = WalWorkloadSpec();
  std::string checkpoint;
  {
    TuningService service(dir_);
    ASSERT_TRUE(service.CreateSession("gapped", spec).ok());
    Result<std::string> start = service.Checkpoint("gapped");
    ASSERT_TRUE(start.ok());
    checkpoint = *start;
    ASSERT_TRUE(service.Step("gapped").ok());
    ASSERT_TRUE(service.Step("gapped").ok());
  }
  // An ask record above the cursor, as a lost append leaves: replay
  // stops there.
  std::ofstream(path, std::ios::app) << "ask1 99\n";
  {
    TuningService service(dir_);
    ASSERT_TRUE(service.Recover("gapped", spec, checkpoint).ok());
    // Both steps are acknowledged, so a second crash must keep them.
    ASSERT_TRUE(service.Step("gapped").ok());
    ASSERT_TRUE(service.Step("gapped").ok());
  }
  TuningService service(dir_);
  ASSERT_TRUE(service.Recover("gapped", spec, checkpoint).ok());
  Result<SessionStatus> status = service.GetStatus("gapped");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->iterations_run, 3);
}

// A racing session's WAL holds askb records: the baseline's, a rung
// handed out in two parts, the next rung and the next race. Every
// prefix recovers to the state after that many operations.
TEST(RacingWalReplayTest, AskBatchRecordsReplayThroughRecover) {
  const std::string dir = FreshWalDir();
  auto spec = [] {
    SessionSpec spec = WalWorkloadSpec();
    spec.pending_deadline_ms = 0;
    spec.num_iterations = 2;
    RacingOptions racing;
    racing.cohort = 4;
    racing.rungs = 2;
    racing.min_fidelity = 0.5;
    spec.racing = racing;
    return spec;
  };
  TuningService service(dir);
  ASSERT_TRUE(service.CreateSession("race", spec()).ok());
  Result<std::string> start = service.Checkpoint("race");
  ASSERT_TRUE(start.ok());
  std::vector<std::string> states = {SessionState(service, "race")};

  std::vector<Trial> held;
  auto ask = [&](int n, size_t expect) {
    Result<std::vector<Trial>> trials = service.AskBatch("race", n);
    if (!trials.ok()) return trials.status();
    if (trials->size() != expect) return Status::Internal("wrong part size");
    held.insert(held.end(), trials->begin(), trials->end());
    return Status::OK();
  };
  auto tell_held = [&] {
    std::vector<TrialResult> results;
    for (const Trial& trial : held) {
      TrialResult result;
      result.trial_id = trial.id;
      result.value = 100.0 + trial.config[0] + trial.id;
      results.push_back(result);
    }
    held.clear();
    return service.TellBatch("race", results);
  };
  const std::vector<std::function<Status()>> ops = {
      [&] { return ask(4, 1); },  // the baseline alone
      tell_held,
      [&] { return ask(3, 3); },  // race 1, rung 0: three of four slots
      [&] { return ask(3, 1); },  // ... and the last one
      tell_held,                  // opens rung 1 with the survivors
      [&] { return ask(4, 2); },
      tell_held,                  // commits race 1's champion
      [&] { return ask(2, 2); },  // race 2, rung 0: half of it
  };
  // A TellBatch appends one record per result, so keep the log length
  // after each operation.
  std::vector<size_t> logged = {0};
  for (const std::function<Status()>& op : ops) {
    Status status = op();
    ASSERT_TRUE(status.ok()) << status.ToString();
    states.push_back(SessionState(service, "race"));
    Result<std::vector<std::string>> records =
        TrialWal::ReadRecords(WalPath(dir, "race"));
    ASSERT_TRUE(records.ok());
    logged.push_back(records->size());
  }
  Result<std::vector<std::string>> records =
      TrialWal::ReadRecords(WalPath(dir, "race"));
  ASSERT_TRUE(records.ok());
  int askb = 0;
  for (const std::string& record : *records) {
    askb += record.rfind("askb ", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(askb, 5);

  for (size_t k = 0; k < states.size(); ++k) {
    SCOPED_TRACE("after " + std::to_string(k) + " operations");
    const std::string name = "replay-" + std::to_string(k);
    std::vector<std::string> prefix(records->begin(),
                                    records->begin() + logged[k]);
    ASSERT_TRUE(
        AtomicWriteFile(WalPath(dir, name), JoinRecords(prefix)).ok());
    TuningService recovered(dir);
    Status status = recovered.Recover(name, spec(), *start);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(SessionState(recovered, name), states[k]);
  }
}


// ---------------------------------------------------------------------------
// The session store: a store-backed service recovers with no server.
// ---------------------------------------------------------------------------

TrialResult Measured(const Trial& trial) {
  TrialResult result;
  result.trial_id = trial.id;
  result.value = 100.0 + trial.config[0];
  return result;
}

int64_t AutosavesOf(const TuningService& service) {
  return service.store().autosaves_written();
}

TEST(SessionStoreTest, SecondServiceRecoversTheUninterruptedStateFromTheStore) {
  const std::string dir = FreshWalDir();
  std::string uninterrupted;
  {
    TuningService service(dir);
    ASSERT_TRUE(service.CreateSession("solo", WalWorkloadSpec(), "hdr").ok());
    ASSERT_TRUE(service.Step("solo").ok());
    ASSERT_TRUE(service.Step("solo").ok());
    service.PersistChanged();
    // Past the autosave: only the WAL holds these rounds.
    ASSERT_TRUE(service.Step("solo").ok());
    Result<Trial> told = service.Ask("solo");
    ASSERT_TRUE(told.ok());
    ASSERT_TRUE(service.Tell("solo", Measured(*told)).ok());
    ASSERT_TRUE(service.Ask("solo").ok());  // left pending
    uninterrupted = SessionState(service, "solo");
  }  // dropped without Close: both files stay

  TuningService successor(dir);
  Result<std::vector<std::string>> names = successor.store().List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"solo"});
  Result<service::SavedSession> saved = successor.store().Load("solo");
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(saved->header, "hdr");
  ASSERT_TRUE(successor
                  .Recover("solo", WalWorkloadSpec(), saved->checkpoint,
                           saved->header)
                  .ok());
  EXPECT_EQ(SessionState(successor, "solo"), uninterrupted);
}

TEST(SessionStoreTest, OnlyAnAppendedRecordMakesThePersistWrite) {
  const std::string dir = FreshWalDir();
  TuningService service(dir);
  ASSERT_TRUE(service.CreateSession("job", WalWorkloadSpec()).ok());
  EXPECT_EQ(AutosavesOf(service), 1);  // written before the create replied
  service.PersistChanged();
  EXPECT_EQ(AutosavesOf(service), 1);

  Result<Trial> trial = service.Ask("job");
  ASSERT_TRUE(trial.ok());
  service.PersistChanged();
  EXPECT_EQ(AutosavesOf(service), 2);
  // The pending trial's ask record stays in the log.
  EXPECT_EQ(TrialWal::ReadRecords(WalPath(dir, "job"))->size(), 1u);

  // Reads append nothing, so the next persist writes nothing.
  ASSERT_TRUE(service.Checkpoint("job").ok());
  ASSERT_TRUE(service.GetStatus("job").ok());
  ASSERT_TRUE(service.GetPending("job").ok());
  service.PersistChanged();
  EXPECT_EQ(AutosavesOf(service), 2);

  // One Tell: the next persist writes once and truncates the log.
  ASSERT_TRUE(service.Tell("job", Measured(*trial)).ok());
  service.PersistChanged();
  service.PersistChanged();
  EXPECT_EQ(AutosavesOf(service), 3);
  EXPECT_TRUE(TrialWal::ReadRecords(WalPath(dir, "job"))->empty());

  // A session recovered with nothing to replay is already persisted.
  TuningService successor(dir);
  Result<service::SavedSession> saved = successor.store().Load("job");
  ASSERT_TRUE(saved.ok());
  ASSERT_TRUE(
      successor.Recover("job", WalWorkloadSpec(), saved->checkpoint).ok());
  successor.PersistChanged();
  EXPECT_EQ(AutosavesOf(successor), 0);
}

TEST(SessionStoreTest, CloseDeletesBothFilesAndEvictKeepsThem) {
  const std::string dir = FreshWalDir();
  const std::string autosave = dir + "/" + EncodeBytes("job") + ".autosave";
  TuningService service(dir);
  ASSERT_TRUE(service.CreateSession("job", WalWorkloadSpec()).ok());
  ASSERT_TRUE(service.Step("job").ok());
  ASSERT_TRUE(service.Evict("job").ok());
  EXPECT_EQ(AutosavesOf(service), 2);
  EXPECT_TRUE(ReadFile(autosave).ok());
  EXPECT_TRUE(ReadFile(WalPath(dir, "job")).ok());
  EXPECT_EQ(service.GetStatus("job").status().code(),
            StatusCode::kSessionNotFound);

  Result<service::SavedSession> saved = service.store().Load("job");
  ASSERT_TRUE(saved.ok());
  ASSERT_TRUE(
      service.Recover("job", WalWorkloadSpec(), saved->checkpoint).ok());
  EXPECT_EQ(service.GetStatus("job")->iterations_run, 0);  // the baseline
  ASSERT_TRUE(service.Close("job").ok());
  EXPECT_FALSE(ReadFile(autosave).ok());
  EXPECT_FALSE(ReadFile(WalPath(dir, "job")).ok());
  EXPECT_TRUE(service.store().List()->empty());
}

TEST(SessionStoreTest, AFailedAutosaveFailsTheCreateAndRegistersNothing) {
  const std::string dir = FreshWalDir();
  TuningService service(dir);
  ASSERT_TRUE(FaultInjection::Configure("autosave.torn=p1"));
  Status created = service.CreateSession("job", WalWorkloadSpec());
  FaultInjection::Reset();
  EXPECT_FALSE(created.ok());
  EXPECT_EQ(service.session_count(), 0);
  EXPECT_EQ(service.store().Load("job").status().code(),
            StatusCode::kNotFound);
  // The name is free again.
  EXPECT_TRUE(service.CreateSession("job", WalWorkloadSpec()).ok());
  // The header is one line of the autosave.
  EXPECT_EQ(service.CreateSession("two", WalWorkloadSpec(), "a\nb").code(),
            StatusCode::kInvalidArgument);

  // A store whose directory is a regular file fails at once.
  const std::string file = dir + "/not-a-dir";
  ASSERT_TRUE(AtomicWriteFile(file, "x").ok());
  TuningService broken(file);
  EXPECT_FALSE(broken.CreateSession("job", WalWorkloadSpec()).ok());
  EXPECT_EQ(broken.session_count(), 0);
  EXPECT_FALSE(broken.store().List().ok());
}

}  // namespace
}  // namespace llamatune
