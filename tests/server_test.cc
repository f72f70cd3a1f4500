#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/file_io.h"
#include "src/common/serde.h"
#include "src/harness/tuner.h"
#include "src/knobs/config_space.h"
#include "src/net/frame.h"
#include "src/net/message.h"
#include "src/net/tuning_client.h"
#include "src/net/tuning_server.h"
#include "src/service/trial_wal.h"
#include "src/service/tuning_service.h"

namespace llamatune {
namespace net {
namespace {

using service::SessionSpec;
using service::TuningService;

/// Same deterministic "external DBMS" surface as service_test.cc: the
/// wire-vs-in-process equality pins depend on both sides measuring
/// identically.
double ExternalMeasure(int job, const Configuration& config) {
  double x = config[0] / 100.0;
  double y = config[1];
  double peak_x = 0.2 + 0.08 * job;
  double peak_y = 0.9 - 0.07 * job;
  return 1000.0 - 900.0 * ((x - peak_x) * (x - peak_x) +
                           (y - peak_y) * (y - peak_y)) +
         25.0 * job;
}

std::vector<KnobSpec> TestKnobs() {
  return {IntegerKnob("cache_mb", 0, 100, 50),
          RealKnob("target_ratio", 0.0, 1.0, 0.5)};
}

WireSessionSpec ExternalWireSpec(int job) {
  WireSessionSpec spec;
  spec.space_knobs = TestKnobs();
  spec.maximize = true;
  spec.optimizer_key = "random";
  spec.adapter_key = "identity";
  spec.seed = 100 + job;
  spec.num_iterations = 12;
  return spec;
}

/// A checkpoint's "state" line carries accumulated wall-clock
/// optimizer seconds — the only non-deterministic bytes in an
/// otherwise bit-exact trajectory. Zero that token so equality means
/// "identical trial history".
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

std::string FreshDir(const std::string& tag) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "llamatune-" + tag + "-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(counter++);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

/// Drives an external session over the wire until Ask says the budget
/// is gone.
void DriveOverWire(TuningClient& client, const std::string& name, int job) {
  for (;;) {
    Result<Trial> trial = client.Ask(name);
    if (!trial.ok()) break;
    TrialResult result;
    result.trial_id = trial->id;
    result.value = ExternalMeasure(job, trial->config);
    ASSERT_TRUE(client.Tell(name, result).ok());
  }
}

/// In-process reference: same spec, same measure, plain TuningService.
std::string ReferenceCheckpoint(int job, int rounds_before_checkpoint = -1) {
  static ConfigSpace space = *ConfigSpace::Create(TestKnobs());
  TuningService service;
  SessionSpec spec;
  spec.space = &space;
  spec.optimizer_key = "random";
  spec.adapter_key = "identity";
  spec.seed = 100 + job;
  spec.num_iterations = 12;
  EXPECT_TRUE(service.CreateSession("ref", spec).ok());
  int round = 0;
  for (;;) {
    if (rounds_before_checkpoint >= 0 && round == rounds_before_checkpoint) {
      break;
    }
    Result<Trial> trial = service.Ask("ref");
    if (!trial.ok()) break;
    TrialResult result;
    result.trial_id = trial->id;
    result.value = ExternalMeasure(job, trial->config);
    EXPECT_TRUE(service.Tell("ref", result).ok());
    ++round;
  }
  Result<std::string> checkpoint = service.Checkpoint("ref");
  EXPECT_TRUE(checkpoint.ok());
  return checkpoint.ok() ? *checkpoint : std::string();
}

/// Raw-socket caller for protocol-level tests the typed client cannot
/// express (garbage kinds, oversized frames).
class RawConn {
 public:
  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Send(const std::string& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// Reads until one frame decodes (or the peer closes / errors).
  Result<Frame> ReadFrame() {
    char buf[4096];
    for (;;) {
      Result<std::optional<Frame>> next = decoder_.Next();
      if (!next.ok()) return next.status();
      if (next->has_value()) return std::move(**next);
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return Status::Internal("raw: connection closed");
      decoder_.Feed(buf, static_cast<size_t>(n));
    }
  }

  /// True when the server hangs up (recv sees EOF).
  bool WaitForClose() {
    char buf[256];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

TEST(ServerTest, WireDrivenSessionMatchesInProcessBitForBit) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());

  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Hello("tenant-a").ok());

  ASSERT_TRUE(client.CreateSession("job", ExternalWireSpec(3)).ok());
  DriveOverWire(client, "job", 3);

  Result<WireSessionStatus> status = client.GetStatus("job");
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->status.finished);
  EXPECT_EQ(status->status.iterations_run, 12);
  EXPECT_GT(status->status.created_unix_ms, 0);
  EXPECT_GE(status->status.last_activity_unix_ms,
            status->status.created_unix_ms);

  // The end-to-end determinism pin: the wire-driven trial history is
  // byte-identical to the in-process one.
  Result<std::string> remote = client.Checkpoint("job");
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(Trajectory(*remote), Trajectory(ReferenceCheckpoint(3)));

  Result<WireCloseResult> closed = client.Close("job");
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->iterations_run, 12);
  server.Stop();
}

/// Asks out one round — the baseline, or one whole racing rung (Ask
/// answers FailedPrecondition once the rung is handed out) — and tells
/// every result. Works over a TuningClient and a TuningService alike.
template <class Api>
void AskAndTellOneRound(Api& api, const std::string& name, int job) {
  std::vector<Trial> trials;
  for (;;) {
    Result<Trial> trial = api.Ask(name);
    if (!trial.ok()) break;
    bool is_baseline = trial->is_baseline;
    trials.push_back(std::move(trial).ValueOrDie());
    if (is_baseline) break;
  }
  for (const Trial& trial : trials) {
    TrialResult result;
    result.trial_id = trial.id;
    result.value = ExternalMeasure(job, trial.config);
    ASSERT_TRUE(api.Tell(name, result).ok());
  }
}

std::string OptionsLine(const std::string& checkpoint) {
  std::istringstream in(checkpoint);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("options ", 0) == 0) return line;
  }
  return "";
}

/// The wire -> service conversion: a spec with every wire-carried
/// setting off its default builds the same session as its TunerConfig
/// handed to TuningService in process.
TEST(ServerTest, WireSpecBuildsTheSameSessionAsItsTunerConfig) {
  harness::TunerConfig config;
  config.optimizer_key = "random";
  config.adapter_key = "identity";
  config.seed = 9001;
  config.num_iterations = 5;
  config.batch_size = 3;
  config.num_threads = 2;
  config.pending_deadline_ms = 600000;
  RacingOptions racing;
  racing.cohort = 3;
  racing.rungs = 2;
  racing.min_fidelity = 0.5;
  racing.eta = 3.0;
  racing.ci_z = 1.0;
  config.racing = racing;

  WireSessionSpec wire;
  static_cast<harness::TunerConfig&>(wire) = config;
  wire.space_knobs = TestKnobs();
  wire.maximize = false;
  ConfigSpace space = *ConfigSpace::Create(TestKnobs());
  SessionSpec local;
  static_cast<harness::TunerConfig&>(local) = config;
  local.space = &space;
  local.maximize = false;

  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.CreateSession("job", wire).ok());
  TuningService reference;
  ASSERT_TRUE(reference.CreateSession("job", local).ok());
  // The baseline, then two races of two rungs each.
  for (int round = 0; round < 5; ++round) {
    AskAndTellOneRound(client, "job", 4);
    AskAndTellOneRound(reference, "job", 4);
  }

  Result<std::string> remote = client.Checkpoint("job");
  Result<std::string> in_process = reference.Checkpoint("job");
  ASSERT_TRUE(remote.ok());
  ASSERT_TRUE(in_process.ok());
  EXPECT_NE(OptionsLine(*remote), "");
  EXPECT_EQ(OptionsLine(*remote), OptionsLine(*in_process));
  EXPECT_EQ(Trajectory(*remote), Trajectory(*in_process));

  Result<WireSessionStatus> got = client.GetStatus("job");
  Result<service::SessionStatus> want = reference.GetStatus("job");
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->status.name, want->name);
  EXPECT_EQ(got->status.optimizer_key, want->optimizer_key);
  EXPECT_EQ(got->status.adapter_key, want->adapter_key);
  EXPECT_EQ(got->status.external, want->external);
  EXPECT_EQ(got->status.iterations_run, want->iterations_run);
  EXPECT_EQ(got->status.num_iterations, want->num_iterations);
  EXPECT_EQ(got->status.pending_trials, want->pending_trials);
  EXPECT_EQ(got->status.finished, want->finished);
  EXPECT_EQ(got->status.default_performance, want->default_performance);
  EXPECT_EQ(got->status.best_performance, want->best_performance);
  EXPECT_EQ(got->status.num_iterations, 5);
  EXPECT_EQ(got->status.iterations_run, 2);  // two whole races
  server.Stop();
}

TEST(ServerTest, BatchAskTellOverWire) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  WireSessionSpec spec = ExternalWireSpec(1);
  spec.batch_size = 3;
  ASSERT_TRUE(client.CreateSession("batched", spec).ok());

  // First batch is the baseline alone (protocol invariant).
  Result<std::vector<Trial>> first = client.AskBatch("batched", 3);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 1u);
  EXPECT_TRUE((*first)[0].is_baseline);
  std::vector<TrialResult> results;
  for (const Trial& trial : *first) {
    TrialResult r;
    r.trial_id = trial.id;
    r.value = ExternalMeasure(1, trial.config);
    results.push_back(r);
  }
  ASSERT_TRUE(client.TellBatch("batched", results).ok());

  Result<std::vector<Trial>> second = client.AskBatch("batched", 3);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->size(), 3u);

  Result<WireSessionStatus> status = client.GetStatus("batched");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->status.pending_trials, 3);
  server.Stop();
}

TEST(ServerTest, StartDriveRunsWorkloadSessionInBackground) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  WireSessionSpec spec;
  spec.workload = "YCSB-A";
  spec.optimizer_key = "random";
  spec.adapter_key = "llamatune";
  spec.seed = 5;
  spec.num_iterations = 6;
  ASSERT_TRUE(client.CreateSession("sim", spec).ok());
  ASSERT_TRUE(client.StartDrive("sim").ok());
  ASSERT_TRUE(client.StartDrive("sim").ok());  // idempotent while running

  // The drive runs on the pool; the connection stays responsive.
  ASSERT_TRUE(client.Ping().ok());
  for (int i = 0; i < 3000; ++i) {
    Result<WireSessionStatus> status = client.GetStatus("sim");
    ASSERT_TRUE(status.ok());
    if (status->status.finished && !status->driving) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Result<WireSessionStatus> status = client.GetStatus("sim");
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->status.finished);
  EXPECT_FALSE(status->driving);
  EXPECT_EQ(status->status.iterations_run, 6);

  // Bit-for-bit against an in-process Drive of the same spec.
  Result<std::string> remote = client.Checkpoint("sim");
  ASSERT_TRUE(remote.ok());
  TuningService reference;
  SessionSpec ref_spec;
  ref_spec.workload = *dbsim::WorkloadByName("YCSB-A");
  ref_spec.optimizer_key = "random";
  ref_spec.adapter_key = "llamatune";
  ref_spec.seed = 5;
  ref_spec.num_iterations = 6;
  ASSERT_TRUE(reference.CreateSession("ref", ref_spec).ok());
  ASSERT_TRUE(reference.Drive("ref").ok());
  Result<std::string> local = reference.Checkpoint("ref");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(Trajectory(*remote), Trajectory(*local));
  server.Stop();
}

TEST(ServerTest, TypedErrorsSurviveTheWire) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Session-level codes arrive as themselves, not as strings.
  EXPECT_EQ(client.Ask("nope").status().code(), StatusCode::kSessionNotFound);
  EXPECT_EQ(client.Checkpoint("nope").status().code(),
            StatusCode::kSessionNotFound);

  ASSERT_TRUE(client.CreateSession("job", ExternalWireSpec(0)).ok());
  EXPECT_EQ(client.CreateSession("job", ExternalWireSpec(0)).code(),
            StatusCode::kSessionAlreadyExists);
  EXPECT_EQ(client.Step("job").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.StartDrive("job").code(), StatusCode::kFailedPrecondition);

  WireSessionSpec bad = ExternalWireSpec(0);
  bad.optimizer_key = "no-such-optimizer";
  EXPECT_EQ(client.CreateSession("other", bad).code(), StatusCode::kNotFound);

  WireSessionSpec bad_workload;
  bad_workload.workload = "NO-SUCH-WORKLOAD";
  EXPECT_EQ(client.CreateSession("other", bad_workload).code(),
            StatusCode::kNotFound);
  server.Stop();
}

TEST(ServerTest, NaNTellsAreRejectedOverTheWire) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.CreateSession("nan", ExternalWireSpec(1)).ok());

  Result<Trial> baseline = client.Ask("nan");
  ASSERT_TRUE(baseline.ok());
  TrialResult bad;
  bad.trial_id = baseline->id;
  bad.value = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(client.Tell("nan", bad).code(), StatusCode::kInvalidArgument);
  bad.value = std::numeric_limits<double>::infinity();
  EXPECT_EQ(client.TellBatch("nan", {bad}).code(),
            StatusCode::kInvalidArgument);

  // The session is unharmed: the real measurement still lands.
  bad.value = ExternalMeasure(1, baseline->config);
  EXPECT_TRUE(client.Tell("nan", bad).ok());
  server.Stop();
}

TEST(ServerTest, DeadlineExpiryOverTheWire) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  WireSessionSpec spec = ExternalWireSpec(2);
  spec.pending_deadline_ms = 30;
  ASSERT_TRUE(client.CreateSession("exp", spec).ok());
  Result<Trial> baseline = client.Ask("exp");
  ASSERT_TRUE(baseline.ok());
  TrialResult result;
  result.trial_id = baseline->id;
  result.value = ExternalMeasure(2, baseline->config);
  ASSERT_TRUE(client.Tell("exp", result).ok());

  Result<Trial> doomed = client.Ask("exp");
  ASSERT_TRUE(doomed.ok());

  // GetPending (the retry-adoption primitive) sees the open trial.
  int64_t next_id = 0;
  Result<std::vector<Trial>> pending = client.GetPending("exp", &next_id);
  ASSERT_TRUE(pending.ok());
  ASSERT_EQ(pending->size(), 1u);
  EXPECT_EQ((*pending)[0].id, doomed->id);
  EXPECT_GT(next_id, doomed->id);

  // Let the deadline lapse; the maintenance sweep expires the trial.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  server.RunMaintenance();

  result.trial_id = doomed->id;
  result.value = ExternalMeasure(2, doomed->config);
  EXPECT_EQ(client.Tell("exp", result).code(), StatusCode::kTrialExpired);

  // The expired trial's budget slot is free again.
  Result<Trial> fresh = client.Ask("exp");
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(fresh->id, doomed->id);
  server.Stop();
}

TEST(ServerTest, GarbageKindGetsUnknownKindReply) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  RawConn raw;
  ASSERT_TRUE(raw.Connect(server.port()));
  ASSERT_TRUE(raw.Send(EncodeFrame(static_cast<MessageKind>(201), "junk")));
  Result<Frame> reply = raw.ReadFrame();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->kind, MessageKind::kError);
  WireError code = WireError::kInternal;
  std::string message;
  ASSERT_TRUE(DecodeError(reply->payload, &code, &message).ok());
  EXPECT_EQ(code, WireError::kUnknownKind);
  server.Stop();
}

TEST(ServerTest, OversizedFrameGetsBadFrameThenDisconnect) {
  TuningServerOptions options;
  options.max_frame_payload = 1024;
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  RawConn raw;
  ASSERT_TRUE(raw.Connect(server.port()));
  ASSERT_TRUE(raw.Send(EncodeFrame(MessageKind::kPing, std::string(2048, 'x'))));
  Result<Frame> reply = raw.ReadFrame();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->kind, MessageKind::kError);
  WireError code = WireError::kInternal;
  std::string message;
  ASSERT_TRUE(DecodeError(reply->payload, &code, &message).ok());
  EXPECT_EQ(code, WireError::kBadFrame);
  // Framing faults are unrecoverable: the server hangs up.
  EXPECT_TRUE(raw.WaitForClose());
  server.Stop();
}

TEST(ServerTest, HalfWrittenFrameThenDisconnectLeavesServerHealthy) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());

  // A client dies mid-frame: the header promises a payload that never
  // arrives, then the socket closes. The server must just drop the
  // connection — no reply, no stall, no poisoning of other clients.
  {
    RawConn raw;
    ASSERT_TRUE(raw.Connect(server.port()));
    std::string frame = EncodeFrame(MessageKind::kPing, "never finished");
    ASSERT_TRUE(raw.Send(frame.substr(0, frame.size() / 2)));
  }  // RawConn destructor closes the socket with the frame half-sent.

  // Same with a half-written *header* (fewer than kFrameHeaderBytes).
  {
    RawConn raw;
    ASSERT_TRUE(raw.Connect(server.port()));
    std::string frame = EncodeFrame(MessageKind::kAsk, EncodeNameOnly("j"));
    ASSERT_TRUE(raw.Send(frame.substr(0, 3)));
  }

  // A fresh client on the same server works immediately.
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(client.Ask("ghost").status().code(), StatusCode::kSessionNotFound);
  server.Stop();
}

TEST(ServerTest, PerTenantQuotaIsEnforcedAndReleased) {
  TuningServerOptions options;
  options.max_sessions_per_tenant = 2;
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Hello("team-a").ok());

  ASSERT_TRUE(client.CreateSession("a1", ExternalWireSpec(0)).ok());
  ASSERT_TRUE(client.CreateSession("a2", ExternalWireSpec(1)).ok());
  EXPECT_EQ(client.CreateSession("a3", ExternalWireSpec(2)).code(),
            StatusCode::kResourceExhausted);

  // A different tenant has its own budget.
  TuningClient other;
  ASSERT_TRUE(other.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(other.Hello("team-b").ok());
  ASSERT_TRUE(other.CreateSession("b1", ExternalWireSpec(3)).ok());

  // Closing releases the slot.
  ASSERT_TRUE(client.Close("a1").ok());
  ASSERT_TRUE(client.CreateSession("a3", ExternalWireSpec(2)).ok());
  server.Stop();
}

TEST(ServerTest, BackpressureAnswersBusy) {
  TuningServerOptions options;
  options.max_pending_requests = 0;  // admit nothing: every request is Busy
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  Status status = client.Ping();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_GE(server.busy_rejections(), 1);
  server.Stop();
}

TEST(ServerTest, IdleEvictionAutosavesAndResumeSavedContinuesExactly) {
  TuningServerOptions options;
  options.autosave_dir = FreshDir("evict");
  options.idle_eviction_ms = 150;
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Hello("team-a").ok());

  // Drive 5 rounds, then go idle past the eviction horizon.
  ASSERT_TRUE(client.CreateSession("job", ExternalWireSpec(3)).ok());
  for (int round = 0; round < 5; ++round) {
    Result<Trial> trial = client.Ask("job");
    ASSERT_TRUE(trial.ok());
    TrialResult result;
    result.trial_id = trial->id;
    result.value = ExternalMeasure(3, trial->config);
    ASSERT_TRUE(client.Tell("job", result).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server.RunMaintenance();
  EXPECT_EQ(server.sessions_evicted(), 1);
  EXPECT_GE(server.autosaves_written(), 1);
  EXPECT_EQ(client.GetStatus("job").status().code(),
            StatusCode::kSessionNotFound);

  // ResumeSaved revives the session from the pre-eviction autosave and
  // the continuation is bit-for-bit the uninterrupted run.
  ASSERT_TRUE(client.ResumeSaved("job").ok());
  Result<WireSessionStatus> revived = client.GetStatus("job");
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ(revived->status.iterations_run, 4);  // baseline + 4 counted
  DriveOverWire(client, "job", 3);
  Result<std::string> remote = client.Checkpoint("job");
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(Trajectory(*remote), Trajectory(ReferenceCheckpoint(3)));
  server.Stop();
}

TEST(ServerTest, StatusPollingDoesNotPreventEviction) {
  TuningServerOptions options;
  options.idle_eviction_ms = 100;
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.CreateSession("job", ExternalWireSpec(0)).ok());

  // Poll status well past the horizon: polling is not activity.
  for (int i = 0; i < 15; ++i) {
    client.GetStatus("job");
    client.Checkpoint("job");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.RunMaintenance();
  EXPECT_EQ(server.sessions_evicted(), 1);
  server.Stop();
}

TEST(ServerTest, PeriodicAutosaveSweepWritesFiles) {
  TuningServerOptions options;
  options.autosave_dir = FreshDir("autosave");
  options.autosave_interval_ms = 50;
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.CreateSession("job", ExternalWireSpec(2)).ok());

  std::string path = options.autosave_dir + "/" + EncodeBytes("job") +
                     ".autosave";
  struct stat sb;
  bool appeared = false;
  for (int i = 0; i < 300; ++i) {
    if (::stat(path.c_str(), &sb) == 0) {
      appeared = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(appeared);
  EXPECT_GE(server.autosaves_written(), 1);
  server.Stop();
}

TEST(ServerTest, StopIsSafeAgainstDoubleAndConcurrentInvocation) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.CreateSession("job", ExternalWireSpec(0)).ok());

  // Several threads race Stop(); exactly one tears down, the others
  // block until it finishes — every caller returns to a fully stopped
  // server, and nothing double-closes or double-joins.
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 3; ++i) {
    stoppers.emplace_back([&server] { server.Stop(); });
  }
  for (std::thread& t : stoppers) t.join();
  EXPECT_EQ(server.lifecycle(), ServerLifecycle::kStopped);
  EXPECT_FALSE(server.running());

  server.Stop();  // sequential double-Stop is a no-op
  EXPECT_EQ(server.lifecycle(), ServerLifecycle::kStopped);
}

TEST(ServerTest, RestartBindsSamePortAfterStop) {
  uint16_t port = 0;
  {
    TuningServer first;
    ASSERT_TRUE(first.Start().ok());
    port = first.port();
    TuningClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
    ASSERT_TRUE(client.Ping().ok());
    first.Stop();
  }
  // SO_REUSEADDR: a successor binds the drained predecessor's port
  // immediately, without waiting out TIME_WAIT.
  TuningServerOptions options;
  options.port = port;
  TuningServer second(options);
  ASSERT_TRUE(second.Start().ok());
  EXPECT_EQ(second.port(), port);
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  EXPECT_TRUE(client.Ping().ok());
  second.Stop();
}

TEST(ServerTest, DrainRefusesExpensiveAnswersCheapAndCompletesDrive) {
  TuningServerOptions server_options;
  server_options.autosave_dir = FreshDir("drain");
  TuningServer server(server_options);
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // A background drive whose every step stalls 50ms (eval.hang) keeps
  // the server measurably mid-work while we drain it.
  WireSessionSpec sim;
  sim.workload = "YCSB-A";
  sim.optimizer_key = "random";
  sim.adapter_key = "llamatune";
  sim.seed = 9;
  sim.num_iterations = 6;
  ASSERT_TRUE(client.CreateSession("bg", sim).ok());
  ASSERT_TRUE(FaultInjection::Configure("seed=1;eval.hang=p1"));
  ASSERT_TRUE(client.StartDrive("bg").ok());

  // Establish a connection (and get it accepted) before the drain
  // closes the listen socket.
  RawConn raw;
  ASSERT_TRUE(raw.Connect(server.port()));
  ASSERT_TRUE(raw.Send(EncodeFrame(MessageKind::kPing, "warm")));
  ASSERT_TRUE(raw.ReadFrame().ok());

  server.Drain();
  EXPECT_EQ(server.lifecycle(), ServerLifecycle::kDraining);
  EXPECT_FALSE(server.running());

  // Expensive work is refused with the typed shutdown error and a
  // usable retry-after hint (roughly the remaining drain window).
  ASSERT_TRUE(raw.Send(EncodeFrame(MessageKind::kAsk, EncodeNameOnly("bg"))));
  Result<Frame> refused = raw.ReadFrame();
  ASSERT_TRUE(refused.ok());
  ASSERT_EQ(refused->kind, MessageKind::kError);
  WireError code = WireError::kInternal;
  std::string message;
  int64_t retry_ms = 0;
  ASSERT_TRUE(DecodeError(refused->payload, &code, &message, &retry_ms).ok());
  EXPECT_EQ(code, WireError::kShuttingDown);
  EXPECT_GT(retry_ms, 0);

  // Cheap requests still answer: health reports the drain, a second
  // drain is an idempotent OK, and status polling keeps working.
  ASSERT_TRUE(raw.Send(EncodeFrame(MessageKind::kHealthCheck, "")));
  Result<Frame> health_reply = raw.ReadFrame();
  ASSERT_TRUE(health_reply.ok());
  ASSERT_EQ(health_reply->kind, MessageKind::kHealthReply);
  Result<WireServerHealth> health = DecodeHealthReply(health_reply->payload);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->lifecycle, ServerLifecycle::kDraining);

  ASSERT_TRUE(raw.Send(EncodeFrame(MessageKind::kDrain, "")));
  Result<Frame> again = raw.ReadFrame();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->kind, MessageKind::kOk);

  // Stop() finishes the drain: it waits for the drive to run to
  // completion (unstall it first), then runs the final durable
  // autosave sweep.
  FaultInjection::Reset();
  server.Stop();
  EXPECT_EQ(server.lifecycle(), ServerLifecycle::kStopped);
  EXPECT_GE(server.autosaves_written(), 1);

  // A successor on the same autosave dir proves the drive completed
  // *during* the drain: the startup sweep revives the session already
  // finished, with every iteration run.
  TuningServerOptions successor_options;
  successor_options.autosave_dir = server_options.autosave_dir;
  successor_options.resume_saved_on_start = true;
  TuningServer successor(successor_options);
  ASSERT_TRUE(successor.Start().ok());
  EXPECT_EQ(successor.sessions_restored(), 1);
  TuningClient reconnect;
  ASSERT_TRUE(reconnect.Connect("127.0.0.1", successor.port()).ok());
  Result<WireSessionStatus> revived = reconnect.GetStatus("bg");
  ASSERT_TRUE(revived.ok());
  EXPECT_TRUE(revived->status.finished);
  EXPECT_EQ(revived->status.iterations_run, 6);
  successor.Stop();
}

TEST(ServerTest, StopCompletesInFlightRequestBeforeTeardown) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  WireSessionSpec sim;
  sim.workload = "YCSB-A";
  sim.optimizer_key = "random";
  sim.adapter_key = "llamatune";
  sim.seed = 4;
  sim.num_iterations = 4;
  ASSERT_TRUE(client.CreateSession("slow", sim).ok());

  // A kStep whose measurement stalls 50ms is in flight when Stop()
  // lands; the drain completes it and its reply reaches the socket
  // before teardown closes anything.
  ASSERT_TRUE(FaultInjection::Configure("seed=1;eval.hang=p1"));
  RawConn raw;
  ASSERT_TRUE(raw.Connect(server.port()));
  // The server decrements its pending gauge *after* sending a reply,
  // so the CreateSession above may still be counted; wait for true
  // quiescence so the next pending request is unambiguously our step.
  for (int i = 0; i < 500 && server.Health().pending_requests != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(
      raw.Send(EncodeFrame(MessageKind::kStep, EncodeNameOnly("slow"))));
  for (int i = 0; i < 500 && server.Health().pending_requests == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  FaultInjection::Reset();

  Result<Frame> reply = raw.ReadFrame();
  ASSERT_TRUE(reply.ok());
  if (reply->kind == MessageKind::kError) {
    WireError code = WireError::kInternal;
    std::string message;
    DecodeError(reply->payload, &code, &message).ok();
    FAIL() << "got kError " << static_cast<int>(code) << ": " << message;
  }
  ASSERT_EQ(reply->kind, MessageKind::kSteppedReply);
  Result<bool> progressed = DecodeSteppedReply(reply->payload);
  ASSERT_TRUE(progressed.ok());
  EXPECT_TRUE(*progressed);
}

TEST(ServerTest, ForcedShedAnswersOverloadedWithRetryHint) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  RawConn raw;
  ASSERT_TRUE(raw.Connect(server.port()));
  ASSERT_TRUE(raw.Send(EncodeFrame(MessageKind::kPing, "warm")));
  ASSERT_TRUE(raw.ReadFrame().ok());

  // shed.force trips the expensive-budget check on the next expensive
  // admission, regardless of actual load.
  ASSERT_TRUE(FaultInjection::Configure("seed=1;shed.force=@0"));
  ASSERT_TRUE(
      raw.Send(EncodeFrame(MessageKind::kAsk, EncodeNameOnly("ghost"))));
  Result<Frame> shed = raw.ReadFrame();
  FaultInjection::Reset();
  ASSERT_TRUE(shed.ok());
  ASSERT_EQ(shed->kind, MessageKind::kError);
  WireError code = WireError::kInternal;
  std::string message;
  int64_t retry_ms = 0;
  ASSERT_TRUE(DecodeError(shed->payload, &code, &message, &retry_ms).ok());
  EXPECT_EQ(code, WireError::kOverloaded);
  EXPECT_GT(retry_ms, 0);
  EXPECT_GE(server.shed_overload(), 1);

  // The shed was per-request, not per-connection: the next request on
  // the same socket gets a normal (typed) answer.
  ASSERT_TRUE(
      raw.Send(EncodeFrame(MessageKind::kAsk, EncodeNameOnly("ghost"))));
  Result<Frame> normal = raw.ReadFrame();
  ASSERT_TRUE(normal.ok());
  ASSERT_EQ(normal->kind, MessageKind::kError);
  ASSERT_TRUE(DecodeError(normal->payload, &code, &message).ok());
  EXPECT_EQ(code, WireError::kSessionNotFound);
  server.Stop();
}

TEST(ServerTest, DeadlineShedDropsQueuedRequestBeforeDoingWork) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  RawConn raw;
  ASSERT_TRUE(raw.Connect(server.port()));
  ASSERT_TRUE(raw.Send(EncodeFrame(MessageKind::kPing, "warm")));
  ASSERT_TRUE(raw.ReadFrame().ok());

  // shed.deadline.force makes the dispatcher treat the next request as
  // dead on arrival (its caller's deadline passed while it queued).
  ASSERT_TRUE(FaultInjection::Configure("seed=1;shed.deadline.force=@0"));
  ASSERT_TRUE(raw.Send(EncodeFrame(MessageKind::kPing, "doomed")));
  Result<Frame> shed = raw.ReadFrame();
  FaultInjection::Reset();
  ASSERT_TRUE(shed.ok());
  ASSERT_EQ(shed->kind, MessageKind::kError);
  WireError code = WireError::kInternal;
  std::string message;
  int64_t retry_ms = 0;
  ASSERT_TRUE(DecodeError(shed->payload, &code, &message, &retry_ms).ok());
  EXPECT_EQ(code, WireError::kOverloaded);
  EXPECT_GT(retry_ms, 0);
  EXPECT_GE(server.shed_deadline(), 1);

  // A real (future) deadline rider is invisible to handlers: the same
  // request with a generous ddl answers normally.
  std::string payload = EncodeNameOnly("ghost");
  AppendDeadlineRider(&payload, 60000);
  ASSERT_TRUE(raw.Send(EncodeFrame(MessageKind::kAsk, payload)));
  Result<Frame> normal = raw.ReadFrame();
  ASSERT_TRUE(normal.ok());
  ASSERT_EQ(normal->kind, MessageKind::kError);
  ASSERT_TRUE(DecodeError(normal->payload, &code, &message).ok());
  EXPECT_EQ(code, WireError::kSessionNotFound);
  server.Stop();
}

TEST(ServerTest, FairShareAdmissionMath) {
  // Single tenant: never fair-share-shed, whatever the pressure.
  EXPECT_FALSE(TuningServer::FairShareExceeded(5, 1, 8, 8));
  // Below half the expensive budget there is headroom: bursts pass.
  EXPECT_FALSE(TuningServer::FairShareExceeded(5, 2, 8, 3));
  // Under pressure, a tenant at its share (cap/active) is shed...
  EXPECT_TRUE(TuningServer::FairShareExceeded(4, 2, 8, 4));
  // ...and one under it is not.
  EXPECT_FALSE(TuningServer::FairShareExceeded(3, 2, 8, 4));
  // Many tenants: the share floors at 1 in-flight each.
  EXPECT_TRUE(TuningServer::FairShareExceeded(1, 8, 8, 8));
  EXPECT_FALSE(TuningServer::FairShareExceeded(0, 8, 8, 8));
}

TEST(ServerTest, HealthAndStatsOverTheWire) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  TuningClient alpha;
  ASSERT_TRUE(alpha.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(alpha.Hello("alpha").ok());
  ASSERT_TRUE(alpha.CreateSession("a1", ExternalWireSpec(0)).ok());
  ASSERT_TRUE(alpha.CreateSession("a2", ExternalWireSpec(1)).ok());
  TuningClient beta;
  ASSERT_TRUE(beta.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(beta.Hello("beta").ok());
  ASSERT_TRUE(beta.CreateSession("b1", ExternalWireSpec(2)).ok());

  Result<WireServerHealth> health = alpha.HealthCheck();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->lifecycle, ServerLifecycle::kRunning);
  EXPECT_EQ(health->sessions, 3);

  Result<WireServerStats> stats = beta.ServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->lifecycle, ServerLifecycle::kRunning);
  EXPECT_EQ(stats->sessions, 3);
  EXPECT_EQ(stats->busy_rejections, server.busy_rejections());
  EXPECT_EQ(stats->shed_overload, server.shed_overload());
  EXPECT_EQ(stats->sessions_evicted, server.sessions_evicted());
  EXPECT_EQ(stats->autosaves_written, server.autosaves_written());
  EXPECT_EQ(stats->sessions_restored, server.sessions_restored());
  ASSERT_EQ(stats->tenant_sessions.size(), 2u);
  EXPECT_EQ(stats->tenant_sessions[0].first, "alpha");
  EXPECT_EQ(stats->tenant_sessions[0].second, 2);
  EXPECT_EQ(stats->tenant_sessions[1].first, "beta");
  EXPECT_EQ(stats->tenant_sessions[1].second, 1);
  server.Stop();
}

TEST(ServerTest, ListSessionsOverWire) {
  TuningServer server;
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.CreateSession("a", ExternalWireSpec(0)).ok());
  ASSERT_TRUE(client.CreateSession("b", ExternalWireSpec(1)).ok());
  Result<std::vector<WireSessionStatus>> list = client.ListSessions();
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[0].status.name, "a");
  EXPECT_EQ((*list)[1].status.name, "b");
  server.Stop();
}

// ---------------------------------------------------------------------------
// Golden WAL records: the literal lines every wire operation appends to a
// session's trial WAL, and a literal autosave + WAL pair that must keep
// resuming to a literal trajectory. A deliberate grammar change refreshes
// the literals with
//
//   LLAMATUNE_PRINT_GOLDEN=1 ./server_test --gtest_filter='ServerWalGolden*'
// ---------------------------------------------------------------------------

std::string WalFile(const std::string& dir, const std::string& name) {
  return dir + "/" + EncodeBytes(name) + ".wal";
}

void ExpectWalRecords(const std::string& path,
                      const std::vector<std::string>& expected) {
  Result<std::vector<std::string>> records = service::TrialWal::ReadRecords(path);
  ASSERT_TRUE(records.ok());
  if (std::getenv("LLAMATUNE_PRINT_GOLDEN") != nullptr) {
    std::printf("// %s\n", path.c_str());
    for (const std::string& record : *records) {
      std::printf("\"%s\",\n", record.c_str());
    }
  }
  EXPECT_EQ(*records, expected);
}

TrialResult Measured(int job, const Trial& trial) {
  TrialResult result;
  result.trial_id = trial.id;
  result.value = ExternalMeasure(job, trial.config);
  return result;
}

TEST(ServerWalGoldenTest, WireOperationsAppendLiteralRecords) {
  TuningServerOptions options;
  options.autosave_dir = FreshDir("walgolden");
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // ask1 / tell / expire. The baseline never expires, so trial 2 is the
  // only trial the sweep can expire, whichever sweep gets there first.
  // The frozen autosave keeps the sweep from truncating the log.
  WireSessionSpec expiring = ExternalWireSpec(0);
  expiring.pending_deadline_ms = 1;
  ASSERT_TRUE(client.CreateSession("expiring", expiring).ok());
  Result<Trial> baseline = client.Ask("expiring");
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(client.Tell("expiring", Measured(0, *baseline)).ok());
  Result<Trial> doomed = client.Ask("expiring");
  ASSERT_TRUE(doomed.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(FaultInjection::Configure("autosave.torn=p1"));
  server.RunMaintenance();
  FaultInjection::Reset();
  EXPECT_EQ(client.Tell("expiring", Measured(0, *doomed)).code(),
            StatusCode::kTrialExpired);
  ExpectWalRecords(
      WalFile(options.autosave_dir, "expiring"),
      {
          "ask1 1",
          "tell x726573756c74203120302034303838333830303030303030303030206d6574"
          "726963732030",
          "ask1 2",
          "expire 2",
      });

  // askb records the requested size; a batch tell logs one record per
  // result.
  WireSessionSpec batched = ExternalWireSpec(1);
  batched.batch_size = 3;
  ASSERT_TRUE(client.CreateSession("batched", batched).ok());
  Result<std::vector<Trial>> first = client.AskBatch("batched", 3);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 1u);
  ASSERT_TRUE(client.TellBatch("batched", {Measured(1, (*first)[0])}).ok());
  Result<std::vector<Trial>> second = client.AskBatch("batched", 3);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), 3u);
  ASSERT_TRUE(client
                  .TellBatch("batched", {Measured(1, (*second)[0]),
                                         Measured(1, (*second)[1])})
                  .ok());
  ExpectWalRecords(
      WalFile(options.autosave_dir, "batched"),
      {
          "askb 3 1",
          "tell x726573756c74203120302034303862396237306133643730613364206d6574"
          "726963732030",
          "askb 3 2",
          "tell x726573756c74203220302034303739396133326161613930636532206d6574"
          "726963732030",
          "tell x726573756c74203320302034303861303363653662306433626464206d6574"
          "726963732030",
      });

  // step records the iterations run before the step.
  WireSessionSpec sim;
  sim.workload = "YCSB-A";
  sim.optimizer_key = "random";
  sim.adapter_key = "llamatune";
  sim.seed = 5;
  sim.num_iterations = 6;
  ASSERT_TRUE(client.CreateSession("sim", sim).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.Step("sim").ok());
  // The first step runs the baseline, which is not a counted iteration.
  ExpectWalRecords(WalFile(options.autosave_dir, "sim"),
                   {"step 0", "step 0", "step 1"});
  server.Stop();
}

TEST(ServerWalGoldenTest, LiteralAutosaveAndWalResumeToLiteralTrajectory) {
  // Written by a server whose session "golden" (ExternalWireSpec(4),
  // tenant "team-g") ran three rounds, was autosaved with trial 4
  // pending (so the log kept every record), then ran two more rounds
  // and asked trial 6.
  const std::string autosave =
      "specdoc spec 3 workload x knobs 2 knob name x63616368655f6d62 type 0 "
      "min 0000000000000000 max 4059000000000000 log 0 default "
      "4049000000000000 cats 0 specials 0 unit x knob name "
      "x7461726765745f726174696f type 1 min 0000000000000000 max "
      "3ff0000000000000 log 0 default 3fe0000000000000 cats 0 specials 0 "
      "unit x maximize 1 optimizer x72616e646f6d adapter x6964656e74697479 "
      "seed 104 iterations 12 batch 1 threads 0 deadline 0 racing 0 tenant "
      "x7465616d2d67\n"
      "llamatune-checkpoint v3\n"
      "maximize 1\n"
      "options 12 1 4010000000000000 4010000000000000 4010000000000000 0 0 "
      "racing 0\n"
      "state 2 3efd512f80000000\n"
      "baseline 1 4090fab851eb851e 0\n"
      "objective 0\n"
      "clones -1\n"
      "rounds 3\n"
      "round D 1 1\n"
      "round S 1 1\n"
      "told 0 4086536b56171193 0\n"
      "round S 1 1\n"
      "told 0 408b45ea9eac974c 0\n"
      "history 2\n"
      "obs 2 3fef0a3d70a3d70a 3fc285652cbd5bdf 4086536b56171193\n"
      "obs 2 3fe8f5c28f5c28f6 3fc8517a60ca651c 408b45ea9eac974c\n"
      "end\n";
  const std::string wal =
      "ask1 1\n"
      "tell x726573756c74203120302034303930666162383531656238353165206d65747269"
      "63732030\n"
      "ask1 2\n"
      "tell x726573756c74203220302034303836353336623536313731313933206d65747269"
      "63732030\n"
      "ask1 3\n"
      "tell x726573756c74203320302034303862343565613965616339373463206d65747269"
      "63732030\n"
      "ask1 4\n"
      "tell x726573756c74203420302034303838613363613737313662333763206d65747269"
      "63732030\n"
      "ask1 5\n"
      "tell x726573756c74203520302034303863386635343339383835343938206d65747269"
      "63732030\n"
      "ask1 6\n";
  const std::string expected_trajectory =
      "llamatune-checkpoint v3\n"
      "maximize 1\n"
      "options 12 1 4010000000000000 4010000000000000 4010000000000000 0 0 "
      "racing 0\n"
      "state 4 <wall-clock>\n"
      "baseline 1 4090fab851eb851e 0\n"
      "objective 0\n"
      "clones -1\n"
      "rounds 5\n"
      "round D 1 1\n"
      "round S 1 1\n"
      "told 0 4086536b56171193 0\n"
      "round S 1 1\n"
      "told 0 408b45ea9eac974c 0\n"
      "round S 1 1\n"
      "told 0 4088a3ca7716b37c 0\n"
      "round S 1 1\n"
      "told 0 408c8f5439885498 0\n"
      "history 4\n"
      "obs 2 3fef0a3d70a3d70a 3fc285652cbd5bdf 4086536b56171193\n"
      "obs 2 3fe8f5c28f5c28f6 3fc8517a60ca651c 408b45ea9eac974c\n"
      "obs 2 3fed1eb851eb851f 3fc6f9dc08e914d7 4088a3ca7716b37c\n"
      "obs 2 3feccccccccccccd 3febd4be1f94c631 408c8f5439885498\n"
      "end\n";

  TuningServerOptions options;
  options.autosave_dir = FreshDir("walpair");
  const std::string stem = options.autosave_dir + "/" + EncodeBytes("golden");
  ASSERT_TRUE(AtomicWriteFile(stem + ".autosave", autosave).ok());
  ASSERT_TRUE(AtomicWriteFile(stem + ".wal", wal).ok());
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Hello("team-g").ok());
  ASSERT_TRUE(client.ResumeSaved("golden").ok());

  // Records 1-3 are inside the checkpoint (skipped, or AlreadyExists),
  // 4 and 5 re-issue at the cursor, and trial 6 is pending again.
  Result<std::string> checkpoint = client.Checkpoint("golden");
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(Trajectory(*checkpoint), expected_trajectory);
  int64_t next_id = 0;
  Result<std::vector<Trial>> pending = client.GetPending("golden", &next_id);
  ASSERT_TRUE(pending.ok());
  ASSERT_EQ(pending->size(), 1u);
  EXPECT_EQ((*pending)[0].id, 6);
  EXPECT_EQ(next_id, 7);
  server.Stop();
}

WireSessionSpec SimWireSpec() {
  WireSessionSpec spec;
  spec.workload = "YCSB-A";
  spec.optimizer_key = "random";
  spec.adapter_key = "llamatune";
  spec.seed = 5;
  spec.num_iterations = 6;
  return spec;
}

/// Trajectory of an in-process TuningService::Drive of SimWireSpec().
std::string DrivenSimTrajectory() {
  TuningService reference;
  SessionSpec spec;
  spec.workload = *dbsim::WorkloadByName("YCSB-A");
  spec.optimizer_key = "random";
  spec.adapter_key = "llamatune";
  spec.seed = 5;
  spec.num_iterations = 6;
  EXPECT_TRUE(reference.CreateSession("ref", spec).ok());
  EXPECT_TRUE(reference.Drive("ref").ok());
  Result<std::string> checkpoint = reference.Checkpoint("ref");
  EXPECT_TRUE(checkpoint.ok());
  return checkpoint.ok() ? Trajectory(*checkpoint) : std::string();
}

TEST(ServerTest, BackgroundDriveStepsAreWalLoggedAndReplayed) {
  TuningServerOptions options;
  options.autosave_dir = FreshDir("drivewal");
  {
    TuningServer server(options);
    ASSERT_TRUE(server.Start().ok());
    TuningClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(client.CreateSession("sim", SimWireSpec()).ok());
    server.RunMaintenance();  // the autosave holds zero iterations
    // Freeze the autosave: from here on the drive lives only in the WAL,
    // including through the final autosave sweep of Stop().
    ASSERT_TRUE(FaultInjection::Configure("autosave.torn=p1"));
    ASSERT_TRUE(client.StartDrive("sim").ok());
    for (int i = 0; i < 3000; ++i) {
      Result<WireSessionStatus> status = client.GetStatus("sim");
      ASSERT_TRUE(status.ok());
      if (status->status.finished && !status->driving) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    server.Stop();
    FaultInjection::Reset();
  }
  options.resume_saved_on_start = true;
  TuningServer successor(options);
  ASSERT_TRUE(successor.Start().ok());
  EXPECT_EQ(successor.sessions_restored(), 1);
  TuningClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", successor.port()).ok());
  Result<std::string> recovered = client.Checkpoint("sim");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Trajectory(*recovered), DrivenSimTrajectory());
  successor.Stop();
}

TEST(ServerTest, TellBatchWithNaNBuffersNothingWithOrWithoutWal) {
  for (bool with_wal : {false, true}) {
    SCOPED_TRACE(with_wal ? "with autosave_dir" : "without autosave_dir");
    TuningServerOptions options;
    if (with_wal) options.autosave_dir = FreshDir("nanbatch");
    TuningServer server(options);
    ASSERT_TRUE(server.Start().ok());
    TuningClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    WireSessionSpec spec = ExternalWireSpec(2);
    spec.batch_size = 3;
    ASSERT_TRUE(client.CreateSession("job", spec).ok());
    Result<std::vector<Trial>> first = client.AskBatch("job", 3);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(client.TellBatch("job", {Measured(2, (*first)[0])}).ok());
    Result<std::vector<Trial>> batch = client.AskBatch("job", 3);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), 3u);

    TrialResult bad = Measured(2, (*batch)[1]);
    bad.value = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(client.TellBatch("job", {Measured(2, (*batch)[0]), bad}).code(),
              StatusCode::kInvalidArgument);
    if (with_wal) {
      // Nothing was told, so nothing was logged: the one tell record
      // is the baseline's.
      Result<std::vector<std::string>> records =
          service::TrialWal::ReadRecords(options.autosave_dir + "/" +
                                         EncodeBytes("job") + ".wal");
      ASSERT_TRUE(records.ok());
      ASSERT_EQ(records->size(), 3u);
      EXPECT_EQ((*records)[2], "askb 3 2");
    }
    // Nothing was buffered, so slot 0 is still open for its result.
    EXPECT_TRUE(client.Tell("job", Measured(2, (*batch)[0])).ok());
    server.Stop();
  }
}


// A Close racing a same-named CreateSession from another tenant: the
// close is held after the service freed the name and before the server
// dropped its meta, and the create lands in between. The close may
// drop only the meta it looked up, so the new session keeps its tenant
// slot, its files, its autosave and its drive.
TEST(ServerTest, CloseRacingASameNamedCreateKeepsTheNewSessionsBookkeeping) {
  TuningServerOptions options;
  options.autosave_dir = FreshDir("closerace");
  options.max_sessions_per_tenant = 1;
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TuningClient closer;
  TuningClient creator;
  ASSERT_TRUE(closer.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(creator.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(closer.Hello("team-a").ok());
  ASSERT_TRUE(creator.Hello("team-b").ok());
  ASSERT_TRUE(closer.CreateSession("job", ExternalWireSpec(0)).ok());

  ASSERT_TRUE(FaultInjection::Configure("close.pause=@0"));
  Status closed;
  std::thread closing([&] { closed = closer.Close("job").status(); });
  for (int i = 0; i < 5000 && FaultInjection::FireCount("close.pause") == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(FaultInjection::FireCount("close.pause"), 1u);
  Status created = creator.CreateSession("job", SimWireSpec());
  FaultInjection::Reset();  // releases the held close
  closing.join();
  ASSERT_TRUE(closed.ok()) << closed.ToString();
  ASSERT_TRUE(created.ok()) << created.ToString();

  // The per-tenant counts equal the live sessions, and team-a's slot
  // is free again.
  Result<WireServerStats> stats = creator.ServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->sessions, 1);
  EXPECT_EQ(stats->tenant_sessions,
            (std::vector<std::pair<std::string, int64_t>>{{"team-b", 1}}));
  EXPECT_TRUE(closer.CreateSession("other", ExternalWireSpec(1)).ok());

  // The surviving session drives to the end and autosaves as team-b's.
  ASSERT_TRUE(creator.StartDrive("job").ok());
  for (int i = 0; i < 3000; ++i) {
    Result<WireSessionStatus> status = creator.GetStatus("job");
    ASSERT_TRUE(status.ok());
    if (status->status.finished && !status->driving) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const int64_t written = server.autosaves_written();
  server.RunMaintenance();
  EXPECT_EQ(server.autosaves_written(), written + 1);
  Result<std::string> autosave = ReadFile(options.autosave_dir + "/" +
                                          EncodeBytes("job") + ".autosave");
  ASSERT_TRUE(autosave.ok());
  EXPECT_NE(autosave->find(" tenant x" + EncodeBytes("team-b") + "\n"),
            std::string::npos);
  EXPECT_NE(autosave->find("rounds 7\n"), std::string::npos);
  server.Stop();
}


// A session recovered with an empty log is not rewritten by the next
// sweep, unless a ResumeSaved by another tenant took it over: then the
// sweep moves the tenant token in its autosave to the new owner, so a
// hot restart after a crash charges the same tenant.
TEST(ServerTest, SweepRewritesOnlyAResumedAutosaveWhoseTenantChanged) {
  TuningServerOptions options;
  options.autosave_dir = FreshDir("retoken");
  const std::string path =
      options.autosave_dir + "/" + EncodeBytes("job") + ".autosave";
  {
    TuningServer server(options);
    ASSERT_TRUE(server.Start().ok());
    TuningClient owner;
    ASSERT_TRUE(owner.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(owner.Hello("team-a").ok());
    ASSERT_TRUE(owner.CreateSession("job", ExternalWireSpec(0)).ok());
    ASSERT_TRUE(owner.CreateSession("kept", ExternalWireSpec(1)).ok());
    server.Stop();
  }
  TuningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TuningClient same, other;
  ASSERT_TRUE(same.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(other.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(same.Hello("team-a").ok());
  ASSERT_TRUE(other.Hello("team-b").ok());
  ASSERT_TRUE(same.ResumeSaved("kept").ok());
  ASSERT_TRUE(other.ResumeSaved("job").ok());
  server.RunMaintenance();
  EXPECT_EQ(server.autosaves_written(), 1);
  Result<std::string> autosave = ReadFile(path);
  ASSERT_TRUE(autosave.ok());
  EXPECT_NE(autosave->find(" tenant x" + EncodeBytes("team-b") + "\n"),
            std::string::npos);
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace llamatune
