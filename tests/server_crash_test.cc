// Crash/kill/resume and drain/restart integration tests: fork the
// serve_remote example as a real server process, drive sessions over
// the wire, then take the process down two ways —
//
//  * SIGKILL (no shutdown path runs — only the periodic autosave can
//    have persisted state), restart, ResumeSaved;
//  * graceful drain (SIGTERM or a wire kDrain): the dying server
//    itself finishes in-flight work, durably autosaves every session
//    and exits 0, and a successor with --resume-on-start revives them
//    without any client-side recovery call.
//
// Either way the continuation must be bit-for-bit the uninterrupted
// run.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/serde.h"
#include "src/knobs/config_space.h"
#include "src/net/tuning_client.h"
#include "src/service/tuning_service.h"

namespace llamatune {
namespace net {
namespace {

double ExternalMeasure(const Configuration& config) {
  double x = config[0] / 100.0;
  double y = config[1];
  return 1000.0 - 900.0 * ((x - 0.44) * (x - 0.44) + (y - 0.69) * (y - 0.69));
}

std::vector<KnobSpec> TestKnobs() {
  return {IntegerKnob("cache_mb", 0, 100, 50),
          RealKnob("target_ratio", 0.0, 1.0, 0.5)};
}

WireSessionSpec CrashWireSpec() {
  WireSessionSpec spec;
  spec.space_knobs = TestKnobs();
  spec.optimizer_key = "random";
  spec.adapter_key = "identity";
  spec.seed = 4242;
  spec.num_iterations = 16;
  return spec;
}

WireSessionSpec DrainWireSpec(uint64_t seed, int num_iterations) {
  WireSessionSpec spec;
  spec.space_knobs = TestKnobs();
  spec.optimizer_key = "random";
  spec.adapter_key = "identity";
  spec.seed = seed;
  spec.num_iterations = num_iterations;
  return spec;
}

void DriveRounds(TuningClient& client, const std::string& name, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    Result<Trial> trial = client.Ask(name);
    ASSERT_TRUE(trial.ok()) << trial.status().ToString();
    TrialResult result;
    result.trial_id = trial->id;
    result.value = ExternalMeasure(trial->config);
    ASSERT_TRUE(client.Tell(name, result).ok());
  }
}

void DriveOut(TuningClient& client, const std::string& name) {
  for (;;) {
    Result<Trial> trial = client.Ask(name);
    if (!trial.ok()) break;  // budget exhausted
    TrialResult result;
    result.trial_id = trial->id;
    result.value = ExternalMeasure(trial->config);
    ASSERT_TRUE(client.Tell(name, result).ok());
  }
}

/// The never-interrupted reference: the same spec driven in-process.
/// Returns the raw checkpoint; run it through Trajectory() to compare.
std::string UninterruptedCheckpoint(uint64_t seed, int num_iterations) {
  ConfigSpace space = *ConfigSpace::Create(TestKnobs());
  service::TuningService reference;
  service::SessionSpec spec;
  spec.space = &space;
  spec.optimizer_key = "random";
  spec.adapter_key = "identity";
  spec.seed = seed;
  spec.num_iterations = num_iterations;
  EXPECT_TRUE(reference.CreateSession("ref", spec).ok());
  for (;;) {
    Result<Trial> trial = reference.Ask("ref");
    if (!trial.ok()) break;
    TrialResult result;
    result.trial_id = trial->id;
    result.value = ExternalMeasure(trial->config);
    EXPECT_TRUE(reference.Tell("ref", result).ok());
  }
  Result<std::string> checkpoint = reference.Checkpoint("ref");
  EXPECT_TRUE(checkpoint.ok());
  return checkpoint.ok() ? *checkpoint : std::string();
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

class ServerProcess {
 public:
  /// Forks serve_remote --serve on an ephemeral port (unless
  /// `extra_args` pins one with --port). Returns the bound port via
  /// the port-file handshake, or -1. `faults`, when non-empty, arms
  /// the child's fault-injection registry through the LLAMATUNE_FAULTS
  /// environment variable.
  int Launch(const std::string& bin, const std::string& autosave_dir,
             const std::string& port_file, const std::string& faults = "",
             const std::vector<std::string>& extra_args = {}) {
    ::unlink(port_file.c_str());
    pid_ = ::fork();
    if (pid_ == 0) {
      if (!faults.empty()) {
        ::setenv("LLAMATUNE_FAULTS", faults.c_str(), 1);
      } else {
        ::unsetenv("LLAMATUNE_FAULTS");
      }
      std::vector<std::string> args = {bin,
                                       "--serve",
                                       "--port-file",
                                       port_file,
                                       "--autosave-dir",
                                       autosave_dir,
                                       "--autosave-interval-ms",
                                       "25"};
      bool port_pinned = false;
      for (const std::string& arg : extra_args) {
        if (arg == "--port") port_pinned = true;
        args.push_back(arg);
      }
      if (!port_pinned) {
        args.push_back("--port");
        args.push_back("0");
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& arg : args) argv.push_back(&arg[0]);
      argv.push_back(nullptr);
      ::execv(bin.c_str(), argv.data());
      _exit(127);  // exec failed
    }
    if (pid_ < 0) return -1;
    for (int i = 0; i < 1000; ++i) {
      FILE* in = std::fopen(port_file.c_str(), "r");
      if (in != nullptr) {
        int port = -1;
        if (std::fscanf(in, "%d", &port) != 1) port = -1;
        std::fclose(in);
        if (port > 0) return port;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }

  void Kill9() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }

  /// Waits (bounded) for the child to exit of its own accord. True iff
  /// it exited — was not signaled — with status 0. A child still alive
  /// at the timeout is SIGKILLed and reported as failure.
  bool WaitExit(int64_t timeout_ms = 15000) {
    if (pid_ <= 0) return false;
    for (int64_t waited = 0; waited < timeout_ms; waited += 10) {
      int status = 0;
      pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    Kill9();
    return false;
  }

  /// The graceful path: SIGTERM, then the clean-exit-0 wait.
  bool Terminate(int64_t timeout_ms = 15000) {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    return WaitExit(timeout_ms);
  }

  ~ServerProcess() { Kill9(); }

 private:
  pid_t pid_ = -1;
};

TEST(ServerCrashTest, Kill9ThenResumeSavedMatchesUninterruptedRun) {
#ifndef LLAMATUNE_SERVE_REMOTE_BIN
  GTEST_SKIP() << "serve_remote example not built";
#else
  const std::string bin = LLAMATUNE_SERVE_REMOTE_BIN;
  struct stat sb;
  if (::stat(bin.c_str(), &sb) != 0) {
    GTEST_SKIP() << "serve_remote binary missing at " << bin;
  }
  const std::string dir = ::testing::TempDir() + "llamatune-crash-" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const std::string port_file = dir + "/port";
  const std::string autosave =
      dir + "/" + EncodeBytes("crash-job") + ".autosave";

  // --- Phase 1: drive half the budget against a live server.
  ServerProcess first;
  int port = first.Launch(bin, dir, port_file);
  ASSERT_GT(port, 0) << "server did not come up";

  TuningClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", static_cast<uint16_t>(port)).ok());
  ASSERT_TRUE(client.Hello("crash-tenant").ok());
  ASSERT_TRUE(client.CreateSession("crash-job", CrashWireSpec()).ok());
  for (int round = 0; round < 8; ++round) {
    Result<Trial> trial = client.Ask("crash-job");
    ASSERT_TRUE(trial.ok()) << trial.status().ToString();
    TrialResult result;
    result.trial_id = trial->id;
    result.value = ExternalMeasure(trial->config);
    ASSERT_TRUE(client.Tell("crash-job", result).ok());
  }
  // Wait until the autosave sweep has captured all 8 rounds: the file
  // must exist AND its checkpoint must be the current one.
  Result<std::string> at_kill = client.Checkpoint("crash-job");
  ASSERT_TRUE(at_kill.ok());
  bool captured = false;
  for (int i = 0; i < 1000 && !captured; ++i) {
    FILE* in = std::fopen(autosave.c_str(), "r");
    if (in != nullptr) {
      std::string content;
      char buf[4096];
      size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
        content.append(buf, n);
      }
      std::fclose(in);
      captured = content.find(*at_kill) != std::string::npos;
    }
    if (!captured) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(captured) << "autosave never caught up before the kill";

  // --- The crash: SIGKILL, no graceful shutdown of any kind.
  first.Kill9();
  client.Disconnect();

  // --- Phase 2: new server process, same autosave dir, resume.
  ServerProcess second;
  port = second.Launch(bin, dir, port_file);
  ASSERT_GT(port, 0) << "restarted server did not come up";
  TuningClient revived;
  ASSERT_TRUE(
      revived.Connect("127.0.0.1", static_cast<uint16_t>(port)).ok());
  ASSERT_TRUE(revived.Hello("crash-tenant").ok());
  Status resumed = revived.ResumeSaved("crash-job");
  ASSERT_TRUE(resumed.ok()) << resumed.ToString();

  Result<WireSessionStatus> status = revived.GetStatus("crash-job");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->status.iterations_run, 7);  // baseline + 7 counted

  for (;;) {
    Result<Trial> trial = revived.Ask("crash-job");
    if (!trial.ok()) break;
    TrialResult result;
    result.trial_id = trial->id;
    result.value = ExternalMeasure(trial->config);
    ASSERT_TRUE(revived.Tell("crash-job", result).ok());
  }
  Result<std::string> after_crash = revived.Checkpoint("crash-job");
  ASSERT_TRUE(after_crash.ok());
  second.Kill9();

  // --- Reference: the same session never interrupted, in-process.
  ConfigSpace space = *ConfigSpace::Create(TestKnobs());
  service::TuningService reference;
  service::SessionSpec spec;
  spec.space = &space;
  spec.optimizer_key = "random";
  spec.adapter_key = "identity";
  spec.seed = 4242;
  spec.num_iterations = 16;
  ASSERT_TRUE(reference.CreateSession("ref", spec).ok());
  for (;;) {
    Result<Trial> trial = reference.Ask("ref");
    if (!trial.ok()) break;
    TrialResult result;
    result.trial_id = trial->id;
    result.value = ExternalMeasure(trial->config);
    ASSERT_TRUE(reference.Tell("ref", result).ok());
  }
  Result<std::string> uninterrupted = reference.Checkpoint("ref");
  ASSERT_TRUE(uninterrupted.ok());

  // The pin: kill -9 plus autosave-based resume loses nothing — the
  // final trajectory is byte-identical to never having crashed.
  EXPECT_EQ(Trajectory(*after_crash), Trajectory(*uninterrupted));
#endif
}

// SIGKILL before any autosave sweep: the server runs with the default
// --autosave-interval-ms of 0, so no sweep ever runs. CreateSession
// wrote the autosave durably before it replied, so the successor's
// ResumeSaved replays every acknowledged round from the WAL on top of
// it.
TEST(ServerCrashTest, Kill9BeforeAnySweepRecoversEveryAcknowledgedRound) {
#ifndef LLAMATUNE_SERVE_REMOTE_BIN
  GTEST_SKIP() << "serve_remote example not built";
#else
  const std::string bin = LLAMATUNE_SERVE_REMOTE_BIN;
  struct stat sb;
  if (::stat(bin.c_str(), &sb) != 0) {
    GTEST_SKIP() << "serve_remote binary missing at " << bin;
  }
  const std::string dir = ::testing::TempDir() + "llamatune-early-" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const std::string port_file = dir + "/port";
  const std::vector<std::string> no_sweep = {"--autosave-interval-ms", "0"};

  ServerProcess first;
  int port = first.Launch(bin, dir, port_file, "", no_sweep);
  ASSERT_GT(port, 0) << "server did not come up";
  TuningClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", static_cast<uint16_t>(port)).ok());
  ASSERT_TRUE(client.Hello("early-tenant").ok());
  ASSERT_TRUE(client.CreateSession("early", CrashWireSpec()).ok());
  DriveRounds(client, "early", 4);
  Result<std::string> at_kill = client.Checkpoint("early");
  ASSERT_TRUE(at_kill.ok());
  first.Kill9();
  client.Disconnect();

  ServerProcess second;
  port = second.Launch(bin, dir, port_file, "", no_sweep);
  ASSERT_GT(port, 0) << "restarted server did not come up";
  TuningClient revived;
  ASSERT_TRUE(
      revived.Connect("127.0.0.1", static_cast<uint16_t>(port)).ok());
  ASSERT_TRUE(revived.Hello("early-tenant").ok());
  Status resumed = revived.ResumeSaved("early");
  ASSERT_TRUE(resumed.ok()) << resumed.ToString();
  Result<std::string> recovered = revived.Checkpoint("early");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Trajectory(*recovered), Trajectory(*at_kill));
  Result<WireSessionStatus> status = revived.GetStatus("early");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->status.iterations_run, 3);  // baseline + 3 counted

  DriveOut(revived, "early");
  Result<std::string> final_run = revived.Checkpoint("early");
  ASSERT_TRUE(final_run.ok());
  second.Kill9();
  EXPECT_EQ(Trajectory(*final_run),
            Trajectory(UninterruptedCheckpoint(4242, 16)));
#endif
}

// SIGKILL *between* autosaves: rounds committed after the last durable
// snapshot exist only in the per-tell WAL, and ResumeSaved must replay
// that tail on top of the stale autosave — recovering every committed
// round, not just the snapshotted ones.
TEST(ServerCrashTest, Kill9BetweenAutosavesRecoversTailFromWal) {
#ifndef LLAMATUNE_SERVE_REMOTE_BIN
  GTEST_SKIP() << "serve_remote example not built";
#else
  const std::string bin = LLAMATUNE_SERVE_REMOTE_BIN;
  struct stat sb;
  if (::stat(bin.c_str(), &sb) != 0) {
    GTEST_SKIP() << "serve_remote binary missing at " << bin;
  }
  const std::string dir = ::testing::TempDir() + "llamatune-walcrash-" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const std::string port_file = dir + "/port";
  const std::string autosave =
      dir + "/" + EncodeBytes("wal-job") + ".autosave";

  auto drive_rounds = [](TuningClient& client, const std::string& name,
                         int rounds) {
    for (int round = 0; round < rounds; ++round) {
      Result<Trial> trial = client.Ask(name);
      ASSERT_TRUE(trial.ok()) << trial.status().ToString();
      TrialResult result;
      result.trial_id = trial->id;
      result.value = ExternalMeasure(trial->config);
      ASSERT_TRUE(client.Tell(name, result).ok());
    }
  };

  // --- Phase 1: 4 rounds, wait until the autosave captures them.
  ServerProcess first;
  int port = first.Launch(bin, dir, port_file);
  ASSERT_GT(port, 0) << "server did not come up";
  TuningClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", static_cast<uint16_t>(port)).ok());
  ASSERT_TRUE(client.CreateSession("wal-job", CrashWireSpec()).ok());
  drive_rounds(client, "wal-job", 4);
  Result<std::string> phase1 = client.Checkpoint("wal-job");
  ASSERT_TRUE(phase1.ok());
  bool captured = false;
  for (int i = 0; i < 1000 && !captured; ++i) {
    FILE* in = std::fopen(autosave.c_str(), "r");
    if (in != nullptr) {
      std::string content;
      char buf[4096];
      size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
        content.append(buf, n);
      }
      std::fclose(in);
      captured = content.find(*phase1) != std::string::npos;
    }
    if (!captured) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(captured) << "autosave never caught up";
  first.Kill9();
  client.Disconnect();

  // --- Phase 2: resume on a server whose every autosave write is
  // torn mid-file (LLAMATUNE_FAULTS). The durable snapshot stays
  // frozen at phase 1 while 4 more rounds commit — those rounds live
  // only in the fsync'd WAL when SIGKILL lands.
  ServerProcess torn;
  port = torn.Launch(bin, dir, port_file, "autosave.torn=p1");
  ASSERT_GT(port, 0) << "torn-autosave server did not come up";
  TuningClient mid;
  ASSERT_TRUE(mid.Connect("127.0.0.1", static_cast<uint16_t>(port)).ok());
  ASSERT_TRUE(mid.ResumeSaved("wal-job").ok());
  drive_rounds(mid, "wal-job", 4);
  Result<std::string> at_kill = mid.Checkpoint("wal-job");
  ASSERT_TRUE(at_kill.ok());
  EXPECT_NE(Trajectory(*at_kill), Trajectory(*phase1));
  torn.Kill9();
  mid.Disconnect();

  // The autosave on disk must still be the phase-1 snapshot: the torn
  // writes never replaced it.
  {
    FILE* in = std::fopen(autosave.c_str(), "r");
    ASSERT_NE(in, nullptr);
    std::string content;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
      content.append(buf, n);
    }
    std::fclose(in);
    EXPECT_NE(content.find(*phase1), std::string::npos);
    EXPECT_EQ(content.find(*at_kill), std::string::npos);
  }

  // --- Phase 3: clean restart. ResumeSaved = stale autosave + WAL
  // tail; the revived session must sit exactly where the kill left it.
  ServerProcess third;
  port = third.Launch(bin, dir, port_file);
  ASSERT_GT(port, 0) << "restarted server did not come up";
  TuningClient revived;
  ASSERT_TRUE(
      revived.Connect("127.0.0.1", static_cast<uint16_t>(port)).ok());
  Status resumed = revived.ResumeSaved("wal-job");
  ASSERT_TRUE(resumed.ok()) << resumed.ToString();
  Result<std::string> recovered = revived.Checkpoint("wal-job");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Trajectory(*recovered), Trajectory(*at_kill));

  // Drive out the budget and pin against the uninterrupted run.
  for (;;) {
    Result<Trial> trial = revived.Ask("wal-job");
    if (!trial.ok()) break;
    TrialResult result;
    result.trial_id = trial->id;
    result.value = ExternalMeasure(trial->config);
    ASSERT_TRUE(revived.Tell("wal-job", result).ok());
  }
  Result<std::string> final_run = revived.Checkpoint("wal-job");
  ASSERT_TRUE(final_run.ok());
  third.Kill9();

  ConfigSpace space = *ConfigSpace::Create(TestKnobs());
  service::TuningService reference;
  service::SessionSpec spec;
  spec.space = &space;
  spec.optimizer_key = "random";
  spec.adapter_key = "identity";
  spec.seed = 4242;
  spec.num_iterations = 16;
  ASSERT_TRUE(reference.CreateSession("ref", spec).ok());
  for (;;) {
    Result<Trial> trial = reference.Ask("ref");
    if (!trial.ok()) break;
    TrialResult result;
    result.trial_id = trial->id;
    result.value = ExternalMeasure(trial->config);
    ASSERT_TRUE(reference.Tell("ref", result).ok());
  }
  Result<std::string> uninterrupted = reference.Checkpoint("ref");
  ASSERT_TRUE(uninterrupted.ok());
  EXPECT_EQ(Trajectory(*final_run), Trajectory(*uninterrupted));
#endif
}

// SIGKILL in the middle of a race (race 2's first rung committed, its
// second rung pending): the autosaved mid-race checkpoint must rebuild
// the tournament — accumulated candidate statistics, eliminations, the
// open rung — and the continuation must be byte-identical to a server
// that never crashed. The driving client never sets a result fidelity
// (a pre-fidelity client can't), which also pins that full-fidelity-
// only clients can answer racing trials: the server treats the asked
// trial's fidelity as authoritative.
TEST(ServerCrashTest, Kill9MidRaceResumesTournamentBitForBit) {
#ifndef LLAMATUNE_SERVE_REMOTE_BIN
  GTEST_SKIP() << "serve_remote example not built";
#else
  const std::string bin = LLAMATUNE_SERVE_REMOTE_BIN;
  struct stat sb;
  if (::stat(bin.c_str(), &sb) != 0) {
    GTEST_SKIP() << "serve_remote binary missing at " << bin;
  }
  const std::string dir = ::testing::TempDir() + "llamatune-racecrash-" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const std::string port_file = dir + "/port";
  const std::string autosave =
      dir + "/" + EncodeBytes("race-job") + ".autosave";

  WireSessionSpec spec_wire;
  spec_wire.space_knobs = TestKnobs();
  spec_wire.optimizer_key = "random";
  spec_wire.adapter_key = "identity";
  spec_wire.seed = 777;
  spec_wire.num_iterations = 4;
  RacingOptions racing;
  racing.cohort = 4;
  racing.rungs = 3;
  racing.min_fidelity = 0.25;
  racing.eta = 2.0;
  racing.ci_z = 1.96;
  spec_wire.racing = racing;

  // Asks out the current round — the baseline, or one whole rung (the
  // server answers FailedPrecondition once the rung is fully handed
  // out) — and tells every result. Sets `empty` when the budget is
  // done and nothing was handed out.
  auto drive_round = [](TuningClient& client, const std::string& name,
                        bool* empty) {
    std::vector<Trial> trials;
    for (;;) {
      Result<Trial> trial = client.Ask(name);
      if (!trial.ok()) break;
      bool is_baseline = trial->is_baseline;
      trials.push_back(std::move(trial).ValueOrDie());
      if (is_baseline) break;
    }
    *empty = trials.empty();
    for (const Trial& trial : trials) {
      TrialResult result;
      result.trial_id = trial.id;
      result.value = ExternalMeasure(trial.config);
      ASSERT_TRUE(client.Tell(name, result).ok());
    }
  };

  // --- Phase 1: baseline + race 1 (3 rungs) + race 2's first rung.
  ServerProcess first;
  int port = first.Launch(bin, dir, port_file);
  ASSERT_GT(port, 0) << "server did not come up";
  TuningClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", static_cast<uint16_t>(port)).ok());
  ASSERT_TRUE(client.CreateSession("race-job", spec_wire).ok());
  for (int round = 0; round < 5; ++round) {
    bool empty = true;
    drive_round(client, "race-job", &empty);
    ASSERT_FALSE(empty) << "round " << round << " handed out no trials";
  }
  // Mid-race: exactly one race (one budget iteration) has committed.
  Result<WireSessionStatus> mid_status = client.GetStatus("race-job");
  ASSERT_TRUE(mid_status.ok());
  EXPECT_EQ(mid_status->status.iterations_run, 1);

  Result<std::string> at_kill = client.Checkpoint("race-job");
  ASSERT_TRUE(at_kill.ok());
  bool captured = false;
  for (int i = 0; i < 1000 && !captured; ++i) {
    FILE* in = std::fopen(autosave.c_str(), "r");
    if (in != nullptr) {
      std::string content;
      char buf[4096];
      size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
        content.append(buf, n);
      }
      std::fclose(in);
      captured = content.find(*at_kill) != std::string::npos;
    }
    if (!captured) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(captured) << "autosave never caught up before the kill";
  first.Kill9();
  client.Disconnect();

  // --- Phase 2: restart, resume the half-run race, drive it out.
  ServerProcess second;
  port = second.Launch(bin, dir, port_file);
  ASSERT_GT(port, 0) << "restarted server did not come up";
  TuningClient revived;
  ASSERT_TRUE(
      revived.Connect("127.0.0.1", static_cast<uint16_t>(port)).ok());
  Status resumed = revived.ResumeSaved("race-job");
  ASSERT_TRUE(resumed.ok()) << resumed.ToString();
  Result<WireSessionStatus> status = revived.GetStatus("race-job");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->status.iterations_run, 1);
  for (;;) {
    bool empty = true;
    drive_round(revived, "race-job", &empty);
    if (empty) break;
  }
  Result<std::string> after_crash = revived.Checkpoint("race-job");
  ASSERT_TRUE(after_crash.ok());
  second.Kill9();

  // --- Reference: same racing session, never interrupted, in-process.
  ConfigSpace space = *ConfigSpace::Create(TestKnobs());
  service::TuningService reference;
  service::SessionSpec spec;
  spec.space = &space;
  spec.optimizer_key = "random";
  spec.adapter_key = "identity";
  spec.seed = 777;
  spec.num_iterations = 4;
  spec.racing = racing;
  ASSERT_TRUE(reference.CreateSession("ref", spec).ok());
  for (;;) {
    std::vector<Trial> trials;
    for (;;) {
      Result<Trial> trial = reference.Ask("ref");
      if (!trial.ok()) break;
      bool is_baseline = trial->is_baseline;
      trials.push_back(std::move(trial).ValueOrDie());
      if (is_baseline) break;
    }
    if (trials.empty()) break;
    for (const Trial& trial : trials) {
      TrialResult result;
      result.trial_id = trial.id;
      result.value = ExternalMeasure(trial.config);
      ASSERT_TRUE(reference.Tell("ref", result).ok());
    }
  }
  Result<std::string> uninterrupted = reference.Checkpoint("ref");
  ASSERT_TRUE(uninterrupted.ok());
  EXPECT_EQ(Trajectory(*after_crash), Trajectory(*uninterrupted));
#endif
}

// Graceful drain is stronger than crash recovery: SIGTERM makes the
// dying server itself finish in-flight work and durably autosave every
// session — including a pending (asked, untold) trial that only the
// drain's final sweep can capture — before exiting 0. No "wait for the
// periodic autosave to catch up" dance is needed, and the successor's
// --resume-on-start sweep revives the session without any explicit
// ResumeSaved from the client.
TEST(ServerDrainTest, SigtermDrainSavesPendingWorkAndHotRestartResumes) {
#ifndef LLAMATUNE_SERVE_REMOTE_BIN
  GTEST_SKIP() << "serve_remote example not built";
#else
  const std::string bin = LLAMATUNE_SERVE_REMOTE_BIN;
  struct stat sb;
  if (::stat(bin.c_str(), &sb) != 0) {
    GTEST_SKIP() << "serve_remote binary missing at " << bin;
  }
  const std::string dir = ::testing::TempDir() + "llamatune-drain-" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const std::string port_file = dir + "/port";

  // --- Phase 1: half the budget, plus one trial left pending.
  ServerProcess first;
  int port = first.Launch(bin, dir, port_file);
  ASSERT_GT(port, 0) << "server did not come up";
  TuningClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", static_cast<uint16_t>(port)).ok());
  ASSERT_TRUE(client.Hello("drain-tenant").ok());
  ASSERT_TRUE(client.CreateSession("drain-job", CrashWireSpec()).ok());
  DriveRounds(client, "drain-job", 8);
  Result<Trial> held = client.Ask("drain-job");
  ASSERT_TRUE(held.ok()) << held.status().ToString();

  // --- The drain: SIGTERM, clean exit 0. Deliberately no autosave
  // wait — durability on this path is the server's job, not the
  // test's.
  ASSERT_TRUE(first.Terminate()) << "SIGTERM did not produce exit 0";
  client.Disconnect();

  // --- Phase 2: hot restart. The startup sweep revives the session;
  // the client goes straight to GetStatus, answers the trial it was
  // holding across the restart, and drives out the budget.
  ServerProcess second;
  port = second.Launch(bin, dir, port_file, "", {"--resume-on-start"});
  ASSERT_GT(port, 0) << "hot-restarted server did not come up";
  TuningClient revived;
  ASSERT_TRUE(
      revived.Connect("127.0.0.1", static_cast<uint16_t>(port)).ok());
  ASSERT_TRUE(revived.Hello("drain-tenant").ok());
  Result<WireSessionStatus> status = revived.GetStatus("drain-job");
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(status->status.iterations_run, 7);  // baseline + 7 counted

  TrialResult held_result;
  held_result.trial_id = held->id;
  held_result.value = ExternalMeasure(held->config);
  ASSERT_TRUE(revived.Tell("drain-job", held_result).ok());
  DriveOut(revived, "drain-job");
  Result<std::string> after_drain = revived.Checkpoint("drain-job");
  ASSERT_TRUE(after_drain.ok());
  ASSERT_TRUE(second.Terminate());

  // The pin: drain → hot restart loses nothing, the final trajectory
  // is byte-identical to never having restarted.
  EXPECT_EQ(Trajectory(*after_drain),
            Trajectory(UninterruptedCheckpoint(4242, 16)));
#endif
}

// The wire path to the same outcome: a client kDrain moves the server
// out of Running on its own, serve_remote's loop notices and the
// process exits 0 with no signal involved. The drained state
// hot-restarts cleanly.
TEST(ServerDrainTest, WireDrainSelfExitsZeroAndSuccessorResumes) {
#ifndef LLAMATUNE_SERVE_REMOTE_BIN
  GTEST_SKIP() << "serve_remote example not built";
#else
  const std::string bin = LLAMATUNE_SERVE_REMOTE_BIN;
  struct stat sb;
  if (::stat(bin.c_str(), &sb) != 0) {
    GTEST_SKIP() << "serve_remote binary missing at " << bin;
  }
  const std::string dir = ::testing::TempDir() + "llamatune-wiredrain-" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const std::string port_file = dir + "/port";

  ServerProcess first;
  int port = first.Launch(bin, dir, port_file);
  ASSERT_GT(port, 0) << "server did not come up";
  TuningClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", static_cast<uint16_t>(port)).ok());
  ASSERT_TRUE(client.Hello("drain-tenant").ok());
  ASSERT_TRUE(
      client.CreateSession("wire-drain-job", DrainWireSpec(9090, 12)).ok());
  DriveRounds(client, "wire-drain-job", 5);

  Status drained = client.Drain();
  ASSERT_TRUE(drained.ok()) << drained.ToString();
  ASSERT_TRUE(first.WaitExit()) << "server did not self-exit 0 after kDrain";
  client.Disconnect();

  ServerProcess second;
  port = second.Launch(bin, dir, port_file, "", {"--resume-on-start"});
  ASSERT_GT(port, 0) << "hot-restarted server did not come up";
  TuningClient revived;
  ASSERT_TRUE(
      revived.Connect("127.0.0.1", static_cast<uint16_t>(port)).ok());
  ASSERT_TRUE(revived.Hello("drain-tenant").ok());
  Result<WireSessionStatus> status = revived.GetStatus("wire-drain-job");
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(status->status.iterations_run, 4);
  DriveOut(revived, "wire-drain-job");
  Result<std::string> after_drain = revived.Checkpoint("wire-drain-job");
  ASSERT_TRUE(after_drain.ok());
  ASSERT_TRUE(second.Terminate());

  EXPECT_EQ(Trajectory(*after_drain),
            Trajectory(UninterruptedCheckpoint(9090, 12)));
#endif
}

// Chaos soak: a seeded fault schedule resets server→client sends at
// random while a resilient client drives three sessions; mid-run the
// server is SIGTERM-drained and a successor hot-restarts ON THE SAME
// PORT, so the client's transparent reconnect (re-dial + Hello replay
// inside the retry loop) carries it across the restart without the
// test ever touching the connection. Every final history must be
// bit-for-bit the uninterrupted run — resets, retries, drain and
// restart all invisible in the trajectory. CI soaks this test with
// --gtest_repeat to vary scheduling.
TEST(ServerDrainTest, ChaosSoakDrainRestartUnderFaultsKeepsHistoriesExact) {
#ifndef LLAMATUNE_SERVE_REMOTE_BIN
  GTEST_SKIP() << "serve_remote example not built";
#else
  const std::string bin = LLAMATUNE_SERVE_REMOTE_BIN;
  struct stat sb;
  if (::stat(bin.c_str(), &sb) != 0) {
    GTEST_SKIP() << "serve_remote binary missing at " << bin;
  }
  const std::string dir = ::testing::TempDir() + "llamatune-chaos-" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const std::string port_file = dir + "/port";
  const std::string kFaults = "seed=7;server.send.reset=p0.15";
  const int kSessions = 3;
  const int kIterations = 12;

  TuningClientOptions copts;
  copts.retry.max_attempts = 8;
  copts.retry.initial_backoff_ms = 5;
  copts.retry.max_backoff_ms = 200;
  copts.retry.retry_budget_ms = 30000;
  copts.retry.jitter_seed = 3;

  // --- Phase 1: three sessions half-driven under send-reset chaos,
  // one trial held pending across the drain.
  ServerProcess first;
  int port = first.Launch(bin, dir, port_file, kFaults);
  ASSERT_GT(port, 0) << "server did not come up";
  TuningClient client(copts);
  ASSERT_TRUE(
      client.Connect("127.0.0.1", static_cast<uint16_t>(port)).ok());
  ASSERT_TRUE(client.Hello("chaos-tenant").ok());
  for (int s = 0; s < kSessions; ++s) {
    const std::string name = "chaos-" + std::to_string(s);
    ASSERT_TRUE(
        client.CreateSession(name, DrainWireSpec(5000 + s, kIterations))
            .ok());
    DriveRounds(client, name, 6);
  }
  Result<Trial> held = client.Ask("chaos-0");
  ASSERT_TRUE(held.ok()) << held.status().ToString();

  ASSERT_TRUE(first.Terminate())
      << "drain under faults did not produce exit 0";

  // --- Phase 2: successor on the SAME port, same fault schedule. The
  // client object is reused as-is: its next call fails on the dead
  // connection and the retry layer re-dials and replays Hello.
  ServerProcess second;
  int port2 = second.Launch(bin, dir, port_file, kFaults,
                            {"--resume-on-start", "--port",
                             std::to_string(port)});
  ASSERT_EQ(port2, port) << "successor did not bind the same port";

  TrialResult held_result;
  held_result.trial_id = held->id;
  held_result.value = ExternalMeasure(held->config);
  ASSERT_TRUE(client.Tell("chaos-0", held_result).ok());
  for (int s = 0; s < kSessions; ++s) {
    DriveOut(client, "chaos-" + std::to_string(s));
  }
  std::vector<std::string> finals;
  for (int s = 0; s < kSessions; ++s) {
    Result<std::string> checkpoint =
        client.Checkpoint("chaos-" + std::to_string(s));
    ASSERT_TRUE(checkpoint.ok());
    finals.push_back(*checkpoint);
  }
  ASSERT_TRUE(second.Terminate());

  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(Trajectory(finals[s]),
              Trajectory(UninterruptedCheckpoint(5000 + s, kIterations)))
        << "session chaos-" << s << " diverged";
  }
#endif
}

}  // namespace
}  // namespace net
}  // namespace llamatune
