// bm_e2e: the repository's end-to-end benchmark. One process runs one
// workload through the public entry points of the tuning stack —
// net::TuningClient against an in-process net::TuningServer, or
// service::TuningService driven in process — for a fixed number of
// seconds, then checks that every session it ran is correct.
//
//   bm_e2e --workload=<name> --seed=<S> --seconds=<T> --json=<out>
//          [--trace-out=<spans.jsonl>] [--work-dir=<dir>]
//   bm_e2e --list
//
// e2ebench/README.md describes the workloads and metrics; run it
// through e2ebench/run.py, which builds this binary first.

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "e2ebench/probes.h"
#include "e2ebench/trace.h"
#include "src/common/serde.h"
#include "src/common/thread_pool.h"
#include "src/core/adapter_registry.h"
#include "src/dbsim/simulated_postgres.h"
#include "src/dbsim/workloads.h"
#include "src/net/tuning_client.h"
#include "src/net/tuning_server.h"
#include "src/service/trial_wal.h"
#include "src/service/tuning_service.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

namespace fs = std::filesystem;
using llamatune::Configuration;
using llamatune::EvalResult;
using llamatune::Result;
using llamatune::SessionResult;
using llamatune::SpaceAdapter;
using llamatune::Status;
using llamatune::Trial;
using llamatune::TrialOutcome;
using llamatune::TrialResult;
using llamatune::dbsim::SimulatedPostgres;
using llamatune::dbsim::SimulatedPostgresOptions;

// ---------------------------------------------------------------------------
// Workloads and metrics
// ---------------------------------------------------------------------------

enum class Driver { kWire, kDrive };

struct Workload {
  const char* name;
  const char* why;
  Driver driver;
  const char* optimizer;
  const char* adapter;
  int iterations;
  int clients;
  /// Sessions per client that always run to completion, even past the
  /// deadline: the fixed set behind best_gain, evals_to_best and the
  /// history digest, identical for every run with the same seed.
  int fixed_sessions;
  /// Autosave + per-tell WAL + hot restart (the untimed pre-phase runs
  /// the fixed sessions to kPrePhaseIterations first).
  bool wal;
};

constexpr int kPrePhaseIterations = 25;

constexpr Workload kWorkloads[] = {
    {"paper-smac",
     "the paper's default tuner and session length; the random-forest "
     "Suggest dominates the ask, the WAL is bypassed",
     Driver::kWire, "smac", "llamatune", 100, 4, 12, false},
    {"ask-tell-wal",
     "near-free optimizer under a hot restart, so the full-knob wire "
     "payload, service lock, fsync'd WAL and autosave dominate",
     Driver::kWire, "random", "identity", 50, 4, 16, true},
    {"largen-gpbo",
     "sparse GP-BO past its 256-point exact limit, so large-n suggest "
     "cost dominates the ask",
     Driver::kWire, "gpbo-sparse", "llamatune", 400, 4, 4, false},
    {"drive-racing-des",
     "in-process Step driving of racing sessions on the discrete-event "
     "simulator; parallel evaluation sets throughput, net and WAL bypassed",
     Driver::kDrive, "random", "hesbo8", 20, 1, 32, false},
};

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

constexpr MetricDef kEndToEnd[] = {
    {"trials_per_s", "1/s", "higher"},
    {"round_p50_us", "us", "lower"},
    {"round_p99_us", "us", "lower"},
    {"session_p50_ms", "ms", "lower"},
    {"setup_s", "s", "lower"},
    {"cpu_ms_per_trial", "ms", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"best_gain", "ratio", "higher"},
};

/// The racing grid of bench/bench_common.h (kRacingGridTransactions,
/// RacingGridOptions), frozen here so that edits to the paper-figure
/// benches cannot change this workload.
constexpr int kRacingTransactions = 6000;

llamatune::RacingOptions RacingGrid() {
  llamatune::RacingOptions racing;
  racing.cohort = 8;
  racing.rungs = 3;
  racing.min_fidelity = 0.125;
  racing.eta = 2.0;
  racing.ci_z = 1.96;
  return racing;
}

/// Set-ups per run; the median is reported (set-up takes milliseconds,
/// so one sample would be mostly scheduler noise).
constexpr int kSetupReps = 31;
constexpr int kWalSetupReps = 9;
/// WAL records re-appended (and fsync'd) in the traced run.
constexpr size_t kWalAppendSamples = 1200;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string FsName(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    default: return "other";
  }
}

/// FNV-1a over raw bytes, chained.
struct Digest {
  uint64_t h = 1469598103934665603ULL;
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
};

/// Distinct per (run seed, client, session index) within a run.
uint64_t SessionSeed(uint64_t run_seed, int client, int index) {
  return run_seed * 1000003ULL + static_cast<uint64_t>(client) * 100000ULL +
         static_cast<uint64_t>(index) + 1;
}

std::string SessionName(int client, int index) {
  char name[32];
  std::snprintf(name, sizeof(name), "c%d-s%05d", client, index);
  return name;
}

/// One committed trial as the bench saw it: what the digest covers.
struct Committed {
  int64_t id = 0;
  bool baseline = false;
  std::vector<double> config;
  double value = 0.0;
  TrialOutcome outcome = TrialOutcome::kOk;
};

uint64_t HistoryDigest(const std::vector<Committed>& history) {
  Digest d;
  for (const Committed& c : history) {
    d.Add(c.id);
    d.Add(static_cast<int>(c.outcome));
    d.Add(c.value);
    for (double v : c.config) d.Add(v);
  }
  return d.h;
}

SimulatedPostgresOptions EvaluatorOptions(const Workload& w, uint64_t seed) {
  SimulatedPostgresOptions options;
  options.noise_seed = seed;
  if (w.driver == Driver::kDrive) {
    options.engine = llamatune::dbsim::EngineKind::kDiscreteEvent;
    options.des_transactions = kRacingTransactions;
  }
  return options;
}

/// Runs one trial on the client-side simulator, as a tuning client would.
TrialResult Measure(SimulatedPostgres& evaluator, const Trial& trial) {
  EvalResult measured = evaluator.Evaluate(trial.config);
  TrialResult result;
  result.trial_id = trial.id;
  result.value = measured.value;
  result.outcome = measured.EffectiveOutcome();
  result.metrics = std::move(measured.metrics);
  return result;
}

std::string OptimizerKey(const Workload& w, bool traced) {
  return traced ? std::string("traced-") + w.optimizer : w.optimizer;
}

/// Everything one thread measured; merged after the timed phase.
struct Tally {
  std::vector<double> round_us;
  std::vector<double> session_ms;
  int64_t trials = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t projections = 0;
  int64_t projection_mismatches = 0;
  std::vector<std::string> errors;
  std::vector<std::string> wal_records;

  void Fail(const std::string& what, const Status& status) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what + ": " + status.ToString());
  }
  void Merge(Tally&& other) {
    round_us.insert(round_us.end(), other.round_us.begin(),
                    other.round_us.end());
    session_ms.insert(session_ms.end(), other.session_ms.begin(),
                      other.session_ms.end());
    trials += other.trials;
    attempted += other.attempted;
    failed += other.failed;
    projections += other.projections;
    projection_mismatches += other.projection_mismatches;
    errors.insert(errors.end(), other.errors.begin(), other.errors.end());
    wal_records.insert(wal_records.end(), other.wal_records.begin(),
                       other.wal_records.end());
  }
};

/// A session the bench drives, with its client-side state.
struct SessionRun {
  std::string name;
  uint64_t seed = 0;
  int index = 0;
  bool fixed = false;
  std::shared_ptr<Probe> probe;
  /// Wire workloads: the client-side simulator (noise stream = session
  /// seed) and the adapter used to re-check every projection.
  std::unique_ptr<SimulatedPostgres> evaluator;
  std::unique_ptr<SpaceAdapter> adapter;
  /// Requests issued so far (the next call index).
  int64_t calls = 0;
  bool complete = false;
  std::vector<Committed> history;
};

std::unique_ptr<SessionRun> NewSession(const Workload& w, uint64_t run_seed,
                                       int client, int index) {
  auto s = std::make_unique<SessionRun>();
  s->index = index;
  s->name = SessionName(client, index);
  s->seed = SessionSeed(run_seed, client, index);
  s->fixed = index < w.fixed_sessions;
  s->probe = ProbeRegistry::Global().Register(s->seed);
  if (w.driver == Driver::kWire) {
    s->evaluator = std::make_unique<SimulatedPostgres>(
        llamatune::dbsim::TpcC(), EvaluatorOptions(w, s->seed));
    s->adapter = std::move(llamatune::AdapterRegistry::Global().Create(
                                w.adapter, &s->evaluator->config_space(),
                                s->seed))
                     .ValueOrDie();
  }
  return s;
}

void RecordSpan(SpanKind kind, const SessionRun& s, int64_t call,
                int64_t start, int64_t end, double work = 0.0) {
  Tracer::Global().Record(kind, kind, s.seed, call, start, end, work);
}

// ---------------------------------------------------------------------------
// Wire workloads
// ---------------------------------------------------------------------------

llamatune::net::WireSessionSpec WireSpec(const Workload& w, uint64_t seed,
                                         bool traced) {
  llamatune::net::WireSessionSpec spec;
  spec.workload = "TPC-C";
  spec.optimizer_key = OptimizerKey(w, traced);
  spec.adapter_key = w.adapter;
  spec.seed = seed;
  spec.num_iterations = w.iterations;
  return spec;
}

/// One ask → evaluate → tell round. Returns false on a failed request.
bool WireRound(llamatune::net::TuningClient& client, SessionRun& s,
               Tally& tally) {
  const bool tracing = Tracer::Global().on();
  const int64_t k = s.calls++;
  s.probe->call.store(k, std::memory_order_release);

  int64_t ask0 = NowNs();
  Result<Trial> asked = client.Ask(s.name);
  int64_t ask1 = NowNs();
  ++tally.attempted;
  if (!asked.ok()) {
    tally.Fail("ask " + s.name, asked.status());
    return false;
  }
  if (tracing) RecordSpan(SpanKind::kClientAsk, s, k, ask0, ask1);
  const Trial& trial = *asked;

  if (!trial.is_baseline) {
    int64_t p0 = NowNs();
    Configuration projected = s.adapter->Project(trial.point);
    int64_t p1 = NowNs();
    ++tally.projections;
    if (!(projected == trial.config)) ++tally.projection_mismatches;
    if (tracing) RecordSpan(SpanKind::kProject, s, k, p0, p1);
  }

  int64_t eval0 = NowNs();
  TrialResult result = Measure(*s.evaluator, trial);
  int64_t eval1 = NowNs();
  if (tracing) RecordSpan(SpanKind::kEvaluate, s, k, eval0, eval1, 1.0);

  int64_t tell0 = NowNs();
  Status told = client.Tell(s.name, result);
  int64_t tell1 = NowNs();
  ++tally.attempted;
  if (!told.ok()) {
    tally.Fail("tell " + s.name, told);
    return false;
  }
  if (tracing) RecordSpan(SpanKind::kClientTell, s, k, tell0, tell1);

  tally.round_us.push_back(
      static_cast<double>((ask1 - ask0) + (eval1 - eval0) + (tell1 - tell0)) /
      1e3);
  ++tally.trials;
  s.history.push_back({trial.id, trial.is_baseline, trial.config.values(),
                       result.value, result.outcome});
  return true;
}

/// Runs (or, for a resumed session, finishes) one session lifecycle:
/// CreateSession, ask → evaluate → tell rounds, Checkpoint, Close.
/// Sessions outside the fixed set are abandoned at the deadline.
void RunWireSession(llamatune::net::TuningClient& client, const Workload& w,
                    SessionRun& s, bool resumed, bool traced,
                    int64_t deadline_ns, int rounds, const std::string& wal_dir,
                    Tally& tally) {
  const bool tracing = Tracer::Global().on();
  int64_t start = NowNs();
  if (!resumed) {
    Status created = client.CreateSession(s.name, WireSpec(w, s.seed, traced));
    int64_t t1 = NowNs();
    ++tally.attempted;
    if (!created.ok()) {
      tally.Fail("create " + s.name, created);
      return;
    }
    if (tracing) RecordSpan(SpanKind::kClientCreate, s, 0, start, t1);
  }
  bool ok = true;
  while (ok && s.calls < rounds) {
    if (!s.fixed && NowNs() >= deadline_ns) break;
    ok = WireRound(client, s, tally);
  }
  s.complete = ok && s.calls == 1 + w.iterations;
  if (s.complete && rounds == 1 + w.iterations) {
    int64_t c0 = NowNs();
    Result<std::string> checkpoint = client.Checkpoint(s.name);
    int64_t c1 = NowNs();
    ++tally.attempted;
    if (!checkpoint.ok()) {
      tally.Fail("checkpoint " + s.name, checkpoint.status());
    }
    if (tracing) RecordSpan(SpanKind::kClientCheckpoint, s, s.calls, c0, c1);
  }
  if (rounds < 1 + w.iterations) return;  // pre-phase: the session stays open
  if (tracing && !wal_dir.empty() &&
      tally.wal_records.size() < kWalAppendSamples) {
    Result<std::vector<std::string>> records = llamatune::service::TrialWal::
        ReadRecords(wal_dir + "/" + llamatune::EncodeBytes(s.name) + ".wal");
    if (records.ok()) {
      tally.wal_records.insert(tally.wal_records.end(), records->begin(),
                               records->end());
    }
  }
  int64_t close0 = NowNs();
  Result<llamatune::net::WireCloseResult> closed = client.Close(s.name);
  int64_t close1 = NowNs();
  ++tally.attempted;
  if (!closed.ok()) {
    tally.Fail("close " + s.name, closed.status());
    return;
  }
  if (tracing) RecordSpan(SpanKind::kClientClose, s, s.calls, close0, close1);
  if (s.complete && !resumed) {
    tally.session_ms.push_back(static_cast<double>(close1 - start) / 1e6);
  }
}

Status Connect(llamatune::net::TuningClient& client, uint16_t port,
               int tenant) {
  LT_RETURN_NOT_OK(client.Connect("127.0.0.1", port));
  return client.Hello("tenant-" + std::to_string(tenant));
}

// ---------------------------------------------------------------------------
// Run context
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string json;
  std::string trace_out;
  std::string work_dir = "e2e-work";
  bool list = false;
};

struct Outcome {
  Tally tally;
  std::vector<double> setup_s;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// The fixed set; the first session of every client is in it.
  std::vector<std::unique_ptr<SessionRun>> kept;
  int replayed = 0;
  int replay_mismatches = 0;
};

struct ServerCounters {
  int64_t busy = 0;
  int64_t shed = 0;
  int64_t autosaves = 0;
  int64_t restored = 0;
};

llamatune::net::TuningServerOptions ServerOptions(const Workload& w,
                                                  const std::string& dir) {
  llamatune::net::TuningServerOptions options;
  if (w.wal) {
    options.autosave_dir = dir;
    options.autosave_interval_ms = 200;
    options.resume_saved_on_start = true;
  }
  return options;
}

/// One set-up: server construction → Start (for ask-tell-wal, the
/// hot-restart resume of every autosaved session) → connect → the
/// first CreateSession reply.
Result<std::unique_ptr<llamatune::net::TuningServer>> SetupServer(
    const Workload& w, const Options& opt, bool traced, int rep,
    const std::string& dir, double* seconds) {
  int64_t t0 = NowNs();
  auto server = std::make_unique<llamatune::net::TuningServer>(
      ServerOptions(w, dir));
  LT_RETURN_NOT_OK(server->Start());
  llamatune::net::TuningClient client;
  LT_RETURN_NOT_OK(Connect(client, server->port(), 99));
  const std::string name = "setup-" + std::to_string(rep);
  LT_RETURN_NOT_OK(client.CreateSession(
      name, WireSpec(w, SessionSeed(opt.seed, 99, rep), traced)));
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  Result<llamatune::net::WireCloseResult> closed = client.Close(name);
  if (!closed.ok()) return closed.status();
  return server;
}

/// ask-tell-wal's untimed pre-phase: the fixed sessions run to
/// kPrePhaseIterations, then the server drains (final autosave).
using ClientSessions = std::vector<std::vector<std::unique_ptr<SessionRun>>>;

Status WalPrePhase(const Workload& w, const Options& opt, bool traced,
                   const std::string& dir, ClientSessions* sessions,
                   Tally* tally) {
  llamatune::net::TuningServer server(ServerOptions(w, dir));
  LT_RETURN_NOT_OK(server.Start());
  sessions->resize(w.clients);
  std::vector<Tally> tallies(w.clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      llamatune::net::TuningClient client;
      Status connected = Connect(client, server.port(), c);
      if (!connected.ok()) {
        tallies[c].Fail("connect", connected);
        return;
      }
      for (int i = 0; i < w.fixed_sessions; ++i) {
        (*sessions)[c].push_back(NewSession(w, opt.seed, c, i));
        RunWireSession(client, w, *(*sessions)[c].back(), false, traced, 0,
                       1 + kPrePhaseIterations, "", tallies[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server.Stop();
  for (Tally& t : tallies) {
    tally->attempted += t.attempted;
    tally->failed += t.failed;
    tally->projections += t.projections;
    tally->projection_mismatches += t.projection_mismatches;
    tally->errors.insert(tally->errors.end(), t.errors.begin(), t.errors.end());
  }
  return Status::OK();
}

Status RunWire(const Workload& w, const Options& opt, bool traced,
               Outcome* out, ServerCounters* counters) {
  const std::string autosave_root = opt.work_dir + "/autosave";
  const std::string pristine = autosave_root + "/pre";
  ClientSessions resumed(w.clients);
  if (w.wal) {
    fs::create_directories(pristine);
    LT_RETURN_NOT_OK(
        WalPrePhase(w, opt, traced, pristine, &resumed, &out->tally));
  }

  // Set-up, several times; the last server serves the timed phase.
  std::unique_ptr<llamatune::net::TuningServer> server;
  std::string live_dir;
  const int reps = w.wal ? kWalSetupReps : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    if (server != nullptr) {
      server->Stop();
      server.reset();
      if (!live_dir.empty()) fs::remove_all(live_dir);
    }
    if (w.wal) {
      live_dir = autosave_root + "/live" + std::to_string(rep);
      fs::copy(pristine, live_dir, fs::copy_options::recursive);
    }
    double seconds = 0.0;
    Result<std::unique_ptr<llamatune::net::TuningServer>> made =
        SetupServer(w, opt, traced, rep, live_dir, &seconds);
    if (!made.ok()) return made.status();
    server = std::move(made).ValueOrDie();
    out->setup_s.push_back(seconds);
  }
  counters->restored = server->sessions_restored();

  const int64_t autosaves0 = server->autosaves_written();
  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(opt.seconds * 1e9);
  if (traced) Tracer::Global().Start();
  std::vector<Tally> tallies(w.clients);
  ClientSessions kept(w.clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      Tally& tally = tallies[c];
      llamatune::net::TuningClient client;
      Status connected = Connect(client, server->port(), c);
      if (!connected.ok()) {
        tally.Fail("connect", connected);
        return;
      }
      for (std::unique_ptr<SessionRun>& s : resumed[c]) {
        RunWireSession(client, w, *s, true, traced, deadline,
                       1 + w.iterations, live_dir, tally);
        kept[c].push_back(std::move(s));
      }
      for (int i = w.wal ? w.fixed_sessions : 0;; ++i) {
        std::unique_ptr<SessionRun> s = NewSession(w, opt.seed, c, i);
        if (!s->fixed && NowNs() >= deadline) break;
        RunWireSession(client, w, *s, false, traced, deadline,
                       1 + w.iterations, live_dir, tally);
        if (s->fixed) kept[c].push_back(std::move(s));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out->wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  out->cpu_s = CpuSeconds() - cpu0;
  Tracer::Global().Stop();

  llamatune::net::WireServerStats stats = server->Stats();
  counters->busy = stats.busy_rejections;
  counters->shed = stats.shed_overload;
  counters->autosaves = server->autosaves_written() - autosaves0;
  server->Stop();
  for (int c = 0; c < w.clients; ++c) {
    out->tally.Merge(std::move(tallies[c]));
    for (auto& s : kept[c]) out->kept.push_back(std::move(s));
  }

  if (traced && w.wal && !out->tally.wal_records.empty()) {
    // The WAL cost in isolation: the sessions' real records appended
    // (write + fsync) to a bench-owned log on the same filesystem.
    llamatune::service::TrialWal wal;
    LT_RETURN_NOT_OK(wal.Open(autosave_root + "/reappend.wal"));
    Tracer::Global().Start();
    for (size_t i = 0;
         i < out->tally.wal_records.size() && i < kWalAppendSamples; ++i) {
      int64_t a0 = NowNs();
      Status appended = wal.Append(out->tally.wal_records[i]);
      int64_t a1 = NowNs();
      if (!appended.ok()) return appended;
      Tracer::Global().Record(SpanKind::kWalAppend, SpanKind::kWalAppend, 0,
                              static_cast<int64_t>(i), a0, a1);
    }
    Tracer::Global().Stop();
  }
  return Status::OK();
}

/// The solo in-process replay a wire session must equal: the same spec
/// through service::TuningService with the untraced optimizer and the
/// same client-side evaluation.
std::vector<Committed> ReplayWire(const Workload& w, const SessionRun& s) {
  std::vector<Committed> history;
  llamatune::service::TuningService service;
  llamatune::service::SessionSpec spec;
  spec.workload = llamatune::dbsim::TpcC();
  spec.optimizer_key = w.optimizer;
  spec.adapter_key = w.adapter;
  spec.seed = s.seed;
  spec.num_iterations = w.iterations;
  if (!service.CreateSession("replay", spec).ok()) return history;
  SimulatedPostgres evaluator(llamatune::dbsim::TpcC(),
                              EvaluatorOptions(w, s.seed));
  for (size_t k = 0; k < s.history.size(); ++k) {
    Result<Trial> trial = service.Ask("replay");
    if (!trial.ok()) break;
    TrialResult result = Measure(evaluator, *trial);
    if (!service.Tell("replay", result).ok()) break;
    history.push_back({trial->id, trial->is_baseline, trial->config.values(),
                       result.value, result.outcome});
  }
  return history;
}

// ---------------------------------------------------------------------------
// Driven workload (in-process TuningService::Step)
// ---------------------------------------------------------------------------

llamatune::service::SessionSpec DriveSpec(const Workload& w, uint64_t seed,
                                          bool traced) {
  llamatune::service::SessionSpec spec;
  spec.optimizer_key = OptimizerKey(w, traced);
  spec.adapter_key = w.adapter;
  spec.seed = seed;
  spec.num_iterations = w.iterations;
  spec.racing = RacingGrid();
  return spec;
}

std::unique_ptr<TimedObjective> DriveObjective(const Workload& w,
                                               const SessionRun& s) {
  return std::make_unique<TimedObjective>(
      std::make_unique<SimulatedPostgres>(llamatune::dbsim::TpcC(),
                                          EvaluatorOptions(w, s.seed)),
      s.probe);
}

std::vector<Committed> KbHistory(const SessionResult& result) {
  std::vector<Committed> history;
  for (const llamatune::IterationRecord& r : result.kb.records()) {
    history.push_back(
        {r.iteration, false, r.config.values(), r.measured, r.outcome});
  }
  return history;
}

void RunDriveSession(llamatune::service::TuningService& service,
                     const Workload& w, SessionRun& s, bool traced,
                     int64_t deadline_ns, Tally& tally) {
  std::unique_ptr<TimedObjective> objective = DriveObjective(w, s);
  llamatune::service::SessionSpec spec = DriveSpec(w, s.seed, traced);
  spec.objective = objective.get();
  int64_t start = NowNs();
  Status created = service.CreateSession(s.name, spec);
  ++tally.attempted;
  if (!created.ok()) {
    tally.Fail("create " + s.name, created);
    return;
  }
  bool finished = false;
  while (s.fixed || NowNs() < deadline_ns) {
    const int64_t k = s.calls++;
    s.probe->call.store(k, std::memory_order_release);
    int64_t evals0 = s.probe->evaluations.load(std::memory_order_relaxed);
    bool progressed = false;
    int64_t step0 = NowNs();
    Status stepped = service.Step(s.name, &progressed);
    int64_t step1 = NowNs();
    ++tally.attempted;
    if (!stepped.ok()) {
      tally.Fail("step " + s.name, stepped);
      break;
    }
    if (!progressed) {
      finished = true;
      break;
    }
    if (Tracer::Global().on()) RecordSpan(SpanKind::kStep, s, k, step0, step1);
    tally.round_us.push_back(static_cast<double>(step1 - step0) / 1e3);
    tally.trials +=
        s.probe->evaluations.load(std::memory_order_relaxed) - evals0;
  }
  Result<SessionResult> closed = service.Close(s.name);
  int64_t end = NowNs();
  ++tally.attempted;
  if (!closed.ok()) {
    tally.Fail("close " + s.name, closed.status());
    return;
  }
  s.complete = finished;
  if (finished) {
    s.history = KbHistory(*closed);
    tally.session_ms.push_back(static_cast<double>(end - start) / 1e6);
  }
}

Status RunDrive(const Workload& w, const Options& opt, bool traced,
                Outcome* out) {
  // Set-up: service and simulator construction → the first
  // CreateSession return.
  std::unique_ptr<llamatune::service::TuningService> service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SessionRun probe_session;
    probe_session.seed = SessionSeed(opt.seed, 99, rep);
    probe_session.probe = std::make_shared<Probe>(probe_session.seed);
    int64_t t0 = NowNs();
    service = std::make_unique<llamatune::service::TuningService>();
    std::unique_ptr<TimedObjective> objective =
        DriveObjective(w, probe_session);
    llamatune::service::SessionSpec spec =
        DriveSpec(w, probe_session.seed, traced);
    spec.objective = objective.get();
    LT_RETURN_NOT_OK(service->CreateSession("setup", spec));
    out->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    Result<SessionResult> closed = service->Close("setup");
    if (!closed.ok()) return closed.status();
  }

  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(opt.seconds * 1e9);
  if (traced) Tracer::Global().Start();
  for (int i = 0;; ++i) {
    std::unique_ptr<SessionRun> s = NewSession(w, opt.seed, 0, i);
    if (!s->fixed && NowNs() >= deadline) break;
    RunDriveSession(*service, w, *s, traced, deadline, out->tally);
    if (s->fixed) out->kept.push_back(std::move(s));
  }
  out->wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  out->cpu_s = CpuSeconds() - cpu0;
  Tracer::Global().Stop();
  return Status::OK();
}

/// The solo replay a driven session must equal: the plain workload
/// source (the session builds its own simulator) and the untraced
/// optimizer, driven by TuningService::Drive.
std::vector<Committed> ReplayDrive(const Workload& w, const SessionRun& s) {
  llamatune::service::TuningService service;
  llamatune::service::SessionSpec spec = DriveSpec(w, s.seed, false);
  spec.workload = llamatune::dbsim::TpcC();
  spec.db_options = EvaluatorOptions(w, s.seed);
  if (!service.CreateSession("replay", spec).ok()) return {};
  if (!service.Drive("replay").ok()) return {};
  Result<SessionResult> closed = service.Close("replay");
  return closed.ok() ? KbHistory(*closed) : std::vector<Committed>{};
}

// ---------------------------------------------------------------------------
// Checks, quality and output
// ---------------------------------------------------------------------------

/// Replays the first session of every client and compares histories.
void CheckReplays(const Workload& w, Outcome* out) {
  std::vector<SessionRun*> firsts;
  for (auto& s : out->kept) {
    if (s->index == 0) firsts.push_back(s.get());
  }
  std::vector<std::vector<Committed>> replays(firsts.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < firsts.size(); ++i) {
    threads.emplace_back([&, i] {
      replays[i] = w.driver == Driver::kWire ? ReplayWire(w, *firsts[i])
                                             : ReplayDrive(w, *firsts[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < firsts.size(); ++i) {
    ++out->replayed;
    if (!firsts[i]->complete || firsts[i]->history.empty() ||
        HistoryDigest(replays[i]) != HistoryDigest(firsts[i]->history)) {
      ++out->replay_mismatches;
      out->tally.errors.push_back("replay mismatch: " + firsts[i]->name);
    }
  }
}

struct Quality {
  double best_gain = 0.0;
  double evals_to_best = 0.0;
  uint64_t digest = 0;
  int sessions = 0;
};

/// best_gain and evals_to_best over the fixed set, plus its digest in
/// session-name order.
Quality FixedSetQuality(std::vector<std::unique_ptr<SessionRun>>& kept) {
  std::sort(kept.begin(), kept.end(),
            [](const auto& a, const auto& b) { return a->name < b->name; });
  SimulatedPostgres truth(llamatune::dbsim::TpcC());
  const double default_tput =
      truth.RunNoiseless(truth.config_space().DefaultConfiguration())
          .throughput;
  std::vector<double> gains;
  std::vector<double> evals;
  Digest digest;
  Quality q;
  for (const auto& s : kept) {
    if (!s->fixed) continue;
    digest.Add(HistoryDigest(s->history));
    // The best measured configuration and the 1-based tuning iteration
    // that first reached it (the baseline is iteration 0).
    const Committed* best = nullptr;
    int best_eval = 0;
    int tuned = 0;
    for (const Committed& c : s->history) {
      if (c.baseline) continue;
      ++tuned;
      if (c.outcome != TrialOutcome::kOk) continue;
      if (best == nullptr || c.value > best->value) {
        best = &c;
        best_eval = tuned;
      }
    }
    if (best == nullptr) continue;
    gains.push_back(truth.RunNoiseless(Configuration(best->config)).throughput /
                    default_tput);
    evals.push_back(best_eval);
  }
  q.best_gain = Mean(gains);
  q.evals_to_best = Mean(evals);
  q.digest = digest.h;
  q.sessions = static_cast<int>(gains.size());
  return q;
}

void PrintJsonString(FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      std::fputc('\\', out);
      std::fputc(ch, out);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      std::fprintf(out, "\\u%04x", ch);
    } else {
      std::fputc(ch, out);
    }
  }
  std::fputc('"', out);
}

void PrintList() {
  std::printf("{\"workloads\": [");
  for (size_t i = 0; i < std::size(kWorkloads); ++i) {
    std::printf("%s{\"name\": \"%s\", \"why\": ", i ? ", " : "",
                kWorkloads[i].name);
    PrintJsonString(stdout, kWorkloads[i].why);
    std::printf("}");
  }
  std::printf("], \"end_to_end\": [");
  for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}",
                i ? ", " : "", kEndToEnd[i].name, kEndToEnd[i].unit,
                kEndToEnd[i].better);
  }
  std::printf("]}\n");
}

/// The run's result record (e2ebench/run.py reads it).
bool WriteResult(const Options& opt, const Workload& w, bool traced,
                 bool correct, const char* digest, const Outcome& out,
                 const Quality& quality, const double* values) {
  const Tally& t = out.tally;
  FILE* json = std::fopen(opt.json.c_str(), "w");
  if (json == nullptr) return false;
  std::fprintf(json,
               "{\"bench\": \"e2e\", \"workload\": \"%s\", \"seed\": %" PRIu64
               ", \"seconds\": %.17g, \"traced\": %s,\n",
               w.name, opt.seed, opt.seconds, traced ? "true" : "false");
  std::fprintf(json,
               " \"hardware\": {\"cores\": %u, \"pool_threads\": %d, "
               "\"compiler\": ",
               std::thread::hardware_concurrency(),
               llamatune::ThreadPool::DefaultThreads());
  PrintJsonString(json, "g++ " __VERSION__);
  std::fprintf(json, ", \"build_type\": \"%s\", \"fs\": \"%s\"},\n",
               E2E_BUILD_TYPE, FsName(opt.work_dir).c_str());
  std::fprintf(json,
               " \"correct\": %s, \"attempted\": %" PRId64
               ", \"failed\": %" PRId64 ", \"history_digest\": \"%s\",\n",
               correct ? "true" : "false", t.attempted, t.failed, digest);
  std::fprintf(json,
               " \"samples\": {\"trials\": %" PRId64
               ", \"rounds\": %zu, \"sessions\": %zu, \"setup_reps\": %zu, "
               "\"fixed_sessions\": %d, \"replayed\": %d, "
               "\"replay_mismatches\": %d, \"projections\": %" PRId64
               ", \"projection_mismatches\": %" PRId64
               ", \"timed_wall_s\": %.17g},\n",
               t.trials, t.round_us.size(), t.session_ms.size(),
               out.setup_s.size(), quality.sessions, out.replayed,
               out.replay_mismatches, t.projections, t.projection_mismatches,
               out.wall_s);
  std::fprintf(json, " \"metrics\": {");
  for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
    std::fprintf(json, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i ? "," : "", kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
  }
  std::fprintf(json, "},\n \"errors\": [");
  for (size_t i = 0; i < t.errors.size(); ++i) {
    if (i) std::fprintf(json, ", ");
    PrintJsonString(json, t.errors[i]);
  }
  std::fprintf(json, "]}\n");
  return std::fclose(json) == 0;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::optional<std::string> {
      size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) == 0) return arg.substr(n);
      return std::nullopt;
    };
    if (arg == "--list") {
      opt->list = true;
    } else if (auto v = value("--workload=")) {
      opt->workload = *v;
    } else if (auto v = value("--seed=")) {
      opt->seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("--seconds=")) {
      opt->seconds = std::strtod(v->c_str(), nullptr);
    } else if (auto v = value("--json=")) {
      opt->json = *v;
    } else if (auto v = value("--trace-out=")) {
      opt->trace_out = *v;
    } else if (auto v = value("--work-dir=")) {
      opt->work_dir = *v;
    } else {
      return false;
    }
  }
  return opt->list || (!opt->workload.empty() && opt->seconds > 0.0);
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: bm_e2e --workload=<name> --seed=<S> --seconds=<T> "
                 "--json=<out> [--trace-out=<spans.jsonl>] "
                 "[--work-dir=<dir>]\n       bm_e2e --list\n");
    return 2;
  }
  if (opt.list) {
    PrintList();
    return 0;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "bm_e2e: built without NDEBUG; timings would mislead\n");
  return 3;
#endif
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "bm_e2e: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  const bool traced = !opt.trace_out.empty();
  std::error_code ec;
  fs::create_directories(opt.work_dir, ec);
  Outcome out;
  ServerCounters counters;
  Status ran = RegisterTracedOptimizer(w.optimizer, w.driver == Driver::kDrive);
  if (ran.ok()) {
    ran = w.driver == Driver::kWire ? RunWire(w, opt, traced, &out, &counters)
                                    : RunDrive(w, opt, traced, &out);
  }
  if (!ran.ok()) out.tally.errors.push_back("run: " + ran.ToString());
  if (ran.ok()) CheckReplays(w, &out);
  Quality quality = FixedSetQuality(out.kept);

  const Tally& t = out.tally;
  const double trials = static_cast<double>(std::max<int64_t>(t.trials, 1));
  const double setup_s = Percentile(out.setup_s, 0.5);
  // In kEndToEnd order.
  const double values[] = {
      out.wall_s > 0 ? t.trials / out.wall_s : 0.0,
      Percentile(t.round_us, 0.50),
      Percentile(t.round_us, 0.99),
      Percentile(t.session_ms, 0.50),
      setup_s,
      out.cpu_s * 1e3 / trials,
      PeakRssMb(),
      quality.best_gain,
  };
  static_assert(std::size(values) == std::size(kEndToEnd));

  const bool correct = ran.ok() && t.failed == 0 &&
                       out.replay_mismatches == 0 &&
                       t.projection_mismatches == 0 && quality.sessions > 0 &&
                       !t.round_us.empty();

  if (traced) {
    Tracer& tracer = Tracer::Global();
    tracer.Count("timed_wall_s", out.wall_s);
    tracer.Count("setup_s", setup_s);
    tracer.Count("net.busy_rejections", static_cast<double>(counters.busy));
    tracer.Count("net.shed_overload", static_cast<double>(counters.shed));
    tracer.Count("service.autosaves_written",
                 static_cast<double>(counters.autosaves));
    tracer.Count("service.sessions_restored",
                 static_cast<double>(counters.restored));
    tracer.Count("quality.evals_to_best", quality.evals_to_best);
    if (!tracer.WriteJsonl(opt.trace_out, w.name)) {
      std::fprintf(stderr, "bm_e2e: cannot write %s\n", opt.trace_out.c_str());
      return 1;
    }
  }

  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, quality.digest);
  std::printf("[%s] seed %" PRIu64 ", %.1f s, %s: %" PRId64
              " trials, %zu sessions, %" PRId64 "/%" PRId64
              " requests failed, history_digest %s\n",
              w.name, opt.seed, out.wall_s, traced ? "traced" : "untraced",
              t.trials, t.session_ms.size(), t.failed, t.attempted, digest);
  for (size_t i = 0; i < std::size(values); ++i) {
    std::printf("  %-18s %14.6f %s\n", kEndToEnd[i].name, values[i],
                kEndToEnd[i].unit);
  }
  for (const std::string& e : t.errors) {
    std::fprintf(stderr, "  error: %s\n", e.c_str());
  }

  if (!opt.json.empty() &&
      !WriteResult(opt, w, traced, correct, digest, out, quality, values)) {
    std::fprintf(stderr, "bm_e2e: cannot write %s\n", opt.json.c_str());
    return 1;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
