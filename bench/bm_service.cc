// Service/wire front-end load benchmark: many short-lived tuning
// sessions driven over real TCP sockets against an in-process
// TuningServer, from several concurrent client threads.
//
// Each "session" is the full caller-measured lifecycle — Hello,
// CreateSession, ask/tell for a fixed iteration budget, Checkpoint,
// Close — so throughput covers framing, dispatch, quota bookkeeping
// and service work, not just raw socket echo.
//
// A second, overload phase reruns the same workload at 4x the client
// parallelism against a server whose expensive-admission queue is
// deliberately tiny: most asks are shed with kOverloaded + a
// retry-after hint that the resilient clients honor. The phase pins
// the load-shedding contract — admitted asks keep a p99 near the
// unloaded number because queue depth is bounded, and the shed/hint
// counters prove the cooperation happened.
//
// Emits BENCH_service.json in the layout of bench/bench_json.h. Its
// lower-is-better wall-clock metrics, named with the run settings:
// per_session_seconds (mean per session lifecycle), ask_seconds
// p50/p99 (Ask round trips) and, under overload, the admitted-ask
// p50/p99 and their ratio to the unloaded p99. Info holds
// sessions_per_sec (the headline), counts, and the shed and
// retry-hint counters, whose magnitude tracks scheduling luck.
//
// Usage: bm_service [--sessions=N] [--iterations=N] [--clients=N]
//        (defaults: 200 sessions, 6 ask/tell rounds each, 4 clients;
//        the overload phase always uses 4x clients)

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "src/common/math_util.h"
#include "src/knobs/knob.h"
#include "src/net/tuning_client.h"
#include "src/net/tuning_server.h"

namespace llamatune {
namespace {


double Measure(const Configuration& config) {
  double x = config[0] / 100.0;
  double y = config[1];
  return 1000.0 - 900.0 * ((x - 0.37) * (x - 0.37) + (y - 0.58) * (y - 0.58));
}

net::WireSessionSpec BenchSpec(int iterations, uint64_t seed) {
  net::WireSessionSpec spec;
  spec.space_knobs = {IntegerKnob("cache_mb", 0, 100, 50),
                      RealKnob("target_ratio", 0.0, 1.0, 0.5)};
  spec.optimizer_key = "random";
  spec.adapter_key = "identity";
  spec.seed = seed;
  spec.num_iterations = iterations;
  return spec;
}

struct ClientStats {
  int sessions_completed = 0;
  int errors = 0;
  std::vector<double> ask_seconds;
  std::vector<double> session_seconds;
  /// Overload phase only: retry sleeps driven by a server retry-after
  /// hint instead of the client's own jitter.
  int64_t hinted_retries = 0;
};

// One worker: connects once, then runs its share of session
// lifecycles back to back over that connection.
ClientStats RunClient(uint16_t port, int client_id, int sessions,
                      int iterations) {
  ClientStats stats;
  net::TuningClient client;
  if (!client.Connect("127.0.0.1", port).ok() ||
      !client.Hello("bench-tenant-" + std::to_string(client_id)).ok()) {
    stats.errors = sessions;
    return stats;
  }
  for (int s = 0; s < sessions; ++s) {
    const std::string name =
        "job-" + std::to_string(client_id) + "-" + std::to_string(s);
    double t0 = NowSeconds();
    uint64_t seed = 1000 + static_cast<uint64_t>(client_id) * 100000 + s;
    if (!client.CreateSession(name, BenchSpec(iterations, seed)).ok()) {
      ++stats.errors;
      continue;
    }
    bool ok = true;
    for (int round = 0; round < iterations && ok; ++round) {
      double a0 = NowSeconds();
      Result<Trial> trial = client.Ask(name);
      stats.ask_seconds.push_back(NowSeconds() - a0);
      if (!trial.ok()) {
        ok = false;
        break;
      }
      TrialResult result;
      result.trial_id = trial->id;
      result.value = Measure(trial->config);
      ok = client.Tell(name, result).ok();
    }
    ok = ok && client.Checkpoint(name).ok();
    ok = ok && client.Close(name).ok();
    if (ok) {
      ++stats.sessions_completed;
      stats.session_seconds.push_back(NowSeconds() - t0);
    } else {
      ++stats.errors;
      (void)client.Close(name);  // best-effort cleanup
    }
  }
  return stats;
}

// One overload worker: the same lifecycle as RunClient, but through a
// resilient client with per-request deadlines, hammering a server
// whose admission queue is deliberately tiny. An Ask that completes
// without ever seeing a retry-after hint was admitted on its first
// attempt — only those latencies count toward the admitted-ask
// percentiles; hinted retries are tallied instead of timed.
ClientStats RunOverloadClient(uint16_t port, int client_id, int sessions,
                              int iterations) {
  ClientStats stats;
  net::TuningClientOptions copts;
  copts.request_deadline_ms = 500;
  copts.retry.max_attempts = 20;
  copts.retry.initial_backoff_ms = 1;
  copts.retry.max_backoff_ms = 50;
  copts.retry.retry_budget_ms = 60000;
  copts.retry.jitter_seed = 100 + static_cast<uint64_t>(client_id);
  net::TuningClient client(copts);
  if (!client.Connect("127.0.0.1", port).ok() ||
      !client.Hello("overload-tenant-" + std::to_string(client_id)).ok()) {
    stats.errors = sessions;
    return stats;
  }
  for (int s = 0; s < sessions; ++s) {
    const std::string name =
        "ov-" + std::to_string(client_id) + "-" + std::to_string(s);
    double t0 = NowSeconds();
    uint64_t seed = 500000 + static_cast<uint64_t>(client_id) * 100000 + s;
    if (!client.CreateSession(name, BenchSpec(iterations, seed)).ok()) {
      ++stats.errors;
      continue;
    }
    bool ok = true;
    for (int round = 0; round < iterations && ok; ++round) {
      int64_t hints_before = client.retry_hints_seen();
      double a0 = NowSeconds();
      Result<Trial> trial = client.Ask(name);
      double elapsed = NowSeconds() - a0;
      if (!trial.ok()) {
        ok = false;
        break;
      }
      if (client.retry_hints_seen() == hints_before) {
        stats.ask_seconds.push_back(elapsed);
      }
      TrialResult result;
      result.trial_id = trial->id;
      result.value = Measure(trial->config);
      ok = client.Tell(name, result).ok();
    }
    ok = ok && client.Checkpoint(name).ok();
    ok = ok && client.Close(name).ok();
    if (ok) {
      ++stats.sessions_completed;
      stats.session_seconds.push_back(NowSeconds() - t0);
    } else {
      ++stats.errors;
      (void)client.Close(name);  // best-effort cleanup
    }
  }
  stats.hinted_retries = client.retry_hints_seen();
  return stats;
}

}  // namespace
}  // namespace llamatune

int main(int argc, char** argv) {
  using namespace llamatune;

  int sessions = 200;
  int iterations = 6;
  int clients = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sessions=", 11) == 0) {
      sessions = std::atoi(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--iterations=", 13) == 0) {
      iterations = std::atoi(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      clients = std::atoi(argv[i] + 10);
    } else {
      std::fprintf(stderr,
                   "usage: bm_service [--sessions=N] [--iterations=N] "
                   "[--clients=N]\n");
      return 2;
    }
  }
  sessions = std::max(sessions, 1);
  iterations = std::max(iterations, 1);
  clients = std::max(clients, 1);

  net::TuningServerOptions options;
  net::TuningServer server(options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("[service] %d sessions x %d iterations over %d clients "
              "(port %u)...\n",
              sessions, iterations, clients, server.port());

  // Split the session budget across clients; the first few absorb the
  // remainder so the total is exact.
  std::vector<int> share(clients, sessions / clients);
  for (int i = 0; i < sessions % clients; ++i) ++share[i];

  std::vector<ClientStats> stats(clients);
  double t0 = NowSeconds();
  {
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        stats[c] = RunClient(server.port(), c, share[c], iterations);
      });
    }
    for (std::thread& w : workers) w.join();
  }
  double wall = NowSeconds() - t0;
  server.Stop();

  int completed = 0;
  int errors = 0;
  std::vector<double> ask_seconds;
  std::vector<double> session_seconds;
  for (const ClientStats& s : stats) {
    completed += s.sessions_completed;
    errors += s.errors;
    ask_seconds.insert(ask_seconds.end(), s.ask_seconds.begin(),
                       s.ask_seconds.end());
    session_seconds.insert(session_seconds.end(), s.session_seconds.begin(),
                           s.session_seconds.end());
  }
  std::sort(ask_seconds.begin(), ask_seconds.end());
  double session_sum = 0.0;
  for (double v : session_seconds) session_sum += v;
  double per_session =
      completed > 0 ? session_sum / static_cast<double>(completed) : 0.0;
  double sessions_per_sec =
      wall > 0.0 ? static_cast<double>(completed) / wall : 0.0;
  double ask_p50 = PercentileSorted(ask_seconds, 50.0);
  double ask_p99 = PercentileSorted(ask_seconds, 99.0);

  // --- Overload phase: 4x the clients against a tiny admission
  // queue. Shedding keeps queue depth (and so admitted-ask latency)
  // bounded while the retry-after hints pace the herd.
  net::TuningServerOptions ov_options;
  ov_options.max_pending_requests = 6;
  ov_options.cheap_admission_reserve = 2;  // expensive-class cap: 4
  ov_options.default_request_deadline_ms = 500;
  ov_options.shed_retry_base_ms = 2;  // keep the bench brisk
  ov_options.shed_retry_max_ms = 25;
  net::TuningServer ov_server(ov_options);
  Status ov_started = ov_server.Start();
  if (!ov_started.ok()) {
    std::fprintf(stderr, "overload server start failed: %s\n",
                 ov_started.ToString().c_str());
    return 1;
  }
  int ov_clients = clients * 4;
  std::printf("[service] overload: %d sessions x %d iterations over %d "
              "clients, %d admission slots (port %u)...\n",
              sessions, iterations, ov_clients,
              ov_options.max_pending_requests, ov_server.port());

  std::vector<int> ov_share(ov_clients, sessions / ov_clients);
  for (int i = 0; i < sessions % ov_clients; ++i) ++ov_share[i];
  std::vector<ClientStats> ov_stats(ov_clients);
  double ov_t0 = NowSeconds();
  {
    std::vector<std::thread> workers;
    workers.reserve(ov_clients);
    for (int c = 0; c < ov_clients; ++c) {
      workers.emplace_back([&, c] {
        ov_stats[c] =
            RunOverloadClient(ov_server.port(), c, ov_share[c], iterations);
      });
    }
    for (std::thread& w : workers) w.join();
  }
  double ov_wall = NowSeconds() - ov_t0;

  // Scrape the shed counters the way an operator would — over the
  // wire via kServerStats — before stopping the server.
  long long shed_overload = 0;
  long long shed_deadline = 0;
  {
    net::TuningClient probe;
    if (probe.Connect("127.0.0.1", ov_server.port()).ok()) {
      Result<net::WireServerStats> wire = probe.ServerStats();
      if (wire.ok()) {
        shed_overload = wire->shed_overload;
        shed_deadline = wire->shed_deadline;
      }
    }
  }
  ov_server.Stop();

  int ov_completed = 0;
  int ov_errors = 0;
  long long hinted_retries = 0;
  std::vector<double> admitted_ask;
  for (const ClientStats& s : ov_stats) {
    ov_completed += s.sessions_completed;
    ov_errors += s.errors;
    hinted_retries += s.hinted_retries;
    admitted_ask.insert(admitted_ask.end(), s.ask_seconds.begin(),
                        s.ask_seconds.end());
  }
  std::sort(admitted_ask.begin(), admitted_ask.end());
  double ov_ask_p50 = PercentileSorted(admitted_ask, 50.0);
  double ov_ask_p99 = PercentileSorted(admitted_ask, 99.0);
  double p99_ratio = ask_p99 > 0.0 ? ov_ask_p99 / ask_p99 : 0.0;

  bench::BenchJson json("service");
  json.Config("sessions", sessions);
  json.Config("iterations", iterations);
  json.Config("clients", clients);
  json.Config("overload.clients", ov_clients);
  std::string key = bench::Format("sessions=%d,iters=%d,clients=%d",
                                  sessions, iterations, clients);
  std::string ov_key = bench::Format("%s,ov_clients=%d", key.c_str(),
                                     ov_clients);
  json.Metric("per_session_seconds[" + key + "]", per_session, false);
  json.Metric("ask_seconds.p50[" + key + "]", ask_p50, false);
  json.Metric("ask_seconds.p99[" + key + "]", ask_p99, false);
  json.Metric("overload.admitted_ask_seconds.p50[" + ov_key + "]",
              ov_ask_p50, false);
  json.Metric("overload.admitted_ask_seconds.p99[" + ov_key + "]",
              ov_ask_p99, false);
  json.Metric("overload.admitted_p99_over_unloaded_p99[" + ov_key + "]",
              p99_ratio, false);
  json.Info("sessions_completed", completed);
  json.Info("errors", errors);
  json.Info("wall_seconds", wall);
  json.Info("sessions_per_sec", sessions_per_sec);
  json.Info("ask_seconds.count", ask_seconds.size());
  json.Info("overload.sessions_completed", ov_completed);
  json.Info("overload.errors", ov_errors);
  json.Info("overload.wall_seconds", ov_wall);
  json.Info("overload.shed_overload", shed_overload);
  json.Info("overload.shed_deadline", shed_deadline);
  json.Info("overload.retry_hints_seen", hinted_retries);
  json.Info("overload.admitted_ask_seconds.count", admitted_ask.size());
  if (!json.Write()) return 1;

  std::printf("[service] %d/%d sessions ok (%d errors) in %.2f s — "
              "%.1f sessions/s, per-session %.3f ms, "
              "ask p50 %.3f ms p99 %.3f ms\n",
              completed, sessions, errors, wall, sessions_per_sec,
              per_session * 1e3, ask_p50 * 1e3, ask_p99 * 1e3);
  std::printf("[service] overload: %d/%d sessions ok (%d errors), "
              "shed %lld (+%lld deadline), %lld hinted retries, "
              "admitted ask p50 %.3f ms p99 %.3f ms (%.2fx unloaded)\n",
              ov_completed, sessions, ov_errors, shed_overload,
              shed_deadline, hinted_retries, ov_ask_p50 * 1e3,
              ov_ask_p99 * 1e3, p99_ratio);
  std::printf("[service] wrote BENCH_service.json\n");
  return (errors == 0 && ov_errors == 0) ? 0 : 1;
}
