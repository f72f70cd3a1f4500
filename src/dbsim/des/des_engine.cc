#include "src/dbsim/des/des_engine.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/math_util.h"
#include "src/common/rng.h"
#include "src/dbsim/des/event_queue.h"
#include "src/dbsim/des/txn_mix.h"

namespace llamatune {
namespace dbsim {
namespace des {

namespace {

constexpr int kEventTxnDone = 1;

// Gamma(shape k, given mean) via sum of exponentials for integer k —
// enough shape control for service-time skew.
double SampleGamma(int shape, double mean, Rng* rng) {
  double scale = mean / shape;
  double sum = 0.0;
  for (int i = 0; i < shape; ++i) {
    sum += -std::log(std::max(rng->Uniform(), 1e-12)) * scale;
  }
  return sum;
}

}  // namespace

DesResult SimulateRun(const ModelOutput& analytic,
                      const WorkloadSpec& workload,
                      const DesOptions& options) {
  return SimulateRun(analytic, workload, options,
                     ZipfianGenerator(kDesKeySpace, workload.zipf_theta));
}

DesResult SimulateRun(const ModelOutput& analytic,
                      const WorkloadSpec& workload, const DesOptions& options,
                      const ZipfianGenerator& zipf) {
  DesResult result;
  if (analytic.crashed || analytic.throughput <= 0.0) return result;

  Rng rng(options.seed);
  const RunCounters& counters = analytic.counters;
  double mean_latency_s = analytic.avg_latency_ms / 1000.0;

  // Decompose the analytic mean into the episodic parts the DES
  // re-creates explicitly, and a base part it samples smoothly.
  double x = analytic.throughput;  // txn/s
  double lock_share =
      x > 0 ? Clamp(counters.lock_wait_ms_per_s / 1000.0 / x /
                        mean_latency_s,
                    0.0, 0.5)
            : 0.0;
  double io_share =
      x > 0 ? Clamp(counters.blk_read_time_ms_per_s / 1000.0 / x /
                        mean_latency_s,
                    0.0, 0.6)
            : 0.0;

  // Checkpoint cadence and intensity: low completion targets compress
  // the same flush work into a shorter, harsher window.
  double ckpt_per_min =
      counters.checkpoints_timed_per_min + counters.checkpoints_req_per_min;
  double spike = std::max(0.0, analytic.p95_latency_ms /
                                       std::max(analytic.avg_latency_ms,
                                                1e-9) -
                                   1.7);
  double ckpt_interval_s =
      ckpt_per_min > 1e-6 ? 60.0 / ckpt_per_min : 1e18;
  double ckpt_slowdown = 1.0 + spike;
  // The simulated horizon is much shorter than a real 5-minute run;
  // compress the checkpoint period (keeping the 25% duty cycle) so the
  // run still averages over several cycles, and randomize the phase so
  // runs do not all start at a cycle boundary.
  double horizon_s = options.max_transactions * mean_latency_s /
                     std::max(workload.clients, 1);
  double period_s = std::min(ckpt_interval_s, horizon_s / 8.0);
  period_s = std::max(period_s, 1e-3);
  double window_s = ckpt_interval_s < 1e17 ? 0.25 * period_s : 0.0;

  // Transaction-type mix: heavy types (TPC-C Delivery/StockLevel
  // etc.) carry the tail; only write types contend for locks. Costs
  // are normalized by the mix mean so the overall mean demand is
  // preserved.
  TxnMix mix =
      MixForWorkload(workload.name, workload.read_only_txn_fraction);
  double mix_mean_cost = mix.MeanCostMultiplier();
  double lock_prob_given_write = Clamp(workload.contention, 0.0, 0.9);
  double lock_rate = lock_prob_given_write * mix.WriteFraction();
  double lock_wait_mean_s =
      lock_rate > 1e-9 ? lock_share * mean_latency_s / lock_rate : 0.0;

  // Zipfian key space decides which transactions pay the miss path.
  // The hot-key cutoff must hold the analytic *access-mass* hit rate,
  // not a key-space fraction, so calibrate it against sampled draws.
  double hit_rate =
      counters.blks_hit_per_s + counters.blks_read_per_s > 0
          ? counters.blks_hit_per_s /
                (counters.blks_hit_per_s + counters.blks_read_per_s)
          : 1.0;
  int64_t hot_keys = zipf.num_keys();
  double miss_prob = 0.0;
  if (hit_rate < 0.999) {
    Rng probe(HashCombine(options.seed, 0xca11b8a7ULL));
    std::vector<int64_t> draws(2000);
    for (int64_t& d : draws) d = zipf.Next(&probe);
    std::sort(draws.begin(), draws.end());
    hot_keys = draws[static_cast<size_t>(Clamp(hit_rate, 0.0, 1.0) *
                                         (draws.size() - 1))];
    for (int64_t d : draws) {
      if (d >= hot_keys) miss_prob += 1.0;
    }
    miss_prob /= static_cast<double>(draws.size());
  }
  double io_penalty_s =
      miss_prob > 1e-6 ? io_share * mean_latency_s / miss_prob : 0.0;

  // Compensate the periodic checkpoint slowdown so the DES mean stays
  // on the analytic mean. In a closed loop, in-window transactions run
  // slower, so the *start-count* weight of the window is
  // (w/s) / (w/s + (1-w)), not w — use that weight.
  double window_frac =
      window_s > 0.0 ? Clamp(window_s / period_s, 0.0, 1.0) : 0.0;
  double in_weight =
      window_frac > 0.0
          ? (window_frac / ckpt_slowdown) /
                (window_frac / ckpt_slowdown + (1.0 - window_frac))
          : 0.0;
  double slowdown_compensation = 1.0 + in_weight * (ckpt_slowdown - 1.0);
  double base_mean_s =
      std::max(1e-9, mean_latency_s * (1.0 - lock_share - io_share) /
                         slowdown_compensation);
  io_penalty_s /= slowdown_compensation;
  lock_wait_mean_s /= slowdown_compensation;

  EventQueue queue;
  std::vector<double> latencies;
  latencies.reserve(options.max_transactions);
  double phase_offset = rng.Uniform(0.0, period_s);

  auto sample_latency = [&](double now) {
    const TxnType& txn = mix.type(mix.Sample(&rng));
    double t = SampleGamma(
        6, base_mean_s * txn.cost_multiplier / mix_mean_cost, &rng);
    if (zipf.Next(&rng) >= hot_keys) t += io_penalty_s;  // cold key
    if (txn.write && rng.Bernoulli(lock_prob_given_write)) {
      t += -std::log(std::max(rng.Uniform(), 1e-12)) * lock_wait_mean_s;
    }
    // Transactions overlapping a checkpoint window run slower.
    if (window_s > 0.0) {
      double phase = std::fmod(now + phase_offset, period_s);
      if (phase < window_s) t *= ckpt_slowdown;
    }
    return t;
  };

  // Closed loop: every client immediately starts its next transaction.
  std::vector<double> start_time(workload.clients, 0.0);
  for (int c = 0; c < workload.clients; ++c) {
    queue.Push(sample_latency(0.0), kEventTxnDone, c);
  }

  int completed = 0;
  double now = 0.0;
  while (completed < options.max_transactions && !queue.empty()) {
    Event event = queue.Pop();
    now = event.time;
    latencies.push_back((now - start_time[event.actor]) * 1000.0);
    ++completed;
    start_time[event.actor] = now;
    queue.Push(now + sample_latency(now), kEventTxnDone, event.actor);
  }

  // Discard warm-up completions.
  int skip = static_cast<int>(latencies.size() * options.warmup_fraction);
  std::vector<double> steady(latencies.begin() + skip, latencies.end());
  if (steady.empty()) return result;

  result.completed = static_cast<int>(steady.size());
  result.sim_seconds = now;
  // The mean sums in completion order, so take it before sorting.
  result.avg_latency_ms = Mean(steady);
  std::sort(steady.begin(), steady.end());
  result.p95_latency_ms = PercentileSorted(steady, 95.0);
  result.p99_latency_ms = PercentileSorted(steady, 99.0);
  double measured_window_s =
      now * (1.0 - options.warmup_fraction);
  result.throughput = measured_window_s > 0
                          ? result.completed / measured_window_s
                          : 0.0;
  if (options.capture_latencies) result.latencies = std::move(latencies);
  return result;
}

}  // namespace des
}  // namespace dbsim
}  // namespace llamatune
