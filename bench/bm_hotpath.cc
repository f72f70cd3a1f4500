// Math-core hot path benchmark (the first entry in the perf
// trajectory): times the incremental GP + flat-matrix + thread-pool
// path, serial and pooled, and the batch-evaluation speedup over a
// clonable objective.
//
// Emits BENCH_hotpath.json in the layout of bench/bench_json.h; every
// metric is wall-clock seconds:
//   fast_[pooled_]per_iter_seconds[n=N]  mean fit+predict per GP-BO
//                                        iteration, serial / pooled
//   update_scaling.incremental_update_seconds_{lo,hi}
//                                        model update at the two largest
//                                        checkpoints (a doubling of n
//                                        costs ~4x if O(n^2), ~8x if
//                                        O(n^3))
//   batch.batch{1,8}_seconds             batch-1 vs batch-8 session over
//                                        a clonable spin objective
//                                        (speedup tracks min(cores, q))
//   rf_fit_seconds[n=N]                  one RandomForest::Fit of SMAC's
//                                        surrogate (d = 16, 10 trees)
//   rf_score600_seconds[n=N]             that forest scoring 600
//                                        candidates in the blocks SMAC's
//                                        ScoreCandidates uses, serially
//
// Usage: bm_hotpath [--max-n=N] (default 200; lower for smoke runs)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "src/common/math_util.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/adapter_registry.h"
#include "src/core/tuning_session.h"
#include "src/model/acquisition.h"
#include "src/model/gp.h"
#include "src/model/random_forest.h"
#include "src/optimizer/random_search.h"
#include "src/optimizer/search_space.h"

namespace llamatune {
namespace {

using bench::DrawPoint;
using bench::SyntheticObjective;

// ---------------------------------------------------------------------------
// Part 1: GP fit+predict vs n.
// ---------------------------------------------------------------------------

struct Checkpoint {
  int n = 0;
  double per_iter_seconds = 0.0;   // mean fit+predict, window before n
  double update_seconds = 0.0;     // mean fit-only, window before n
  /// Mean fit-only seconds over the window's non-reopt iterations —
  /// the pure incremental model update (reopt-boundary refits are
  /// scheduled O(n^3) work in every path).
  double incremental_update_seconds = 0.0;
  double cumulative_seconds = 0.0;
};

// Simulates the model side of a GP-BO session from 10 to max_n
// observations: each iteration refits the GP on everything seen, scores
// 550 candidates by EI, then receives one new observation. The
// observation stream and candidate pools are identical for every
// GpOptions (regenerated from fixed seeds), so timings are
// apples-to-apples.
std::vector<Checkpoint> RunModelLoop(const SearchSpace& space,
                                     const GpOptions& options, int max_n,
                                     const std::vector<int>& checkpoints) {
  constexpr int kCandidates = 550;
  constexpr int kWindow = 10;
  GaussianProcess gp(space, options, 1);
  Rng data_rng(4242);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  std::vector<Checkpoint> out;
  std::vector<double> iter_seconds, fit_seconds;
  std::vector<bool> is_reopt;
  double cumulative = 0.0;
  for (int n = 10; n <= max_n; ++n) {
    while (static_cast<int>(xs.size()) < n) {  // initial design, then 1
      xs.push_back(DrawPoint(space, &data_rng));
      ys.push_back(SyntheticObjective(xs.back()));
    }
    // Mirrors GpOptions::reopt_interval: the GP re-optimizes
    // hyperparameters on fit calls 0, 5, 10, ... (fit call n-10 here).
    is_reopt.push_back((n - 10) % 5 == 0);
    double t0 = NowSeconds();
    // The session feeds observations as they arrive; replicate that by
    // appending only the yet-unseen suffix.
    for (size_t i = static_cast<size_t>(gp.num_observations());
         i < xs.size(); ++i) {
      gp.AddObservation(xs[i], ys[i]);
    }
    gp.Refit();
    double t1 = NowSeconds();
    Rng cand_rng(HashCombine(9000, static_cast<uint64_t>(n)));
    std::vector<std::vector<double>> candidates;
    candidates.reserve(kCandidates);
    for (int c = 0; c < kCandidates; ++c) {
      candidates.push_back(DrawPoint(space, &cand_rng));
    }
    std::vector<double> means, variances;
    gp.PredictBatch(candidates, &means, &variances);
    double best_ei = -1.0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      best_ei =
          std::max(best_ei, ExpectedImprovement(means[i], variances[i], 0.0));
    }
    double t2 = NowSeconds();
    iter_seconds.push_back(t2 - t0);
    fit_seconds.push_back(t1 - t0);
    cumulative += t2 - t0;
    for (int cp : checkpoints) {
      if (n == cp) {
        int w = std::min<int>(kWindow, iter_seconds.size());
        std::vector<double> iter_window(iter_seconds.end() - w,
                                        iter_seconds.end());
        std::vector<double> fit_window(fit_seconds.end() - w,
                                       fit_seconds.end());
        std::vector<double> incr_window;
        for (int k = 0; k < w; ++k) {
          size_t idx = fit_seconds.size() - w + k;
          if (!is_reopt[idx]) incr_window.push_back(fit_seconds[idx]);
        }
        Checkpoint c;
        c.n = cp;
        c.per_iter_seconds = Mean(iter_window);
        c.update_seconds = Mean(fit_window);
        c.incremental_update_seconds = Mean(incr_window);
        c.cumulative_seconds = cumulative;
        out.push_back(c);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Part 2: batch-1 vs batch-8 session wall-clock over a clonable
// objective with a fixed CPU cost per evaluation.
// ---------------------------------------------------------------------------

class SpinObjective : public ObjectiveFunction {
 public:
  explicit SpinObjective(int spin_iters)
      : spin_iters_(spin_iters),
        space_(*ConfigSpace::Create({IntegerKnob("a", 0, 100, 50),
                                     RealKnob("b", 0.0, 1.0, 0.5)})) {}

  EvalResult Evaluate(const Configuration& config) override {
    // Deterministic fixed-cost busy loop standing in for a workload run.
    volatile double sink = 0.0;
    for (int i = 0; i < spin_iters_; ++i) {
      sink = sink + std::sqrt(static_cast<double>(i) + 1.0);
    }
    EvalResult result;
    result.value = config[0] + 10.0 * config[1] + sink * 0.0;
    return result;
  }

  const ConfigSpace& config_space() const override { return space_; }

  std::unique_ptr<ObjectiveFunction> Clone() const override {
    return std::make_unique<SpinObjective>(spin_iters_);
  }

 private:
  int spin_iters_;
  ConfigSpace space_;
};

struct BatchResult {
  double seconds = 0.0;
  double best = 0.0;
};

BatchResult RunBatchSession(int batch_size, int spin_iters) {
  SpinObjective objective(spin_iters);
  std::unique_ptr<SpaceAdapter> adapter =
      std::move(AdapterRegistry::Global().Create(
                    "identity", &objective.config_space(), 77))
          .ValueOrDie();
  RandomSearchOptimizer optimizer(adapter->search_space(), /*seed=*/77);
  SessionOptions options;
  options.num_iterations = 48;
  options.batch_size = batch_size;
  TuningSession session(&objective, adapter.get(), &optimizer, options);
  double t0 = NowSeconds();
  SessionResult result = session.Run();
  BatchResult out;
  out.seconds = NowSeconds() - t0;
  out.best = result.best_performance;
  return out;
}

// ---------------------------------------------------------------------------
// Part 3: SMAC's random-forest surrogate, fit and candidate scoring.
// ---------------------------------------------------------------------------

struct ForestTiming {
  double fit_seconds = 0.0;    // median over repetitions
  double score_seconds = 0.0;  // median over repetitions
};

// Times one Fit on n points and one scoring pass over 600 candidates,
// in the 16-dimensional space SMAC searches after projection. The pass
// makes ScoreCandidates' PredictBatch calls, one block after another,
// so this is one core's cost.
ForestTiming TimeForest(int n) {
  constexpr int kCandidates = 600;
  constexpr int kReps = 30;
  SearchSpace space(
      std::vector<SearchDim>(16, SearchDim::Continuous(-1.0, 1.0)));
  Rng rng(HashCombine(5150, static_cast<uint64_t>(n)));
  std::vector<std::vector<double>> xs, candidates;
  std::vector<double> ys;
  for (int i = 0; i < n; ++i) {
    xs.push_back(DrawPoint(space, &rng));
    ys.push_back(SyntheticObjective(xs.back()));
  }
  for (int c = 0; c < kCandidates; ++c) {
    candidates.push_back(DrawPoint(space, &rng));
  }
  constexpr int kBlock = RandomForest::kBlockRows;
  double means[kBlock], variances[kBlock];
  RandomForest forest(space, RandomForestOptions{}, 1);
  std::vector<double> fit_seconds, score_seconds;
  for (int rep = 0; rep < kReps; ++rep) {
    double t0 = NowSeconds();
    forest.Fit(xs, ys);
    double t1 = NowSeconds();
    for (int begin = 0; begin < kCandidates; begin += kBlock) {
      forest.PredictBatch(candidates.data() + begin,
                          std::min(kBlock, kCandidates - begin), means,
                          variances);
    }
    double t2 = NowSeconds();
    fit_seconds.push_back(t1 - t0);
    score_seconds.push_back(t2 - t1);
  }
  ForestTiming out;
  out.fit_seconds = Percentile(fit_seconds, 50.0);
  out.score_seconds = Percentile(score_seconds, 50.0);
  return out;
}

}  // namespace
}  // namespace llamatune

int main(int argc, char** argv) {
  using namespace llamatune;

  int max_n = 200;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-n=", 8) == 0) {
      max_n = std::atoi(argv[i] + 8);
    }
  }
  std::vector<int> checkpoints;
  for (int cp : {50, 100, 200}) {
    if (cp <= max_n) checkpoints.push_back(cp);
  }

  SearchSpace space = bench::SyntheticSpace();
  GpOptions gp_options;  // paper defaults: 24 restarts, reopt every 5

  // The GP is measured twice: serial (num_threads = 1) for the
  // algorithmic cost alone, and pooled (num_threads = 0) for the
  // wall-clock the default configuration actually delivers on this
  // machine.
  std::printf("[hotpath] fast path, serial, max n=%d...\n", max_n);
  GpOptions serial_options = gp_options;
  serial_options.num_threads = 1;
  std::vector<Checkpoint> fast_cp =
      RunModelLoop(space, serial_options, max_n, checkpoints);
  std::printf("[hotpath] fast path, pooled (wall-clock)...\n");
  std::vector<Checkpoint> pooled_cp =
      RunModelLoop(space, gp_options, max_n, checkpoints);

  std::printf("[hotpath] batch sessions (spin objective)...\n");
  const int spin_iters = 400000;  // ~1-3 ms per evaluation
  BatchResult batch1 = RunBatchSession(1, spin_iters);
  BatchResult batch8 = RunBatchSession(8, spin_iters);
  BatchResult batch8_repeat = RunBatchSession(8, spin_iters);
  bool deterministic = batch8.best == batch8_repeat.best;
  double batch_speedup = batch1.seconds / std::max(batch8.seconds, 1e-12);

  std::printf("[hotpath] random forest fit + score...\n");
  std::vector<std::pair<int, ForestTiming>> forest;
  for (int n : {20, 50, 100}) {
    if (n <= max_n) forest.emplace_back(n, TimeForest(n));
  }

  bench::BenchJson json("hotpath");
  json.Config("candidates_per_iteration", 550);
  json.Config("batch_iterations", 48);
  for (size_t i = 0; i < fast_cp.size(); ++i) {
    int n = fast_cp[i].n;
    json.Metric(bench::Format("fast_per_iter_seconds[n=%d]", n),
                fast_cp[i].per_iter_seconds, false);
    json.Metric(bench::Format("fast_pooled_per_iter_seconds[n=%d]", n),
                pooled_cp[i].per_iter_seconds, false);
    json.Info(bench::Format("fast_cumulative_seconds[n=%d]", n),
              fast_cp[i].cumulative_seconds);
  }
  if (fast_cp.size() >= 2) {
    const Checkpoint& a = fast_cp[fast_cp.size() - 2];
    const Checkpoint& b = fast_cp.back();
    // Pure incremental updates (non-reopt iterations): a doubling of n
    // should cost ~4x (O(n^2) Cholesky extension + alpha recompute),
    // not the ~8x a full O(n^3) refit would.
    json.Metric("update_scaling.incremental_update_seconds_lo",
                a.incremental_update_seconds, false);
    json.Metric("update_scaling.incremental_update_seconds_hi",
                b.incremental_update_seconds, false);
    json.Info("update_scaling.n_lo", a.n);
    json.Info("update_scaling.n_hi", b.n);
    json.Info("update_scaling.ratio",
              b.incremental_update_seconds /
                  std::max(a.incremental_update_seconds, 1e-12));
    json.Info("update_scaling.o_n2_reference",
              static_cast<double>(b.n) * b.n / (a.n * a.n));
    json.Info("update_scaling.o_n3_reference",
              static_cast<double>(b.n) * b.n * b.n /
                  (static_cast<double>(a.n) * a.n * a.n));
  }
  json.Metric("batch.batch1_seconds", batch1.seconds, false);
  json.Metric("batch.batch8_seconds", batch8.seconds, false);
  json.Info("batch.speedup", batch_speedup);
  json.Info("batch.deterministic_repeat", deterministic);
  for (const auto& [n, timing] : forest) {
    json.Metric(bench::Format("rf_fit_seconds[n=%d]", n), timing.fit_seconds,
                false);
    json.Metric(bench::Format("rf_score600_seconds[n=%d]", n),
                timing.score_seconds, false);
  }
  if (!json.Write()) return 1;

  for (size_t i = 0; i < fast_cp.size(); ++i) {
    std::printf("[hotpath] n=%3d  fast %.3f ms/iter (fit %.3f)  "
                "pooled %.3f ms/iter\n",
                fast_cp[i].n, fast_cp[i].per_iter_seconds * 1e3,
                fast_cp[i].update_seconds * 1e3,
                pooled_cp[i].per_iter_seconds * 1e3);
  }
  std::printf("[hotpath] batch: %d cores, batch1 %.3f s, batch8 %.3f s, "
              "speedup %.2fx, deterministic=%s\n",
              ThreadPool::DefaultThreads(), batch1.seconds, batch8.seconds,
              batch_speedup, deterministic ? "true" : "false");
  for (const auto& [n, timing] : forest) {
    std::printf("[hotpath] forest n=%3d  fit %.3f ms  score600 %.3f ms\n", n,
                timing.fit_seconds * 1e3, timing.score_seconds * 1e3);
  }
  std::printf("[hotpath] wrote BENCH_hotpath.json\n");
  return 0;
}
