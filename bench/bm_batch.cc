// Batch-suggestion sample-efficiency benchmark: the batch-aware
// SuggestBatch modes (GP-BO greedy q-EI, GP-BO local penalization,
// SMAC near-duplicate exclusion) against the optimizer-agnostic
// sequential fallback, at batch sizes 1/2/4/8 on the fixed-seed
// simulator grid — TPC-C on the noiseless simulator (noise_sigma = 0,
// so best-seen values measure configurations found, not noise draws)
// through the hesbo8 projection, matching tests/batch_quality_test.cc.
//
// Best-so-far curves are averaged over the seed grid, then each
// batch-aware arm is scored against its family's sequential fallback
// at the same batch size. Emits BENCH_batch.json in the layout of
// bench/bench_json.h, one row per (batch-aware key, batch size); a
// row's metric names embed "<key>,q=<batch size>,iters=..,seeds=..":
//   mean_evals_to_fallback_best     evaluations the batch-aware mode's
//     (metric, deterministic)       mean curve needed to reach the
//                                   fallback mean curve's final best
//   mean_optimizer_seconds          suggest+observe wall-clock per
//     (metric, wall-clock)          session (batch suggestion must stay
//                                   within a small constant factor of
//                                   single-point cost)
//   info, keyed "<name>[<key>,q=<batch size>]":
//     mean_fallback_evals_to_best   evaluations the fallback spent
//                                   getting there itself
//     sample_efficiency             ratio of the two (higher = better;
//                                   mean_evals capped at budget + 1
//                                   when the target is never reached)
//     mean_best_objective, mean_fallback_best_objective
//                                   mean final best (internal objective)
//     mean_fallback_optimizer_seconds
//     identical_at_q1               1 when the q==1 batches degraded to
//                                   the plain suggestion bit-for-bit
//
// The quality metrics (evals-to-target, best objective) are
// deterministic for fixed seeds at any thread count; only the
// *_seconds fields carry wall-clock noise. CI regenerates this file
// with the committed baseline's exact flags and compares via
// scripts/check_bench_regression.py.
//
// Usage: bm_batch [--iterations=N] [--seeds=S]   (defaults 64, 5 —
//        the same settings CI's bench-smoke job passes explicitly and
//        the committed baseline was generated with; regenerate the
//        baseline with identical flags or the name-embedded configs
//        stop intersecting and the check compares nothing)

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "src/optimizer/optimizer_registry.h"
#include "src/optimizer/smac.h"

namespace llamatune {
namespace {

using bench::EvalsToReach;
using bench::RunBatchGridCell;

struct BenchConfig {
  int iterations = 64;
  int seeds = 5;
  uint64_t base_seed = bench::kBatchGridBaseSeed;
};

struct CellResult {
  std::vector<double> mean_curve;      // mean best-so-far over seeds
  double mean_optimizer_seconds = 0.0;
};

CellResult RunCell(const BenchConfig& config,
                   const std::string& optimizer_key, int batch_size) {
  CellResult out;
  out.mean_curve.assign(config.iterations, 0.0);
  for (int s = 0; s < config.seeds; ++s) {
    uint64_t seed = config.base_seed + static_cast<uint64_t>(s);
    SessionResult result = RunBatchGridCell(optimizer_key, seed,
                                            config.iterations, batch_size);
    std::vector<double> curve = result.kb.BestSoFarObjective();
    for (int i = 0; i < config.iterations &&
                    i < static_cast<int>(curve.size());
         ++i) {
      out.mean_curve[i] += curve[i];
    }
    out.mean_optimizer_seconds += result.optimizer_seconds;
  }
  for (double& v : out.mean_curve) v /= config.seeds;
  out.mean_optimizer_seconds /= config.seeds;
  return out;
}

struct SeriesEntry {
  std::string optimizer;
  int batch_size = 0;
  double mean_evals_to_fallback_best = 0.0;
  double mean_fallback_evals_to_best = 0.0;
  double sample_efficiency = 0.0;
  double mean_best_objective = 0.0;
  double mean_fallback_best_objective = 0.0;
  double mean_optimizer_seconds = 0.0;
  double mean_fallback_optimizer_seconds = 0.0;
  bool identical_at_q1 = false;
};

SeriesEntry MakeEntry(const std::string& aware_key, int batch_size,
                      const CellResult& aware, const CellResult& fallback) {
  SeriesEntry entry;
  entry.optimizer = aware_key;
  entry.batch_size = batch_size;
  double target = fallback.mean_curve.back();
  entry.mean_fallback_evals_to_best =
      EvalsToReach(fallback.mean_curve, target);
  entry.mean_evals_to_fallback_best = EvalsToReach(aware.mean_curve, target);
  entry.sample_efficiency = entry.mean_fallback_evals_to_best /
                            entry.mean_evals_to_fallback_best;
  entry.mean_best_objective = aware.mean_curve.back();
  entry.mean_fallback_best_objective = target;
  entry.mean_optimizer_seconds = aware.mean_optimizer_seconds;
  entry.mean_fallback_optimizer_seconds = fallback.mean_optimizer_seconds;
  if (batch_size == 1) {
    entry.identical_at_q1 = aware.mean_curve == fallback.mean_curve;
  }
  return entry;
}

}  // namespace
}  // namespace llamatune

int main(int argc, char** argv) {
  using namespace llamatune;

  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--iterations=", 13) == 0) {
      config.iterations = std::atoi(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--seeds=", 8) == 0) {
      config.seeds = std::atoi(argv[i] + 8);
    }
  }

  // The sequential-fallback SMAC arm: diversification disabled, so
  // SuggestBatch is n successive Suggest() calls. The registry is
  // open — register the arm instead of special-casing the harness.
  if (!OptimizerRegistry::Global().Contains("smac-seq")) {
    OptimizerRegistry::Global().Register(
        "smac-seq",
        [](const SearchSpace& space,
           uint64_t seed) -> Result<std::unique_ptr<Optimizer>> {
          SmacOptions options;
          options.batch_min_distance = 0.0;
          return std::unique_ptr<Optimizer>(
              new SmacOptimizer(space, options, seed));
        });
  }

  struct Family {
    const char* fallback;
    std::vector<const char*> aware;
  };
  const std::vector<Family> families = {
      {"gpbo", {"gpbo-qei", "gpbo-lp"}},
      {"smac-seq", {"smac"}},
  };
  const std::vector<int> batch_sizes = {1, 2, 4, 8};

  std::vector<SeriesEntry> series;
  for (const Family& family : families) {
    for (int q : batch_sizes) {
      std::printf("[batch] %s fallback, q=%d (%d iterations, %d seeds)...\n",
                  family.fallback, q, config.iterations, config.seeds);
      CellResult fallback = RunCell(config, family.fallback, q);
      for (const char* aware_key : family.aware) {
        std::printf("[batch] %s, q=%d...\n", aware_key, q);
        CellResult aware = RunCell(config, aware_key, q);
        series.push_back(MakeEntry(aware_key, q, aware, fallback));
      }
    }
  }

  bench::BenchJson json("batch");
  json.Config("iterations", config.iterations);
  json.Config("seeds", config.seeds);
  json.Config("base_seed", static_cast<double>(config.base_seed));
  json.Config("workload", "tpcc");
  json.Config("adapter", "hesbo8");
  json.Config("noise_sigma", 0.0);
  for (const Family& family : families) {
    for (const char* aware_key : family.aware) {
      json.Config(std::string("fallback.") + aware_key, family.fallback);
    }
  }
  for (const SeriesEntry& e : series) {
    std::string row =
        bench::Format("%s,q=%d", e.optimizer.c_str(), e.batch_size);
    std::string key = bench::Format("%s,iters=%d,seeds=%d", row.c_str(),
                                    config.iterations, config.seeds);
    json.Metric("mean_evals_to_fallback_best[" + key + "]",
                e.mean_evals_to_fallback_best, true);
    json.Metric("mean_optimizer_seconds[" + key + "]",
                e.mean_optimizer_seconds, false);
    json.Info("mean_fallback_evals_to_best[" + row + "]",
              e.mean_fallback_evals_to_best);
    json.Info("sample_efficiency[" + row + "]", e.sample_efficiency);
    json.Info("mean_best_objective[" + row + "]", e.mean_best_objective);
    json.Info("mean_fallback_best_objective[" + row + "]",
              e.mean_fallback_best_objective);
    json.Info("mean_fallback_optimizer_seconds[" + row + "]",
              e.mean_fallback_optimizer_seconds);
    if (e.batch_size == 1) {
      json.Info("identical_at_q1[" + row + "]", e.identical_at_q1);
    }
  }
  if (!json.Write()) return 1;

  for (const SeriesEntry& e : series) {
    std::printf(
        "[batch] %-9s q=%d  evals-to-fallback-best %6.2f (fallback %6.2f, "
        "efficiency %.2fx)  best %.4f vs %.4f  opt %.3fs vs %.3fs%s\n",
        e.optimizer.c_str(), e.batch_size, e.mean_evals_to_fallback_best,
        e.mean_fallback_evals_to_best, e.sample_efficiency,
        e.mean_best_objective, e.mean_fallback_best_objective,
        e.mean_optimizer_seconds, e.mean_fallback_optimizer_seconds,
        e.batch_size == 1 ? (e.identical_at_q1 ? "  [q1 identical]"
                                               : "  [q1 DIVERGED]")
                          : "");
  }
  std::printf("[batch] wrote BENCH_batch.json\n");
  return 0;
}
