// Racing evaluation bench: multi-fidelity successive halving vs the
// fixed-budget session on the noisy TPC-C DES grid (ISSUE 9 / ROADMAP
// "multi-fidelity racing evaluation").
//
// Per seed, two cells run to completion on the identical simulator:
//
//   fixed   — the classic session: --fixed-iters full-fidelity
//             measurements, one committed observation each.
//   racing  — --races races (cohort 8, rungs 3, min fidelity 0.25,
//             eta 2, 95% CI elimination): each race screens 8
//             candidates through short runs and commits one champion.
//
// "Work" is simulated measurement work in full-run units (each
// committed result contributes its fidelity; the DES actually runs
// round(transactions * fidelity) transactions, so this is real
// simulated effort, not an accounting fiction). "Quality" is the
// noise-free model throughput of the best configuration found, so a
// win measures configurations, not lucky noise draws.
//
// Targets (pinned by tests/racing_test.cc on the same grid):
//   work:    racing <= 0.5x the fixed-budget session's work
//   quality: racing within 2% of the fixed-budget best-found
//
// Every cell is bit-for-bit deterministic for a fixed seed at any
// thread count, so both metrics, work_ratio and fixed_over_racing_best
// (names embed the grid settings), use the deterministic regression
// threshold.
//
// Emits BENCH_racing.json in the layout of bench/bench_json.h; info
// holds the per-seed rows.
//
// Usage: bm_racing [--seeds=N] [--fixed-iters=N] [--races=N]
//   (defaults 5 / 40 / 3; CI smoke and the committed baseline must use
//   identical settings — metric names embed them.)

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"

namespace llamatune {
namespace {

struct Args {
  int seeds = 5;
  int fixed_iters = 40;
  int races = 5;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seeds=", 8) == 0) {
      args.seeds = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--fixed-iters=", 14) == 0) {
      args.fixed_iters = std::atoi(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--races=", 8) == 0) {
      args.races = std::atoi(argv[i] + 8);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
    }
  }
  return args;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  std::printf(
      "[racing] paper reference: successive halving / Hyperband-style "
      "racing screens many configurations with short runs and spends full "
      "measurements on survivors only\n");

  struct SeedRow {
    uint64_t seed = 0;
    double fixed_work = 0.0, racing_work = 0.0;
    double fixed_true = 0.0, racing_true = 0.0;
    double fixed_measured = 0.0, racing_measured = 0.0;
  };
  std::vector<SeedRow> rows;
  double sum_work_ratio = 0.0;
  double sum_quality_ratio = 0.0;
  for (int s = 0; s < args.seeds; ++s) {
    uint64_t seed = bench::kRacingGridBaseSeed + s;
    bench::RacingCell fixed =
        bench::RunRacingGridCell(seed, args.fixed_iters, /*racing=*/false);
    bench::RacingCell racing =
        bench::RunRacingGridCell(seed, args.races, /*racing=*/true);
    SeedRow row;
    row.seed = seed;
    row.fixed_work = fixed.session.simulated_work;
    row.racing_work = racing.session.simulated_work;
    row.fixed_true = fixed.true_best;
    row.racing_true = racing.true_best;
    row.fixed_measured = fixed.session.best_performance;
    row.racing_measured = racing.session.best_performance;
    sum_work_ratio += row.racing_work / row.fixed_work;
    sum_quality_ratio += row.fixed_true / row.racing_true;
    std::printf(
        "seed %llu: fixed best %.1f txn/s (work %.2f) | racing best %.1f "
        "txn/s (work %.2f) | work ratio %.3f\n",
        static_cast<unsigned long long>(seed), row.fixed_true,
        row.fixed_work, row.racing_true, row.racing_work,
        row.racing_work / row.fixed_work);
    rows.push_back(row);
  }
  double work_ratio = sum_work_ratio / args.seeds;
  double quality_ratio = sum_quality_ratio / args.seeds;
  std::printf(
      "mean work ratio %.3f (target <= 0.5) | mean fixed/racing best-found "
      "%.4f (target <= 1.02)\n",
      work_ratio, quality_ratio);

  const RacingOptions grid = bench::RacingGridOptions();
  bench::BenchJson json("racing");
  json.Config("seeds", args.seeds);
  json.Config("fixed_iters", args.fixed_iters);
  json.Config("races", args.races);
  json.Config("cohort", grid.cohort);
  json.Config("rungs", grid.rungs);
  json.Config("min_fidelity", grid.min_fidelity);
  json.Config("eta", grid.eta);
  json.Config("ci_z", grid.ci_z);
  json.Config("transactions", bench::kRacingGridTransactions);
  std::string key = bench::Format(
      "seeds=%d,fixed=%d,races=%d,cohort=%d,rungs=%d,minfid=%g", args.seeds,
      args.fixed_iters, args.races, grid.cohort, grid.rungs,
      grid.min_fidelity);
  json.Metric("work_ratio[" + key + "]", work_ratio, true);
  json.Metric("fixed_over_racing_best[" + key + "]", quality_ratio, true);
  for (const SeedRow& row : rows) {
    std::string seed = bench::Format(
        "[seed=%llu]", static_cast<unsigned long long>(row.seed));
    json.Info("fixed_work" + seed, row.fixed_work);
    json.Info("racing_work" + seed, row.racing_work);
    json.Info("fixed_true_best" + seed, row.fixed_true);
    json.Info("racing_true_best" + seed, row.racing_true);
    json.Info("fixed_measured_best" + seed, row.fixed_measured);
    json.Info("racing_measured_best" + seed, row.racing_measured);
  }
  if (!json.Write()) return 1;
  std::printf("wrote BENCH_racing.json\n");
  return 0;
}

}  // namespace
}  // namespace llamatune

int main(int argc, char** argv) { return llamatune::Main(argc, argv); }
