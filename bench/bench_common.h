#pragma once

// Shared plumbing for the bench binaries and the tests that pin their
// grids: the fixed-seed batch-quality and racing simulator grids, and
// the synthetic GP workload that bm_hotpath and bm_largen time.

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/core/adapter_registry.h"
#include "src/core/tuning_session.h"
#include "src/dbsim/simulated_postgres.h"
#include "src/dbsim/workloads.h"
#include "src/optimizer/optimizer_registry.h"
#include "src/optimizer/search_space.h"

namespace llamatune {
namespace bench {

/// \name The fixed-seed batch-quality simulator grid
///
/// TPC-C on the noiseless simulator (noise_sigma = 0, so a best-seen
/// value measures the configurations found, not lucky noise draws)
/// through the hesbo8 projection, seeds kBatchGridBaseSeed + s. One
/// definition shared by bench/bm_batch.cc (which CI regression-tracks
/// via BENCH_batch.json) and tests/batch_quality_test.cc (which pins
/// the ISSUE 4 acceptance bound on it), so the pinned grid and the
/// tracked grid cannot drift apart.
/// @{

constexpr uint64_t kBatchGridBaseSeed = 42;

/// Runs one (optimizer, seed) cell of the grid to completion.
inline SessionResult RunBatchGridCell(const std::string& optimizer_key,
                                      uint64_t seed, int iterations,
                                      int batch_size) {
  dbsim::SimulatedPostgresOptions db_options;
  db_options.noise_sigma = 0.0;
  db_options.noise_seed = seed;
  dbsim::SimulatedPostgres objective(dbsim::TpcC(), db_options);
  std::unique_ptr<SpaceAdapter> adapter =
      std::move(AdapterRegistry::Global().Create(
                    "hesbo8", &objective.config_space(), seed))
          .ValueOrDie();
  std::unique_ptr<Optimizer> optimizer =
      std::move(OptimizerRegistry::Global().Create(
                    optimizer_key, adapter->search_space(), seed))
          .ValueOrDie();
  SessionOptions options;
  options.num_iterations = iterations;
  options.batch_size = batch_size;
  TuningSession session(&objective, adapter.get(), optimizer.get(), options);
  return session.Run();
}

/// 1-based evaluation count at which the best-so-far `curve` first
/// reaches `target`; curve size + 1 when it never does.
inline int EvalsToReach(const std::vector<double>& curve, double target) {
  for (size_t i = 0; i < curve.size(); ++i) {
    if (curve[i] >= target) return static_cast<int>(i) + 1;
  }
  return static_cast<int>(curve.size()) + 1;
}

/// @}

/// \name The fixed-seed racing grid (noisy TPC-C DES)
///
/// TPC-C through the discrete-event engine — run-to-run noise is
/// measured from the sampled transaction stream, so a short (low
/// fidelity) run is genuinely noisier, not synthetically so — with the
/// hesbo8 projection and random search. Random search isolates what
/// racing actually changes: both cells draw candidates from the same
/// RNG stream (racing's 5 SuggestBatch(8) draws are the fixed cell's
/// first 40 Suggest draws), so the comparison measures measurement
/// *allocation* — full runs for everyone vs short screening runs with
/// full runs for survivors — on an identical candidate pool, free of
/// the model-feedback confound a learning optimizer would add. One
/// definition shared by bench/bm_racing.cc (which CI regression-tracks
/// via BENCH_racing.json) and tests/racing_test.cc (which pins the
/// ISSUE 9 work/quality acceptance bound on it), so the pinned grid
/// and the tracked grid cannot drift apart. Every cell is bit-for-bit
/// deterministic at any thread count.
/// @{

constexpr uint64_t kRacingGridBaseSeed = 42;
/// Transactions per full-fidelity DES run. Short enough for CI, long
/// enough that fidelity-0.25 runs keep a usable signal-to-noise ratio.
constexpr int kRacingGridTransactions = 6000;

inline RacingOptions RacingGridOptions() {
  RacingOptions racing;
  racing.cohort = 8;
  racing.rungs = 3;
  racing.min_fidelity = 0.125;
  racing.eta = 2.0;
  racing.ci_z = 1.96;
  return racing;
}

struct RacingCell {
  SessionResult session;
  /// Noise-free model throughput of the best configuration found —
  /// measures the configuration, not a lucky noise draw.
  double true_best = 0.0;
};

/// Runs one (seed, racing on/off) cell of the grid to completion.
inline RacingCell RunRacingGridCell(uint64_t seed, int iterations,
                                    bool racing) {
  dbsim::SimulatedPostgresOptions db_options;
  db_options.engine = dbsim::EngineKind::kDiscreteEvent;
  db_options.des_transactions = kRacingGridTransactions;
  db_options.noise_seed = seed;
  dbsim::SimulatedPostgres objective(dbsim::TpcC(), db_options);
  std::unique_ptr<SpaceAdapter> adapter =
      std::move(AdapterRegistry::Global().Create(
                    "hesbo8", &objective.config_space(), seed))
          .ValueOrDie();
  std::unique_ptr<Optimizer> optimizer =
      std::move(OptimizerRegistry::Global().Create(
                    "random", adapter->search_space(), seed))
          .ValueOrDie();
  SessionOptions options;
  options.num_iterations = iterations;
  if (racing) options.racing = RacingGridOptions();
  TuningSession session(&objective, adapter.get(), optimizer.get(), options);
  RacingCell cell;
  cell.session = session.Run();
  cell.true_best =
      objective.RunNoiseless(cell.session.best_config).throughput;
  return cell;
}

/// @}

/// \name The synthetic GP workload (bm_hotpath, bm_largen)
/// @{

/// 16 continuous + 4 categorical dims.
inline SearchSpace SyntheticSpace() {
  std::vector<SearchDim> dims;
  for (int i = 0; i < 16; ++i) dims.push_back(SearchDim::Continuous(0.0, 1.0));
  for (int i = 0; i < 4; ++i) dims.push_back(SearchDim::Categorical(4));
  return SearchSpace(dims);
}

inline std::vector<double> DrawPoint(const SearchSpace& space, Rng* rng) {
  std::vector<double> x(space.num_dims());
  for (int i = 0; i < space.num_dims(); ++i) {
    const SearchDim& dim = space.dim(i);
    x[i] = dim.type == SearchDim::Type::kCategorical
               ? static_cast<double>(rng->UniformInt(0, dim.num_categories - 1))
               : rng->Uniform(dim.lo, dim.hi);
  }
  return x;
}

inline double SyntheticObjective(const std::vector<double>& x) {
  double acc = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    acc += std::sin(3.0 * x[i] + static_cast<double>(i));
  }
  return acc;
}

/// @}

}  // namespace bench
}  // namespace llamatune
