#pragma once

#include <cstdint>
#include <vector>

#include "src/dbsim/des/zipf.h"
#include "src/dbsim/perf_model.h"
#include "src/dbsim/workloads.h"

namespace llamatune {
namespace dbsim {
namespace des {

/// Distinct keys in the Zipfian key space every DES run draws from.
constexpr int64_t kDesKeySpace = 100000;

/// \brief Discrete-event run settings.
struct DesOptions {
  /// Transactions to execute (across all clients).
  int max_transactions = 20000;
  /// Leading fraction of completions discarded as warm-up.
  double warmup_fraction = 0.1;
  uint64_t seed = 1;
  /// When true, DesResult::latencies records every completion's
  /// latency (pre-warmup, completion order). Test/diagnostic hook for
  /// the variable-length-run prefix property (see tests/des_test.cc);
  /// does not perturb the simulation.
  bool capture_latencies = false;
};

/// \brief Measured outcome of one discrete-event run.
struct DesResult {
  double throughput = 0.0;   ///< committed txns / sec (post-warmup)
  double avg_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  int completed = 0;
  double sim_seconds = 0.0;
  /// Raw per-completion latencies (ms), warm-up included; filled only
  /// when DesOptions::capture_latencies is set.
  std::vector<double> latencies;
};

/// \brief Closed-loop discrete-event simulation layered on the
/// analytic model's rates.
///
/// The analytic PerfModel answers "what are the mean per-transaction
/// costs and background cadences under this configuration?"; this
/// engine *executes* a run against those rates: N closed-loop clients,
/// per-transaction service times sampled from a Gamma distribution,
/// Zipfian key draws deciding which transactions pay the I/O miss
/// penalty, probabilistic lock-conflict waits, and periodic checkpoint
/// windows during which service degrades (sharper when
/// checkpoint_completion_target is low). Throughput and tail latency
/// are then *measured* from the empirical distribution rather than
/// derived from a closed form — which is how the simulator earns its
/// p95 numbers and its run-length-dependent noise.
///
/// \p zipf must be ZipfianGenerator(kDesKeySpace, workload.zipf_theta);
/// it is read-only here, so one generator can serve any number of runs
/// and threads.
DesResult SimulateRun(const ModelOutput& analytic, const WorkloadSpec& workload,
                      const DesOptions& options, const ZipfianGenerator& zipf);

/// As above, building the workload's generator for this one run.
DesResult SimulateRun(const ModelOutput& analytic, const WorkloadSpec& workload,
                      const DesOptions& options);

}  // namespace des
}  // namespace dbsim
}  // namespace llamatune
