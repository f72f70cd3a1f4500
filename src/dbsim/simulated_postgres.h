#pragma once

#include <cstdint>
#include <memory>

#include "src/core/objective.h"
#include "src/dbsim/knob_catalog.h"
#include "src/dbsim/perf_model.h"
#include "src/dbsim/workloads.h"

namespace llamatune {
namespace dbsim {

namespace des {
class ZipfianGenerator;
}  // namespace des

/// \brief What the tuning session optimizes (paper §6.1: throughput by
/// default; §6.2 also tunes 95th-percentile latency at a fixed rate).
enum class TuningTarget { kThroughput, kP95Latency };

/// \brief How workload runs are produced.
enum class EngineKind {
  /// Closed-form analytic model (fast; lognormal run noise).
  kAnalytic,
  /// Discrete-event simulation layered on the analytic rates: tail
  /// latency and noise are measured from sampled transactions.
  kDiscreteEvent,
};

/// \brief Options for a simulated DBMS instance.
struct SimulatedPostgresOptions {
  PostgresVersion version = PostgresVersion::kV96;
  TuningTarget target = TuningTarget::kThroughput;
  EngineKind engine = EngineKind::kAnalytic;
  /// Transactions per discrete-event run (engine == kDiscreteEvent).
  int des_transactions = 20000;
  /// Fixed request rate for the latency target (req/s); ignored for
  /// throughput tuning. The paper sets this to half the best observed
  /// throughput per workload.
  double fixed_rate = 0.0;
  /// Multiplicative lognormal run-to-run noise (sigma of log). 0
  /// disables noise (useful in tests).
  double noise_sigma = 0.03;
  /// Base seed for per-evaluation noise.
  uint64_t noise_seed = 7;
};

/// \brief The simulated PostgreSQL + workload driver: the paper's
/// testing environment (Fig. 1, green-shaded area) as an
/// ObjectiveFunction.
///
/// Deterministic given (options.noise_seed, evaluation order): noise
/// for the i-th evaluation of a configuration is seeded from the
/// configuration hash and an evaluation counter, so sessions replay
/// bit-for-bit under the same seed while repeated measurements of the
/// same configuration still differ (noisy objective).
class SimulatedPostgres : public ObjectiveFunction {
 public:
  SimulatedPostgres(WorkloadSpec workload, SimulatedPostgresOptions options = {});

  EvalResult Evaluate(const Configuration& config) override;

  /// Short measurement: the DES engine runs round(des_transactions *
  /// fidelity) transactions (at least 1); the analytic engine models a
  /// shorter run as noisier — sigma grows by 1/sqrt(fidelity), the
  /// standard-error scaling of averaging over fewer transactions.
  /// fidelity >= 1 is exactly Evaluate(config) (same noise stream,
  /// same bits). Every call consumes one evaluation index, whatever
  /// the fidelity, so the noise stream stays a function of evaluation
  /// order alone.
  EvalResult EvaluateAt(const Configuration& config, double fidelity) override;

  const ConfigSpace& config_space() const override { return space_; }

  /// Independent simulator instance over the same workload and
  /// options (same evaluation counter, own from then on); enables the
  /// session's parallel batch evaluation. Shares the immutable DES key
  /// generator if this instance has built it.
  std::unique_ptr<ObjectiveFunction> Clone() const override;

  /// The per-evaluation noise counter, so checkpointed sessions resume
  /// with the identical noise stream (see TuningSession::Save).
  std::optional<std::string> SaveState() const override {
    return std::to_string(eval_count_);
  }
  Status RestoreState(const std::string& state) override;

  bool maximize() const override {
    return options_.target == TuningTarget::kThroughput;
  }

  /// Noise-free evaluation (model ground truth; used by analysis and
  /// tests).
  ModelOutput RunNoiseless(const Configuration& config) const;

  const WorkloadSpec& workload() const { return model_->workload(); }
  const PerfModel& model() const { return *model_; }
  int evaluations() const { return eval_count_; }

 private:
  ConfigSpace space_;
  SimulatedPostgresOptions options_;
  std::unique_ptr<PerfModel> model_;
  /// The workload's DES key generator: built on the first DES
  /// evaluation (its normaliser is an O(key space) sum), then read-only
  /// and shared with clones taken after that.
  std::shared_ptr<const des::ZipfianGenerator> zipf_;
  int eval_count_ = 0;
};

}  // namespace dbsim
}  // namespace llamatune
