#include "src/harness/tuner.h"

#include <utility>

#include "src/core/adapter_registry.h"
#include "src/optimizer/optimizer_registry.h"

namespace llamatune {
namespace harness {

TunerBuilder& TunerBuilder::Workload(dbsim::WorkloadSpec workload) {
  workload_ = std::move(workload);
  return *this;
}

TunerBuilder& TunerBuilder::Version(dbsim::PostgresVersion version) {
  db_options_.version = version;
  return *this;
}

TunerBuilder& TunerBuilder::Target(dbsim::TuningTarget target,
                                   double fixed_rate) {
  db_options_.target = target;
  db_options_.fixed_rate = fixed_rate;
  return *this;
}

TunerBuilder& TunerBuilder::DbOptions(
    dbsim::SimulatedPostgresOptions options) {
  db_options_ = options;
  return *this;
}

TunerBuilder& TunerBuilder::Objective(ObjectiveFunction* objective) {
  external_objective_ = objective;
  return *this;
}

TunerBuilder& TunerBuilder::Space(const ConfigSpace* space, bool maximize) {
  external_space_ = space;
  external_space_maximize_ = maximize;
  return *this;
}

TunerBuilder& TunerBuilder::Config(const TunerConfig& config) {
  config_ = config;
  return *this;
}

TunerBuilder& TunerBuilder::Optimizer(std::string key) {
  config_.optimizer_key = std::move(key);
  return *this;
}

TunerBuilder& TunerBuilder::Adapter(std::string key) {
  config_.adapter_key = std::move(key);
  return *this;
}

TunerBuilder& TunerBuilder::Seed(uint64_t seed) {
  config_.seed = seed;
  return *this;
}

TunerBuilder& TunerBuilder::Iterations(int num_iterations) {
  config_.num_iterations = num_iterations;
  return *this;
}

TunerBuilder& TunerBuilder::BatchSize(int batch_size) {
  config_.batch_size = batch_size;
  return *this;
}

TunerBuilder& TunerBuilder::Threads(int num_threads) {
  config_.num_threads = num_threads;
  return *this;
}

TunerBuilder& TunerBuilder::EarlyStopping(EarlyStoppingPolicy policy) {
  early_stopping_ = policy;
  return *this;
}

TunerBuilder& TunerBuilder::PendingDeadlineMs(int64_t deadline_ms) {
  config_.pending_deadline_ms = deadline_ms;
  return *this;
}

TunerBuilder& TunerBuilder::Racing(RacingOptions racing) {
  config_.racing = racing;
  return *this;
}

Result<std::unique_ptr<Tuner>> TunerBuilder::Build() const {
  return BuildImpl(/*allow_detached=*/false);
}

Result<std::unique_ptr<Tuner>> TunerBuilder::BuildDetached() const {
  return BuildImpl(/*allow_detached=*/true);
}

Result<std::unique_ptr<Tuner>> TunerBuilder::BuildImpl(
    bool allow_detached) const {
  int sources = (workload_.has_value() ? 1 : 0) +
                (external_objective_ != nullptr ? 1 : 0) +
                (external_space_ != nullptr ? 1 : 0);
  if (sources > 1) {
    return Status::InvalidArgument(
        "TunerBuilder: Workload(), Objective() and Space() are mutually "
        "exclusive");
  }
  if (sources == 0) {
    return Status::FailedPrecondition(
        "TunerBuilder: set a Workload() (simulated DBMS), an external "
        "Objective(), or a bare Space() before building");
  }
  if (external_space_ != nullptr && !allow_detached) {
    return Status::FailedPrecondition(
        "TunerBuilder: a bare Space() has nothing to evaluate — use "
        "BuildDetached() and drive the session through Ask/Tell");
  }
  if (config_.num_iterations <= 0) {
    return Status::InvalidArgument("TunerBuilder: Iterations() must be > 0");
  }

  std::unique_ptr<Tuner> tuner(new Tuner());
  const ConfigSpace* config_space = external_space_;
  if (external_objective_ != nullptr) {
    tuner->objective_ = external_objective_;
    config_space = &external_objective_->config_space();
  } else if (workload_.has_value()) {
    dbsim::SimulatedPostgresOptions db_options = db_options_;
    db_options.noise_seed = config_.seed;
    tuner->owned_objective_ = std::make_unique<dbsim::SimulatedPostgres>(
        *workload_, db_options);
    tuner->objective_ = tuner->owned_objective_.get();
    config_space = &tuner->objective_->config_space();
  }

  Result<std::unique_ptr<SpaceAdapter>> adapter =
      AdapterRegistry::Global().Create(config_.adapter_key, config_space,
                                       config_.seed);
  if (!adapter.ok()) return adapter.status();
  tuner->adapter_ = std::move(adapter).ValueOrDie();

  Result<std::unique_ptr<::llamatune::Optimizer>> optimizer =
      OptimizerRegistry::Global().Create(
          config_.optimizer_key, tuner->adapter_->search_space(),
          config_.seed);
  if (!optimizer.ok()) return optimizer.status();
  tuner->optimizer_ = std::move(optimizer).ValueOrDie();

  SessionOptions session_options;
  static_cast<SessionSettings&>(session_options) = config_;
  session_options.early_stopping = early_stopping_;
  LT_RETURN_NOT_OK(session_options.Validate());
  if (tuner->objective_ != nullptr) {
    tuner->session_ = std::make_unique<TuningSession>(
        tuner->objective_, tuner->adapter_.get(), tuner->optimizer_.get(),
        session_options);
  } else {
    tuner->session_ = std::make_unique<TuningSession>(
        config_space, external_space_maximize_, tuner->adapter_.get(),
        tuner->optimizer_.get(), session_options);
  }
  return tuner;
}

}  // namespace harness
}  // namespace llamatune
