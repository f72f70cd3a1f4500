#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/objective.h"
#include "src/core/space_adapter.h"
#include "src/core/tuning_session.h"
#include "src/dbsim/simulated_postgres.h"
#include "src/optimizer/optimizer.h"

namespace llamatune {
namespace harness {

/// \brief One tuning session's configuration: the shared session
/// settings plus the registry keys and seed that pick the stack.
/// TunerBuilder holds one; service::SessionSpec and
/// net::WireSessionSpec extend it with their objective sources, so a
/// session setting is declared once, here or in SessionSettings.
struct TunerConfig : SessionSettings {
  /// OptimizerRegistry key.
  std::string optimizer_key = "smac";
  /// AdapterRegistry key ("llamatune" = HeSBO-16 + SVB + bucketing).
  std::string adapter_key = "llamatune";
  /// Seeds the optimizer, the projection matrix, and simulator noise.
  uint64_t seed = 42;
};

/// \brief A fully wired tuning stack: objective + adapter + optimizer
/// + session, assembled by TunerBuilder. Owns every component it
/// created (external objectives stay caller-owned).
///
/// Stacks built with Build() own an evaluable objective and support
/// both the push loop (Run/Step) and the ask/tell protocol. Stacks
/// built with BuildDetached() over a bare ConfigSpace have no
/// objective — the caller drives evaluation through Ask/Tell, and
/// Run/Step are inert (see TuningSession).
class Tuner {
 public:
  /// Runs the session to completion (requires an objective).
  SessionResult Run() { return session_->Run(); }

  /// Single-iteration stepping for incremental drivers.
  bool Step() { return session_->Step(); }

  /// \name Ask/tell passthroughs (see TuningSession for the protocol)
  /// @{
  Result<Trial> Ask() { return session_->Ask(); }
  Result<std::vector<Trial>> AskBatch(int n) { return session_->AskBatch(n); }
  Status Tell(const TrialResult& result) { return session_->Tell(result); }
  Status TellBatch(const std::vector<TrialResult>& results) {
    return session_->TellBatch(results);
  }
  Status Expire(int64_t trial_id) { return session_->Expire(trial_id); }
  std::vector<int64_t> ExpireOverdue(int64_t now_ms) {
    return session_->ExpireOverdue(now_ms);
  }
  std::vector<Trial> PendingSnapshot() const {
    return session_->PendingSnapshot();
  }
  int64_t next_trial_id() const { return session_->next_trial_id(); }
  std::string Save() const { return session_->Save(); }
  Status Restore(const std::string& checkpoint) {
    return session_->Restore(checkpoint);
  }
  bool finished() const { return session_->finished(); }
  /// @}

  /// False for BuildDetached() stacks over a bare ConfigSpace.
  bool has_objective() const { return objective_ != nullptr; }

  /// The attached objective; only valid when has_objective().
  ObjectiveFunction& objective() { return *objective_; }
  const SpaceAdapter& adapter() const { return *adapter_; }
  ::llamatune::Optimizer& optimizer() { return *optimizer_; }
  TuningSession& session() { return *session_; }
  const TuningSession& session() const { return *session_; }

 private:
  friend class TunerBuilder;
  Tuner() = default;

  std::unique_ptr<ObjectiveFunction> owned_objective_;
  ObjectiveFunction* objective_ = nullptr;
  std::unique_ptr<SpaceAdapter> adapter_;
  std::unique_ptr<::llamatune::Optimizer> optimizer_;
  std::unique_ptr<TuningSession> session_;
};

/// \brief Fluent assembly of a tuning stack from registry keys:
///
///   auto tuner = TunerBuilder()
///                    .Workload(dbsim::YcsbA())
///                    .Optimizer("smac")
///                    .Adapter("llamatune")
///                    .Seed(42)
///                    .Iterations(100)
///                    .Build();
///   SessionResult result = tuner.ValueOrDie()->Run();
///
/// The objective is either the bundled simulator (Workload/Version/
/// Target) or any external ObjectiveFunction (Objective()). Adapter
/// and optimizer are resolved through AdapterRegistry and
/// OptimizerRegistry, so everything registered there — including the
/// user's own stages and backends — is addressable by key.
class TunerBuilder {
 public:
  TunerBuilder() = default;

  /// Tunes the bundled simulated PostgreSQL running `workload`.
  TunerBuilder& Workload(dbsim::WorkloadSpec workload);

  /// Simulated PostgreSQL version (default v9.6).
  TunerBuilder& Version(dbsim::PostgresVersion version);

  /// Tuning target; `fixed_rate` (req/s) applies to latency targets.
  TunerBuilder& Target(dbsim::TuningTarget target, double fixed_rate = 0.0);

  /// Full simulator option control (overrides Version/Target so far;
  /// the builder seed still drives the noise seed).
  TunerBuilder& DbOptions(dbsim::SimulatedPostgresOptions options);

  /// Tunes an external system instead of the simulator. Caller keeps
  /// ownership; mutually exclusive with Workload().
  TunerBuilder& Objective(ObjectiveFunction* objective);

  /// Tunes an external system the tuner cannot call into at all: only
  /// its knob space is known, and the caller runs every measurement
  /// through the ask/tell protocol. `maximize` fixes the objective
  /// convention (false for latency-style targets). Caller keeps
  /// ownership of the space; requires BuildDetached(); mutually
  /// exclusive with Workload() and Objective().
  TunerBuilder& Space(const ConfigSpace* space, bool maximize = true);

  /// Every TunerConfig setting at once (the setters below write
  /// single fields of the same config).
  TunerBuilder& Config(const TunerConfig& config);

  /// OptimizerRegistry key (default "smac").
  TunerBuilder& Optimizer(std::string key);

  /// AdapterRegistry key (default "llamatune").
  TunerBuilder& Adapter(std::string key);

  /// Seeds the optimizer, the projection matrix, and simulator noise.
  TunerBuilder& Seed(uint64_t seed);

  /// Must be > 0 (see SessionSettings::num_iterations).
  TunerBuilder& Iterations(int num_iterations);

  /// Configurations evaluated per step (parallel across simulator
  /// clones when > 1).
  TunerBuilder& BatchSize(int batch_size);

  /// Executor cap for the session's parallel batch evaluation
  /// (0 = shared pool size, 1 = serial; see SessionSettings).
  TunerBuilder& Threads(int num_threads);

  TunerBuilder& EarlyStopping(EarlyStoppingPolicy policy);

  /// Deadline for pending (asked, untold) trials in milliseconds;
  /// 0 (default) disables. See SessionSettings::pending_deadline_ms.
  TunerBuilder& PendingDeadlineMs(int64_t deadline_ms);

  /// Racing (successive-halving) evaluation: each budget iteration
  /// races a cohort through rungs of short runs and commits only the
  /// champion. See SessionSettings::racing and docs/racing.md.
  TunerBuilder& Racing(RacingOptions racing);

  /// Builds the stack. Fails when no objective source was configured,
  /// more than one was, or a registry key is unknown. Requires an
  /// evaluable source (Workload or Objective) — with only Space(),
  /// use BuildDetached().
  Result<std::unique_ptr<Tuner>> Build() const;

  /// Builds an ask/tell handle: the same stack, but the session never
  /// evaluates anything itself — the caller asks for trials, measures
  /// them, and tells the results. Accepts any objective source;
  /// the only way to build from a bare Space(). With a Workload or
  /// Objective source the returned Tuner can still Run/Step.
  Result<std::unique_ptr<Tuner>> BuildDetached() const;

 private:
  Result<std::unique_ptr<Tuner>> BuildImpl(bool allow_detached) const;

  std::optional<dbsim::WorkloadSpec> workload_;
  dbsim::SimulatedPostgresOptions db_options_;
  ObjectiveFunction* external_objective_ = nullptr;
  const ConfigSpace* external_space_ = nullptr;
  bool external_space_maximize_ = true;
  TunerConfig config_;
  std::optional<EarlyStoppingPolicy> early_stopping_;
};

}  // namespace harness
}  // namespace llamatune
