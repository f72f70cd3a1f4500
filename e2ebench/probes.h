#pragma once

// The decorators bm_e2e injects into the tuning stack to see inside a
// layer without touching its code: a traced optimizer registered as
// "traced-<key>" in OptimizerRegistry::Global(), and an objective
// wrapper passed as SessionSpec::objective. Both are transparent — the
// correctness gate replays sessions without them and requires the
// identical history.

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "e2ebench/trace.h"
#include "src/core/objective.h"
#include "src/optimizer/optimizer.h"

namespace e2e {

/// Times Suggest/SuggestBatch/Observe/ObserveBatch of the wrapped
/// optimizer. The base class's history and incumbent are mirrored, so
/// history() and checkpoints read exactly as the wrapped optimizer's.
class TracedOptimizer : public llamatune::Optimizer {
 public:
  /// Spans hang under the request that drives the optimizer: the
  /// client's ask/tell over the wire, or service.step when `driven`.
  TracedOptimizer(std::unique_ptr<llamatune::Optimizer> inner,
                  std::shared_ptr<Probe> probe, bool driven)
      : Optimizer(inner->space()),
        inner_(std::move(inner)),
        probe_(std::move(probe)),
        driven_(driven) {}

  std::vector<double> Suggest() override {
    ScopedSpan span(SpanKind::kSuggest, Parent(SpanKind::kClientAsk),
                    probe_.get());
    return inner_->Suggest();
  }

  std::vector<std::vector<double>> SuggestBatch(int n) override {
    ScopedSpan span(SpanKind::kSuggestBatch, Parent(SpanKind::kClientAsk),
                    probe_.get());
    return inner_->SuggestBatch(n);
  }

  void Observe(const std::vector<double>& point, double value) override {
    {
      ScopedSpan span(SpanKind::kObserve, Parent(SpanKind::kClientTell),
                      probe_.get());
      inner_->Observe(point, value);
    }
    Optimizer::Observe(point, value);
  }

  void ObserveBatch(const std::vector<std::vector<double>>& points,
                    const std::vector<double>& values) override {
    {
      ScopedSpan span(SpanKind::kObserve, Parent(SpanKind::kClientTell),
                      probe_.get());
      inner_->ObserveBatch(points, values);
    }
    for (size_t i = 0; i < points.size() && i < values.size(); ++i) {
      Optimizer::Observe(points[i], values[i]);
    }
  }

  void ObserveMetrics(const std::vector<double>& metrics) override {
    inner_->ObserveMetrics(metrics);
  }

  std::string name() const override { return inner_->name(); }

 private:
  SpanKind Parent(SpanKind wire_parent) const {
    return driven_ ? SpanKind::kStep : wire_parent;
  }

  std::unique_ptr<llamatune::Optimizer> inner_;
  std::shared_ptr<Probe> probe_;
  bool driven_;
};

/// Registers "traced-<key>", a TracedOptimizer around `key`. Sessions
/// find their probe by seed (ProbeRegistry), so register the probe
/// before creating the session.
llamatune::Status RegisterTracedOptimizer(const std::string& key,
                                          bool driven);

/// Counts every evaluation of the wrapped objective and, when tracing,
/// records it as a dbsim.evaluate span under the session's current
/// Step. Clones share the probe, so evaluations on pool threads count
/// too.
class TimedObjective : public llamatune::ObjectiveFunction {
 public:
  TimedObjective(std::unique_ptr<llamatune::ObjectiveFunction> inner,
                 std::shared_ptr<Probe> probe)
      : inner_(std::move(inner)), probe_(std::move(probe)) {}

  llamatune::EvalResult Evaluate(
      const llamatune::Configuration& config) override {
    probe_->evaluations.fetch_add(1, std::memory_order_relaxed);
    ScopedSpan span(SpanKind::kEvaluate, SpanKind::kStep, probe_.get(), 1.0);
    return inner_->Evaluate(config);
  }

  llamatune::EvalResult EvaluateAt(const llamatune::Configuration& config,
                                   double fidelity) override {
    probe_->evaluations.fetch_add(1, std::memory_order_relaxed);
    ScopedSpan span(SpanKind::kEvaluate, SpanKind::kStep, probe_.get(),
                    fidelity);
    return inner_->EvaluateAt(config, fidelity);
  }

  const llamatune::ConfigSpace& config_space() const override {
    return inner_->config_space();
  }
  bool maximize() const override { return inner_->maximize(); }

  std::unique_ptr<llamatune::ObjectiveFunction> Clone() const override {
    std::unique_ptr<llamatune::ObjectiveFunction> clone = inner_->Clone();
    if (clone == nullptr) return nullptr;
    return std::make_unique<TimedObjective>(std::move(clone), probe_);
  }

  std::optional<std::string> SaveState() const override {
    return inner_->SaveState();
  }
  llamatune::Status RestoreState(const std::string& state) override {
    return inner_->RestoreState(state);
  }

 private:
  std::unique_ptr<llamatune::ObjectiveFunction> inner_;
  std::shared_ptr<Probe> probe_;
};

}  // namespace e2e
