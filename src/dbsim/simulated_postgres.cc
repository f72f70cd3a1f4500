#include "src/dbsim/simulated_postgres.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "src/common/fault_injection.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/dbsim/des/des_engine.h"

namespace llamatune {
namespace dbsim {

SimulatedPostgres::SimulatedPostgres(WorkloadSpec workload,
                                     SimulatedPostgresOptions options)
    : space_(CatalogFor(options.version)), options_(options) {
  model_ = std::make_unique<PerfModel>(&space_, std::move(workload),
                                       options_.version);
}

std::unique_ptr<ObjectiveFunction> SimulatedPostgres::Clone() const {
  auto clone =
      std::make_unique<SimulatedPostgres>(model_->workload(), options_);
  clone->zipf_ = zipf_;
  clone->eval_count_ = eval_count_;
  return clone;
}

Status SimulatedPostgres::RestoreState(const std::string& state) {
  TokenReader in(state);
  int count = 0;
  in.Value(count);
  in.End();
  if (!in.ok() || count < 0) {
    return Status::InvalidArgument(
        "SimulatedPostgres::RestoreState: bad evaluation counter: " + state);
  }
  eval_count_ = count;
  return Status::OK();
}

ModelOutput SimulatedPostgres::RunNoiseless(const Configuration& config) const {
  if (options_.target == TuningTarget::kP95Latency) {
    return model_->RunAtFixedRate(config, options_.fixed_rate);
  }
  return model_->Run(config);
}

EvalResult SimulatedPostgres::Evaluate(const Configuration& config) {
  return EvaluateAt(config, 1.0);
}

EvalResult SimulatedPostgres::EvaluateAt(const Configuration& config,
                                         double fidelity) {
  if (!(fidelity > 0.0) || fidelity > 1.0) fidelity = 1.0;
  int eval_index = eval_count_++;
  // Injected evaluation failures (chaos testing): a crash, a timeout
  // abort, or a hang (stall, then the run completes normally). These
  // model the evaluator-side failure taxonomy of a real DBMS run
  // without perturbing the simulator's own noise stream.
  if (FaultInjection::ShouldFail("eval.crash")) {
    EvalResult result;
    result.crashed = true;
    result.outcome = TrialOutcome::kCrashed;
    result.metrics.assign(kNumMetrics, 0.0);
    return result;
  }
  if (FaultInjection::ShouldFail("eval.timeout")) {
    EvalResult result;
    result.outcome = TrialOutcome::kTimedOut;
    result.metrics.assign(kNumMetrics, 0.0);
    return result;
  }
  if (FaultInjection::ShouldFail("eval.hang")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ModelOutput out = RunNoiseless(config);
  EvalResult result;
  if (out.crashed) {
    result.crashed = true;
    result.outcome = TrialOutcome::kCrashed;
    result.metrics.assign(kNumMetrics, 0.0);
    return result;
  }
  if (options_.engine == EngineKind::kDiscreteEvent) {
    // Execute the run transaction-by-transaction: throughput and tail
    // latency are measured, and run-to-run noise is inherent in the
    // sampled transaction stream (no synthetic noise on top).
    des::DesOptions des_options;
    des_options.max_transactions =
        fidelity < 1.0
            ? std::max<int>(1, static_cast<int>(std::lround(
                                   options_.des_transactions * fidelity)))
            : options_.des_transactions;
    des_options.seed = HashCombine(
        HashCombine(options_.noise_seed, config.Hash()),
        static_cast<uint64_t>(eval_index));
    if (zipf_ == nullptr) {
      zipf_ = std::make_shared<const des::ZipfianGenerator>(
          des::kDesKeySpace, model_->workload().zipf_theta);
    }
    des::DesResult run = des::SimulateRun(out, model_->workload(),
                                          des_options, *zipf_);
    result.value = options_.target == TuningTarget::kThroughput
                       ? run.throughput
                       : run.p95_latency_ms;
    result.fidelity = fidelity;
    RunCounters counters = out.counters;
    counters.avg_latency_ms = run.avg_latency_ms;
    counters.p95_latency_ms = run.p95_latency_ms;
    result.metrics = CountersToMetrics(counters);
    return result;
  }
  double noise = 1.0;
  if (options_.noise_sigma > 0.0) {
    Rng rng(HashCombine(HashCombine(options_.noise_seed, config.Hash()),
                        static_cast<uint64_t>(eval_index)));
    // A run over f * N transactions averages f times fewer samples, so
    // its measurement error scales by 1/sqrt(f).
    double sigma = options_.noise_sigma / std::sqrt(fidelity);
    noise = std::exp(rng.Gaussian(0.0, sigma));
  }
  result.fidelity = fidelity;
  if (options_.target == TuningTarget::kThroughput) {
    result.value = out.throughput * noise;
  } else {
    // Latency noise is heavier-tailed than throughput noise.
    result.value = out.p95_latency_ms * std::pow(noise, 1.5);
  }
  result.metrics = CountersToMetrics(out.counters);
  return result;
}

}  // namespace dbsim
}  // namespace llamatune
