#pragma once

#include <vector>

#include "src/core/trial.h"
#include "src/knobs/configuration.h"

namespace llamatune {

/// \brief One completed tuning iteration as stored in the knowledge
/// base (paper Fig. 1: the KB holds all evaluated samples).
struct IterationRecord {
  int iteration = 0;
  /// Optimizer-space point that was suggested.
  std::vector<double> point;
  /// Physical configuration it projected to.
  Configuration config;
  /// Raw measured metric (throughput req/s or p95 latency ms); for
  /// failed runs, the penalized score actually reported back.
  double measured = 0.0;
  /// Internal objective handed to the optimizer (maximize convention).
  double objective = 0.0;
  /// True for kCrashed outcomes (kept alongside `outcome` for
  /// historical call sites).
  bool crashed = false;
  /// How the evaluation ended (crash / timeout / lost runs score the
  /// per-outcome penalty).
  TrialOutcome outcome = TrialOutcome::kOk;
  /// DBMS internal metrics from the run (RL state vector).
  std::vector<double> metrics;
};

/// \brief Record of all previously evaluated samples D = {(theta_j,
/// f(theta_j))}, updated after every evaluation.
class KnowledgeBase {
 public:
  void Add(IterationRecord record) { records_.push_back(std::move(record)); }

  int size() const { return static_cast<int>(records_.size()); }
  bool empty() const { return records_.empty(); }
  const IterationRecord& record(int i) const { return records_[i]; }
  const std::vector<IterationRecord>& records() const { return records_; }

  /// Index of the record with the highest internal objective (-1 when
  /// empty).
  int BestIndex() const;

  /// Best-so-far curve of the *measured* metric under the maximize
  /// convention of the internal objective (i.e. running max of
  /// objective, reported as measured values).
  std::vector<double> BestSoFarMeasured() const;

  /// Running max of the internal objective.
  std::vector<double> BestSoFarObjective() const;

 private:
  std::vector<IterationRecord> records_;
};

}  // namespace llamatune
