#pragma once

#include <cstdint>

#include "src/common/rng.h"
#include "src/model/random_forest.h"
#include "src/optimizer/optimizer.h"

namespace llamatune {

/// \brief SMAC configuration (defaults follow the paper's setup and
/// SMAC3's spirit at a scale appropriate for 100-iteration sessions).
struct SmacOptions {
  /// LHS-generated initial design size (paper: first 10 iterations).
  int n_init = 10;
  /// Interleave one uniformly random suggestion every this many
  /// model-based iterations ("random configurations proposed by the
  /// optimizer periodically", paper §4.1).
  int random_interleave = 10;
  /// Random candidates scored by EI each iteration.
  int num_random_candidates = 500;
  /// Local-search: neighbors drawn around each of the top incumbents.
  int num_local_parents = 5;
  int num_neighbors_per_parent = 20;
  /// Gaussian neighborhood width as a fraction of each dim's range.
  double neighbor_stddev = 0.15;
  /// Executor cap for parallel EI scoring over the shared pool
  /// (0 = pool size; 1 = serial).
  int num_threads = 0;
  /// Batch diversification: within one SuggestBatch round, challengers
  /// closer than this NormalizedDistance to an already-picked point of
  /// the round are excluded, and the best remaining EI wins (the
  /// unconstrained argmax is restored when every candidate is a
  /// near-duplicate). <= 0 disables, reverting to the sequential
  /// fallback, which tends to return q near-copies of the same EI
  /// maximum. Has no effect at q == 1. On by default, so batched
  /// "smac" trajectories differ from pre-diversification builds —
  /// checkpoints of batched SMAC sessions saved by those builds fail
  /// Restore's history pin loudly; set 0 to reproduce them.
  double batch_min_distance = 0.05;
  RandomForestOptions forest;
};

/// \brief Sequential Model-based Algorithm Configuration (Hutter et
/// al. 2011) — random-forest Bayesian optimization, the paper's
/// strongest baseline and LlamaTune's default optimizer.
///
/// Loop: LHS initial design; then fit the RF to all observations,
/// generate candidates (uniform random + Gaussian neighborhoods of the
/// best observed points), and suggest the candidate maximizing
/// Expected Improvement. Periodically a pure random suggestion is
/// interleaved for exploration.
///
/// SuggestBatch is batch-aware (SmacOptions::batch_min_distance): the
/// forest is fit once per round (no new observations arrive within a
/// round, so refitting per pick would only burn RNG), and each
/// model-based pick excludes challengers that are near-duplicates of
/// points the round already holds. Batches are identical at any
/// thread count: candidates are drawn serially, EI reduces in index
/// order, and the exclusion scan walks a deterministically sorted
/// index list.
class SmacOptimizer : public Optimizer {
 public:
  SmacOptimizer(SearchSpace space, SmacOptions options, uint64_t seed);

  std::vector<double> Suggest() override;
  std::vector<std::vector<double>> SuggestBatch(int n) override;
  void Observe(const std::vector<double>& point, double value) override;
  std::string name() const override { return "SMAC"; }

  const SmacOptions& options() const { return options_; }

 private:
  /// The iter'th point of the lazily drawn LHS initial design.
  std::vector<double> InitPoint(int iter);
  /// True when iter is one of the periodically interleaved pure-random
  /// suggestions (paper §4.1).
  bool IsRandomInterleave(int iter) const;
  std::vector<double> SuggestByModel();
  /// One model-based pick of a batch round: like SuggestByModel, but
  /// the forest fit is shared across the round (`*forest_ready`) and
  /// candidates within batch_min_distance of `taken` are excluded.
  std::vector<double> SuggestByModelDiverse(
      const std::vector<std::vector<double>>& taken, bool* forest_ready);
  /// Candidate pool + EI scores (shared by the single and batch
  /// paths). Blocks of RandomForest::kBlockRows candidates score in
  /// parallel, each one PredictBatch call then EI; results are
  /// index-ordered.
  std::vector<std::vector<double>> ScoreCandidates(std::vector<double>* ei);
  std::vector<double> MutateNeighbor(const std::vector<double>& parent);

  SmacOptions options_;
  Rng rng_;
  RandomForest forest_;
  std::vector<std::vector<double>> init_design_;
  /// Training views maintained incrementally in Observe, so each
  /// model-based suggestion passes the forest a stable buffer instead
  /// of re-copying the full history.
  std::vector<std::vector<double>> train_x_;
  std::vector<double> train_y_;
  int suggest_count_ = 0;
};

}  // namespace llamatune
