#include "src/optimizer/smac.h"

#include <algorithm>

#include "src/common/thread_pool.h"
#include "src/model/acquisition.h"
#include "src/sampling/latin_hypercube.h"
#include "src/sampling/uniform.h"

namespace llamatune {

SmacOptimizer::SmacOptimizer(SearchSpace space, SmacOptions options,
                             uint64_t seed)
    : Optimizer(std::move(space)),
      options_(options),
      rng_(seed),
      forest_(space_, options.forest, HashCombine(seed, 0x5a5a5a5aULL)) {}

std::vector<double> SmacOptimizer::InitPoint(int iter) {
  if (init_design_.empty()) {
    init_design_ = LatinHypercubeSample(space_, options_.n_init, &rng_);
  }
  return init_design_[iter];
}

bool SmacOptimizer::IsRandomInterleave(int iter) const {
  return options_.random_interleave > 0 &&
         (iter - options_.n_init + 1) % options_.random_interleave == 0;
}

std::vector<double> SmacOptimizer::Suggest() {
  int iter = suggest_count_++;
  if (iter < options_.n_init) return InitPoint(iter);
  if (IsRandomInterleave(iter)) return UniformSample(space_, &rng_);
  return SuggestByModel();
}

std::vector<std::vector<double>> SmacOptimizer::SuggestBatch(int n) {
  // q == 1 (or diversification disabled) is the plain sequential
  // fallback — bit-for-bit a single Suggest() call at n == 1.
  if (n <= 1 || !(options_.batch_min_distance > 0.0)) {
    return Optimizer::SuggestBatch(n);
  }
  std::vector<std::vector<double>> batch;
  batch.reserve(n);
  bool forest_ready = false;
  for (int i = 0; i < n; ++i) {
    int iter = suggest_count_++;
    if (iter < options_.n_init) {
      batch.push_back(InitPoint(iter));
    } else if (IsRandomInterleave(iter)) {
      batch.push_back(UniformSample(space_, &rng_));
    } else {
      batch.push_back(SuggestByModelDiverse(batch, &forest_ready));
    }
  }
  return batch;
}

std::vector<double> SmacOptimizer::MutateNeighbor(
    const std::vector<double>& parent) {
  std::vector<double> child = parent;
  // SMAC's local search perturbs one parameter at a time; allow a
  // couple more in very high-dimensional spaces.
  int d = space_.num_dims();
  int num_mutations = 1 + static_cast<int>(rng_.UniformInt(0, d / 32));
  for (int m = 0; m < num_mutations; ++m) {
    int j = static_cast<int>(rng_.UniformInt(0, d - 1));
    const SearchDim& dim = space_.dim(j);
    if (dim.type == SearchDim::Type::kCategorical) {
      child[j] = static_cast<double>(rng_.UniformInt(0, dim.num_categories - 1));
    } else {
      double width = (dim.hi - dim.lo) * options_.neighbor_stddev;
      child[j] = space_.Snap(j, parent[j] + rng_.Gaussian(0.0, width));
    }
  }
  return child;
}

void SmacOptimizer::Observe(const std::vector<double>& point, double value) {
  Optimizer::Observe(point, value);
  train_x_.push_back(point);
  train_y_.push_back(value);
}

std::vector<std::vector<double>> SmacOptimizer::ScoreCandidates(
    std::vector<double>* ei) {
  double best = BestValue();

  // Candidate pool: uniform random + local neighborhoods of the top
  // observed incumbents.
  std::vector<std::vector<double>> candidates =
      UniformSamples(space_, options_.num_random_candidates, &rng_);

  std::vector<int> order(history_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return history_[a].value > history_[b].value;
  });
  int parents = std::min<int>(options_.num_local_parents,
                              static_cast<int>(order.size()));
  for (int p = 0; p < parents; ++p) {
    const std::vector<double>& parent = history_[order[p]].point;
    for (int k = 0; k < options_.num_neighbors_per_parent; ++k) {
      candidates.push_back(MutateNeighbor(parent));
    }
  }

  // Score by Expected Improvement, in blocks of the forest's
  // kBlockRows candidates: each block runs the forest's batch kernel,
  // then EI. A candidate's score does not depend on its block, blocks
  // run in parallel, and consumers reduce the index-ordered scores, so
  // every pick is independent of the executor count.
  constexpr int kBlock = RandomForest::kBlockRows;
  int num_candidates = static_cast<int>(candidates.size());
  int num_blocks = (num_candidates + kBlock - 1) / kBlock;
  ei->assign(num_candidates, 0.0);
  ThreadPool::Global().ParallelFor(
      num_blocks,
      [&](int block) {
        int begin = block * kBlock;
        int count = std::min(kBlock, num_candidates - begin);
        double means[kBlock], variances[kBlock];
        forest_.PredictBatch(candidates.data() + begin, count, means,
                             variances);
        ExpectedImprovementInto(means, variances, count, best, /*xi=*/0.0,
                                ei->data() + begin);
      },
      options_.num_threads);
  return candidates;
}

std::vector<double> SmacOptimizer::SuggestByModel() {
  // Fit the forest to the incrementally maintained training views.
  if (train_x_.empty()) return UniformSample(space_, &rng_);
  forest_.Fit(train_x_, train_y_);

  std::vector<double> ei;
  std::vector<std::vector<double>> candidates = ScoreCandidates(&ei);
  double best_ei = -1.0;
  int best_idx = 0;
  for (size_t i = 0; i < ei.size(); ++i) {
    if (ei[i] > best_ei) {
      best_ei = ei[i];
      best_idx = static_cast<int>(i);
    }
  }
  return candidates[best_idx];
}

std::vector<double> SmacOptimizer::SuggestByModelDiverse(
    const std::vector<std::vector<double>>& taken, bool* forest_ready) {
  if (train_x_.empty()) return UniformSample(space_, &rng_);
  // One forest fit per round: no observations arrive between the picks
  // of a batch, so refitting per pick would train on identical data.
  if (!*forest_ready) {
    forest_.Fit(train_x_, train_y_);
    *forest_ready = true;
  }
  std::vector<double> ei;
  std::vector<std::vector<double>> candidates = ScoreCandidates(&ei);

  // One pass over the index-ordered scores: best challenger that is
  // not a near-duplicate of a point the round already holds, plus the
  // unconstrained maximum as fallback (the same first-maximum
  // tie-break Suggest() uses).
  int best_idx = -1;
  double best_ei = -1.0;
  int best_any_idx = 0;
  double best_any_ei = -1.0;
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (ei[c] > best_any_ei) {
      best_any_ei = ei[c];
      best_any_idx = static_cast<int>(c);
    }
    if (ei[c] <= best_ei) continue;
    bool distinct = true;
    for (const std::vector<double>& prev : taken) {
      if (NormalizedDistance(space_, candidates[c], prev) <
          options_.batch_min_distance) {
        distinct = false;
        break;
      }
    }
    if (distinct) {
      best_ei = ei[c];
      best_idx = static_cast<int>(c);
    }
  }
  // Every challenger a near-duplicate (tiny spaces / huge q): the
  // unconstrained maximum is still the best answer.
  return candidates[best_idx >= 0 ? best_idx : best_any_idx];
}

}  // namespace llamatune
