#include "src/analysis/importance.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"
#include "src/sampling/latin_hypercube.h"

namespace llamatune {

ImportanceCorpus BuildCorpus(ObjectiveFunction* objective,
                             const SpaceAdapter& adapter, int num_samples,
                             uint64_t seed) {
  Rng rng(seed);
  ImportanceCorpus corpus;
  corpus.points = LatinHypercubeSample(adapter.search_space(), num_samples,
                                       &rng);
  corpus.values.reserve(corpus.points.size());
  std::vector<std::vector<double>> kept;
  kept.reserve(corpus.points.size());
  for (const auto& point : corpus.points) {
    EvalResult result = objective->Evaluate(adapter.Project(point));
    if (result.crashed) continue;  // crashed samples carry no gradient info
    kept.push_back(point);
    corpus.values.push_back(result.value);
  }
  corpus.points = std::move(kept);
  return corpus;
}

std::vector<KnobImportance> PermutationImportance(
    const ImportanceCorpus& corpus, const SpaceAdapter& adapter,
    uint64_t seed) {
  const SearchSpace& space = adapter.search_space();
  int d = space.num_dims();
  int n = static_cast<int>(corpus.points.size());
  std::vector<KnobImportance> out(d);
  for (int j = 0; j < d; ++j) {
    out[j].knob = adapter.config_space().knob(j).name;
    out[j].score = 0.0;
  }
  if (n < 10) return out;

  Rng rng(seed);
  RandomForestOptions options;
  options.num_trees = 24;
  RandomForest forest(space, options, rng.NextSeed());
  forest.Fit(corpus.points, corpus.values);

  std::vector<double> means(n), variances(n);
  auto mse = [&](const std::vector<std::vector<double>>& xs) {
    forest.PredictBatch(xs.data(), n, means.data(), variances.data());
    double acc = 0.0;
    for (int i = 0; i < n; ++i) {
      double err = means[i] - corpus.values[i];
      acc += err * err;
    }
    return acc / n;
  };
  double baseline_mse = mse(corpus.points);

  constexpr int kRepeats = 3;
  double total = 0.0;
  for (int j = 0; j < d; ++j) {
    double increase = 0.0;
    for (int r = 0; r < kRepeats; ++r) {
      std::vector<std::vector<double>> shuffled = corpus.points;
      std::vector<int> perm = rng.Permutation(n);
      for (int i = 0; i < n; ++i) {
        shuffled[i][j] = corpus.points[perm[i]][j];
      }
      increase += std::max(0.0, mse(shuffled) - baseline_mse);
    }
    out[j].score = increase / kRepeats;
    total += out[j].score;
  }
  if (total > 0.0) {
    for (auto& ki : out) ki.score /= total;
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.score > b.score;
  });
  return out;
}

std::vector<std::string> TopKnobs(const std::vector<KnobImportance>& ranking,
                                  int k) {
  std::vector<std::string> out;
  for (int i = 0; i < k && i < static_cast<int>(ranking.size()); ++i) {
    out.push_back(ranking[i].knob);
  }
  return out;
}

}  // namespace llamatune
