#include "src/analysis/shap.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"
#include "src/model/random_forest.h"

namespace llamatune {

std::vector<KnobImportance> ShapImportance(const ImportanceCorpus& corpus,
                                           const SpaceAdapter& adapter,
                                           const std::vector<double>& baseline,
                                           ShapOptions options,
                                           uint64_t seed) {
  const SearchSpace& space = adapter.search_space();
  int d = space.num_dims();
  int n = static_cast<int>(corpus.points.size());
  std::vector<KnobImportance> out(d);
  for (int j = 0; j < d; ++j) {
    out[j].knob = adapter.config_space().knob(j).name;
  }
  if (n < 10) return out;

  Rng rng(seed);
  RandomForestOptions forest_options;
  forest_options.num_trees = options.num_trees;
  RandomForest forest(space, forest_options, rng.NextSeed());
  forest.Fit(corpus.points, corpus.values);

  std::vector<double> abs_phi(d, 0.0);
  int explained = std::min(options.num_explained_points, n);
  std::vector<int> chosen = rng.SampleWithoutReplacement(n, explained);
  // One permutation's walk: row 0 is the baseline, and row k + 1
  // switches the order's k-th feature from baseline to x.
  std::vector<std::vector<double>> walk(d + 1);
  std::vector<double> means(d + 1), variances(d + 1);
  for (int idx : chosen) {
    const std::vector<double>& x = corpus.points[idx];
    std::vector<double> phi(d, 0.0);
    for (int perm_i = 0; perm_i < options.num_permutations; ++perm_i) {
      std::vector<int> order = rng.Permutation(d);
      // Each switch's prediction delta is that feature's marginal
      // contribution under this order.
      walk[0] = baseline;
      for (int k = 0; k < d; ++k) {
        walk[k + 1] = walk[k];
        walk[k + 1][order[k]] = x[order[k]];
      }
      forest.PredictBatch(walk.data(), d + 1, means.data(), variances.data());
      for (int k = 0; k < d; ++k) phi[order[k]] += means[k + 1] - means[k];
    }
    for (int j = 0; j < d; ++j) {
      abs_phi[j] += std::abs(phi[j] / options.num_permutations);
    }
  }

  double total = 0.0;
  for (int j = 0; j < d; ++j) {
    out[j].score = abs_phi[j] / explained;
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

}  // namespace llamatune
