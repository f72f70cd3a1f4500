#include "e2ebench/probes.h"

#include "src/optimizer/optimizer_registry.h"

namespace e2e {

llamatune::Status RegisterTracedOptimizer(const std::string& key,
                                          bool driven) {
  return llamatune::OptimizerRegistry::Global().Register(
      "traced-" + key,
      [key, driven](const llamatune::SearchSpace& space, uint64_t seed)
          -> llamatune::Result<std::unique_ptr<llamatune::Optimizer>> {
        llamatune::Result<std::unique_ptr<llamatune::Optimizer>> inner =
            llamatune::OptimizerRegistry::Global().Create(key, space, seed);
        if (!inner.ok()) return inner.status();
        std::unique_ptr<llamatune::Optimizer> traced =
            std::make_unique<TracedOptimizer>(
                std::move(inner).ValueOrDie(),
                ProbeRegistry::Global().Find(seed), driven);
        return traced;
      });
}

}  // namespace e2e
