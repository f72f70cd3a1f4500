#include "src/dbsim/des/zipf.h"

#include <cmath>

namespace llamatune {
namespace dbsim {
namespace des {

namespace {

double Zeta(int64_t n, double theta) {
  // Exact sum: O(n) std::pow calls, 100k at the DES key space. That
  // cost is why SimulatedPostgres builds its generator once and shares
  // it with its clones rather than rebuilding it per simulated run.
  double sum = 0.0;
  for (int64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(i, theta);
  return sum;
}

}  // namespace

ZipfianGenerator::ZipfianGenerator(int64_t n, double theta)
    : n_(n < 1 ? 1 : n), theta_(theta) {
  if (theta_ <= 0.0) return;  // uniform fallback
  zetan_ = Zeta(n_, theta_);
  zeta2_ = Zeta(2, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / n_, 1.0 - theta_)) / (1.0 - zeta2_ / zetan_);
}

int64_t ZipfianGenerator::Next(Rng* rng) const {
  if (theta_ <= 0.0) return rng->UniformInt(0, n_ - 1);
  double u = rng->Uniform(0.0, 1.0);
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  int64_t k = static_cast<int64_t>(
      n_ * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  if (k < 0) k = 0;
  if (k >= n_) k = n_ - 1;
  return k;
}

}  // namespace des
}  // namespace dbsim
}  // namespace llamatune
