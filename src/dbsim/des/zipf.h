#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.h"

namespace llamatune {
namespace dbsim {
namespace des {

/// \brief Zipfian key generator (Gray et al. / YCSB's algorithm).
///
/// Draws keys in [0, n) with P(k) proportional to 1/(k+1)^theta. Used
/// by the discrete-event engine to sample per-transaction cache
/// behaviour under the skew the workloads declare (YCSB runs a
/// zipfian request distribution; paper Table 4 workloads inherit it).
class ZipfianGenerator {
 public:
  /// \param n number of distinct keys (>= 1)
  /// \param theta skew in [0, 1); 0 degenerates to uniform.
  ZipfianGenerator(int64_t n, double theta);

  int64_t Next(Rng* rng) const;

  int64_t num_keys() const { return n_; }
  double theta() const { return theta_; }

 private:
  int64_t n_;
  double theta_;
  double alpha_ = 0.0;
  double zetan_ = 0.0;
  double eta_ = 0.0;
  double zeta2_ = 0.0;
};

}  // namespace des
}  // namespace dbsim
}  // namespace llamatune
