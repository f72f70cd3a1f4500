#include "src/core/running_stat.h"

#include <cmath>
#include <limits>

#include "src/common/serde.h"

namespace llamatune {

namespace {

/// One Neumaier step: adds `x` into the (sum, carry) pair, routing the
/// rounding error of whichever operand is smaller into the carry.
void NeumaierAdd(double x, double* sum, double* carry) {
  double t = *sum + x;
  if (std::abs(*sum) >= std::abs(x)) {
    *carry += (*sum - t) + x;
  } else {
    *carry += (x - t) + *sum;
  }
  *sum = t;
}

/// `stat <count>` and the seven accumulator doubles, in member order.
constexpr auto kStatFields = [](auto& io, auto& count, auto&... sums) {
  io.Literal("stat");
  io.Value(count);
  io.Check(count >= 0, "negative stat count");
  (io.Value(sums), ...);
};

}  // namespace

void RunningStat::Push(double x) {
  if (count_ == 0) {
    shift_ = x;
    min_ = x;
    max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  double d = x - shift_;
  NeumaierAdd(d, &sum_, &sum_c_);
  NeumaierAdd(d * d, &sum_sq_, &sum_sq_c_);
}

double RunningStat::Mean() const {
  if (count_ == 0) return 0.0;
  return shift_ + (sum_ + sum_c_) / static_cast<double>(count_);
}

double RunningStat::Variance() const {
  if (count_ < 2) return 0.0;
  double n = static_cast<double>(count_);
  double s = sum_ + sum_c_;
  double ss = sum_sq_ + sum_sq_c_;
  double var = (ss - s * s / n) / (n - 1.0);
  return var > 0.0 ? var : 0.0;
}

double RunningStat::CiHalfWidth(double z) const {
  if (count_ < 2) return std::numeric_limits<double>::infinity();
  return z * std::sqrt(Variance() / static_cast<double>(count_));
}

std::string RunningStat::Serialize() const {
  return WriteTokens(kStatFields, count_, shift_, sum_, sum_c_, sum_sq_,
                     sum_sq_c_, min_, max_);
}

Result<RunningStat> RunningStat::Parse(const std::string& line) {
  RunningStat stat;
  Status status =
      ReadTokens(line, kStatFields, stat.count_, stat.shift_, stat.sum_,
                 stat.sum_c_, stat.sum_sq_, stat.sum_sq_c_, stat.min_,
                 stat.max_);
  if (!status.ok()) return status;
  return stat;
}

}  // namespace llamatune
