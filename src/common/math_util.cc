#include "src/common/math_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace llamatune {

double Clamp(double x, double lo, double hi) {
  return std::min(std::max(x, lo), hi);
}

std::string FormatCompact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

double Rescale(double x, double x_lo, double x_hi, double y_lo, double y_hi) {
  if (x_hi <= x_lo) return y_lo;
  double t = (x - x_lo) / (x_hi - x_lo);
  return y_lo + t * (y_hi - y_lo);
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mu = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - mu) * (x - mu);
  return acc / static_cast<double>(xs.size());
}

double Stddev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double Percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return PercentileSorted(xs, p);
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  p = Clamp(p, 0.0, 100.0);
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = static_cast<size_t>(std::ceil(rank));
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double NormPdf(double x) {
  static const double kInvSqrt2Pi = 0.3989422804014327;
  return kInvSqrt2Pi * std::exp(-0.5 * x * x);
}

double NormCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

int ArgMax(const std::vector<double>& xs) {
  if (xs.empty()) return -1;
  return static_cast<int>(std::max_element(xs.begin(), xs.end()) - xs.begin());
}

int ArgMin(const std::vector<double>& xs) {
  if (xs.empty()) return -1;
  return static_cast<int>(std::min_element(xs.begin(), xs.end()) - xs.begin());
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double Norm2(const std::vector<double>& xs) { return std::sqrt(Dot(xs, xs)); }

std::vector<double> BestSoFarMax(const std::vector<double>& xs) {
  std::vector<double> out(xs.size());
  double best = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < xs.size(); ++i) {
    best = std::max(best, xs[i]);
    out[i] = best;
  }
  return out;
}

std::vector<double> BestSoFarMin(const std::vector<double>& xs) {
  std::vector<double> out(xs.size());
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < xs.size(); ++i) {
    best = std::min(best, xs[i]);
    out[i] = best;
  }
  return out;
}

double Saturating(double x, double k) {
  if (x <= 0.0) return 0.0;
  return x / (x + k);
}

}  // namespace llamatune
