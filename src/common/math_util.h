#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace llamatune {

/// Clamps x to [lo, hi].
double Clamp(double x, double lo, double hi);

/// Shortest "%g" rendering of a number ("0.2", "16"). Registry keys
/// are built ("svb0.2") and parsed with this exact format — all key
/// producers must share it so keys round-trip.
std::string FormatCompact(double value);

/// Linearly rescales x from [x_lo, x_hi] to [y_lo, y_hi].
/// Degenerate source ranges map to y_lo.
double Rescale(double x, double x_lo, double x_hi, double y_lo, double y_hi);

/// Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& xs);

/// Population variance; 0 for fewer than two elements.
double Variance(const std::vector<double>& xs);

/// Standard deviation (sqrt of population variance).
double Stddev(const std::vector<double>& xs);

/// Linear-interpolated percentile, p in [0, 100]. Empty input returns 0.
double Percentile(std::vector<double> xs, double p);

/// Percentile of input already sorted ascending: no copy, no sort.
double PercentileSorted(const std::vector<double>& sorted, double p);

/// Standard normal probability density function.
double NormPdf(double x);

/// Standard normal cumulative distribution function.
double NormCdf(double x);

/// Index of the maximum element; -1 for an empty vector.
int ArgMax(const std::vector<double>& xs);

/// Index of the minimum element; -1 for an empty vector.
int ArgMin(const std::vector<double>& xs);

/// Dot product of two equal-length vectors.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean (L2) norm.
double Norm2(const std::vector<double>& xs);

/// Running best-so-far transform: out[i] = max(xs[0..i]).
std::vector<double> BestSoFarMax(const std::vector<double>& xs);

/// Running best-so-far transform for minimization: out[i] = min(xs[0..i]).
std::vector<double> BestSoFarMin(const std::vector<double>& xs);

/// A smooth saturating curve in [0,1): x / (x + k). Used by the DBMS
/// performance model for diminishing-returns resources.
double Saturating(double x, double k);

}  // namespace llamatune
