#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace llamatune {

/// \brief Deterministic pseudo-random number generator.
///
/// Thin wrapper over std::mt19937_64 with the helper draws used across
/// the library. Every stochastic component in the system receives an
/// explicit seed so that a tuning session is reproducible bit-for-bit.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal draw (mean 0, stddev 1).
  double Gaussian(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// A fresh seed suitable for constructing a child Rng.
  uint64_t NextSeed();

  /// Random permutation of {0, ..., n-1}.
  std::vector<int> Permutation(int n);

  /// Sample k distinct indices from {0, ..., n-1} (k <= n).
  std::vector<int> SampleWithoutReplacement(int n, int k);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// \brief The splitmix64 finalizer: a cheap, stable 64-bit mixer. Fault
/// schedules, the server's shed jitter and the client's retry jitter
/// all draw from it, so chaos_test and the drain soak pin its bits.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// \brief Stable 64-bit hash combiner (splitmix-style) for deriving
/// per-evaluation noise seeds from (config hash, iteration).
uint64_t HashCombine(uint64_t a, uint64_t b);

/// \brief Stable hash of a vector of doubles (bit-pattern based).
uint64_t HashDoubles(const std::vector<double>& values);

}  // namespace llamatune
