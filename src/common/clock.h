#pragma once

#include <chrono>
#include <cstdint>

namespace llamatune {

// The library's only clock reads (scripts/lint_determinism.py's
// wall-clock rule allows no other file). None of these values may feed
// a committed trajectory: they stamp operational metadata (activity
// times, pending-trial deadlines, server timers) or time a section
// (optimizer seconds, client call deadlines, bench sections).

/// Wall-clock milliseconds since the Unix epoch (the timebase of
/// session activity stamps, pending-trial deadlines and server timers).
inline int64_t NowUnixMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Monotonic seconds, for timing a section.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic milliseconds, for per-call deadlines.
inline int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace llamatune
