#pragma once

// Span and counter recording for the traced run of bm_e2e.
//
// Every span is recorded from the benchmark's own code: around the
// calls it makes into a layer's public functions (client requests,
// adapter projection, simulator evaluation, TuningService::Step) and
// inside the decorators it injects through the registries (the traced
// optimizer, the timed objective). Spans land in per-thread buffers
// and are written out as JSONL once the run is over; e2ebench/layers.py
// turns that file into the per-layer metrics.
//
// A span is keyed by (session seed, call index). The call index is the
// number of the driving request within its session — the k-th Ask and
// the k-th Tell of a wire session, the k-th Step of a driven session —
// and is published through the session's Probe before the request is
// issued, so a decorator running on a server or pool thread tags its
// span with the request that caused it. Child spans name their parent
// kind; layers.py pairs them by (session, call).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

enum class SpanKind : uint8_t {
  kClientAsk,
  kClientTell,
  kClientCreate,
  kClientCheckpoint,
  kClientClose,
  kProject,
  kEvaluate,
  kSuggest,
  kSuggestBatch,
  kObserve,
  kStep,
  kWalAppend,
};

const char* SpanName(SpanKind kind);

/// Nanoseconds on the monotonic clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-session context shared by the bench's driving thread and the
/// decorators that run on the server's threads.
struct Probe {
  explicit Probe(uint64_t seed) : session(seed) {}
  const uint64_t session;
  /// Index of the request in flight (see file comment).
  std::atomic<int64_t> call{0};
  /// Evaluations run by this session's timed objectives (all clones).
  std::atomic<int64_t> evaluations{0};
};

/// Probes by session seed, so a registry factory that only sees the
/// seed can find the session it serves.
class ProbeRegistry {
 public:
  static ProbeRegistry& Global();
  std::shared_ptr<Probe> Register(uint64_t seed);
  /// The registered probe, or a detached one for unknown seeds.
  std::shared_ptr<Probe> Find(uint64_t seed);

 private:
  std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<Probe>> probes_;
};

class Tracer {
 public:
  static Tracer& Global();

  /// Spans are only recorded between Start() and Stop(): set-up and
  /// checkpoint replays outside the timed phase stay out of the trace.
  void Start() { on_.store(true, std::memory_order_release); }
  void Stop() { on_.store(false, std::memory_order_release); }
  bool on() const { return on_.load(std::memory_order_acquire); }

  /// `parent` is the kind of the span that caused this one (same
  /// session and call), or `kind` itself for a top-level span. `work`
  /// carries an evaluation's fidelity.
  void Record(SpanKind kind, SpanKind parent, uint64_t session, int64_t call,
              int64_t start_ns, int64_t end_ns, double work = 0.0);
  void Count(const std::string& name, double value);

  /// Writes every buffered span and counter as JSON lines.
  bool WriteJsonl(const std::string& path, const std::string& workload);

 private:
  struct Span {
    SpanKind kind;
    SpanKind parent;
    uint64_t session;
    int64_t call;
    int64_t start_ns;
    int64_t end_ns;
    double work;
  };
  struct Buffer {
    int thread = 0;
    std::mutex mu;  // uncontended: only the owner appends until flush
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();

  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<std::pair<std::string, double>> counters_;
};

/// Times one call when tracing is on; costs one atomic load when off.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, SpanKind parent, const Probe* probe,
             double work = 0.0)
      : kind_(kind),
        parent_(parent),
        probe_(probe),
        work_(work),
        start_(Tracer::Global().on() ? NowNs() : -1) {}
  ~ScopedSpan() {
    if (start_ < 0) return;
    Tracer::Global().Record(kind_, parent_, probe_->session,
                            probe_->call.load(std::memory_order_acquire),
                            start_, NowNs(), work_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanKind kind_;
  SpanKind parent_;
  const Probe* probe_;
  double work_;
  int64_t start_;
};

}  // namespace e2e
