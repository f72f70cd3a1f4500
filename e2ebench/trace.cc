#include "e2ebench/trace.h"

#include <cstdio>

namespace e2e {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientAsk: return "client.ask";
    case SpanKind::kClientTell: return "client.tell";
    case SpanKind::kClientCreate: return "client.create";
    case SpanKind::kClientCheckpoint: return "client.checkpoint";
    case SpanKind::kClientClose: return "client.close";
    case SpanKind::kProject: return "core.project";
    case SpanKind::kEvaluate: return "dbsim.evaluate";
    case SpanKind::kSuggest: return "optimizer.suggest";
    case SpanKind::kSuggestBatch: return "optimizer.suggest_batch";
    case SpanKind::kObserve: return "optimizer.observe";
    case SpanKind::kStep: return "service.step";
    case SpanKind::kWalAppend: return "service.wal_append";
  }
  return "unknown";
}

ProbeRegistry& ProbeRegistry::Global() {
  static ProbeRegistry* registry = new ProbeRegistry();
  return *registry;
}

std::shared_ptr<Probe> ProbeRegistry::Register(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<Probe>& slot = probes_[seed];
  if (slot == nullptr) slot = std::make_shared<Probe>(seed);
  return slot;
}

std::shared_ptr<Probe> ProbeRegistry::Find(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = probes_.find(seed);
  return it != probes_.end() ? it->second : std::make_shared<Probe>(seed);
}

Tracer& Tracer::Global() {
  // Leaked like ThreadPool::Global(): pool threads may record until the
  // process exits.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<int>(buffers_.size());
    buffer->spans.reserve(1 << 14);
  }
  return buffer;
}

void Tracer::Record(SpanKind kind, SpanKind parent, uint64_t session,
                    int64_t call, int64_t start_ns, int64_t end_ns,
                    double work) {
  Buffer* buffer = ThreadBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->spans.push_back(
      {kind, parent, session, call, start_ns, end_ns, work});
}

void Tracer::Count(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.emplace_back(name, value);
}

bool Tracer::WriteJsonl(const std::string& path, const std::string& workload) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    for (const Span& span : buffer->spans) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"workload\":\"%s\",\"session\":%llu,"
                   "\"call\":%lld,\"thread\":%d,\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":",
                   SpanName(span.kind), workload.c_str(),
                   static_cast<unsigned long long>(span.session),
                   static_cast<long long>(span.call), buffer->thread,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
      if (span.parent == span.kind) {
        std::fprintf(out, "null");
      } else {
        std::fprintf(out, "\"%s\"", SpanName(span.parent));
      }
      if (span.work != 0.0) std::fprintf(out, ",\"work\":%.17g", span.work);
      std::fprintf(out, "}\n");
    }
  }
  for (const auto& [name, value] : counters_) {
    std::fprintf(out,
                 "{\"counter\":\"%s\",\"workload\":\"%s\","
                 "\"value\":%.17g}\n",
                 name.c_str(), workload.c_str(), value);
  }
  return std::fclose(out) == 0;
}

}  // namespace e2e
