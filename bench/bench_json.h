#pragma once

// The one result layout of the regression-tracked bench binaries
// (bm_hotpath, bm_batch, bm_largen, bm_service, bm_racing, bm_paper):
//
//   {"bench": "<name>", "config": {"<key>": <number or string>, ...},
//    "hardware": {"cores": <ThreadPool::DefaultThreads()>},
//    "metrics": [{"name": ..., "value": ..., "deterministic": ...}, ...],
//    "info": {"<key>": <number>, ...}}
//
// scripts/check_bench_regression.py compares `metrics` against
// bench/baselines/ (a deterministic one must be bit-equal, a wall-clock
// one is lower-is-better and advisory) and never reads `info`. A metric
// name embeds the run configuration it depends on, e.g.
// "sparse_evals_to_98pct[iters=64,seeds=5]"; an info key is the
// number's path, with a table row's identity in brackets
// ("fixed_work[seed=42]"). Numbers are written with %.17g, so they
// read back bit-exact.

#include <cstdarg>
#include <cstdio>
#include <string>
#include <utility>

#include "src/common/thread_pool.h"

namespace llamatune {
namespace bench {

/// printf into a std::string; builds metric names and info keys.
__attribute__((format(printf, 1, 2))) inline std::string Format(
    const char* format, ...) {
  va_list args, size_args;
  va_start(args, format);
  va_copy(size_args, args);
  std::string out(std::vsnprintf(nullptr, 0, format, size_args), '\0');
  va_end(size_args);
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  void Config(const std::string& key, double value) {
    Append(&config_, ", ", Field(key, Number(value)));
  }
  void Config(const std::string& key, const std::string& value) {
    Append(&config_, ", ", Field(key, "\"" + value + "\""));
  }
  void Metric(const std::string& name, double value, bool deterministic) {
    Append(&metrics_, ",\n    ",
           Format("{\"name\": \"%s\", \"value\": %.17g, \"deterministic\": %s}",
                  name.c_str(), value, deterministic ? "true" : "false"));
  }
  void Info(const std::string& key, double value) {
    Append(&info_, ",\n    ", Field(key, Number(value)));
  }

  /// Writes BENCH_<bench>.json in the working directory. Returns false,
  /// after saying why on stderr, when the file cannot be written.
  bool Write() const {
    std::string path = "BENCH_" + bench_ + ".json";
    FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    std::fprintf(file,
                 "{\n  \"bench\": \"%s\",\n  \"config\": {%s},\n"
                 "  \"hardware\": {\"cores\": %d},\n"
                 "  \"metrics\": [\n    %s\n  ],\n"
                 "  \"info\": {\n    %s\n  }\n}\n",
                 bench_.c_str(), config_.c_str(),
                 ThreadPool::DefaultThreads(), metrics_.c_str(),
                 info_.c_str());
    return std::fclose(file) == 0;
  }

 private:
  static std::string Number(double value) { return Format("%.17g", value); }
  static std::string Field(const std::string& key, const std::string& value) {
    return "\"" + key + "\": " + value;
  }
  static void Append(std::string* list, const char* separator,
                     const std::string& item) {
    if (!list->empty()) *list += separator;
    *list += item;
  }

  std::string bench_;
  std::string config_;
  std::string metrics_;
  std::string info_;
};

}  // namespace bench
}  // namespace llamatune
