#include "src/common/fault_injection.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>

#include "src/common/rng.h"
#include "src/common/sync.h"

namespace llamatune {

namespace {

struct SiteState {
  // Trigger: exactly one of the two is active.
  double probability = 0.0;          // probability mode when schedule empty
  std::vector<uint64_t> schedule;    // sorted 0-based hit indices
  uint64_t hits = 0;
  uint64_t fires = 0;
};

struct Registry {
  Mutex mu;
  uint64_t seed GUARDED_BY(mu) = 0;
  std::map<std::string, SiteState> sites GUARDED_BY(mu);
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

uint64_t HashSite(const std::string& site) {
  // FNV-1a: stable across platforms (std::hash is not).
  uint64_t h = 1469598103934665603ULL;
  for (char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

bool ParseSpecInto(const std::string& spec, uint64_t* seed,
                   std::map<std::string, SiteState>* sites) {
  std::istringstream in(spec);
  std::string entry;
  while (std::getline(in, entry, ';')) {
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size()) {
      return false;
    }
    std::string name = entry.substr(0, eq);
    std::string value = entry.substr(eq + 1);
    if (name == "seed") {
      char* end = nullptr;
      unsigned long long s = std::strtoull(value.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') return false;
      *seed = static_cast<uint64_t>(s);
      continue;
    }
    SiteState site;
    if (value[0] == 'p') {
      char* end = nullptr;
      double p = std::strtod(value.c_str() + 1, &end);
      if (end == nullptr || *end != '\0' || p < 0.0 || p > 1.0) return false;
      site.probability = p;
    } else if (value[0] == '@') {
      std::istringstream list(value.substr(1));
      std::string idx;
      while (std::getline(list, idx, ',')) {
        char* end = nullptr;
        unsigned long long k = std::strtoull(idx.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || idx.empty()) return false;
        site.schedule.push_back(static_cast<uint64_t>(k));
      }
      if (site.schedule.empty()) return false;
      std::sort(site.schedule.begin(), site.schedule.end());
    } else {
      return false;
    }
    (*sites)[name] = std::move(site);
  }
  return true;
}

}  // namespace

std::atomic<bool> FaultInjection::enabled_{false};

bool FaultInjection::Configure(const std::string& spec) {
  uint64_t seed = 0;
  std::map<std::string, SiteState> sites;
  if (!ParseSpecInto(spec, &seed, &sites)) return false;
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  registry.seed = seed;
  registry.sites = std::move(sites);
  enabled_.store(!registry.sites.empty(), std::memory_order_relaxed);
  return true;
}

bool FaultInjection::ConfigureFromEnv(const char* env_var) {
  const char* spec = std::getenv(env_var);
  if (spec == nullptr || spec[0] == '\0') return true;
  return Configure(spec);
}

void FaultInjection::Reset() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  enabled_.store(false, std::memory_order_relaxed);
  registry.seed = 0;
  registry.sites.clear();
}

uint64_t FaultInjection::HitCount(const std::string& site) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  auto it = registry.sites.find(site);
  return it == registry.sites.end() ? 0 : it->second.hits;
}

uint64_t FaultInjection::FireCount(const std::string& site) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  auto it = registry.sites.find(site);
  return it == registry.sites.end() ? 0 : it->second.fires;
}

bool FaultInjection::ShouldFailSlow(const char* site) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  auto it = registry.sites.find(site);
  if (it == registry.sites.end()) return false;
  SiteState& state = it->second;
  uint64_t hit = state.hits++;
  bool fire;
  if (!state.schedule.empty()) {
    fire = std::binary_search(state.schedule.begin(), state.schedule.end(),
                              hit);
  } else {
    // Deterministic per-(seed, site, hit) coin flip: the top 53 bits
    // of the mix as a uniform double in [0, 1).
    uint64_t bits = Mix64(registry.seed ^ HashSite(it->first) ^
                          Mix64(hit + 0x51ed2701ULL));
    double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
    fire = u < state.probability;
  }
  if (fire) ++state.fires;
  return fire;
}

}  // namespace llamatune
