#include "robust/fault_injector.h"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace kglink::robust {

namespace {

constexpr const char* kSiteNames[kNumFaultSites] = {
    "search.topk", "kg.neighbors", "io.read",    "io.write",
    "train.batch", "predict",      "io.mmap",    "store.load",
    "encode.bad_token",
};

// Parses a probability in [0, 1], consuming the whole field. Written so a
// NaN fails the range check.
bool ParseProbability(const std::string& s, double* out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size() && *out >= 0.0 &&
         *out <= 1.0;
}

// Registered once; indexed by site for lock-free updates on the fault path.
obs::Counter& SiteTripCounter(FaultSite site) {
  static std::array<obs::Counter*, kNumFaultSites> counters = [] {
    std::array<obs::Counter*, kNumFaultSites> c{};
    auto& reg = obs::MetricsRegistry::Global();
    for (int i = 0; i < kNumFaultSites; ++i) {
      c[static_cast<size_t>(i)] = &reg.GetCounter(
          std::string("robust.fault.") + kSiteNames[i] + ".injected");
    }
    return c;
  }();
  return *counters[static_cast<size_t>(site)];
}

obs::Counter& TotalTripCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("robust.faults.injected");
  return c;
}

obs::Counter& LatencyTruncationCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "robust.faults.latency_truncated");
  return c;
}

// Activates env-configured faults before any fault point runs, so
// KGLINK_FAULTS works for binaries (benches, CLI) that never call
// Configure explicitly.
struct EnvInit {
  EnvInit() {
    const char* spec = std::getenv("KGLINK_FAULTS");
    if (spec == nullptr || *spec == '\0') return;
    uint64_t seed = 42;
    if (const char* s = std::getenv("KGLINK_FAULT_SEED")) {
      if (!ParseNonNegativeInt(std::string_view(s), &seed)) {
        std::fprintf(stderr,
                     "ignoring bad KGLINK_FAULT_SEED '%s': faults stay "
                     "unarmed\n",
                     s);
        return;
      }
    }
    Status st = FaultInjector::Global().ConfigureFromSpec(spec, seed);
    if (!st.ok()) {
      std::fprintf(stderr, "ignoring bad KGLINK_FAULTS: %s\n",
                   st.ToString().c_str());
    }
  }
} env_init;

}  // namespace

std::atomic<bool> FaultInjector::enabled_{false};

const char* FaultSiteName(FaultSite site) {
  return kSiteNames[static_cast<size_t>(site)];
}

std::optional<FaultSite> FaultSiteFromName(std::string_view name) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    if (name == kSiteNames[i]) return static_cast<FaultSite>(i);
  }
  return std::nullopt;
}

FaultInjector::FaultInjector() = default;

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Configure(const std::map<FaultSite, FaultRule>& rules,
                              uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  bool any_active = false;
  for (int i = 0; i < kNumFaultSites; ++i) {
    SiteState& s = sites_[static_cast<size_t>(i)];
    auto it = rules.find(static_cast<FaultSite>(i));
    s.rule = it == rules.end() ? FaultRule{} : it->second;
    // Independent stream per site: interleaving of calls across sites does
    // not perturb any one site's trip sequence.
    s.rng = Rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1)));
    s.trips = 0;
    if (s.rule.probability > 0.0) any_active = true;
  }
  jitter_rng_ = Rng(seed ^ 0xc2b2ae3d27d4eb4fULL);
  enabled_.store(any_active, std::memory_order_relaxed);
}

Status FaultInjector::ConfigureFromSpec(std::string_view spec,
                                        uint64_t seed) {
  std::map<FaultSite, FaultRule> rules;
  for (const std::string& entry : Split(spec, ',')) {
    if (entry.empty()) continue;
    std::vector<std::string> parts = Split(entry, ':');
    if (parts.size() < 2 || parts.size() > 3) {
      return Status::InvalidArgument("bad fault spec entry: " + entry);
    }
    std::optional<FaultSite> site = FaultSiteFromName(parts[0]);
    if (!site.has_value()) {
      return Status::InvalidArgument("unknown fault site: " + parts[0]);
    }
    FaultRule rule;
    if (!ParseProbability(parts[1], &rule.probability)) {
      return Status::InvalidArgument("bad fault probability: " + parts[1]);
    }
    if (parts.size() == 3 && !ParseNonNegativeInt(parts[2], &rule.latency_us)) {
      return Status::InvalidArgument("bad fault latency: " + parts[2]);
    }
    rules[*site] = rule;
  }
  Configure(rules, seed);
  return Status::Ok();
}

void FaultInjector::Disable() { Configure({}, seed_); }

void FaultInjector::SleepLatency(int64_t latency_us,
                                 const RequestContext* request) {
  int64_t sleep_us = latency_us;
  if (request != nullptr && !request->Unbounded()) {
    // Deadline-aware: an injected slow call may not sleep past its own
    // request's expiry — a chaos run must never pin a worker for longer
    // than the request it is hurting could have lived.
    int64_t remaining = request->deadline.RemainingMicros();
    if (request->cancel.Cancelled()) remaining = 0;
    if (remaining < sleep_us) {
      sleep_us = remaining > 0 ? remaining : 0;
      latency_truncations_.fetch_add(1, std::memory_order_relaxed);
      LatencyTruncationCounter().Add();
    }
  }
  if (sleep_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
  }
}

bool FaultInjector::ShouldFail(FaultSite site, const RequestContext* request) {
  FaultRule rule;
  bool trip = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SiteState& s = sites_[static_cast<size_t>(site)];
    rule = s.rule;
    if (rule.probability <= 0.0) return false;
    trip = s.rng.Bernoulli(rule.probability);
    if (trip) ++s.trips;
  }
  if (!trip) return false;
  SiteTripCounter(site).Add();
  TotalTripCounter().Add();
  if (rule.latency_us > 0) {
    // Latency fault: the operation is slow, not broken.
    SleepLatency(rule.latency_us, request);
    return false;
  }
  return true;
}

bool FaultInjector::ShouldFailWithRng(FaultSite site, Rng& rng,
                                      const RequestContext* request) {
  FaultRule rule = RuleFor(site);
  if (rule.probability <= 0.0) return false;
  if (!rng.Bernoulli(rule.probability)) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++sites_[static_cast<size_t>(site)].trips;
  }
  SiteTripCounter(site).Add();
  TotalTripCounter().Add();
  if (rule.latency_us > 0) {
    SleepLatency(rule.latency_us, request);
    return false;
  }
  return true;
}

int64_t FaultInjector::latency_truncations() const {
  return latency_truncations_.load(std::memory_order_relaxed);
}

FaultRule FaultInjector::RuleFor(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_[static_cast<size_t>(site)].rule;
}

double FaultInjector::JitterUniform() {
  std::lock_guard<std::mutex> lock(mu_);
  return jitter_rng_.UniformDouble();
}

uint64_t FaultInjector::seed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seed_;
}

int64_t FaultInjector::trip_count(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_[static_cast<size_t>(site)].trips;
}

}  // namespace kglink::robust
