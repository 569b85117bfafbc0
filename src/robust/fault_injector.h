// Deterministic, seeded fault injection at named sites. Production code
// places a fault point (MaybeInject / TableOpContext::Attempt) in front of
// an operation that could fail in a real deployment (a search RPC, a KG
// lookup, a file read); the injector decides — from a seeded per-site RNG,
// so runs are reproducible — whether that call trips.
//
// Disabled is the default and the hot path: MaybeInject is a single relaxed
// atomic load and branch, so fault points cost nothing measurable when no
// faults are configured.
//
// Configuration: programmatic (Configure / ConfigureFromSpec) or via the
// environment at process start — KGLINK_FAULTS="site:prob[:latency_us],..."
// and KGLINK_FAULT_SEED=N. A rule with latency_us > 0 is a latency fault:
// when it trips, the caller sleeps that long and then proceeds (the call
// succeeds slowly instead of failing).
#ifndef KGLINK_ROBUST_FAULT_INJECTOR_H_
#define KGLINK_ROBUST_FAULT_INJECTOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>

#include "util/deadline.h"
#include "util/rng.h"
#include "util/status.h"

namespace kglink::robust {

// The catalog of injectable operations. Keep FaultSiteName in sync.
enum class FaultSite : int {
  kSearchTopK = 0,  // "search.topk":  BM25 retrieval for one cell mention
  kKgNeighbors,     // "kg.neighbors": one-hop neighbour lookup (soft site)
  kIoRead,          // "io.read":      reading a persisted artifact
  kIoWrite,         // "io.write":     writing a persisted artifact
  kTrainBatch,      // "train.batch":  one gradient batch (poisons the loss)
  kPredict,         // "predict":      one PLM inference pass for a table
  // New sites are appended so existing per-site RNG streams (keyed by site
  // index) keep their historical draw sequences.
  kIoMmap,          // "io.mmap":      memory-mapping a snapshot file
  kStoreLoad,       // "store.load":   validating/loading a mapped snapshot
  kEncodeBadToken,  // "encode.bad_token": corrupts one token id pre-encode
  kNumSites,
};

inline constexpr int kNumFaultSites = static_cast<int>(FaultSite::kNumSites);

// Dotted lowercase name, e.g. "search.topk".
const char* FaultSiteName(FaultSite site);
std::optional<FaultSite> FaultSiteFromName(std::string_view name);

// One configured fault at a site.
struct FaultRule {
  double probability = 0.0;  // per-attempt trip chance in [0, 1]
  int64_t latency_us = 0;    // > 0: sleep-then-succeed instead of failing
};

class FaultInjector {
 public:
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // The process-wide injector used by all fault points.
  static FaultInjector& Global();

  // True when at least one rule with nonzero probability is active. This is
  // the only check on the no-faults hot path.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Replaces the active rules and reseeds every per-site RNG stream, so two
  // Configure calls with equal arguments produce identical trip sequences.
  void Configure(const std::map<FaultSite, FaultRule>& rules, uint64_t seed);

  // Parses "site:prob[:latency_us]" comma-separated, e.g.
  // "search.topk:0.1,io.read:0.05:250". Empty spec clears all rules.
  // prob must be a number in [0, 1] and latency_us a non-negative integer;
  // anything else is InvalidArgument and leaves the rules unchanged.
  Status ConfigureFromSpec(std::string_view spec, uint64_t seed);

  // Clears every rule and turns the fast path back off.
  void Disable();

  // Slow path: rolls the site's RNG against its rule. For latency rules a
  // trip sleeps and returns false (the operation proceeds). With a non-null
  // `request`, the injected sleep is capped at the request's remaining
  // deadline budget — a fault can never sleep a worker past its own
  // request's expiry — and each capped sleep counts in the
  // "robust.faults.latency_truncated" metric. Never call directly from
  // production code — use MaybeInject.
  bool ShouldFail(FaultSite site, const RequestContext* request = nullptr);

  // Like ShouldFail, but draws from `rng` — a caller-owned stream — instead
  // of the site's shared global stream. The serving path gives every
  // request its own stream (seeded from the injector seed and the
  // request's stream key), so trip decisions are deterministic per seed no
  // matter how worker threads interleave; the shared streams above stay
  // schedule-dependent under concurrency by construction. No draw happens
  // when the site has no active rule, which is stable for a fixed config.
  bool ShouldFailWithRng(FaultSite site, Rng& rng,
                         const RequestContext* request = nullptr);

  // Injected latency sleeps that were cut short by a request deadline.
  int64_t latency_truncations() const;

  // Copy of the site's active rule (zero probability when none).
  FaultRule RuleFor(FaultSite site) const;

  // Deterministic uniform double in [0, 1) from a dedicated jitter stream
  // (used by retry backoff so sleeps are reproducible per seed).
  double JitterUniform();

  uint64_t seed() const;
  int64_t trip_count(FaultSite site) const;

 private:
  FaultInjector();

  struct SiteState {
    FaultRule rule;
    Rng rng{0};
    int64_t trips = 0;
  };

  // Sleeps a tripped latency rule, capped at the request's remaining
  // deadline budget when one is supplied.
  void SleepLatency(int64_t latency_us, const RequestContext* request);

  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;
  uint64_t seed_ = 0;
  std::array<SiteState, kNumFaultSites> sites_;
  Rng jitter_rng_{0};
  std::atomic<int64_t> latency_truncations_{0};
};

// The fault point used by production code: false (no fault) unless faults
// are enabled AND the site's rule trips this call. `request` (optional)
// makes an injected latency sleep deadline-aware.
inline bool MaybeInject(FaultSite site,
                        const RequestContext* request = nullptr) {
  if (!FaultInjector::Enabled()) return false;
  return FaultInjector::Global().ShouldFail(site, request);
}

}  // namespace kglink::robust

#endif  // KGLINK_ROBUST_FAULT_INJECTOR_H_
