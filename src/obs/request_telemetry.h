// Request-scoped telemetry: a plain-struct accounting record carried on
// RequestContext (util/deadline.h keeps only a forward-declared pointer so
// util stays dependency-free). Every serving layer adds what it knows —
// the service adds queue wait and the post-process remainder, the linker
// adds link/cell-cache time and cache hit counts, the search engine adds
// TopK time, the annotator adds the encoder forward pass, and the robust
// layer counts retries and degrades.
//
// Cost model: a request is handled by exactly one worker thread at a time,
// so the record needs no atomics — stage accounting is plain uint64 adds
// plus two steady_clock reads per KGLINK_SCOPE(rc, stage) (obs/scope.h,
// ~40 ns), and code that runs with no telemetry attached (benchmarks,
// direct library use) pays a single null test.
//
// Stage nesting: kTopK and kCellCache run *inside* kLink, whose raw
// counter is therefore inclusive. exclusive_stage_us() subtracts the
// nested stages so that the exclusive stage times partition the request:
// their sum is <= the end-to-end latency by construction (disjoint
// sub-intervals of one monotonic clock, and a sum of floored microsecond
// spans never exceeds the floored total).
#ifndef KGLINK_OBS_REQUEST_TELEMETRY_H_
#define KGLINK_OBS_REQUEST_TELEMETRY_H_

#include <cstdint>
#include <string>

#include "util/deadline.h"

namespace kglink::obs {

enum class Stage : int {
  kQueueWait = 0,  // admission to worker pickup (service)
  kLink,           // Part-1 KG pipeline, inclusive of kTopK/kCellCache
  kTopK,           // BM25 retrieval calls inside the linker
  kCellCache,      // cell-link cache Get/Put
  kEncode,         // serializer + PLM forward pass
  kPostProcess,    // serving-harness remainder (gates, status mapping)
  kNumStages,
};

inline constexpr int kNumTelemetryStages = static_cast<int>(Stage::kNumStages);

// Lowercase snake name, e.g. "queue_wait", "topk".
inline const char* StageName(Stage stage) {
  static constexpr const char* kNames[kNumTelemetryStages] = {
      "queue_wait", "link", "topk", "cell_cache", "encode", "post_process",
  };
  return kNames[static_cast<int>(stage)];
}

struct RequestTelemetry {
  uint64_t stage_us[kNumTelemetryStages] = {};
  uint64_t stage_calls[kNumTelemetryStages] = {};
  uint64_t retries = 0;         // backoff sleeps taken
  uint64_t degrade_events = 0;  // TableOpContext::Degrade flips
  uint64_t cache_hits = 0;      // cell-link cache
  uint64_t cache_misses = 0;

  void AddStage(Stage stage, uint64_t us) {
    stage_us[static_cast<int>(stage)] += us;
    stage_calls[static_cast<int>(stage)] += 1;
  }
  uint64_t stage_micros(Stage stage) const {
    return stage_us[static_cast<int>(stage)];
  }
  uint64_t stage_count(Stage stage) const {
    return stage_calls[static_cast<int>(stage)];
  }

  // Stage time with nested stages subtracted (kLink minus kTopK/kCellCache,
  // clamped at zero); other stages are already exclusive.
  uint64_t exclusive_stage_us(Stage stage) const;

  // Sum of exclusive stage times across all stages — by construction <= the
  // request's end-to-end latency (queue_us + work_us).
  uint64_t TotalStageUs() const;

  // {"stages": {"queue_wait_us": …, "link_us": …, ...}, "stage_total_us": …,
  //  "retries": …, "degrade_events": …, "cache_hits": …,
  //  "cache_misses": …}
  // Stage values are the exclusive times.
  std::string Json() const;
};

// The telemetry record `rc` carries, or null when there is none.
inline RequestTelemetry* TelemetryOf(const RequestContext* rc) {
  return rc != nullptr ? rc->telemetry : nullptr;
}

}  // namespace kglink::obs

#endif  // KGLINK_OBS_REQUEST_TELEMETRY_H_
