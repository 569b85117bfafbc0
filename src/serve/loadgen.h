// Production-shaped load generation against an AnnotationService.
//
// Three drive modes, all seeded and table-popularity-skewed (zipfian —
// real CTA workloads hit a few hot tables far more often than the tail):
//
// - RunClosedLoop: N workers submit-and-wait as fast as completions allow.
//   Measures sustainable capacity (the no-overload peak throughput) —
//   closed loops cannot overrun the service, so this is the baseline the
//   overload gates compare against.
// - RunOpenLoop: arrivals on a seeded Poisson schedule at a fixed offered
//   rate, independent of completions — the only honest way to overload a
//   system (closed loops self-throttle; coordinated omission hides the
//   pain). Optional on/off burst gating batches arrivals into on-windows.
//   Reports goodput, accepted-request latency percentiles, shed/refusal
//   counts, and the maximum queue depth observed.
// - RunBatch: single-threaded submission of a fixed request sequence with
//   a FNV-1a checksum over every result in submission order. Paired with
//   per-request fault streams this is byte-identical per seed regardless
//   of worker-pool interleaving — the chaos determinism gate.
//
// Goodput counts completions that delivered full-width predictions from a
// worker run (kOk + kDegraded). Shed inline runs and refusals are
// excluded: they are the overload *response*, not served load.
#ifndef KGLINK_SERVE_LOADGEN_H_
#define KGLINK_SERVE_LOADGEN_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/annotation_service.h"
#include "table/table.h"
#include "util/rng.h"

namespace kglink::serve {

struct LoadgenOptions {
  double rate_per_second = 50.0;    // open-loop offered arrival rate
  int64_t duration_us = 2'000'000;  // open-loop offered window
  // Zipf popularity exponent over the table list (weight 1/rank^s);
  // 0 = uniform.
  double zipf_s = 1.1;
  // On/off bursty arrivals: the Poisson schedule is gated so arrivals land
  // only inside on-windows (an arrival falling in an off-window shifts to
  // the next on-window's start, forming a burst). 0 = steady.
  int64_t burst_on_us = 0;
  int64_t burst_off_us = 0;
  int64_t deadline_us = 0;  // per-request deadline; 0 = service default
  uint64_t seed = 1;
  int closed_loop_workers = 4;  // RunClosedLoop concurrency
};

struct LoadReport {
  int64_t submitted = 0;
  double duration_s = 0;            // submit start -> last future resolved
  double offered_per_second = 0;    // submitted / offered window
  double goodput_per_second = 0;    // kOk + kDegraded completions / duration
  std::array<int64_t, kNumRequestStatuses> by_status{};
  int max_queue_depth = 0;  // sampled at every arrival
  // End-to-end latencies (queue + work) of accepted worker-run completions
  // (kOk/kDegraded/kCancelled/kFailed — everything that held a queue slot),
  // sorted ascending after the run.
  std::vector<int64_t> accepted_latency_us;

  // Percentile over accepted_latency_us; 0 when nothing was accepted.
  int64_t LatencyPercentileUs(double pct) const;
  std::string Json() const;
};

// Deterministic zipfian index picker over [0, n): weight 1/(rank+1)^s.
class ZipfPicker {
 public:
  ZipfPicker(size_t n, double s);
  size_t Pick(Rng& rng) const;

 private:
  std::vector<double> cumulative_;
};

// Sustainable-capacity probe: `closed_loop_workers` threads submit-and-wait
// for `duration_us`. Faults and overload config are whatever the service
// was built with.
LoadReport RunClosedLoop(AnnotationService& service,
                         const std::vector<const table::Table*>& tables,
                         const LoadgenOptions& options);

// Offered-load run on a precomputed seeded arrival schedule (Poisson at
// rate_per_second, burst-gated). Blocks until every submitted future
// resolves.
LoadReport RunOpenLoop(AnnotationService& service,
                       const std::vector<const table::Table*>& tables,
                       const LoadgenOptions& options);

struct BatchResult {
  uint64_t checksum = 0;  // FNV-1a over every result in submission order
  std::array<int64_t, kNumRequestStatuses> by_status{};
};

// Submits `count` zipf-picked requests from a single thread (stream keys —
// and with them the per-request fault streams — follow submission order),
// then folds every result into a checksum. Byte-identical per seed when
// the service's max_queue holds all `count` requests, so no admission
// decision depends on timing.
BatchResult RunBatch(AnnotationService& service,
                     const std::vector<const table::Table*>& tables,
                     int count, const LoadgenOptions& options);

}  // namespace kglink::serve

#endif  // KGLINK_SERVE_LOADGEN_H_
