// AnnotationService: concurrent table annotation with deadlines and
// admission control — the serving harness around core::KgLinkAnnotator.
//
// Architecture (three cooperating pieces):
//
//   Submit ──► max_queue bound ──► bounded queue ──► worker pool
//                │ (full queue)                        │
//                └─► shed: degraded PLM-only run       └─► deadline /
//                    inline, or kOverloaded when the       cancellation
//                    deadline cannot even fit that         propagate to
//                                                          every layer
//
// - Every request carries a Deadline + CancellationToken (RequestContext)
//   through linker::KgPipeline, search::SearchEngine::TopK and the predict
//   pass. An expired request short-circuits to the degraded PLM-only
//   ProcessedTable (degrade_reason "deadline" / "cancelled") — full-width
//   predictions, never a crash or a partial result.
// - Admission has one rule, the hard max_queue bound: when the queue is
//   full the caller thread runs the degraded PLM-only path inline (status
//   kShed) if the request's deadline still allows, else the request is
//   refused (kOverloaded) without touching the model.
// - With a retry rate configured, the service owns a retry budget
//   (robust/retry_budget.h) and lends it to every request it runs, so a
//   correlated fault burst degrades tables instead of multiplying retries.
// - Health/readiness: HealthJson() snapshots queue depth, inflight count,
//   per-status totals and the sliding latency/SLO window (one
//   obs::RollingWindow, recorded once per completion); the counts are
//   also exported through the obs metrics registry ("serve.*").
//
// Thread safety: all public methods are safe from any thread. The borrowed
// annotator must have finished Fit/Load before the first Submit, and
// every submitted table must stay alive until its future resolves.
#ifndef KGLINK_SERVE_ANNOTATION_SERVICE_H_
#define KGLINK_SERVE_ANNOTATION_SERVICE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <memory>

#include "core/annotator.h"
#include "obs/request_telemetry.h"
#include "obs/rolling_window.h"
#include "robust/retry_budget.h"
#include "store/snapshot_store.h"
#include "table/table.h"
#include "util/deadline.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace kglink::serve {

struct ServiceOptions {
  int num_threads = 4;
  int max_queue = 64;
  // Max queued requests a worker drains into one padded, attention-masked
  // encoder batch (core::KgLinkAnnotator::AnnotateBatch). 1 (default)
  // keeps the sequential per-request path. Members whose deadline cannot
  // survive the whole batch degrade immediately instead of waiting (see
  // RunBatch).
  int encode_batch = 1;
  // Applied to Submit calls that do not bring their own deadline;
  // 0 = unbounded.
  int64_t default_deadline_us = 0;

  // Latency SLO target surfaced by HealthJson(). The objective (0.99),
  // the burn-rate windows (10 s short, 60 s long, in 1 s slots) and the
  // latency-stats window (the 10 s one) are obs::RollingWindow constants.
  int64_t slo_target_us = 100'000;

  // Retry tokens per second of the budget this service lends its requests
  // (burst 2× the rate); 0 disables (retries stay bounded per table only).
  double retry_budget_per_second = 0.0;
  // Injectable monotonic-microseconds clock driving the latency/SLO
  // window, the retry budget and queue-sojourn measurement. Empty = steady
  // clock; tests inject a virtual clock for deterministic rotation.
  obs::ClockMicrosFn clock;
};

// Clamps nonsensical parameters to sane values (warning logged per clamp)
// instead of letting a misconfigured service run silently: thread and
// queue counts of at least 1, encode_batch at least 1, and a negative
// deadline or retry rate becomes 0. Applied by the constructor.
ServiceOptions ValidatedServiceOptions(ServiceOptions options);

// Terminal state of one request. Ordered roughly by "how much work ran".
enum class RequestStatus : int {
  kOk = 0,        // full KG+PLM annotation inside the deadline
  kDegraded,      // PLM-only fallback (deadline, cancellation, faults)
  kShed,          // queue full: degraded PLM-only run in the caller thread
  kOverloaded,    // refused outright (queue full and no deadline headroom,
                  // or the service is shutting down)
  kCancelled,     // cancellation token fired
  kFailed,        // hard failure (predict site exhausted its retries)
  kNumStatuses,
};

inline constexpr int kNumRequestStatuses =
    static_cast<int>(RequestStatus::kNumStatuses);

// Lowercase name, e.g. "ok", "degraded", "overloaded".
const char* RequestStatusName(RequestStatus status);

struct AnnotationResult {
  RequestStatus status = RequestStatus::kOk;
  // Per original column; empty only for kOverloaded / kFailed.
  std::vector<int> predictions;
  std::string degrade_reason;  // set for kDegraded / kShed / kCancelled
  Status error;                // set for kOverloaded / kFailed
  int64_t queue_us = 0;        // time spent waiting for a worker
  // Time spent annotating; for a batched request, the whole batch's wall
  // time, since the caller waits for the shared forward to finish.
  int64_t work_us = 0;
  // Per-stage accounting for this request: queue wait and the post-process
  // remainder from the service, link/topk/cell_cache/encode from the
  // library layers' KGLINK_SCOPEs.
  obs::RequestTelemetry telemetry;

  int64_t total_us() const { return queue_us + work_us; }
};

class AnnotationService {
 public:
  // `annotator` is borrowed and must outlive the service; Fit/Load must
  // have completed.
  AnnotationService(core::KgLinkAnnotator* annotator, ServiceOptions options);
  ~AnnotationService();  // implies Shutdown()

  AnnotationService(const AnnotationService&) = delete;
  AnnotationService& operator=(const AnnotationService&) = delete;

  // Enqueues one table (borrowed; must outlive the returned future's
  // resolution) under the service default deadline.
  std::future<AnnotationResult> Submit(const table::Table& table);

  // Enqueues with an explicit per-request deadline and (optionally) a
  // cancellation token the caller may fire at any point.
  std::future<AnnotationResult> Submit(const table::Table& table,
                                       Deadline deadline,
                                       CancellationToken cancel = {});

  // Stops admission, drains every queued request through the workers and
  // joins them. Idempotent; called by the destructor.
  void Shutdown();

  // ---- Snapshot serving (RCU-style hot reload) -------------------------
  //
  // The service can serve the annotator's KG/engine out of a refcounted
  // snapshot generation (store::LoadedSnapshot). AttachSnapshotStore
  // borrows the store (must outlive the service) and, if the store already
  // holds a good generation, adopts it immediately. ReloadSnapshot loads
  // `path` into a *new* generation and swaps it in between requests:
  //
  //     serving gen G ── Load(path) ──► ok? ──► pause dispatch
  //         │                │                  wait inflight == 0
  //         │                └─ fail ──► G keeps serving (rollback);
  //         │                            corruption quarantined by the
  //         │                            store, error returned
  //         └──────────────────────────► Rebind annotator onto G+1,
  //                                      resume dispatch, release G
  //
  // The swap window touches no request: workers pause between items, the
  // quiesce wait covers shed-inline runs too, and queued requests simply
  // wait out the (microseconds-scale) rebind. On load failure nothing is
  // swapped — the previous generation keeps serving and the error lands in
  // HealthJson's snapshot.last_error.
  void AttachSnapshotStore(store::SnapshotStore* store);
  Status ReloadSnapshot(const std::string& path);

  // Generation currently being served from, or null (built in memory, not
  // snapshot-backed).
  std::shared_ptr<const store::LoadedSnapshot> serving_snapshot() const;

  // {"accepting":…, "threads":…, "queue_depth":…, "max_queue":…,
  //  "inflight":…, "completed":{status:count,…},
  //  "window":{window_s,count,mean_us,p50_us,p99_us,p999_us},
  //  "slo":{target_us,objective,burning,short:{…},long:{…}},
  //  "retry_budget":{enabled[,tokens_per_second,burst,fill,granted,
  //                  denied]},
  //  "snapshot":{attached,generation,sequence,source,reloading,
  //              loads,load_failures,quarantined,version_skew
  //              [,mapped_bytes,resident_bytes][,last_error]},
  //  "cell_cache":{capacity,size,hits,misses,evictions},
  //  "profile":{running,hz,ticks,samples,…,heap:{…},
  //             process:{rss_bytes,peak_rss_bytes,arena_bytes}}}
  // "window"/"slo" cover sliding windows (not cumulative-since-start) and
  // are rendered from one RollingWindow snapshot, so window.count equals
  // slo.short.total;
  // "retry_budget" is this service's own budget. snapshot appears only after
  // AttachSnapshotStore (mapped/resident bytes once a generation is
  // adopted — a mincore scan refreshed per render, -1 where unsupported);
  // cell_cache only when the annotator's cell-link cache is enabled.
  std::string HealthJson() const;

  // Total requests that finished with `status` (includes shed/overloaded
  // resolutions performed in Submit).
  int64_t completed(RequestStatus status) const;

  int queue_depth() const;
  const ServiceOptions& options() const { return options_; }

 private:
  struct Request {
    const table::Table* table;
    RequestContext rc;
    std::promise<AnnotationResult> promise;
    // Enqueue time on the service clock; the dequeue sojourn derived from
    // it is the result's queue_us.
    int64_t enqueue_us = 0;
  };

  int64_t NowMicros() const;
  void WorkerLoop();
  AnnotationResult RunRequest(Request& req, int64_t sojourn_us);
  // Runs a drained batch: deadline triage (members that
  // cannot afford the whole batch degrade to the cheap PLM-only path and
  // resolve first), then one AnnotateBatch over the survivors. Resolves
  // every request's promise and inflight/completion accounting.
  void RunBatch(std::vector<Request>& batch,
                const std::vector<int64_t>& sojourns);
  // Shared completion tail for worker-run requests: work accounting,
  // post-process stage remainder, outcome -> status mapping and
  // ObserveCompletion. `result` must already carry queue_us and the
  // attached telemetry. `triage_us` is the work sample fed to the batch
  // triage estimate: work_us, or a batched member's share of the batch.
  void FinishRun(Request& req, AnnotationResult& result,
                 core::AnnotateOutcome&& outcome, int64_t work_us,
                 int64_t triage_us);
  // The shed path: degraded PLM-only annotation in the calling thread.
  AnnotationResult RunShedInline(const table::Table& table,
                                 const RequestContext& rc);
  // Decrements the quiesce-tracked inflight count (taken under mu_ before
  // any annotator call — worker or shed-inline — starts) and wakes a
  // reload waiting for the pool to drain.
  void FinishInflight();
  // The swap itself: pause dispatch, wait inflight == 0, Rebind, resume.
  // Caller holds reload_mu_.
  void AdoptGeneration(std::shared_ptr<const store::LoadedSnapshot> gen);
  void CountCompletion(RequestStatus status);
  // Feeds the rolling latency/SLO window and, when the global
  // FlightRecorder is armed and triggers, emits this request's stage
  // breakdown as one JSON line.
  void ObserveCompletion(const table::Table& table, const RequestContext& rc,
                         const AnnotationResult& result);

  core::KgLinkAnnotator* annotator_;
  ServiceOptions options_;
  // Sliding-window latency stats and SLO burn (HealthJson).
  obs::RollingWindow latency_window_;
  // Lent to every request through RequestContext::retry_budget; null when
  // options_.retry_budget_per_second is 0.
  std::unique_ptr<robust::RetryBudget> retry_budget_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  uint64_t next_stream_key_ = 0;  // assigned under mu_ in submission order
  bool accepting_ = false;
  bool stopping_ = false;
  // Reload quiesce state, all under mu_. `inflight_` counts requests
  // currently inside the annotator (worker runs and shed-inline runs); it
  // is incremented before mu_ is released to start the work, so a reload
  // that holds mu_ and sees inflight_ == 0 knows no annotator call is in
  // flight or can start. `paused_` gates worker dispatch during the swap.
  int inflight_ = 0;
  bool paused_ = false;
  std::condition_variable quiesce_cv_;  // signalled when inflight_ hits 0

  // Serializes AttachSnapshotStore/ReloadSnapshot against each other
  // (never held while annotating; acquired before mu_).
  std::mutex reload_mu_;
  store::SnapshotStore* snapshot_store_ = nullptr;  // borrowed, may be null
  // Under mu_: the generation the annotator is bound to, and the last
  // failed reload's error (cleared by a successful swap).
  std::shared_ptr<const store::LoadedSnapshot> serving_snapshot_;
  std::string last_reload_error_;

  std::vector<std::thread> workers_;
  std::array<std::atomic<int64_t>, kNumRequestStatuses> completed_{};
  // EWMA of clean per-request work time, feeding RunBatch's deadline
  // triage (degraded runs are excluded — they are an order of magnitude
  // cheaper and would bias the estimate toward over-admission).
  std::atomic<int64_t> work_ewma_us_{0};
};

}  // namespace kglink::serve

#endif  // KGLINK_SERVE_ANNOTATION_SERVICE_H_
