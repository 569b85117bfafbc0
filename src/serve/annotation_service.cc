#include "serve/annotation_service.h"

#include <utility>

#include "obs/flight_recorder.h"
#include "obs/json_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "search/cell_link_cache.h"

namespace kglink::serve {

namespace {

constexpr const char* kStatusNames[kNumRequestStatuses] = {
    "ok", "degraded", "shed", "overloaded", "cancelled", "failed",
};

struct ServeMetrics {
  obs::Gauge& queue_depth;
  obs::Gauge& inflight;
  obs::Histogram& latency_us;     // queue wait + work, end to end
  obs::Histogram& queue_wait_us;  // queue wait alone
  // Achieved drain size per worker wakeup, recorded only when
  // options.encode_batch > 1 — shows how full the padded encoder batches
  // actually run (1 = batching configured but the queue had one request).
  obs::Histogram& batch_size;
  std::array<obs::Counter*, kNumRequestStatuses> by_status;

  static ServeMetrics& Get() {
    static ServeMetrics& m = *[] {
      auto& reg = obs::MetricsRegistry::Global();
      auto* metrics = new ServeMetrics{
          reg.GetGauge("serve.queue.depth"),
          reg.GetGauge("serve.inflight"),
          reg.GetHistogram("serve.latency_us"),
          reg.GetHistogram("serve.queue_wait_us"),
          reg.GetHistogram("serve.encode.batch_size",
                           obs::HistogramBuckets::Exponential(1, 2, 7)),
          {}};
      for (int i = 0; i < kNumRequestStatuses; ++i) {
        metrics->by_status[static_cast<size_t>(i)] = &reg.GetCounter(
            std::string("serve.requests.") + kStatusNames[i]);
      }
      return metrics;
    }();
    return m;
  }
};

int64_t ElapsedMicros(const Stopwatch& watch) {
  return static_cast<int64_t>(watch.ElapsedSeconds() * 1e6);
}

}  // namespace

const char* RequestStatusName(RequestStatus status) {
  return kStatusNames[static_cast<size_t>(status)];
}

ServiceOptions ValidatedServiceOptions(ServiceOptions options) {
  auto clamp_warn = [](const char* field) {
    KGLINK_LOG(kWarn, "serve.options.clamped").With("field", field);
  };
  if (options.num_threads < 1) options.num_threads = 1;
  if (options.max_queue < 1) options.max_queue = 1;
  if (options.encode_batch < 1) {
    options.encode_batch = 1;
    clamp_warn("encode_batch");
  }
  if (options.default_deadline_us < 0) {
    options.default_deadline_us = 0;
    clamp_warn("default_deadline_us");
  }
  if (options.retry_budget_per_second < 0.0) {
    options.retry_budget_per_second = 0.0;
    clamp_warn("retry_budget_per_second");
  }
  return options;
}

AnnotationService::AnnotationService(core::KgLinkAnnotator* annotator,
                                     ServiceOptions options)
    : annotator_(annotator),
      options_(ValidatedServiceOptions(std::move(options))),
      latency_window_(options_.slo_target_us, options_.clock) {
  KGLINK_CHECK(annotator_ != nullptr);
  for (auto& c : completed_) c.store(0, std::memory_order_relaxed);
  if (options_.retry_budget_per_second > 0.0) {
    robust::RetryBudgetOptions budget;
    budget.tokens_per_second = options_.retry_budget_per_second;
    budget.burst = 2.0 * options_.retry_budget_per_second;
    retry_budget_ =
        std::make_unique<robust::RetryBudget>(budget, options_.clock);
  }
  accepting_ = true;
  workers_.reserve(static_cast<size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AnnotationService::~AnnotationService() { Shutdown(); }

std::future<AnnotationResult> AnnotationService::Submit(
    const table::Table& table) {
  return Submit(table, options_.default_deadline_us > 0
                           ? Deadline::AfterMicros(options_.default_deadline_us)
                           : Deadline::Infinite());
}

std::future<AnnotationResult> AnnotationService::Submit(
    const table::Table& table, Deadline deadline, CancellationToken cancel) {
  Request req;
  req.table = &table;
  req.rc.deadline = deadline;
  req.rc.cancel = std::move(cancel);
  req.rc.retry_budget = retry_budget_.get();
  std::future<AnnotationResult> future = req.promise.get_future();

  bool enqueued = false;
  bool open = false;
  bool paused = false;
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The stream key is assigned to every submission — accepted or not —
    // in submission order, so fault-injection streams stay aligned with
    // the caller's submit sequence no matter what admission decides.
    req.rc.stream_key = next_stream_key_++;
    open = accepting_;
    paused = paused_;
    if (open) {
      if (static_cast<int>(queue_.size()) < options_.max_queue) {
        req.enqueue_us = NowMicros();
        queue_.push_back(std::move(req));
        ServeMetrics::Get().queue_depth.Set(
            static_cast<double>(queue_.size()));
        enqueued = true;
      } else if (!paused && !req.rc.Expired()) {
        // Shed: the queue is full. The degraded run calls into the
        // annotator, so it joins the quiesce-tracked inflight count from
        // inside the lock — a snapshot reload that sees inflight == 0
        // under mu_ knows no shed run is active or can start before the
        // swap finishes.
        shed = true;
        ++inflight_;
        ServeMetrics::Get().inflight.Set(static_cast<double>(inflight_));
      }
    }
  }
  if (enqueued) {
    cv_.notify_one();
    return future;
  }

  // Admission refused. A closed service, a mid-reload pause or a spent
  // deadline means even the cheap path is pointless: refuse outright.
  // Otherwise shed load by running the degraded PLM-only path right here
  // in the caller's thread — the queue and workers never see the request.
  AnnotationResult result;
  if (shed) {
    result = RunShedInline(table, req.rc);
    FinishInflight();
  } else if (!open) {
    result.status = RequestStatus::kOverloaded;
    result.error = Status::Unavailable("annotation service is shut down");
  } else if (paused) {
    result.status = RequestStatus::kOverloaded;
    result.error =
        Status::Unavailable("queue full during snapshot reload");
  } else {
    result.status = RequestStatus::kOverloaded;
    result.error =
        Status::Unavailable("queue full and request deadline already spent");
  }
  CountCompletion(result.status);
  req.promise.set_value(std::move(result));
  return future;
}

int64_t AnnotationService::NowMicros() const {
  return options_.clock ? options_.clock() : obs::SteadyNowMicros();
}

AnnotationResult AnnotationService::RunShedInline(const table::Table& table,
                                                  const RequestContext& rc) {
  Stopwatch work;
  AnnotationResult result;
  result.status = RequestStatus::kShed;
  core::AnnotateOutcome outcome = annotator_->AnnotateDegraded(table, "shed");
  result.predictions = std::move(outcome.predictions);
  result.degrade_reason = std::move(outcome.degrade_reason);
  result.work_us = ElapsedMicros(work);
  // The degraded run skips the instrumented KG/encode layers, so the whole
  // inline run is serving-harness remainder.
  result.telemetry.AddStage(obs::Stage::kPostProcess,
                            static_cast<uint64_t>(result.work_us));
  ServeMetrics::Get().latency_us.Record(
      static_cast<double>(result.work_us));
  KGLINK_LOG(kWarn, "serve.shed")
      .With("table", table.id())
      .With("stream_key", static_cast<int64_t>(rc.stream_key));
  ObserveCompletion(table, rc, result);
  return result;
}

void AnnotationService::WorkerLoop() {
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // paused_ holds dispatch during a snapshot reload's swap window;
      // stopping_ overrides it so shutdown always drains (the reload's
      // Rebind runs under mu_, so a draining pop can never interleave
      // with the pointer swap itself).
      cv_.wait(lock,
               [&] { return stopping_ || (!paused_ && !queue_.empty()); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      while (!queue_.empty() &&
             static_cast<int>(batch.size()) < options_.encode_batch) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      ServeMetrics::Get().queue_depth.Set(
          static_cast<double>(queue_.size()));
      // Counted before mu_ is released: a reload quiescing under mu_
      // either still sees each drained request in the queue or already
      // sees it inflight — never in between. The whole batch joins the
      // inflight count atomically so the quiesce wait covers every member.
      inflight_ += static_cast<int>(batch.size());
      ServeMetrics::Get().inflight.Set(static_cast<double>(inflight_));
    }
    if (options_.encode_batch > 1) {
      ServeMetrics::Get().batch_size.Record(
          static_cast<double>(batch.size()));
    }
    const int64_t now = NowMicros();
    std::vector<int64_t> sojourns(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      sojourns[i] = now - batch[i].enqueue_us;
      if (sojourns[i] < 0) sojourns[i] = 0;
    }
    if (batch.size() > 1) {
      // Fold the drained requests into one padded encoder forward.
      RunBatch(batch, sojourns);
      continue;
    }
    AnnotationResult result = RunRequest(batch[0], sojourns[0]);
    FinishInflight();
    CountCompletion(result.status);
    batch[0].promise.set_value(std::move(result));
  }
}

void AnnotationService::FinishInflight() {
  std::lock_guard<std::mutex> lock(mu_);
  --inflight_;
  ServeMetrics::Get().inflight.Set(static_cast<double>(inflight_));
  if (inflight_ == 0) quiesce_cv_.notify_all();
}

void AnnotationService::AttachSnapshotStore(store::SnapshotStore* store) {
  KGLINK_CHECK(store != nullptr);
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_store_ = store;
  }
  std::shared_ptr<const store::LoadedSnapshot> gen = store->current();
  if (gen != nullptr) AdoptGeneration(std::move(gen));
}

Status AnnotationService::ReloadSnapshot(const std::string& path) {
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  if (snapshot_store_ == nullptr) {
    return Status::FailedPrecondition(
        "ReloadSnapshot without an attached snapshot store");
  }
  auto loaded = snapshot_store_->Load(path);
  if (!loaded.ok()) {
    // Rollback is implicit: nothing was swapped, the previous generation
    // keeps serving. The store has already applied the quarantine policy.
    std::lock_guard<std::mutex> lock(mu_);
    last_reload_error_ = loaded.status().ToString();
    return loaded.status();
  }
  AdoptGeneration(std::move(loaded).value());
  return Status::Ok();
}

void AnnotationService::AdoptGeneration(
    std::shared_ptr<const store::LoadedSnapshot> gen) {
  const uint64_t generation = gen->generation;
  const uint64_t sequence = gen->sequence;
  std::shared_ptr<const store::LoadedSnapshot> retired;
  {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = true;
    quiesce_cv_.wait(lock, [&] { return inflight_ == 0; });
    // Quiesced: no request is inside the annotator and none can enter
    // while mu_ is held (workers and the shed path both take the inflight
    // count under mu_ first). Swap the evidence sources.
    annotator_->Rebind(&gen->kg, &gen->engine);
    retired = std::move(serving_snapshot_);
    serving_snapshot_ = std::move(gen);
    last_reload_error_.clear();
    paused_ = false;
  }
  cv_.notify_all();
  KGLINK_LOG(kInfo, "serve.snapshot.swap")
      .With("generation", static_cast<int64_t>(generation))
      .With("sequence", static_cast<int64_t>(sequence));
  // `retired` — the previous generation and its mapping — is released
  // here, outside mu_, once this (its last) reference drops.
}

std::shared_ptr<const store::LoadedSnapshot>
AnnotationService::serving_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return serving_snapshot_;
}

AnnotationResult AnnotationService::RunRequest(Request& req,
                                               int64_t sojourn_us) {
  AnnotationResult result;
  // The record lives in the result; the context carries a borrowed pointer
  // down the stack for the duration of the annotate call.
  req.rc.telemetry = &result.telemetry;
  result.queue_us = sojourn_us;
  result.telemetry.AddStage(obs::Stage::kQueueWait,
                            static_cast<uint64_t>(result.queue_us));
  ServeMetrics::Get().queue_wait_us.Record(
      static_cast<double>(result.queue_us));

  Stopwatch work;
  core::AnnotateOutcome outcome =
      annotator_->AnnotateTable(*req.table, &req.rc);
  const int64_t work_us = ElapsedMicros(work);
  FinishRun(req, result, std::move(outcome), work_us, work_us);
  return result;
}

void AnnotationService::FinishRun(Request& req, AnnotationResult& result,
                                  core::AnnotateOutcome&& outcome,
                                  int64_t work_us, int64_t triage_us) {
  result.work_us = work_us;
  req.rc.telemetry = nullptr;
  ServeMetrics::Get().latency_us.Record(
      static_cast<double>(result.queue_us + result.work_us));

  // Post-process remainder: work time not already attributed to the link
  // (inclusive of its nested stages) or encode intervals. Those are
  // disjoint sub-intervals of the work interval on the same monotonic
  // clock, and a sum of floored microsecond spans never exceeds the
  // floored total — so exclusive stage sums stay <= queue_us + work_us.
  uint64_t attributed =
      result.telemetry.stage_micros(obs::Stage::kLink) +
      result.telemetry.stage_micros(obs::Stage::kEncode);
  uint64_t uwork_us = static_cast<uint64_t>(result.work_us);
  if (uwork_us > attributed) {
    result.telemetry.AddStage(obs::Stage::kPostProcess,
                              uwork_us - attributed);
  }

  result.predictions = std::move(outcome.predictions);
  result.degrade_reason = std::move(outcome.degrade_reason);
  if (!outcome.status.ok()) {
    result.status = RequestStatus::kFailed;
    result.error = std::move(outcome.status);
  } else if (result.degrade_reason == "cancelled") {
    result.status = RequestStatus::kCancelled;
  } else if (outcome.degraded) {
    result.status = RequestStatus::kDegraded;
  } else {
    result.status = RequestStatus::kOk;
  }
  if (result.status == RequestStatus::kOk) {
    // Clean completions feed the batch triage estimate. Degraded
    // and failed runs do less work — folding them in would bias the EWMA
    // low and over-admit members into batches they cannot afford. The
    // load-modify-store race between workers is benign: the value is a
    // smoothing estimate, and every store is a valid recent observation.
    int64_t prev = work_ewma_us_.load(std::memory_order_relaxed);
    int64_t next = prev == 0 ? triage_us : prev + (triage_us - prev) / 8;
    work_ewma_us_.store(next, std::memory_order_relaxed);
  }
  ObserveCompletion(*req.table, req.rc, result);
}

void AnnotationService::RunBatch(std::vector<Request>& batch,
                                 const std::vector<int64_t>& sojourns) {
  const size_t n = batch.size();
  std::vector<AnnotationResult> results(n);
  for (size_t i = 0; i < n; ++i) {
    batch[i].rc.telemetry = &results[i].telemetry;
    results[i].queue_us = sojourns[i];
    results[i].telemetry.AddStage(obs::Stage::kQueueWait,
                                  static_cast<uint64_t>(sojourns[i]));
    ServeMetrics::Get().queue_wait_us.Record(
        static_cast<double>(sojourns[i]));
  }

  // Deadline triage: the batch forward serves its members simultaneously,
  // so every member waits roughly the whole batch's work time. A member
  // whose remaining budget cannot absorb n times the per-request work
  // estimate would expire inside the shared forward — degrade it to the
  // cheap PLM-only path up front instead. With no estimate yet (cold
  // start) every member runs; the first clean completions seed the EWMA.
  const int64_t est = work_ewma_us_.load(std::memory_order_relaxed);
  std::vector<size_t> run;
  std::vector<size_t> degrade;
  run.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t remaining = batch[i].rc.deadline.RemainingMicros();
    if (est > 0 && remaining != INT64_MAX &&
        remaining < est * static_cast<int64_t>(n)) {
      degrade.push_back(i);
    } else {
      run.push_back(i);
    }
  }

  // Triaged members resolve before the batch runs — they are the
  // latency-critical ones by definition, and the degraded pass is cheap.
  for (size_t i : degrade) {
    Stopwatch work;
    core::AnnotateOutcome outcome =
        annotator_->AnnotateDegraded(*batch[i].table, "batch_deadline");
    const int64_t work_us = ElapsedMicros(work);
    FinishRun(batch[i], results[i], std::move(outcome), work_us, work_us);
    FinishInflight();
    CountCompletion(results[i].status);
    batch[i].promise.set_value(std::move(results[i]));
  }

  if (!run.empty()) {
    Stopwatch work;
    std::vector<const table::Table*> tables;
    std::vector<const RequestContext*> rcs;
    tables.reserve(run.size());
    rcs.reserve(run.size());
    for (size_t i : run) {
      tables.push_back(batch[i].table);
      rcs.push_back(&batch[i].rc);
    }
    std::vector<core::AnnotateOutcome> outcomes =
        annotator_->AnnotateBatch(tables, rcs);
    // Every surviving member waits for the whole batch, so each is charged
    // the batch's wall time: total_us() is what its caller waited. The
    // triage estimate stays per request, so it is fed each member's share.
    const int64_t wall_us = ElapsedMicros(work);
    const int64_t share_us = wall_us / static_cast<int64_t>(run.size());
    for (size_t j = 0; j < run.size(); ++j) {
      const size_t i = run[j];
      FinishRun(batch[i], results[i], std::move(outcomes[j]), wall_us,
                share_us);
      FinishInflight();
      CountCompletion(results[i].status);
      batch[i].promise.set_value(std::move(results[i]));
    }
  }
}

void AnnotationService::ObserveCompletion(const table::Table& table,
                                          const RequestContext& rc,
                                          const AnnotationResult& result) {
  int64_t total_us = result.total_us();
  latency_window_.Record(total_us);

  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  if (!recorder.enabled()) return;
  const char* trigger = recorder.Trigger(total_us);
  if (trigger[0] == '\0') return;
  std::string line = "{\"table\": \"" + obs::JsonEscape(table.id()) + "\"";
  line += ", \"stream_key\": " + std::to_string(rc.stream_key);
  line += std::string(", \"status\": \"") + RequestStatusName(result.status) +
          "\"";
  if (!result.degrade_reason.empty()) {
    line += ", \"degrade_reason\": \"" +
            obs::JsonEscape(result.degrade_reason) + "\"";
  }
  line += std::string(", \"trigger\": \"") + trigger + "\"";
  line += ", \"queue_us\": " + std::to_string(result.queue_us);
  line += ", \"work_us\": " + std::to_string(result.work_us);
  line += ", \"total_us\": " + std::to_string(total_us);
  line += ", \"telemetry\": " + result.telemetry.Json();
  line += "}";
  recorder.Record(std::move(line));
}

void AnnotationService::CountCompletion(RequestStatus status) {
  completed_[static_cast<size_t>(status)].fetch_add(
      1, std::memory_order_relaxed);
  ServeMetrics::Get().by_status[static_cast<size_t>(status)]->Add();
}

void AnnotationService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

int64_t AnnotationService::completed(RequestStatus status) const {
  return completed_[static_cast<size_t>(status)].load(
      std::memory_order_relaxed);
}

int AnnotationService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(queue_.size());
}

std::string AnnotationService::HealthJson() const {
  bool accepting;
  size_t depth;
  int inflight;
  bool attached;
  bool reloading;
  uint64_t generation = 0;
  uint64_t sequence = 0;
  std::string source;
  std::string last_error;
  std::shared_ptr<const store::LoadedSnapshot> serving;
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting = accepting_;
    depth = queue_.size();
    inflight = inflight_;
    attached = snapshot_store_ != nullptr;
    reloading = paused_;
    if (serving_snapshot_ != nullptr) {
      generation = serving_snapshot_->generation;
      sequence = serving_snapshot_->sequence;
      source = serving_snapshot_->source_path;
      serving = serving_snapshot_;
    }
    last_error = last_reload_error_;
  }
  // Residency is an O(pages) mincore scan — run it outside mu_, on the
  // shared_ptr copied above, and refresh the gauges on every render so
  // cold-page behavior after --reload-snapshot is visible.
  store::MappedResidency residency;
  if (serving != nullptr && serving->snapshot != nullptr) {
    residency = serving->snapshot->Residency();
    auto& reg = obs::MetricsRegistry::Global();
    reg.GetGauge("store.snapshot.mapped_bytes")
        .Set(static_cast<double>(residency.mapped_bytes));
    reg.GetGauge("store.snapshot.resident_bytes")
        .Set(static_cast<double>(residency.resident_bytes));
  }
  std::string out = "{\"accepting\": ";
  out += accepting ? "true" : "false";
  out += ", \"threads\": " + std::to_string(options_.num_threads);
  out += ", \"queue_depth\": " + std::to_string(depth);
  out += ", \"max_queue\": " + std::to_string(options_.max_queue);
  out += ", \"inflight\": " + std::to_string(inflight);
  out += ", \"completed\": {";
  for (int i = 0; i < kNumRequestStatuses; ++i) {
    if (i > 0) out += ", ";
    out += std::string("\"") + kStatusNames[i] + "\": " +
           std::to_string(completed(static_cast<RequestStatus>(i)));
  }
  out += "}";
  // Both sections come from one snapshot, so they describe one instant.
  obs::RollingWindow::Snapshot window = latency_window_.Snap();
  out += ", \"window\": " + window.WindowJson();
  out += ", \"slo\": " + window.SloJson();
  out += ", \"retry_budget\": " + (retry_budget_ != nullptr
                                       ? retry_budget_->SnapshotJson()
                                       : std::string("{\"enabled\": false}"));
  if (attached) {
    // Load/failure/quarantine totals come from the store's process-wide
    // counters; generation/sequence/source describe the generation this
    // service is actually serving from (0/"" until the first adopt).
    auto& reg = obs::MetricsRegistry::Global();
    out += ", \"snapshot\": {\"attached\": true";
    out += ", \"generation\": " + std::to_string(generation);
    out += ", \"sequence\": " + std::to_string(sequence);
    out += ", \"source\": \"" + obs::JsonEscape(source) + "\"";
    out += std::string(", \"reloading\": ") + (reloading ? "true" : "false");
    out += ", \"loads\": " +
           std::to_string(reg.GetCounter("store.snapshot.loads").value());
    out += ", \"load_failures\": " +
           std::to_string(
               reg.GetCounter("store.snapshot.load_failures").value());
    out += ", \"quarantined\": " +
           std::to_string(
               reg.GetCounter("store.snapshot.quarantined").value());
    out += ", \"version_skew\": " +
           std::to_string(
               reg.GetCounter("store.snapshot.version_skew").value());
    if (serving != nullptr) {
      out += ", \"mapped_bytes\": " + std::to_string(residency.mapped_bytes);
      out +=
          ", \"resident_bytes\": " + std::to_string(residency.resident_bytes);
    }
    if (!last_error.empty()) {
      out += ", \"last_error\": \"" + obs::JsonEscape(last_error) + "\"";
    }
    out += "}";
  }
  if (const search::CellLinkCache* cache = annotator_->cell_cache()) {
    out += ", \"cell_cache\": {\"capacity\": " +
           std::to_string(cache->capacity()) +
           ", \"size\": " + std::to_string(cache->size()) +
           ", \"hits\": " + std::to_string(cache->hits()) +
           ", \"misses\": " + std::to_string(cache->misses()) +
           ", \"evictions\": " + std::to_string(cache->evictions()) + "}";
  }
  // Profiler run state + heap/process memory; refreshes process.mem.*.
  out += ", \"profile\": " + obs::Profiler::Global().StatusJson();
  out += "}";
  return out;
}

}  // namespace kglink::serve
