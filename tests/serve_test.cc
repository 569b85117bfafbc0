// AnnotationService unit tests: deadline short-circuiting at every gated
// site, admission control (enqueue / shed / refuse), shutdown draining
// and health reporting. The concurrent chaos acceptance lives in
// concurrent_chaos_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/annotator.h"
#include "data/corpus_gen.h"
#include "data/world.h"
#include "obs/flight_recorder.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/request_telemetry.h"
#include "robust/fault_injector.h"
#include "search/search_engine.h"
#include "serve/annotation_service.h"
#include "store/snapshot_store.h"
#include "store/snapshot_writer.h"
#include "util/csv.h"
#include "util/deadline.h"

namespace kglink::serve {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::WorldConfig wc;
    wc.scale = 0.25;
    world_ = new data::World(data::GenerateWorld(wc));
    engine_ = new search::SearchEngine(
        search::IndexKnowledgeGraph(world_->kg));
    table::Corpus corpus = data::GenerateSemTabCorpus(
        *world_, data::CorpusOptions::SemTabDefaults(24));
    Rng rng(5);
    split_ = new table::SplitCorpus(
        table::StratifiedSplit(corpus, 0.7, 0.1, rng));

    core::KgLinkOptions o;
    o.epochs = 2;
    o.encoder.dim = 24;
    o.encoder.num_heads = 2;
    o.encoder.num_layers = 1;
    o.encoder.ffn_dim = 32;
    o.serializer.max_seq_len = 96;
    o.linker.top_k_rows = 8;
    o.seed = 99;
    annotator_ = new core::KgLinkAnnotator(&world_->kg, engine_, o);
    annotator_->Fit(split_->train, split_->valid);
  }
  static void TearDownTestSuite() {
    delete annotator_;
    delete split_;
    delete engine_;
    delete world_;
  }

  void TearDown() override {
    robust::FaultInjector::Global().Disable();
    obs::FlightRecorder::Global().Disable();
  }

  static const table::Table& TestTable(size_t i) {
    return split_->test.tables[i % split_->test.tables.size()].table;
  }

  // The suite-wide annotator is shared across tests, and a snapshot reload
  // rebinds it to views borrowed from a test-local SnapshotStore. Declare
  // this guard *before* the store and service so it destructs last and
  // points the annotator back at the suite-owned KG/engine after the
  // borrowed generations are gone.
  struct RebindGuard {
    ~RebindGuard() { annotator_->Rebind(&world_->kg, engine_); }
  };

  // Writes a snapshot of the suite world with the given generation stamp
  // to a test-unique path and returns the path.
  static std::string WriteWorldSnapshot(uint64_t generation) {
    std::string path =
        ::testing::TempDir() + "serve_test_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_gen" + std::to_string(generation);
    store::WriterOptions wo;
    wo.generation = generation;
    EXPECT_TRUE(store::WriteSnapshot(path, world_->kg, *engine_, wo).ok());
    return path;
  }

  static data::World* world_;
  static search::SearchEngine* engine_;
  static table::SplitCorpus* split_;
  static core::KgLinkAnnotator* annotator_;
};
data::World* ServeTest::world_ = nullptr;
search::SearchEngine* ServeTest::engine_ = nullptr;
table::SplitCorpus* ServeTest::split_ = nullptr;
core::KgLinkAnnotator* ServeTest::annotator_ = nullptr;

// --- Deadline / cancellation propagation through AnnotateTable ----------

TEST_F(ServeTest, ExpiredDeadlineShortCircuitsToDegraded) {
  const table::Table& t = TestTable(0);
  RequestContext rc;
  rc.deadline = Deadline::Expired();
  core::AnnotateOutcome out = annotator_->AnnotateTable(t, &rc);

  EXPECT_TRUE(out.status.ok());
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.degrade_reason, "deadline");
  // Never partial: the degraded path still predicts every column, and the
  // result is exactly the PLM-only prediction set.
  ASSERT_EQ(out.predictions.size(), static_cast<size_t>(t.num_cols()));
  core::AnnotateOutcome plm_only = annotator_->AnnotateDegraded(t, "x");
  EXPECT_EQ(out.predictions, plm_only.predictions);
}

TEST_F(ServeTest, CancelledRequestReportsCancelledNotDeadline) {
  const table::Table& t = TestTable(0);
  RequestContext rc;
  rc.cancel = CancellationToken::Cancellable();
  rc.cancel.Cancel();
  // Cancellation must win even when the deadline is also gone.
  rc.deadline = Deadline::Expired();
  core::AnnotateOutcome out = annotator_->AnnotateTable(t, &rc);

  EXPECT_TRUE(out.status.ok());
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.degrade_reason, "cancelled");
  EXPECT_EQ(out.predictions.size(), static_cast<size_t>(t.num_cols()));
}

TEST_F(ServeTest, DeadlineBurnedAtSearchSiteDegradesMidPipeline) {
  // Every BM25 retrieval sleeps 20ms but succeeds; a 5ms deadline expires
  // while the first cell is being linked, so the deadline check at the
  // *next* gated search.topk attempt must flip the table to the degraded
  // PLM-only path — full-width predictions, reason "deadline", no crash.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:1.0:20000", 3)
                  .ok());
  const table::Table& t = TestTable(1);
  RequestContext rc;
  rc.deadline = Deadline::AfterMillis(5);
  core::AnnotateOutcome out = annotator_->AnnotateTable(t, &rc);

  EXPECT_TRUE(out.status.ok());
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.degrade_reason, "deadline");
  EXPECT_EQ(out.predictions.size(), static_cast<size_t>(t.num_cols()));
}

TEST_F(ServeTest, HardPredictFaultYieldsUnavailableNotCrash) {
  // The predict site fails hard every attempt: the outcome surfaces a
  // non-OK status (the service maps it to kFailed) instead of crashing or
  // returning fabricated predictions.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("predict:1.0", 3)
                  .ok());
  const table::Table& t = TestTable(0);
  core::AnnotateOutcome out = annotator_->AnnotateTable(t, nullptr);
  EXPECT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kUnavailable);
}

// --- Service: concurrency, admission control, shutdown ------------------

TEST_F(ServeTest, ConcurrentServiceMatchesSequentialPredictions) {
  std::vector<std::vector<int>> sequential;
  for (size_t i = 0; i < split_->test.tables.size(); ++i) {
    sequential.push_back(annotator_->PredictTable(TestTable(i)));
  }

  ServiceOptions so;
  so.num_threads = 4;
  so.max_queue = 64;
  AnnotationService service(annotator_, so);
  std::vector<std::future<AnnotationResult>> futures;
  for (size_t i = 0; i < split_->test.tables.size(); ++i) {
    futures.push_back(service.Submit(TestTable(i)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    AnnotationResult r = futures[i].get();
    EXPECT_EQ(r.status, RequestStatus::kOk) << "table " << i;
    EXPECT_EQ(r.predictions, sequential[i]) << "table " << i;
  }
  EXPECT_EQ(service.completed(RequestStatus::kOk),
            static_cast<int64_t>(futures.size()));
}

TEST_F(ServeTest, FullQueueShedsToInlineDegradedRun) {
  // One slow worker (every retrieval sleeps 5ms) and a queue of one:
  // rapid-fire submissions overflow admission, and the overflow requests
  // run the degraded PLM-only path inline with status kShed.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:1.0:5000", 3)
                  .ok());
  ServiceOptions so;
  so.num_threads = 1;
  so.max_queue = 1;
  AnnotationService service(annotator_, so);

  constexpr int kRequests = 4;
  std::vector<std::future<AnnotationResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(service.Submit(TestTable(static_cast<size_t>(i))));
  }
  int shed = 0;
  for (int i = 0; i < kRequests; ++i) {
    AnnotationResult r = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(r.status == RequestStatus::kOk ||
                r.status == RequestStatus::kShed)
        << RequestStatusName(r.status);
    EXPECT_EQ(r.predictions.size(),
              static_cast<size_t>(TestTable(static_cast<size_t>(i)).num_cols()));
    if (r.status == RequestStatus::kShed) {
      ++shed;
      EXPECT_EQ(r.degrade_reason, "shed");
    }
  }
  // With a >100ms-busy worker and four back-to-back submissions, at least
  // one must have overflowed the single queue slot.
  EXPECT_GE(shed, 1);
  EXPECT_EQ(service.completed(RequestStatus::kOk) +
                service.completed(RequestStatus::kShed),
            static_cast<int64_t>(kRequests));
}

TEST_F(ServeTest, SpentDeadlineOnFullQueueIsRefusedOutright) {
  // Occupy the worker with a slow request, fill the queue, then submit a
  // request whose deadline is already gone: shedding would be pointless,
  // so admission refuses it with kOverloaded and empty predictions.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:1.0:5000", 3)
                  .ok());
  ServiceOptions so;
  so.num_threads = 1;
  so.max_queue = 1;
  AnnotationService service(annotator_, so);

  auto busy = service.Submit(TestTable(0));
  // Wait for the worker to pop the busy request so the queue slot is free
  // (it then stays busy for >100ms of injected latency).
  while (service.queue_depth() > 0) {
    std::this_thread::yield();
  }
  auto queued = service.Submit(TestTable(1));  // fills the only slot
  auto refused = service.Submit(TestTable(2), Deadline::Expired());

  AnnotationResult r = refused.get();
  EXPECT_EQ(r.status, RequestStatus::kOverloaded);
  EXPECT_FALSE(r.error.ok());
  EXPECT_TRUE(r.predictions.empty());
  busy.get();
  queued.get();
}

TEST_F(ServeTest, ShutdownDrainsQueueThenRefusesNewWork) {
  ServiceOptions so;
  so.num_threads = 1;
  so.max_queue = 16;
  AnnotationService service(annotator_, so);
  std::vector<std::future<AnnotationResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit(TestTable(static_cast<size_t>(i))));
  }
  service.Shutdown();
  // Every request submitted before Shutdown still resolves (drained, not
  // dropped)...
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, RequestStatus::kOk);
  }
  // ...and new work is refused.
  AnnotationResult late = service.Submit(TestTable(0)).get();
  EXPECT_EQ(late.status, RequestStatus::kOverloaded);
  EXPECT_NE(late.error.message().find("shut down"), std::string::npos);
}

TEST_F(ServeTest, SubmittedCancellationYieldsCancelledStatus) {
  ServiceOptions so;
  so.num_threads = 1;
  AnnotationService service(annotator_, so);
  CancellationToken cancel = CancellationToken::Cancellable();
  cancel.Cancel();  // fired before the worker ever sees it
  AnnotationResult r =
      service.Submit(TestTable(0), Deadline::Infinite(), cancel).get();
  EXPECT_EQ(r.status, RequestStatus::kCancelled);
  EXPECT_EQ(r.degrade_reason, "cancelled");
  EXPECT_EQ(r.predictions.size(),
            static_cast<size_t>(TestTable(0).num_cols()));
}

TEST_F(ServeTest, HealthJsonReflectsServiceState) {
  ServiceOptions so;
  so.num_threads = 2;
  so.max_queue = 8;
  AnnotationService service(annotator_, so);
  service.Submit(TestTable(0)).get();

  std::string health = service.HealthJson();
  EXPECT_NE(health.find("\"accepting\": true"), std::string::npos) << health;
  EXPECT_NE(health.find("\"threads\": 2"), std::string::npos) << health;
  EXPECT_NE(health.find("\"max_queue\": 8"), std::string::npos) << health;
  EXPECT_NE(health.find("\"ok\": 1"), std::string::npos) << health;
  EXPECT_NE(health.find("\"retry_budget\": {\"enabled\": false}"),
            std::string::npos)
      << health;
  auto doc = obs::ParseJson(health);
  ASSERT_TRUE(doc.has_value()) << health;
  // Exactly these sections, in this order: no removed section lingers.
  std::vector<std::string> keys;
  for (const auto& member : doc->object) keys.push_back(member.first);
  const std::vector<std::string> expected = {
      "accepting", "threads",      "queue_depth", "max_queue",
      "inflight",  "completed",    "window",      "slo",
      "retry_budget", "cell_cache", "profile"};
  EXPECT_EQ(keys, expected) << health;
  // The SLO burn windows are fixed at 10 s (short) and 60 s (long).
  const obs::JsonValue* slo = doc->Find("slo");
  ASSERT_NE(slo, nullptr) << health;
  ASSERT_NE(slo->Find("short"), nullptr) << health;
  ASSERT_NE(slo->Find("long"), nullptr) << health;
  EXPECT_DOUBLE_EQ(slo->Find("short")->NumberOr("window_s", -1.0), 10.0);
  EXPECT_DOUBLE_EQ(slo->Find("long")->NumberOr("window_s", -1.0), 60.0);

  service.Shutdown();
  health = service.HealthJson();
  EXPECT_NE(health.find("\"accepting\": false"), std::string::npos) << health;
}

// --- Per-request telemetry, sliding-window health, flight recorder -------

TEST_F(ServeTest, StageTelemetrySumsWithinEndToEndLatency) {
  ServiceOptions so;
  so.num_threads = 2;
  so.max_queue = 16;
  AnnotationService service(annotator_, so);
  std::vector<std::future<AnnotationResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit(TestTable(static_cast<size_t>(i))));
  }
  for (auto& f : futures) {
    AnnotationResult r = f.get();
    ASSERT_EQ(r.status, RequestStatus::kOk);
    // The core invariant: exclusive stage times partition the request, so
    // their sum never exceeds the end-to-end latency.
    EXPECT_LE(r.telemetry.TotalStageUs(),
              static_cast<uint64_t>(r.total_us()));
    // The service accounts queue wait and the post-process remainder; the
    // library layers add one link pass, one encode pass, and per linked
    // cell either a TopK retrieval or a cell-cache hit (earlier tests may
    // have warmed the process-wide cache).
    EXPECT_EQ(r.telemetry.stage_count(obs::Stage::kQueueWait), 1u);
    EXPECT_GE(r.telemetry.stage_count(obs::Stage::kPostProcess), 1u);
    EXPECT_EQ(r.telemetry.stage_count(obs::Stage::kLink), 1u);
    EXPECT_EQ(r.telemetry.stage_count(obs::Stage::kEncode), 1u);
    EXPECT_GE(r.telemetry.stage_count(obs::Stage::kTopK) +
                  r.telemetry.cache_hits,
              1u);
    // Nested subtraction never wraps.
    EXPECT_LE(r.telemetry.exclusive_stage_us(obs::Stage::kLink),
              r.telemetry.stage_micros(obs::Stage::kLink));
  }
}

TEST_F(ServeTest, HealthJsonReportsWindowedLatencyAndSloBurn) {
  // A virtual clock drives the window's rotation (and queue sojourn);
  // work time is still measured on the real clock.
  std::atomic<int64_t> now{0};
  ServiceOptions so;
  so.num_threads = 1;
  so.slo_target_us = 1;  // everything violates: the burn path must light up
  so.clock = [&now] { return now.load(); };
  AnnotationService service(annotator_, so);
  for (int i = 0; i < 4; ++i) {
    service.Submit(TestTable(static_cast<size_t>(i))).get();
  }
  auto doc = obs::ParseJson(service.HealthJson());
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* window = doc->Find("window");
  ASSERT_NE(window, nullptr);
  EXPECT_DOUBLE_EQ(window->NumberOr("count", -1.0), 4.0);
  EXPECT_GT(window->NumberOr("p99_us", 0.0), 0.0);
  EXPECT_GE(window->NumberOr("p999_us", 0.0),
            window->NumberOr("p50_us", 0.0));
  const obs::JsonValue* slo = doc->Find("slo");
  ASSERT_NE(slo, nullptr);
  EXPECT_DOUBLE_EQ(slo->NumberOr("target_us", -1.0), 1.0);
  EXPECT_TRUE(slo->BoolOr("burning", false));
  const obs::JsonValue* short_window = slo->Find("short");
  ASSERT_NE(short_window, nullptr);
  EXPECT_DOUBLE_EQ(short_window->NumberOr("violations", -1.0), 4.0);
  EXPECT_GT(short_window->NumberOr("burn_rate", 0.0), 1.0);
  // "window" and "slo" are rendered from one snapshot: they agree.
  EXPECT_DOUBLE_EQ(window->NumberOr("count", -1.0),
                   short_window->NumberOr("total", -2.0));

  // Counts of {window.count, slo.short.total, slo.long.total} per render.
  // Empty when a section is missing.
  auto counts = [&service]() -> std::vector<double> {
    auto d = obs::ParseJson(service.HealthJson());
    const obs::JsonValue* w = d.has_value() ? d->Find("window") : nullptr;
    const obs::JsonValue* s = d.has_value() ? d->Find("slo") : nullptr;
    if (w == nullptr || s == nullptr || s->Find("short") == nullptr ||
        s->Find("long") == nullptr) {
      return {};
    }
    return {w->NumberOr("count", -1.0),
            s->Find("short")->NumberOr("total", -1.0),
            s->Find("long")->NumberOr("total", -1.0)};
  };
  // 11 s later the short window has forgotten the burst; the long one
  // still counts it.
  now = 11'000'000;
  EXPECT_EQ(counts(), (std::vector<double>{0.0, 0.0, 4.0}));
  // 61 s later both windows are empty.
  now = 61'000'000;
  EXPECT_EQ(counts(), (std::vector<double>{0.0, 0.0, 0.0}));
}

TEST_F(ServeTest, FlightRecorderCapturesInducedSlowRequest) {
  // Every retrieval sleeps 20ms but succeeds, so the request completes kOk
  // well past the 10ms recorder threshold — it must land in the ring with
  // its full stage breakdown.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:1.0:20000", 3)
                  .ok());
  obs::FlightRecorderOptions fro;
  fro.threshold_us = 10'000;
  obs::FlightRecorder::Global().Configure(fro);

  ServiceOptions so;
  so.num_threads = 1;
  AnnotationService service(annotator_, so);
  AnnotationResult r = service.Submit(TestTable(0)).get();
  ASSERT_EQ(r.status, RequestStatus::kOk);
  ASSERT_GE(r.total_us(), 10'000);

  std::vector<std::string> records = obs::FlightRecorder::Global().Records();
  ASSERT_GE(records.size(), 1u);
  auto doc = obs::ParseJson(records.back());
  ASSERT_TRUE(doc.has_value()) << records.back();
  EXPECT_EQ(doc->StringOr("trigger", ""), "threshold");
  EXPECT_EQ(doc->StringOr("status", ""), "ok");
  EXPECT_GE(doc->NumberOr("total_us", 0.0), 10'000.0);
  const obs::JsonValue* telemetry = doc->Find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  const obs::JsonValue* stages = telemetry->Find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_GE(stages->NumberOr("post_process_us", -1.0), 0.0);
  // The injected 20ms sleeps run in the robust gate ahead of the cache
  // check and the retrieval itself, so they are attributed to the link
  // stage (exclusive) — that is what must dominate this record.
  EXPECT_GE(stages->NumberOr("link_us", 0.0), 10'000.0);
  EXPECT_GE(stages->NumberOr("topk_us", -1.0), 0.0);  // present
}

// --- Overload control: the max_queue bound and the retry budget ----------

TEST_F(ServeTest, QueueDepthStaysBoundedUnderSustainedSubmit) {
  // One worker pinned by 2ms-per-retrieval latency faults while the caller
  // submits far more work than the queue holds, never waiting on results:
  // the depth observed before every submit must respect the hard bound,
  // every future must still resolve, and the overflow must show up as
  // sheds (or refusals) rather than queue growth.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:1.0:2000", 3)
                  .ok());
  ServiceOptions so;
  so.num_threads = 1;
  so.max_queue = 4;
  AnnotationService service(annotator_, so);

  constexpr int kRequests = 40;
  std::vector<std::future<AnnotationResult>> futures;
  int max_depth = 0;
  for (int i = 0; i < kRequests; ++i) {
    max_depth = std::max(max_depth, service.queue_depth());
    futures.push_back(service.Submit(TestTable(static_cast<size_t>(i))));
  }
  EXPECT_LE(max_depth, so.max_queue);
  int64_t resolved = 0;
  for (auto& f : futures) {
    AnnotationResult r = f.get();
    ++resolved;
    ASSERT_TRUE(r.status == RequestStatus::kOk ||
                r.status == RequestStatus::kShed ||
                r.status == RequestStatus::kOverloaded)
        << RequestStatusName(r.status);
  }
  EXPECT_EQ(resolved, kRequests);
  // 40 submissions against 1 slow worker and 4 slots cannot all be
  // admitted; the overflow resolved without ever growing the queue.
  EXPECT_GE(service.completed(RequestStatus::kShed) +
                service.completed(RequestStatus::kOverloaded),
            1);
  EXPECT_LE(service.queue_depth(), so.max_queue);
}

TEST_F(ServeTest, RetryBudgetIsOwnedPerService) {
  // Two budgeted services live at once: each owns its bucket, so one's
  // requests never spend the other's tokens, and shutting one down leaves
  // the other's budget enforcing. A rate of 0.001/s (burst 0.002) never
  // holds a whole token, so every retry is denied and counted.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:1.0", 3)
                  .ok());
  ServiceOptions so;
  so.num_threads = 1;
  so.retry_budget_per_second = 0.001;
  auto budget_of = [](const AnnotationService& service) {
    std::string health = service.HealthJson();
    auto doc = obs::ParseJson(health);
    EXPECT_TRUE(doc.has_value()) << health;
    const obs::JsonValue* budget =
        doc.has_value() ? doc->Find("retry_budget") : nullptr;
    EXPECT_NE(budget, nullptr) << health;
    return budget != nullptr
               ? std::make_pair(budget->BoolOr("enabled", false),
                                budget->NumberOr("denied", -1.0))
               : std::make_pair(false, -1.0);
  };

  AnnotationService kept(annotator_, so);
  {
    AnnotationService other(annotator_, so);
    AnnotationResult r = other.Submit(TestTable(0)).get();
    EXPECT_EQ(r.status, RequestStatus::kDegraded);
    EXPECT_EQ(r.degrade_reason, "retry budget exhausted");
    EXPECT_GE(budget_of(other).second, 1.0);
    EXPECT_EQ(budget_of(kept).second, 0.0);  // not charged for `other`
    other.Shutdown();
  }

  auto [enabled, denied] = budget_of(kept);
  EXPECT_TRUE(enabled);
  EXPECT_EQ(denied, 0.0);
  AnnotationResult r = kept.Submit(TestTable(1)).get();
  EXPECT_EQ(r.degrade_reason, "retry budget exhausted");
  auto [still_enabled, denied_after] = budget_of(kept);
  EXPECT_TRUE(still_enabled);
  EXPECT_GT(denied_after, denied);
}

// --- Batched encode drain ------------------------------------------------

TEST_F(ServeTest, BatchedDrainMatchesSequentialPredictions) {
  constexpr size_t kRequests = 24;
  std::vector<std::vector<int>> sequential;
  for (size_t i = 0; i < kRequests; ++i) {
    sequential.push_back(annotator_->PredictTable(TestTable(i)));
  }

  obs::Histogram& batch_size = obs::MetricsRegistry::Global().GetHistogram(
      "serve.encode.batch_size", obs::HistogramBuckets::Exponential(1, 2, 7));
  const int64_t drains_before = batch_size.count();
  const double drained_before = batch_size.sum();

  ServiceOptions so;
  so.num_threads = 2;
  so.max_queue = 64;
  so.encode_batch = 4;
  AnnotationService service(annotator_, so);
  std::vector<std::future<AnnotationResult>> futures;
  for (size_t i = 0; i < kRequests; ++i) {
    futures.push_back(service.Submit(TestTable(i)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    AnnotationResult r = futures[i].get();
    EXPECT_EQ(r.status, RequestStatus::kOk) << "table " << i;
    // The batched forward is bit-identical to sequential inference, so the
    // predictions must match exactly — not approximately.
    EXPECT_EQ(r.predictions, sequential[i]) << "table " << i;
  }
  EXPECT_EQ(service.completed(RequestStatus::kOk),
            static_cast<int64_t>(kRequests));

  // Every worker wakeup recorded its achieved drain size, and with 24
  // near-simultaneous submissions against 2 workers at least one drain
  // must have picked up more than one request (sum strictly exceeds the
  // number of drains).
  const int64_t drains = batch_size.count() - drains_before;
  const double drained = batch_size.sum() - drained_before;
  EXPECT_GE(drains, 1);
  EXPECT_GT(drained, static_cast<double>(drains));
}

TEST_F(ServeTest, BatchDeadlineTriageDegradesInsteadOfWaiting) {
  // Every retrieval sleeps 3ms (the gate sleeps even on cache hits), so a
  // full-tier table run takes tens of milliseconds. One worker: a blocker
  // request seeds the work EWMA and pins the worker while two more requests
  // queue behind it; the worker then drains both as one batch. The member
  // whose 1ms deadline cannot survive an estimated two-request batch is
  // triaged onto the degraded path with reason "batch_deadline" and
  // resolves without waiting for the batch forward.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:1.0:3000", 3)
                  .ok());
  ServiceOptions so;
  so.num_threads = 1;
  so.max_queue = 16;
  so.encode_batch = 4;
  AnnotationService service(annotator_, so);

  auto blocker = service.Submit(TestTable(0));
  while (service.queue_depth() > 0) {
    std::this_thread::yield();  // worker picked the blocker up
  }
  auto unhurried = service.Submit(TestTable(1));
  auto hurried = service.Submit(TestTable(2), Deadline::AfterMillis(1));

  EXPECT_EQ(blocker.get().status, RequestStatus::kOk);
  AnnotationResult slow = unhurried.get();
  EXPECT_EQ(slow.status, RequestStatus::kOk);
  EXPECT_EQ(slow.predictions.size(),
            static_cast<size_t>(TestTable(1).num_cols()));
  AnnotationResult fast = hurried.get();
  EXPECT_EQ(fast.status, RequestStatus::kDegraded);
  EXPECT_EQ(fast.degrade_reason, "batch_deadline");
  // Triage still answers full-width via the PLM-only path.
  EXPECT_EQ(fast.predictions.size(),
            static_cast<size_t>(TestTable(2).num_cols()));
}

TEST_F(ServeTest, BatchedMembersAreChargedTheWholeBatch) {
  // Same one-worker setup as above: a slow blocker pins the worker while
  // three requests queue, and the worker then drains them as one batch.
  // Each member's caller waited for the whole batch — every member's Part
  // 1 ran back to back before the shared forward — so each member's
  // work_us must cover all members' link stages plus the longest encode,
  // and its own exclusive stages must still fit inside its total.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:1.0:3000", 3)
                  .ok());
  ServiceOptions so;
  so.num_threads = 1;
  so.max_queue = 16;
  so.encode_batch = 4;
  AnnotationService service(annotator_, so);

  auto blocker = service.Submit(TestTable(0));
  while (service.queue_depth() > 0) {
    std::this_thread::yield();  // worker picked the blocker up
  }
  std::vector<std::future<AnnotationResult>> futures;
  for (size_t i = 1; i <= 3; ++i) {
    futures.push_back(service.Submit(TestTable(i)));
  }
  EXPECT_EQ(blocker.get().status, RequestStatus::kOk);

  std::vector<AnnotationResult> members;
  for (auto& f : futures) members.push_back(f.get());
  uint64_t link_sum = 0;
  uint64_t encode_max = 0;
  for (const AnnotationResult& r : members) {
    ASSERT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.work_us, members[0].work_us) << "members share one batch";
    // Two encode intervals: the shared forward and the member's own replay.
    EXPECT_EQ(r.telemetry.stage_count(obs::Stage::kEncode), 2u);
    link_sum += r.telemetry.stage_micros(obs::Stage::kLink);
    encode_max =
        std::max(encode_max, r.telemetry.stage_micros(obs::Stage::kEncode));
  }
  for (const AnnotationResult& r : members) {
    EXPECT_GE(static_cast<uint64_t>(r.total_us()), link_sum + encode_max);
    EXPECT_LE(r.telemetry.TotalStageUs(), static_cast<uint64_t>(r.total_us()));
  }
}

TEST_F(ServeTest, BatchedChaosBadTokenAndTruncationUnderLoad) {
  // Regression for the two encode-path process aborts: a corrupt token id
  // and an over-length encoder input. The annotator clamps its encoder
  // window up to the serializer's chunk budget, so chunks always fit — the
  // genuinely reachable over-length input at serve time is the KG feature
  // sequence, whose token cap is configured independently. A local
  // annotator with a 512-token feature cap against a 32-token encoder
  // window makes feature encodes over-length, and a 25% bad-token fault
  // corrupts encodes at random — under multi-threaded batched load the
  // service must keep the process alive, fail only the poisoned requests
  // (per-request InvalidArgument), truncate the rest, and answer
  // everything.
  core::KgLinkOptions o;
  o.epochs = 1;
  o.encoder.dim = 16;
  o.encoder.num_heads = 2;
  o.encoder.num_layers = 1;
  o.encoder.ffn_dim = 24;
  o.encoder.max_seq_len = 16;  // raised to the 32-token serializer budget
  o.serializer.max_seq_len = 32;
  o.serializer.max_feature_tokens = 512;
  o.linker.top_k_rows = 8;
  o.seed = 17;
  core::KgLinkAnnotator local(&world_->kg, engine_, o);
  // Fit itself crosses the truncation path on every chunk (training-side
  // regression for clamped [CLS] and dropped distillation positions).
  local.Fit(split_->train, split_->valid);

  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("encode.bad_token:0.25", 11)
                  .ok());
  const int64_t truncated_before = obs::MetricsRegistry::Global()
                                       .GetCounter("encode.truncated")
                                       .value();
  const int64_t bad_before = obs::MetricsRegistry::Global()
                                 .GetCounter("encode.bad_token_id")
                                 .value();

  ServiceOptions so;
  so.num_threads = 4;
  so.max_queue = 64;
  so.encode_batch = 4;
  AnnotationService service(&local, so);
  constexpr int kRequests = 32;
  std::vector<std::future<AnnotationResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(service.Submit(TestTable(static_cast<size_t>(i))));
  }
  int failed = 0;
  for (int i = 0; i < kRequests; ++i) {
    AnnotationResult r = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(r.status == RequestStatus::kOk ||
                r.status == RequestStatus::kFailed)
        << "request " << i << ": " << RequestStatusName(r.status);
    if (r.status == RequestStatus::kFailed) {
      ++failed;
      EXPECT_EQ(r.error.code(), StatusCode::kInvalidArgument)
          << r.error.message();
    } else {
      EXPECT_EQ(r.predictions.size(),
                static_cast<size_t>(
                    TestTable(static_cast<size_t>(i)).num_cols()));
    }
  }
  // Reaching here at all is the headline assertion: zero process deaths.
  EXPECT_EQ(service.completed(RequestStatus::kOk) +
                service.completed(RequestStatus::kFailed),
            static_cast<int64_t>(kRequests));
  // At 25% injection over 32 requests, at least one poisoned encode is a
  // statistical certainty — and it surfaced as a counted per-request
  // failure, not an abort.
  EXPECT_GE(failed, 1);
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetCounter("encode.bad_token_id")
                .value(),
            bad_before);
  // Every chunk exceeds the 48-token encoder window, so serving recorded
  // truncations instead of dying on the old length check.
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetCounter("encode.truncated")
                .value(),
            truncated_before);
}

// --- Snapshot hot reload -------------------------------------------------

TEST_F(ServeTest, SnapshotReloadSwapsGenerationsWithIdenticalPredictions) {
  std::vector<std::vector<int>> baseline;
  for (int i = 0; i < 4; ++i) {
    baseline.push_back(annotator_->PredictTable(TestTable(static_cast<size_t>(i))));
  }

  RebindGuard guard;
  store::SnapshotStore store;
  ServiceOptions so;
  so.num_threads = 2;
  so.max_queue = 16;
  AnnotationService service(annotator_, so);
  service.AttachSnapshotStore(&store);
  EXPECT_EQ(service.serving_snapshot(), nullptr);  // nothing loaded yet

  ASSERT_TRUE(service.ReloadSnapshot(WriteWorldSnapshot(7)).ok());
  auto serving = service.serving_snapshot();
  ASSERT_NE(serving, nullptr);
  EXPECT_EQ(serving->generation, 7u);
  for (int i = 0; i < 4; ++i) {
    AnnotationResult r = service.Submit(TestTable(static_cast<size_t>(i))).get();
    ASSERT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.predictions, baseline[static_cast<size_t>(i)])
        << "snapshot-backed prediction diverged, table " << i;
  }

  // Second reload swaps generations again; the retired generation dies
  // only after the service lets go of it.
  std::weak_ptr<const store::LoadedSnapshot> retired = serving;
  serving.reset();
  ASSERT_TRUE(service.ReloadSnapshot(WriteWorldSnapshot(8)).ok());
  ASSERT_NE(service.serving_snapshot(), nullptr);
  EXPECT_EQ(service.serving_snapshot()->generation, 8u);
  EXPECT_TRUE(retired.expired());
  for (int i = 0; i < 4; ++i) {
    AnnotationResult r = service.Submit(TestTable(static_cast<size_t>(i))).get();
    ASSERT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.predictions, baseline[static_cast<size_t>(i)]);
  }

  std::string health = service.HealthJson();
  EXPECT_NE(health.find("\"snapshot\": {\"attached\": true"),
            std::string::npos)
      << health;
  EXPECT_NE(health.find("\"generation\": 8"), std::string::npos) << health;
  EXPECT_NE(health.find("\"reloading\": false"), std::string::npos) << health;
  service.Shutdown();
}

TEST_F(ServeTest, CorruptReloadRollsBackAndKeepsServing) {
  RebindGuard guard;
  store::SnapshotStore store;
  ServiceOptions so;
  so.num_threads = 1;
  AnnotationService service(annotator_, so);
  service.AttachSnapshotStore(&store);
  ASSERT_TRUE(service.ReloadSnapshot(WriteWorldSnapshot(3)).ok());
  std::vector<int> before = service.Submit(TestTable(0)).get().predictions;

  // A corrupt candidate: good bytes with one flipped in the middle.
  std::string bad_path = WriteWorldSnapshot(4);
  auto bytes = ReadFile(bad_path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = *bytes;
  corrupt[corrupt.size() / 2] = static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x01);
  ASSERT_TRUE(WriteFile(bad_path, corrupt).ok());

  Status s = service.ReloadSnapshot(bad_path);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  // Rollback: the previous generation keeps serving, bit for bit.
  ASSERT_NE(service.serving_snapshot(), nullptr);
  EXPECT_EQ(service.serving_snapshot()->generation, 3u);
  AnnotationResult r = service.Submit(TestTable(0)).get();
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_EQ(r.predictions, before);
  // The corrupt file was quarantined out of the load path...
  EXPECT_FALSE(ReadFile(bad_path).ok());
  EXPECT_TRUE(ReadFile(bad_path + ".corrupt").ok());
  // ...and the failure is surfaced for operators.
  std::string health = service.HealthJson();
  EXPECT_NE(health.find("\"last_error\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"generation\": 3"), std::string::npos) << health;
  service.Shutdown();
}

TEST_F(ServeTest, ReloadWithRequestsInFlightResolvesEveryFuture) {
  // Every retrieval sleeps 2ms, so requests are reliably mid-annotator
  // when the reload quiesces; the swap must wait for them, and every
  // future — submitted before, during and after — must still resolve.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:1.0:2000", 3)
                  .ok());
  RebindGuard guard;
  store::SnapshotStore store;
  ServiceOptions so;
  so.num_threads = 2;
  so.max_queue = 32;
  AnnotationService service(annotator_, so);
  service.AttachSnapshotStore(&store);
  ASSERT_TRUE(service.ReloadSnapshot(WriteWorldSnapshot(1)).ok());

  std::vector<std::future<AnnotationResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit(TestTable(static_cast<size_t>(i))));
  }
  ASSERT_TRUE(service.ReloadSnapshot(WriteWorldSnapshot(2)).ok());
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit(TestTable(static_cast<size_t>(i))));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    AnnotationResult r = futures[i].get();
    ASSERT_TRUE(r.status == RequestStatus::kOk ||
                r.status == RequestStatus::kShed)
        << "request " << i << ": " << RequestStatusName(r.status);
    EXPECT_EQ(r.predictions.size(),
              static_cast<size_t>(TestTable(i % 6).num_cols()));
  }
  ASSERT_NE(service.serving_snapshot(), nullptr);
  EXPECT_EQ(service.serving_snapshot()->generation, 2u);
  service.Shutdown();
}

}  // namespace
}  // namespace kglink::serve
