// Sliding-window statistics tests: slot rotation and expiry of both
// windows under a virtual clock, percentile estimates validated against an
// exact sorted reference, SLO compliance/burn-rate math across both
// windows, flight-recorder trigger/ring semantics, and the
// RequestTelemetry exclusive-stage arithmetic the serve-path stage-sum
// invariant relies on.
#include "obs/rolling_window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/json_util.h"
#include "obs/request_telemetry.h"

namespace kglink::obs {
namespace {

// Deterministic uniform-ish value stream (splitmix64-style).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr int64_t kSec = 1'000'000;

TEST(RollingWindowTest, EmptyWindowIsZero) {
  int64_t now = 0;
  RollingWindow w(100'000, [&now] { return now; });
  RollingWindow::Snapshot snap = w.Snap();
  EXPECT_EQ(snap.short_window.count, 0);
  EXPECT_EQ(snap.long_window.count, 0);
  EXPECT_DOUBLE_EQ(snap.short_window.Quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(snap.short_window.Mean(), 0.0);
}

TEST(RollingWindowTest, ValuesExpireAfterWindow) {
  int64_t now = 0;
  RollingWindow w(100'000, [&now] { return now; });
  for (int i = 0; i < 100; ++i) w.Record(500);
  EXPECT_EQ(w.Snap().short_window.count, 100);
  EXPECT_EQ(w.Snap().long_window.count, 100);
  // Past the short window: gone from it, still in the long one.
  now = 10 * kSec + 1;
  EXPECT_EQ(w.Snap().short_window.count, 0);
  EXPECT_EQ(w.Snap().long_window.count, 100);
  // Past the long window: everything recorded at t=0 is gone.
  now = 60 * kSec + 1;
  EXPECT_EQ(w.Snap().long_window.count, 0);
  // New values are visible again.
  w.Record(700);
  EXPECT_EQ(w.Snap().short_window.count, 1);
  EXPECT_EQ(w.Snap().long_window.count, 1);
}

TEST(RollingWindowTest, PartialExpirySlidesSlotBySlot) {
  int64_t now = 0;
  RollingWindow w(100'000, [&now] { return now; });
  w.Record(100);    // slot 0
  now = 5 * kSec;   // slot 5
  w.Record(200);
  EXPECT_EQ(w.Snap().short_window.count, 2);
  // At t=9.5s both slots are still inside [t-10s, t].
  now = 9'500'000;
  EXPECT_EQ(w.Snap().short_window.count, 2);
  // At t=10.5s slot 0 has rotated out; slot 5 survives.
  now = 10'500'000;
  EXPECT_EQ(w.Snap().short_window.count, 1);
  // At t=15.5s everything is out of the short window.
  now = 15'500'000;
  EXPECT_EQ(w.Snap().short_window.count, 0);
  // The long window slides in the same one-second steps.
  now = 60'500'000;
  EXPECT_EQ(w.Snap().long_window.count, 1);
  now = 65'500'000;
  EXPECT_EQ(w.Snap().long_window.count, 0);
}

TEST(RollingWindowTest, SlotReuseClearsStaleData) {
  int64_t now = 0;
  RollingWindow w(15, [&now] { return now; });
  w.Record(10);
  w.Record(20);
  // Advance exactly one full ring revolution: the new sequence number maps
  // to the same ring slot and must evict the stale epoch's data.
  now = RollingWindow::kLongSlots * kSec;
  w.Record(30);
  RollingWindow::Snapshot snap = w.Snap();
  EXPECT_EQ(snap.long_window.count, 1);
  EXPECT_EQ(snap.long_window.sum, 30);
  EXPECT_EQ(snap.long_window.over_target, 1);
  EXPECT_EQ(snap.short_window.count, 1);
}

TEST(RollingWindowTest, PercentilesMatchExactReferenceWithinBucketError) {
  int64_t now = 0;
  RollingWindow w(100'000, [&now] { return now; });
  // The LatencyMicros bounds grow by a factor of 4, which bounds the
  // relative interpolation error of any quantile to one bucket.
  const std::vector<double>& bounds = RollingWindow::UpperBounds();
  const double factor = bounds[1] / bounds[0];
  ASSERT_DOUBLE_EQ(factor, 4.0);

  std::vector<double> exact;
  for (int i = 0; i < 10'000; ++i) {
    // Long-tailed deterministic stream in [1, ~1000000].
    double u = static_cast<double>(Mix(static_cast<uint64_t>(i)) % 1'000'000) /
               1'000'000.0;
    int64_t v = static_cast<int64_t>(std::pow(10.0, 6.0 * u));
    exact.push_back(static_cast<double>(v));
    w.Record(v);
    now += 500;  // spread across slots, well inside the short window
  }
  std::sort(exact.begin(), exact.end());
  RollingWindow::Snapshot snap = w.Snap();
  ASSERT_EQ(snap.short_window.count, 10'000);

  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    double est = snap.short_window.Quantile(q);
    double ref =
        exact[std::min(exact.size() - 1,
                       static_cast<size_t>(q * static_cast<double>(
                                                   exact.size())))];
    // The estimate must land within one bucket of the exact order
    // statistic.
    EXPECT_LE(est, ref * factor * 1.001) << "q=" << q;
    EXPECT_GE(est, ref / factor / 1.001) << "q=" << q;
  }
}

TEST(RollingWindowTest, OverflowQuantileReturnsLargestFiniteBound) {
  int64_t now = 0;
  RollingWindow w(100'000, [&now] { return now; });
  for (int i = 0; i < 10; ++i) w.Record(1'000'000'000);  // past 4^11 us
  EXPECT_DOUBLE_EQ(w.Snap().short_window.Quantile(0.5),
                   RollingWindow::UpperBounds().back());
  EXPECT_DOUBLE_EQ(RollingWindow::UpperBounds().back(), 4'194'304.0);
}

TEST(RollingWindowTest, SnapshotJsonIsValidAndWindowed) {
  int64_t now = 0;
  RollingWindow w(100'000, [&now] { return now; });
  for (int i = 0; i < 50; ++i) w.Record(1000);
  std::string json = w.Snap().WindowJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->NumberOr("count", -1.0), 50.0);
  EXPECT_DOUBLE_EQ(doc->NumberOr("window_s", -1.0), 10.0);
  EXPECT_DOUBLE_EQ(doc->NumberOr("mean_us", -1.0), 1000.0);
  // After the window passes, the same JSON reports an empty window — the
  // stats are sliding, not cumulative.
  now = 20 * kSec;
  auto later = ParseJson(w.Snap().WindowJson());
  ASSERT_TRUE(later.has_value());
  EXPECT_DOUBLE_EQ(later->NumberOr("count", -1.0), 0.0);
}

TEST(RollingWindowTest, ConcurrentRecordAndSnap) {
  // Real clock here on purpose: exercises the mutex under TSan.
  RollingWindow w(100'000);
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&w] {
      for (int i = 0; i < 2'000; ++i) w.Record(i);
    });
  }
  int64_t max_seen = 0;
  for (int i = 0; i < 200; ++i) {
    RollingWindow::Snapshot snap = w.Snap();
    // Both windows come from one locked pass over the ring.
    EXPECT_EQ(snap.short_window.count, snap.long_window.count);
    max_seen = std::max(max_seen, snap.short_window.count);
  }
  for (auto& th : writers) th.join();
  EXPECT_EQ(w.Snap().short_window.count, 8'000);
  EXPECT_EQ(w.Snap().long_window.count, 8'000);
  EXPECT_LE(max_seen, 8'000);
}

TEST(RollingWindowTest, BurnRateAgainstObjective) {
  int64_t now = 0;
  RollingWindow w(100, [&now] { return now; });

  // 99 compliant + 1 violating request: exactly the provisioned error
  // budget of the 0.99 objective, so burn rate 1.0 in both windows.
  for (int i = 0; i < 99; ++i) w.Record(50);
  w.Record(200);
  RollingWindow::Snapshot snap = w.Snap();
  EXPECT_EQ(snap.short_window.count, 100);
  EXPECT_EQ(snap.short_window.over_target, 1);
  EXPECT_DOUBLE_EQ(snap.short_window.Compliance(), 0.99);
  EXPECT_NEAR(snap.short_window.BurnRate(), 1.0, 1e-9);
  EXPECT_NEAR(snap.long_window.BurnRate(), 1.0, 1e-9);
  EXPECT_FALSE(snap.burning());  // burning requires strictly > 1

  // Ten violations in a row: both windows burn faster than provisioned.
  for (int i = 0; i < 10; ++i) w.Record(500);
  snap = w.Snap();
  EXPECT_GT(snap.short_window.BurnRate(), 1.0);
  EXPECT_GT(snap.long_window.BurnRate(), 1.0);
  EXPECT_TRUE(snap.burning());
}

TEST(RollingWindowTest, ShortWindowForgetsLongWindowRemembers) {
  int64_t now = 0;
  RollingWindow w(100, [&now] { return now; });
  for (int i = 0; i < 20; ++i) w.Record(500);  // all violations at t=0
  // 15s later the short window has rotated the burst out; the long window
  // still sees it — the classic "page only if both burn" setup.
  now = 15 * kSec;
  RollingWindow::Snapshot snap = w.Snap();
  EXPECT_EQ(snap.short_window.count, 0);
  EXPECT_DOUBLE_EQ(snap.short_window.BurnRate(), 0.0);
  EXPECT_EQ(snap.long_window.count, 20);
  EXPECT_GT(snap.long_window.BurnRate(), 1.0);
  EXPECT_FALSE(snap.burning());
}

TEST(RollingWindowTest, IdleReportsFullCompliance) {
  int64_t now = 0;
  RollingWindow w(100'000, [&now] { return now; });
  RollingWindow::Snapshot snap = w.Snap();
  EXPECT_DOUBLE_EQ(snap.short_window.Compliance(), 1.0);
  EXPECT_DOUBLE_EQ(snap.short_window.BurnRate(), 0.0);
  EXPECT_DOUBLE_EQ(snap.long_window.Compliance(), 1.0);
  EXPECT_FALSE(snap.burning());
}

TEST(RollingWindowTest, SloJsonIsValid) {
  int64_t now = 0;
  RollingWindow w(100'000, [&now] { return now; });
  w.Record(50);
  w.Record(500'000);
  std::string json = w.Snap().SloJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->NumberOr("target_us", -1.0), 100'000.0);
  EXPECT_DOUBLE_EQ(doc->NumberOr("objective", -1.0), 0.99);
  const JsonValue* short_window = doc->Find("short");
  ASSERT_NE(short_window, nullptr);
  EXPECT_DOUBLE_EQ(short_window->NumberOr("window_s", -1.0), 10.0);
  EXPECT_DOUBLE_EQ(short_window->NumberOr("total", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(short_window->NumberOr("violations", -1.0), 1.0);
  const JsonValue* long_window = doc->Find("long");
  ASSERT_NE(long_window, nullptr);
  EXPECT_DOUBLE_EQ(long_window->NumberOr("window_s", -1.0), 60.0);
  EXPECT_DOUBLE_EQ(long_window->NumberOr("total", -1.0), 2.0);
}

TEST(FlightRecorderTest, ThresholdAndSampleTriggers) {
  FlightRecorder recorder;  // local instance; Global() untouched
  FlightRecorderOptions o;
  o.threshold_us = 1'000;
  o.sample_every_n = 4;
  recorder.Configure(o);
  EXPECT_STREQ(recorder.Trigger(5'000), "threshold");  // completion 1
  EXPECT_STREQ(recorder.Trigger(10), "");              // 2
  EXPECT_STREQ(recorder.Trigger(10), "");              // 3
  EXPECT_STREQ(recorder.Trigger(10), "sample");        // 4: 1-in-4
  EXPECT_STREQ(recorder.Trigger(999), "");             // 5: under threshold
  recorder.Disable();
  EXPECT_STREQ(recorder.Trigger(1'000'000), "");  // disarmed
}

TEST(FlightRecorderTest, RingDropsOldestBeyondCapacity) {
  FlightRecorder recorder;
  FlightRecorderOptions o;
  o.threshold_us = 1;
  o.capacity = 3;
  recorder.Configure(o);
  for (int i = 0; i < 5; ++i) {
    recorder.Record("{\"n\": " + std::to_string(i) + "}");
  }
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.recorded(), 5);
  EXPECT_EQ(recorder.overwritten(), 2);
  std::vector<std::string> records = recorder.Records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.front(), "{\"n\": 2}");  // 0 and 1 dropped
  EXPECT_EQ(records.back(), "{\"n\": 4}");
  // Disable keeps the captured ring dumpable; Configure clears it.
  recorder.Disable();
  EXPECT_EQ(recorder.size(), 3u);
  recorder.Configure(o);
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(FlightRecorderTest, JsonlLinesAreValidJson) {
  FlightRecorder recorder;
  FlightRecorderOptions o;
  o.sample_every_n = 1;
  recorder.Configure(o);
  recorder.Record("{\"a\": 1}");
  recorder.Record("{\"b\": [1, 2]}");
  std::string jsonl = recorder.Jsonl();
  size_t lines = 0;
  size_t start = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    EXPECT_TRUE(IsValidJson(jsonl.substr(start, end - start)));
    start = end + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

TEST(RequestTelemetryTest, ExclusiveLinkSubtractsNestedStages) {
  RequestTelemetry t;
  t.AddStage(Stage::kLink, 1'000);      // inclusive
  t.AddStage(Stage::kTopK, 300);        // nested in link
  t.AddStage(Stage::kCellCache, 200);   // nested in link
  t.AddStage(Stage::kEncode, 400);
  t.AddStage(Stage::kQueueWait, 50);
  EXPECT_EQ(t.exclusive_stage_us(Stage::kLink), 500u);
  EXPECT_EQ(t.exclusive_stage_us(Stage::kTopK), 300u);
  // Sum of exclusives = queue + inclusive link + encode.
  EXPECT_EQ(t.TotalStageUs(), 50u + 1'000u + 400u);
}

TEST(RequestTelemetryTest, ExclusiveLinkClampsAtZero) {
  RequestTelemetry t;
  // Timer-granularity artifact: nested floors can exceed the inclusive
  // floor by a microsecond — must clamp, not wrap.
  t.AddStage(Stage::kLink, 2);
  t.AddStage(Stage::kTopK, 3);
  EXPECT_EQ(t.exclusive_stage_us(Stage::kLink), 0u);
}

TEST(RequestTelemetryTest, JsonCarriesStagesAndEvents) {
  RequestTelemetry t;
  t.AddStage(Stage::kLink, 900);
  t.AddStage(Stage::kTopK, 400);
  t.retries = 2;
  t.cache_hits = 7;
  std::string json = t.Json();
  EXPECT_TRUE(IsValidJson(json)) << json;
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* stages = doc->Find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_DOUBLE_EQ(stages->NumberOr("link_us", -1.0), 500.0);  // exclusive
  EXPECT_DOUBLE_EQ(stages->NumberOr("topk_us", -1.0), 400.0);
  EXPECT_DOUBLE_EQ(doc->NumberOr("retries", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(doc->NumberOr("cache_hits", -1.0), 7.0);
  EXPECT_DOUBLE_EQ(doc->NumberOr("stage_total_us", -1.0), 900.0);
}

}  // namespace
}  // namespace kglink::obs
