#include "obs/rolling_window.h"

#include <algorithm>
#include <chrono>

#include "obs/json_util.h"
#include "obs/metrics.h"

namespace kglink::obs {

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<double>& RollingWindow::UpperBounds() {
  static const std::vector<double>& bounds =
      *new std::vector<double>(HistogramBuckets::LatencyMicros().upper_bounds);
  return bounds;
}

RollingWindow::RollingWindow(int64_t target_us, ClockMicrosFn clock)
    : target_us_(target_us), clock_(std::move(clock)) {
  origin_us_ = clock_ ? clock_() : SteadyNowMicros();
  slots_.resize(static_cast<size_t>(kLongSlots));
}

int64_t RollingWindow::SeqNow() const {
  int64_t now = clock_ ? clock_() : SteadyNowMicros();
  // An injected clock set before origin maps to slot 0, never below.
  return std::max<int64_t>(0, now - origin_us_) / kSlotUs;
}

void RollingWindow::Record(int64_t latency_us) {
  const auto& bounds = UpperBounds();
  auto it = std::lower_bound(bounds.begin(), bounds.end(),
                             static_cast<double>(latency_us));
  size_t bucket = static_cast<size_t>(it - bounds.begin());

  std::lock_guard<std::mutex> lock(mu_);
  int64_t seq = SeqNow();
  Slot& slot = slots_[static_cast<size_t>(seq % kLongSlots)];
  if (slot.seq != seq) {
    // Lazily reclaim the expired slot that owned this ring position.
    slot = Slot{};
    slot.seq = seq;
  }
  slot.count += 1;
  slot.sum += latency_us;
  if (latency_us > target_us_) slot.over_target += 1;
  slot.buckets[bucket] += 1;
}

RollingWindow::Snapshot RollingWindow::Snap() const {
  Snapshot snap;
  snap.target_us = target_us_;
  snap.short_window.window_us = kShortSlots * kSlotUs;
  snap.long_window.window_us = kLongSlots * kSlotUs;

  auto merge = [](const Slot& slot, Window& w) {
    w.count += slot.count;
    w.sum += slot.sum;
    w.over_target += slot.over_target;
    for (size_t i = 0; i < slot.buckets.size(); ++i) {
      w.buckets[i] += slot.buckets[i];
    }
  };
  std::lock_guard<std::mutex> lock(mu_);
  int64_t seq_now = SeqNow();
  for (const Slot& slot : slots_) {
    if (slot.seq < seq_now - kLongSlots + 1 || slot.seq > seq_now) continue;
    merge(slot, snap.long_window);
    if (slot.seq >= seq_now - kShortSlots + 1) merge(slot, snap.short_window);
  }
  return snap;
}

double RollingWindow::Window::Quantile(double q) const {
  if (count <= 0) return 0.0;
  const auto& bounds = UpperBounds();
  q = std::min(1.0, std::max(0.0, q));
  double target = q * static_cast<double>(count);
  if (target < 1.0) target = 1.0;  // rank of the first value
  double cum = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    double in_bucket = static_cast<double>(buckets[i]);
    if (cum + in_bucket < target) {
      cum += in_bucket;
      continue;
    }
    // Overflow bucket: no finite upper edge to interpolate toward.
    if (i >= bounds.size()) return bounds.back();
    double lower = i == 0 ? 0.0 : bounds[i - 1];
    double upper = bounds[i];
    double frac = in_bucket > 0.0 ? (target - cum) / in_bucket : 1.0;
    return lower + (upper - lower) * frac;
  }
  return bounds.back();
}

double RollingWindow::Window::Mean() const {
  if (count <= 0) return 0.0;
  return static_cast<double>(sum) / static_cast<double>(count);
}

double RollingWindow::Window::Compliance() const {
  if (count <= 0) return 1.0;
  return static_cast<double>(count - over_target) / static_cast<double>(count);
}

double RollingWindow::Window::BurnRate() const {
  if (count <= 0) return 0.0;
  return static_cast<double>(over_target) / static_cast<double>(count) /
         (1.0 - kObjective);
}

std::string RollingWindow::Snapshot::WindowJson() const {
  const Window& w = short_window;
  return "{\"window_s\": " +
         JsonNumber(static_cast<double>(w.window_us) / 1e6) +
         ", \"count\": " + std::to_string(w.count) +
         ", \"mean_us\": " + JsonNumber(w.Mean()) +
         ", \"p50_us\": " + JsonNumber(w.Quantile(0.5)) +
         ", \"p99_us\": " + JsonNumber(w.Quantile(0.99)) +
         ", \"p999_us\": " + JsonNumber(w.Quantile(0.999)) + "}";
}

std::string RollingWindow::Snapshot::SloJson() const {
  auto span_json = [](const Window& w) {
    return "{\"window_s\": " +
           JsonNumber(static_cast<double>(w.window_us) / 1e6) +
           ", \"total\": " + std::to_string(w.count) +
           ", \"violations\": " + std::to_string(w.over_target) +
           ", \"compliance\": " + JsonNumber(w.Compliance()) +
           ", \"burn_rate\": " + JsonNumber(w.BurnRate()) + "}";
  };
  return "{\"target_us\": " + std::to_string(target_us) +
         ", \"objective\": " + JsonNumber(kObjective) +
         ", \"burning\": " + (burning() ? "true" : "false") +
         ", \"short\": " + span_json(short_window) +
         ", \"long\": " + span_json(long_window) + "}";
}

}  // namespace kglink::obs
