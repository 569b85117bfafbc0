// Sliding-window latency statistics and SLO burn: "what is p99 over the
// last 10 seconds, and is the error budget burning", where the cumulative
// MetricsRegistry histograms only answer "since process start".
//
// RollingWindow is one ring of kLongSlots one-second slots, each holding
// {count, sum, over_target, LatencyMicros bucket counts} for the slot-
// sequence number that last wrote it. A stale slot is zeroed lazily the
// first time a new sequence number writes its ring position, so there is
// no background thread. One Snap() under the ring's mutex merges the
// newest kShortSlots slots (10 s) and all live slots (60 s), so the latency
// stats and both SLO windows describe the same instant. The oldest live
// slot may hold values up to one slot older than the nominal window.
//
// Burn rate is violation_rate / (1 - kObjective): 1.0 consumes the error
// budget exactly as provisioned, 10 means 10% of requests miss the target.
// "burning" (page only when both windows burn) needs both rates > 1.
// The clock is injectable so tests drive rotation deterministically.
#ifndef KGLINK_OBS_ROLLING_WINDOW_H_
#define KGLINK_OBS_ROLLING_WINDOW_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace kglink::obs {

// Monotonic time source in microseconds. An empty function means "use
// steady_clock"; tests inject a virtual clock for deterministic rotation.
using ClockMicrosFn = std::function<int64_t()>;

int64_t SteadyNowMicros();

class RollingWindow {
 public:
  static constexpr int64_t kSlotUs = 1'000'000;
  static constexpr int kShortSlots = 10;  // 10 s window
  static constexpr int kLongSlots = 60;   // 60 s window (the ring size)
  static constexpr double kObjective = 0.99;

  // A request "meets SLO" when its latency is <= target_us.
  explicit RollingWindow(int64_t target_us, ClockMicrosFn clock = {});
  RollingWindow(const RollingWindow&) = delete;
  RollingWindow& operator=(const RollingWindow&) = delete;

  // The LatencyMicros upper bounds that every Window's buckets follow.
  static const std::vector<double>& UpperBounds();

  void Record(int64_t latency_us);

  // One merged span of slots.
  struct Window {
    int64_t window_us = 0;
    int64_t count = 0;
    int64_t sum = 0;
    int64_t over_target = 0;
    // One count per LatencyMicros bound, plus the overflow bucket.
    std::vector<int64_t> buckets =
        std::vector<int64_t>(UpperBounds().size() + 1, 0);

    // Interpolated quantile estimate for q in [0, 1] (Prometheus
    // histogram_quantile convention: linear within the target bucket).
    // Returns 0 when empty; a target rank in the overflow bucket returns
    // the largest finite bound (a conservative lower estimate).
    double Quantile(double q) const;
    double Mean() const;
    double Compliance() const;  // 1.0 when idle
    double BurnRate() const;    // 0.0 when idle
  };

  struct Snapshot {
    int64_t target_us = 0;
    Window short_window;
    Window long_window;

    bool burning() const {
      return short_window.BurnRate() > 1.0 && long_window.BurnRate() > 1.0;
    }
    // {"window_s", "count", "mean_us", "p50_us", "p99_us", "p999_us"} of
    // the short window.
    std::string WindowJson() const;
    // {"target_us", "objective", "burning", "short": {"window_s", "total",
    //  "violations", "compliance", "burn_rate"}, "long": {…}}
    std::string SloJson() const;
  };
  Snapshot Snap() const;

 private:
  struct Slot : Window {
    int64_t seq = -1;  // slot-sequence number this data belongs to
  };

  int64_t SeqNow() const;

  int64_t target_us_;
  ClockMicrosFn clock_;
  int64_t origin_us_;
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
};

}  // namespace kglink::obs

#endif  // KGLINK_OBS_ROLLING_WINDOW_H_
