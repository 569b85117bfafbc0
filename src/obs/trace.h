// Chrome trace_event JSON recording. KGLINK_SCOPE (obs/scope.h) records a
// begin event at construction and an end event at destruction while the
// global recorder is armed; nesting depth is tracked per thread so tools
// (and tests) can reconstruct the span tree. The exported file loads
// directly in chrome://tracing or Perfetto. Disarmed, a scope pays one
// relaxed atomic load.
#ifndef KGLINK_OBS_TRACE_H_
#define KGLINK_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace kglink::obs {

struct TraceEvent {
  std::string name;
  char phase;     // 'B' (begin) or 'E' (end)
  int64_t ts_us;  // microseconds since TraceRecorder::Start()
  int depth;      // span nesting depth at the event (0 = top level)
};

// Process-wide event buffer. Start() arms recording; Stop() disarms it;
// ExportChromeJson() serializes whatever was captured.
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  static TraceRecorder& Global() {
    static TraceRecorder& recorder = *new TraceRecorder();
    return recorder;
  }

  // Clears previously captured events and begins recording; timestamps are
  // relative to this call.
  void Start();
  void Stop() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(std::string_view name, char phase, int depth);

  size_t event_count() const;
  std::vector<TraceEvent> Events() const;

  // Chrome trace-event format: {"traceEvents": [...]}. Event args carry
  // the nesting depth.
  std::string ExportChromeJson() const;
  Status WriteChromeJson(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::chrono::steady_clock::time_point origin_{};
};

}  // namespace kglink::obs

#endif  // KGLINK_OBS_TRACE_H_
