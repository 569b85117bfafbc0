// The one instrumentation primitive. KGLINK_SCOPE marks the rest of the
// enclosing block for every observer at once:
//
//   KGLINK_SCOPE("part1.process");          // named region
//   KGLINK_SCOPE(rc, obs::Stage::kTopK);    // request stage, named after it
//
// While the sampling profiler is armed, the scope is a frame on the
// thread's profile stack (obs/profiler.h). While TraceRecorder::Global() is
// armed, it records a balanced begin/end span pair (obs/trace.h). A stage
// scope whose request carries telemetry also adds its wall time to that
// stage of rc->telemetry (obs/request_telemetry.h).
//
// Idle cost: two relaxed atomic loads (profiler and recorder armed flags)
// and, for a stage scope, a null test; no clock read, no lock, no
// allocation. Names are string literals or InternFrameName results, so the
// scope stores a pointer and never copies a string; the profiler keeps that
// pointer past the scope's lifetime.
#ifndef KGLINK_OBS_SCOPE_H_
#define KGLINK_OBS_SCOPE_H_

#include <chrono>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/request_telemetry.h"
#include "obs/trace.h"
#include "util/deadline.h"

namespace kglink::obs {

class Scope {
 public:
  explicit Scope(const char* name) : name_(name) {
    if (ProfilerArmed() || TraceRecorder::Global().enabled()) Begin();
  }
  Scope(const RequestContext* rc, Stage stage)
      : name_(StageName(stage)), telemetry_(TelemetryOf(rc)), stage_(stage) {
    if (telemetry_ != nullptr || ProfilerArmed() ||
        TraceRecorder::Global().enabled()) {
      Begin();
    }
  }
  ~Scope() {
    if (began_) End();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // Trace nesting depth of this scope (0 = outermost), or -1 when the
  // recorder was disarmed at construction.
  int depth() const { return trace_depth_; }

  // The calling thread's count of open traced scopes.
  static int CurrentDepth();

 private:
  void Begin();
  void End();

  const char* name_;
  RequestTelemetry* telemetry_ = nullptr;
  Stage stage_ = Stage::kNumStages;
  bool began_ = false;
  bool frame_pushed_ = false;
  int trace_depth_ = -1;
  std::chrono::steady_clock::time_point start_{};
};

// TopK-scale paths (hundreds of nanoseconds) time one call in this many
// per thread into their latency histogram; two clock reads per call would
// dominate the operation being measured.
inline constexpr uint32_t kLatencySampleInterval = 64;

// Records the scope's wall time (microseconds) into `histogram` on one
// construction in kLatencySampleInterval per thread. The first one on each
// thread is always timed, so short runs still see a non-empty histogram.
// The histogram's count is "samples taken"; pair it with an exact calls
// counter and a *.sample_interval gauge.
class SampledLatencyTimer {
 public:
  explicit SampledLatencyTimer(Histogram& histogram) : histogram_(histogram) {
    thread_local uint32_t tick = 0;
    armed_ = tick++ % kLatencySampleInterval == 0;
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  ~SampledLatencyTimer() {
    if (armed_) {
      histogram_.Record(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start_)
                            .count());
    }
  }
  SampledLatencyTimer(const SampledLatencyTimer&) = delete;
  SampledLatencyTimer& operator=(const SampledLatencyTimer&) = delete;

 private:
  Histogram& histogram_;
  std::chrono::steady_clock::time_point start_{};
  bool armed_ = false;
};

}  // namespace kglink::obs

#define KGLINK_SCOPE_CONCAT_IMPL_(a, b) a##b
#define KGLINK_SCOPE_CONCAT_(a, b) KGLINK_SCOPE_CONCAT_IMPL_(a, b)
// KGLINK_SCOPE(name) or KGLINK_SCOPE(rc, stage); see the file comment.
#define KGLINK_SCOPE(...)                                               \
  ::kglink::obs::Scope KGLINK_SCOPE_CONCAT_(kglink_scope_, __LINE__)( \
      __VA_ARGS__)

#endif  // KGLINK_OBS_SCOPE_H_
