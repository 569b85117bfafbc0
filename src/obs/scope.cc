#include "obs/scope.h"

namespace kglink::obs {

namespace {
thread_local int g_trace_depth = 0;
}  // namespace

void Scope::Begin() {
  began_ = true;
  if (ProfilerArmed()) frame_pushed_ = profiler_internal::PushFrame(name_);
  TraceRecorder& recorder = TraceRecorder::Global();
  if (recorder.enabled()) {
    trace_depth_ = g_trace_depth++;
    recorder.Record(name_, 'B', trace_depth_);
  }
  if (telemetry_ != nullptr) start_ = std::chrono::steady_clock::now();
}

void Scope::End() {
  if (telemetry_ != nullptr) {
    telemetry_->AddStage(
        stage_, static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count()));
  }
  if (trace_depth_ >= 0) {
    --g_trace_depth;
    // Record the end even if Stop() raced in between, so every 'B' has a
    // matching 'E' and the exported trace stays balanced.
    TraceRecorder::Global().Record(name_, 'E', trace_depth_);
  }
  if (frame_pushed_) profiler_internal::PopFrame();
}

int Scope::CurrentDepth() { return g_trace_depth; }

}  // namespace kglink::obs
