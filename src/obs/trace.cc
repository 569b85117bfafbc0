#include "obs/trace.h"

#include "obs/json_util.h"
#include "util/csv.h"

namespace kglink::obs {

void TraceRecorder::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  origin_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::Record(std::string_view name, char phase, int depth) {
  int64_t ts = std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - origin_)
                   .count();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(TraceEvent{std::string(name), phase, ts, depth});
}

size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string TraceRecorder::ExportChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\": \"" + JsonEscape(e.name) + "\", \"cat\": \"kglink\"";
    out += ", \"ph\": \"";
    out += e.phase;
    out += "\", \"ts\": " + std::to_string(e.ts_us);
    out += ", \"pid\": 1, \"tid\": 1";
    out += ", \"args\": {\"depth\": " + std::to_string(e.depth) + "}}";
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

Status TraceRecorder::WriteChromeJson(const std::string& path) const {
  return WriteFile(path, ExportChromeJson());
}

}  // namespace kglink::obs
