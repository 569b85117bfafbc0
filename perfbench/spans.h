// Spans the traced run records around calls into each layer's public
// functions. A span is a kind, a request id, its parent's kind, a start and
// an end; a request has at most one span of each kind, so the parent's kind
// names the parent. Threads fill their own buffers and hand them to the log
// when they finish, so recording takes no lock.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : uint8_t {
  kRequest,    // one request as its caller saw it
  kSubmit,     // AnnotationService::Submit
  kWait,       // the returned future's get()
  kProcess,    // KgLinkAnnotator::Preprocess (KgPipeline::Process)
  kPredict,    // KgLinkAnnotator::PredictProcessed
  kReplay,     // root of one table's standalone layer replays
  kTopK,       // SearchEngine::TopK over the table's string cells
  kForward,    // TransformerEncoder::Forward over the table's sequences
  kTrainStep,  // Forward + Backward + AdamW step over the same sequences
  kNone,
};
inline constexpr int kNumSpanKinds = static_cast<int>(SpanKind::kNone);

const char* SpanName(SpanKind kind);

// Which part of the traced run a span belongs to.
enum class Phase : uint8_t {
  kLoad,        // under the workload's own load shape
  kStandalone,  // sequential replays after the load
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t request = 0;
  SpanKind kind = SpanKind::kNone;
  SpanKind parent = SpanKind::kNone;
  Phase phase = Phase::kLoad;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Work units inside the span: string cells queried (kTopK), tokens
  // (kProcess rows, kPredict / kForward / kTrainStep tokens).
  int64_t units = 0;
};

class SpanLog {
 public:
  void Append(std::vector<Span>&& spans) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Per-kind summary of a set of spans: count, mean inclusive and mean self
// time (inclusive minus the part of the interval its child spans cover),
// and the summed work units.
struct KindSummary {
  int64_t count = 0;
  double mean_us = 0.0;
  double mean_self_us = 0.0;
  double total_us = 0.0;
  int64_t units = 0;
};
std::vector<KindSummary> Summarize(const std::vector<Span>& spans,
                                   Phase phase);

// Writes spans as JSON lines: {"req":…,"span":…,"parent":…,"phase":…,
// "start_ns":…,"end_ns":…,"units":…}.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
