// Per-request time and cancellation budget, shared by every layer of the
// serving path (serve -> linker -> search -> core). These are the
// primitives the AnnotationService propagates so that an expired request
// short-circuits to the degraded PLM-only path instead of blocking a
// worker thread.
//
// Deadline is an absolute steady_clock point (so it survives being checked
// from multiple threads and is immune to wall-clock jumps).
// CancellationToken is a copyable handle to a shared atomic flag; a
// default-constructed token is non-cancellable and costs one null test.
// RequestContext bundles both plus a stable per-request stream key that
// keeps fault-injection draws deterministic under concurrency.
#ifndef KGLINK_UTIL_DEADLINE_H_
#define KGLINK_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace kglink::obs {
// Per-request stage-accounting record (obs/request_telemetry.h). Forward
// declared so util stays free of obs dependencies; RequestContext carries
// only a borrowed pointer.
struct RequestTelemetry;
}  // namespace kglink::obs

namespace kglink::robust {
// Retry token bucket (robust/retry_budget.h), forward declared for the
// same reason.
class RetryBudget;
}  // namespace kglink::robust

namespace kglink {

class Deadline {
 public:
  // The default deadline never expires.
  Deadline() : at_(Clock::time_point::max()) {}

  static Deadline Infinite() { return Deadline(); }

  static Deadline AfterMicros(int64_t us) {
    Deadline d;
    d.at_ = Clock::now() + std::chrono::microseconds(us);
    return d;
  }

  static Deadline AfterMillis(int64_t ms) { return AfterMicros(ms * 1000); }

  // A deadline that is already in the past: every check fails immediately.
  // Used by tests and by shed requests whose time budget is gone.
  static Deadline Expired() {
    Deadline d;
    d.at_ = Clock::time_point::min();
    return d;
  }

  bool infinite() const { return at_ == Clock::time_point::max(); }

  bool IsExpired() const { return !infinite() && Clock::now() >= at_; }

  // Microseconds until expiry: <= 0 when expired, INT64_MAX when infinite.
  int64_t RemainingMicros() const {
    if (infinite()) return INT64_MAX;
    return std::chrono::duration_cast<std::chrono::microseconds>(at_ -
                                                                 Clock::now())
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point at_;
};

class CancellationToken {
 public:
  // Non-cancellable: Cancelled() is always false, Cancel() is a no-op.
  CancellationToken() = default;

  // A fresh token backed by a shared flag; copies observe the same flag.
  static CancellationToken Cancellable() {
    CancellationToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  bool cancellable() const { return flag_ != nullptr; }

  void Cancel() const {
    if (flag_) flag_->store(true, std::memory_order_release);
  }

  bool Cancelled() const {
    return flag_ && flag_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

// Everything a request carries down the stack. Passed by pointer/reference
// through const call chains; the context itself is immutable apart from
// the shared cancellation flag.
struct RequestContext {
  Deadline deadline;
  CancellationToken cancel;
  // Stable per-request discriminator (assigned in submission order by the
  // service). Fault-injection draws for this request come from an RNG
  // stream keyed on it, so trip decisions do not depend on how worker
  // threads interleave — the foundation of per-seed deterministic chaos.
  uint64_t stream_key = 0;

  // Borrowed per-stage accounting sink, owned by whoever runs the request
  // (the AnnotationService worker). Null when nobody collects telemetry —
  // instrumented layers then pay a single pointer test. The request is
  // handled by one thread at a time, so writes need no synchronization.
  obs::RequestTelemetry* telemetry = nullptr;

  // Borrowed retry budget shared by every request of the service that owns
  // it. Null when retries are bounded per table only.
  robust::RetryBudget* retry_budget = nullptr;

  bool Expired() const { return cancel.Cancelled() || deadline.IsExpired(); }

  // Degrade reason for an expired context. Cancellation wins ties so a
  // cancelled request is never misreported as slow.
  const char* ExpiryReason() const {
    return cancel.Cancelled() ? "cancelled" : "deadline";
  }

  // True when no deadline/cancellation checks are needed: the per-cell
  // fast path stays free of clock reads.
  bool Unbounded() const {
    return deadline.infinite() && !cancel.cancellable();
  }
};

}  // namespace kglink

#endif  // KGLINK_UTIL_DEADLINE_H_
