// Retry and degradation policy around fault points.
//
// RetryPolicy: bounded attempts with exponential backoff and deterministic
// (seeded) full jitter.
//
// TableOpContext: the per-table failure budget used by linker::KgPipeline.
// Each fallible operation while processing one table calls Attempt(site);
// transient faults are retried under the policy, and the context flips to
// `degraded` when (a) an operation still fails after its retries, (b) the
// table's total retry budget is exhausted, or (c) the table's deadline or
// the owning request's deadline/cancellation fires. A degraded context
// makes the pipeline emit a PLM-only ProcessedTable instead of crashing —
// the paper's unlinkable-cell fallback applied to a whole table.
//
// Serving-path extensions: a context constructed with a RequestContext
// draws its fault-injection rolls from a private per-request RNG stream
// (seeded from the injector seed and the request's stream key), so trip
// decisions are deterministic per seed no matter how worker threads
// interleave. Retries also stop early when the backoff sleep could not
// finish before the request deadline.
//
// Both retry loops additionally sit under the RetryBudget
// (robust/retry_budget.h) that the request's RequestContext borrows, if
// any: each backoff-retry takes one token first, and an empty bucket
// degrades/fails the operation instead of retrying — a correlated fault
// burst cannot amplify into a retry storm. Calls without a request or
// without a budget are bounded by their RetryPolicy (and TableBudget)
// alone.
//
// WithRetry: wraps a real fallible call (Status / StatusOr returning) in
// the same injection + retry loop, for I/O paths; deadline-aware when a
// RequestContext is supplied.
#ifndef KGLINK_ROBUST_RETRY_H_
#define KGLINK_ROBUST_RETRY_H_

#include <cstdint>
#include <string>

#include "robust/fault_injector.h"
#include "util/deadline.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace kglink::robust {

struct RetryPolicy {
  int max_attempts = 3;           // total tries per operation (>= 1)
  int64_t base_backoff_us = 100;  // backoff before the 2nd attempt
  double backoff_multiplier = 2.0;
  int64_t max_backoff_us = 5000;

  // Backoff before attempt `attempt` (1-based retry index) with full
  // jitter: uniform in [backoff/2, backoff), `jitter01` in [0, 1).
  int64_t BackoffMicros(int attempt, double jitter01) const;
};

// Failure budget for processing one table.
struct TableBudget {
  int max_failed_ops = 0;   // post-retry hard failures tolerated
  int max_retries = 64;     // total backoff retries across the table
  int64_t deadline_us = 0;  // wall-clock budget; 0 disables the deadline
};

class TableOpContext {
 public:
  TableOpContext(const RetryPolicy& policy, const TableBudget& budget,
                 uint64_t jitter_seed);

  // Serving-path constructor. `request` is borrowed and must outlive the
  // context; it carries the caller's deadline/cancellation and the stream
  // key that selects this request's private fault-injection RNG stream.
  // Pass nullptr for the legacy (shared-stream, budget-deadline-only)
  // behaviour.
  TableOpContext(const RetryPolicy& policy, const TableBudget& budget,
                 uint64_t jitter_seed, const RequestContext* request);

  // Gate for one fallible operation at `site`. Returns true when the
  // operation may proceed (possibly after retries); false when it failed
  // hard or the context is degraded. Cheap no-op branch when fault
  // injection is disabled.
  bool Attempt(FaultSite site);

  // Single-draw fault gate for soft sites (drop-one-lookup degradation:
  // no retries, no budget charge). Draws from the per-request stream when
  // one is attached; independent of degraded state, so callers on
  // already-degraded paths still get a stable draw sequence.
  bool SoftFault(FaultSite site);

  // Degrades with the appropriate reason ("cancelled" / "deadline") when
  // the request is cancelled or a deadline has fired. Returns true when
  // the context is (now) degraded. No-op clock-read-free fast path when
  // the context is unbounded.
  bool CheckDeadline();

  bool degraded() const { return degraded_; }
  const char* degrade_reason() const { return degrade_reason_; }
  // The owning request (nullptr on the legacy path) — lower layers forward
  // it to deadline-aware calls like SearchEngine::TopK.
  const RequestContext* request() const { return request_; }
  int failed_ops() const { return failed_ops_; }
  int retries_used() const { return retries_used_; }

 private:
  void Degrade(const char* reason);
  bool DeadlineExpired();
  // One fault-injection roll at `site` from this context's stream.
  bool RollFault(FaultSite site);

  RetryPolicy policy_;
  TableBudget budget_;
  Rng jitter_rng_;
  Stopwatch watch_;
  const RequestContext* request_ = nullptr;
  Rng fault_rng_{0};  // per-request stream; used iff request_ != nullptr
  int failed_ops_ = 0;
  int retries_used_ = 0;
  bool degraded_ = false;
  const char* degrade_reason_ = "";
};

namespace internal {
inline bool IsRetryable(const Status& s) {
  return s.code() == StatusCode::kIoError;
}
template <typename T>
bool IsRetryable(const StatusOr<T>& s) {
  return !s.ok() && s.status().code() == StatusCode::kIoError;
}
inline bool CallOk(const Status& s) { return s.ok(); }
template <typename T>
bool CallOk(const StatusOr<T>& s) {
  return s.ok();
}
// Sleeps the policy backoff before retry `attempt` (deterministic jitter
// from the injector's seeded stream).
void SleepBackoff(const RetryPolicy& policy, int attempt);
// Overload used by the deadline-aware path: the backoff was already
// computed (and checked against the deadline), so just count and sleep.
void SleepBackoff(const RetryPolicy& policy, int attempt, int64_t backoff_us);
// True when a `backoff_us` sleep could not complete before the request
// deadline (or the request is already expired/cancelled).
bool BackoffBlocked(const RequestContext* request, int64_t backoff_us);
// Consults the request's borrowed RetryBudget: true when the retry may
// proceed (no request, no budget, or a token was taken). False means
// degrade/fail now.
bool RetryAllowed(const RequestContext* request);
}  // namespace internal

// Runs `fn` (returning Status or StatusOr<T>) under fault injection at
// `site` with bounded retries: an injected trip counts as a failed attempt
// without invoking `fn`; a real kIoError result is retried too. Returns the
// last result, or an injected kIoError if every attempt was suppressed.
// With a non-null `request`, retries stop as soon as the deadline (or
// cancellation) would fire before the backoff completes, returning
// kDeadlineExceeded instead of sleeping past the budget.
template <typename Fn>
auto WithRetry(FaultSite site, const RetryPolicy& policy, Fn&& fn,
               const RequestContext* request = nullptr) -> decltype(fn()) {
  using Result = decltype(fn());
  if (request != nullptr && request->Expired()) {
    return Result(Status::DeadlineExceeded(
        std::string("request expired before ") + FaultSiteName(site)));
  }
  for (int attempt = 0;; ++attempt) {
    if (!MaybeInject(site, request)) {
      Result r = fn();
      if (internal::CallOk(r) || !internal::IsRetryable(r) ||
          attempt + 1 >= policy.max_attempts) {
        return r;
      }
    } else if (attempt + 1 >= policy.max_attempts) {
      return Result(Status::IoError(std::string("injected fault at ") +
                                    FaultSiteName(site)));
    }
    if (!internal::RetryAllowed(request)) {
      // The request's retry budget is spent: fail now rather than amplify
      // a correlated fault burst with more retry traffic.
      return Result(Status::Unavailable(
          std::string("retry budget exhausted at ") + FaultSiteName(site)));
    }
    if (request != nullptr) {
      double jitter = FaultInjector::Enabled()
                          ? FaultInjector::Global().JitterUniform()
                          : 0.5;
      int64_t backoff_us = policy.BackoffMicros(attempt + 1, jitter);
      if (internal::BackoffBlocked(request, backoff_us)) {
        return Result(Status::DeadlineExceeded(
            std::string("deadline before retry of ") + FaultSiteName(site)));
      }
      internal::SleepBackoff(policy, attempt + 1, backoff_us);
      continue;
    }
    internal::SleepBackoff(policy, attempt + 1);
  }
}

}  // namespace kglink::robust

#endif  // KGLINK_ROBUST_RETRY_H_
