// Retry budget: a token bucket capping the retry rate across every request
// that shares it (the SRE retry-ratio pattern). Per-table budgets
// (TableBudget) bound how much one request may retry; they do nothing
// against a correlated fault burst, where every inflight request retries
// at once and the retry traffic multiplies load exactly when capacity is
// lowest. The budget sits under both retry loops (TableOpContext::Attempt
// and WithRetry): each backoff-retry of a request whose RequestContext
// borrows a budget must first take one token; when the bucket is empty
// the operation degrades/fails immediately instead of retrying, so
// retries can never exceed burst + rate·t no matter how many requests are
// failing.
//
// An AnnotationService configured with a retry rate owns one budget and
// lends it to its requests (RequestContext::retry_budget), so two services
// never share or reset each other's bucket. Calls with no request, or a
// request without a budget, are bounded by their RetryPolicy alone. The
// refill clock is injectable so tests drive exhaustion and recovery
// deterministically.
#ifndef KGLINK_ROBUST_RETRY_BUDGET_H_
#define KGLINK_ROBUST_RETRY_BUDGET_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "obs/rolling_window.h"

namespace kglink::robust {

struct RetryBudgetOptions {
  double tokens_per_second = 50.0;  // sustained retry rate
  double burst = 100.0;             // bucket capacity (and initial fill)
};

class RetryBudget {
 public:
  // Starts with a full burst of tokens. Negative rates/bursts count as 0.
  // The clock is a monotonic-microseconds source; empty means
  // steady_clock.
  explicit RetryBudget(const RetryBudgetOptions& options,
                       obs::ClockMicrosFn clock = {});
  RetryBudget(const RetryBudget&) = delete;
  RetryBudget& operator=(const RetryBudget&) = delete;

  // One retry asks to run: true consumes a token, false means the budget
  // is spent and the caller must degrade instead of retrying.
  bool TryAcquire();

  double fill() const;  // current tokens (refreshed to now)
  int64_t granted() const;
  int64_t denied() const;

  // {"enabled": true, "tokens_per_second": …, "burst": …, "fill": …,
  //  "granted": …, "denied": …}.
  std::string SnapshotJson() const;

 private:
  int64_t Now() const;
  // Accrues tokens since the last refill. Caller holds mu_.
  void RefillLocked(int64_t now_us);

  const RetryBudgetOptions options_;
  const obs::ClockMicrosFn clock_;

  mutable std::mutex mu_;
  double tokens_ = 0.0;
  int64_t last_refill_us_ = 0;
  int64_t granted_ = 0;
  int64_t denied_ = 0;
};

}  // namespace kglink::robust

#endif  // KGLINK_ROBUST_RETRY_BUDGET_H_
