// Process-wide retry budget: a token bucket capping the *global* retry
// rate (the SRE retry-ratio pattern). Per-table budgets (TableBudget)
// bound how much one request may retry; they do nothing against a
// correlated fault burst, where every inflight request retries at once and
// the retry traffic multiplies load exactly when capacity is lowest. The
// budget sits under both retry loops (TableOpContext::Attempt and
// WithRetry): each backoff-retry must first take one token; when the
// bucket is empty the operation degrades/fails immediately instead of
// retrying, so retries can never exceed burst + rate·t no matter how many
// requests are failing.
//
// Disabled by default (Enabled() is one relaxed atomic load); the serving
// layer enables it for the process while an AnnotationService with a
// retry-budget configuration is live. The refill clock is injectable so
// tests drive exhaustion and recovery deterministically.
#ifndef KGLINK_ROBUST_RETRY_BUDGET_H_
#define KGLINK_ROBUST_RETRY_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/rolling_window.h"

namespace kglink::robust {

struct RetryBudgetOptions {
  double tokens_per_second = 50.0;  // sustained global retry rate
  double burst = 100.0;             // bucket capacity (and initial fill)
};

class RetryBudget {
 public:
  RetryBudget(const RetryBudget&) = delete;
  RetryBudget& operator=(const RetryBudget&) = delete;

  static RetryBudget& Global();

  // The only check on the budget-off path.
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }

  // Resets the bucket to a full burst and starts enforcing. The clock is
  // a monotonic-microseconds source; empty means steady_clock.
  void Enable(const RetryBudgetOptions& options,
              obs::ClockMicrosFn clock = {});
  void Disable();

  // One retry asks to run: true consumes a token, false means the budget
  // is spent and the caller must degrade instead of retrying.
  bool TryAcquire();

  double fill() const;  // current tokens (refreshed to now)
  int64_t granted() const;
  int64_t denied() const;
  RetryBudgetOptions options() const;

  // {"enabled": …, "tokens_per_second": …, "burst": …, "fill": …,
  //  "granted": …, "denied": …} ("enabled" only field when disabled).
  std::string SnapshotJson() const;

 private:
  RetryBudget() = default;

  int64_t Now() const;
  // Accrues tokens since the last refill. Caller holds mu_.
  void RefillLocked(int64_t now_us);

  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;
  RetryBudgetOptions options_;
  obs::ClockMicrosFn clock_;
  double tokens_ = 0.0;
  int64_t last_refill_us_ = 0;
  int64_t granted_ = 0;
  int64_t denied_ = 0;
};

}  // namespace kglink::robust

#endif  // KGLINK_ROBUST_RETRY_BUDGET_H_
