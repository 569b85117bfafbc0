// Overload-control unit tests under a virtual clock: the retry budget
// (token bucket + WithRetry / TableOpContext integration through a
// borrowed RequestContext pointer), ServiceOptions validation clamps, and
// deadline-aware latency-fault truncation.
#include <gtest/gtest.h>

#include <string>

#include "robust/fault_injector.h"
#include "robust/retry.h"
#include "robust/retry_budget.h"
#include "serve/annotation_service.h"
#include "util/deadline.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace kglink::serve {
namespace {

// Virtual clock: tests advance time explicitly; nothing sleeps.
struct VClock {
  int64_t now_us = 1'000'000;
  obs::ClockMicrosFn fn() {
    return [this] { return now_us; };
  }
};

// --- Retry budget -------------------------------------------------------

TEST(RetryBudgetTest, BucketDrainsAndRefillsOnVirtualClock) {
  VClock clock;
  robust::RetryBudgetOptions o;
  o.tokens_per_second = 10.0;
  o.burst = 3.0;
  robust::RetryBudget budget(o, clock.fn());

  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());
  EXPECT_EQ(budget.granted(), 3);
  EXPECT_EQ(budget.denied(), 1);

  // 150ms at 10 tokens/s = 1.5 tokens back: one grant, then denial again.
  // (Not exactly 1.0 worth — the refill product is floating point.)
  clock.now_us += 150'000;
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());

  // Refill is capped at burst.
  clock.now_us += 10'000'000;
  EXPECT_DOUBLE_EQ(budget.fill(), 3.0);
}

TEST(RetryBudgetTest, ExhaustedBudgetFailsWithRetryInsteadOfRetrying) {
  // A fault site that always trips: with budget, WithRetry retries to
  // max_attempts; with the budget exhausted it gives up after the first
  // attempt with kUnavailable instead of burning more attempts.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("io.read:1.0", 7)
                  .ok());
  VClock clock;
  robust::RetryBudgetOptions o;
  o.tokens_per_second = 1.0;
  o.burst = 1.0;
  robust::RetryBudget budget(o, clock.fn());
  RequestContext rc;
  rc.retry_budget = &budget;

  robust::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_us = 1;
  policy.max_backoff_us = 1;
  int calls = 0;
  auto fn = [&calls]() {
    ++calls;
    return Status::Ok();
  };
  // First run: one retry token available, then the budget denies — the
  // result is the budget's Unavailable, not the injected IoError.
  Status first = robust::WithRetry(robust::FaultSite::kIoRead, policy, fn, &rc);
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  EXPECT_NE(first.ToString().find("retry budget exhausted"),
            std::string::npos);
  // Second run: no tokens at all — fails before any backoff.
  Status second =
      robust::WithRetry(robust::FaultSite::kIoRead, policy, fn, &rc);
  EXPECT_EQ(second.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 0);  // every attempt was suppressed by the injector
  EXPECT_GE(budget.denied(), 2);

  robust::FaultInjector::Global().Disable();
}

TEST(RetryBudgetTest, TableContextDegradesWhenBudgetExhausted) {
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:1.0", 7)
                  .ok());
  VClock clock;
  robust::RetryBudgetOptions o;
  o.tokens_per_second = 0.001;  // effectively no refill during the test
  o.burst = 1.0;
  robust::RetryBudget budget(o, clock.fn());
  RequestContext rc;
  rc.retry_budget = &budget;

  robust::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_us = 1;
  policy.max_backoff_us = 1;
  robust::TableBudget table_budget;
  table_budget.max_failed_ops = 0;
  table_budget.max_retries = 64;
  robust::TableOpContext ctx(policy, table_budget, 1, &rc);
  // The always-tripping site forces a retry; the budget (1 token) grants
  // one, then denies — the context degrades instead of spinning through
  // max_attempts.
  EXPECT_FALSE(ctx.Attempt(robust::FaultSite::kSearchTopK));
  EXPECT_TRUE(ctx.degraded());
  EXPECT_STREQ(ctx.degrade_reason(), "retry budget exhausted");
  EXPECT_EQ(budget.granted(), 1);
  EXPECT_EQ(budget.denied(), 1);

  robust::FaultInjector::Global().Disable();
}

TEST(RetryBudgetTest, DisabledBudgetNeverGates) {
  // A request that borrows no budget retries to max_attempts: the only
  // bound is the RetryPolicy.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("io.read:1.0", 7)
                  .ok());
  robust::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_us = 1;
  policy.max_backoff_us = 1;
  RequestContext rc;
  Status s = robust::WithRetry(robust::FaultSite::kIoRead, policy,
                               [] { return Status::Ok(); }, &rc);
  // Every attempt ran into the injected fault; none was cut short.
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  robust::FaultInjector::Global().Disable();
}

// --- ServiceOptions validation ------------------------------------------

TEST(ValidatedServiceOptionsTest, ClampsNonsenseToSaneValues) {
  ServiceOptions o;
  o.num_threads = 0;
  o.max_queue = -5;
  o.default_deadline_us = -1;
  o.encode_batch = 0;
  o.retry_budget_per_second = -3.0;
  ServiceOptions v = ValidatedServiceOptions(o);
  EXPECT_EQ(v.num_threads, 1);
  EXPECT_EQ(v.max_queue, 1);
  EXPECT_EQ(v.encode_batch, 1);
  EXPECT_EQ(v.default_deadline_us, 0);
  EXPECT_EQ(v.retry_budget_per_second, 0.0);
}

// --- Deadline-aware latency faults --------------------------------------

TEST(LatencyFaultTest, InjectedSleepIsCappedAtRemainingDeadline) {
  // A 200ms latency rule against a 2ms deadline: the sleep must be cut to
  // the remaining budget, not run its full course.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("predict:1.0:200000", 3)
                  .ok());
  int64_t before = robust::FaultInjector::Global().latency_truncations();
  RequestContext rc;
  rc.deadline = Deadline::AfterMicros(2'000);
  Stopwatch watch;
  // Latency rules sleep then report no failure.
  EXPECT_FALSE(robust::MaybeInject(robust::FaultSite::kPredict, &rc));
  EXPECT_LT(watch.ElapsedSeconds(), 0.15);  // nowhere near 200ms
  EXPECT_EQ(robust::FaultInjector::Global().latency_truncations(),
            before + 1);
  robust::FaultInjector::Global().Disable();
}

TEST(LatencyFaultTest, CancelledRequestSkipsTheSleepEntirely) {
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("predict:1.0:200000", 3)
                  .ok());
  RequestContext rc;
  rc.cancel = CancellationToken::Cancellable();
  rc.cancel.Cancel();
  Stopwatch watch;
  EXPECT_FALSE(robust::MaybeInject(robust::FaultSite::kPredict, &rc));
  EXPECT_LT(watch.ElapsedSeconds(), 0.05);
  robust::FaultInjector::Global().Disable();
}

TEST(LatencyFaultTest, UnboundedRequestSleepsTheFullRule) {
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("predict:1.0:20000", 3)
                  .ok());
  int64_t before = robust::FaultInjector::Global().latency_truncations();
  Stopwatch watch;
  EXPECT_FALSE(robust::MaybeInject(robust::FaultSite::kPredict, nullptr));
  EXPECT_GE(watch.ElapsedSeconds(), 0.015);
  EXPECT_EQ(robust::FaultInjector::Global().latency_truncations(), before);
  robust::FaultInjector::Global().Disable();
}

}  // namespace
}  // namespace kglink::serve
