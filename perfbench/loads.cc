#include "loads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

namespace perfbench {

namespace {

// Scores one completed request against its reference and gold labels.
void Judge(const Job& job, const std::vector<int>& predictions, bool ok,
           Outcome* out) {
  out->mismatch = !ok || predictions.size() != job.gold->size() ||
                  (job.reference != nullptr && *job.reference != predictions);
  for (size_t c = 0; c < job.gold->size(); ++c) {
    int gold = (*job.gold)[c];
    if (gold == table::kUnlabeled) continue;
    ++out->labeled;
    if (c < predictions.size() && predictions[c] == gold) ++out->correct;
  }
}

void Record(std::vector<Span>* spans, int64_t request, SpanKind kind,
            SpanKind parent, int64_t start_ns, int64_t end_ns,
            int64_t units = 0) {
  if (spans == nullptr) return;
  spans->push_back({request, kind, parent, Phase::kLoad, start_ns, end_ns,
                    units});
}

}  // namespace

LoadResult RunClosedLoop(serve::AnnotationService& service,
                         core::KgLinkAnnotator& annotator, JobSource& source,
                         const ClosedLoopOptions& options) {
  LoadResult result;
  std::mutex mu;  // guards result while callers merge
  std::atomic<int64_t> sent{0};
  const int64_t start_ns = NowNs();
  const int64_t end_ns =
      start_ns + static_cast<int64_t>(options.seconds * 1e9);

  auto caller = [&](int index) {
    Rng rng(StreamSeed(options.seed, static_cast<uint64_t>(options.stream),
                       static_cast<uint64_t>(index)));
    std::vector<Outcome> outcomes;
    std::vector<DeferredCheck> deferred;
    std::vector<Span> local_spans;
    std::vector<Span>* spans =
        options.spans != nullptr ? &local_spans : nullptr;
    int64_t due_ns = start_ns;
    while (NowNs() < end_ns) {
      int64_t n = sent.fetch_add(1);
      if (options.max_requests > 0 && n >= options.max_requests) break;
      int64_t id = options.first_request_id + n;
      Job job = source.Next(rng);
      if (job.table == nullptr) break;
      Outcome out;
      out.key = job.key;
      out.due_ns = due_ns;
      std::vector<int> predictions;
      bool ok = true;
      out.decomposed = options.decompose;
      out.send_ns = NowNs();
      if (out.decomposed) {
        kglink::linker::ProcessedTable processed =
            annotator.Preprocess(*job.table);
        int64_t processed_ns = NowNs();
        predictions = annotator.PredictProcessed(processed);
        out.sent_ns = out.send_ns;
        out.done_ns = NowNs();
        ok = !processed.degraded;
        if (!ok) out.status = serve::RequestStatus::kDegraded;
        Record(spans, id, SpanKind::kProcess, SpanKind::kRequest,
               out.send_ns, processed_ns, job.table->num_rows());
        Record(spans, id, SpanKind::kPredict, SpanKind::kRequest,
               processed_ns, out.done_ns);
      } else {
        std::future<serve::AnnotationResult> future =
            service.Submit(*job.table);
        out.sent_ns = NowNs();
        out.queue_depth = service.queue_depth();
        int64_t wait_ns = NowNs();
        serve::AnnotationResult r = future.get();
        out.done_ns = NowNs();
        out.status = r.status;
        out.queue_us = r.queue_us;
        out.work_us = r.work_us;
        ok = r.status == serve::RequestStatus::kOk;
        predictions = std::move(r.predictions);
        Record(spans, id, SpanKind::kSubmit, SpanKind::kRequest, out.send_ns,
               out.sent_ns);
        Record(spans, id, SpanKind::kWait, SpanKind::kRequest, wait_ns,
               out.done_ns);
      }
      Record(spans, id, SpanKind::kRequest, SpanKind::kNone, out.send_ns,
             out.done_ns);
      Judge(job, predictions, ok, &out);
      if (job.reference == nullptr && job.owned != nullptr &&
          options.defer_every > 0 && n % options.defer_every == 0) {
        deferred.push_back({job.owned, std::move(predictions)});
      }
      due_ns = out.done_ns;
      outcomes.push_back(out);
    }
    if (options.spans != nullptr) options.spans->Append(std::move(local_spans));
    std::lock_guard<std::mutex> lock(mu);
    result.outcomes.insert(result.outcomes.end(), outcomes.begin(),
                           outcomes.end());
    for (DeferredCheck& d : deferred) result.deferred.push_back(std::move(d));
  };

  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) callers.emplace_back(caller, i);
  for (std::thread& t : callers) t.join();

  int64_t first_ns = end_ns;
  int64_t last_ns = start_ns;
  for (const Outcome& o : result.outcomes) {
    first_ns = std::min(first_ns, o.send_ns);
    last_ns = std::max(last_ns, o.done_ns);
  }
  result.elapsed_s = static_cast<double>(last_ns - first_ns) / 1e9;
  return result;
}

LoadResult RunOpenLoop(serve::AnnotationService& service, JobSource& source,
                       const OpenLoopOptions& options) {
  // The whole schedule exists before the first send: rate x seconds
  // arrivals at uniform random times (Poisson, conditioned on the count so
  // every seed offers the same load), and the table each one carries.
  Rng rng(StreamSeed(options.seed, static_cast<uint64_t>(options.stream), 0));
  const size_t count =
      static_cast<size_t>(std::lround(options.rate_per_s * options.seconds));
  std::vector<int64_t> offsets_ns;
  std::vector<Job> jobs;
  for (size_t i = 0; i < count; ++i) {
    offsets_ns.push_back(
        static_cast<int64_t>(rng.UniformDouble() * options.seconds * 1e9));
    jobs.push_back(source.Next(rng));
  }
  std::sort(offsets_ns.begin(), offsets_ns.end());

  LoadResult result;
  result.outcomes.resize(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) result.outcomes[i].key = jobs[i].key;
  struct Pending {
    size_t index;
    std::future<serve::AnnotationResult> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool closed = false;

  auto waiter = [&] {
    std::vector<Span> local_spans;
    std::vector<Span>* spans =
        options.spans != nullptr ? &local_spans : nullptr;
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !pending.empty(); });
        if (pending.empty()) break;
        p = std::move(pending.front());
        pending.pop_front();
      }
      serve::AnnotationResult r = p.future.get();
      Outcome& out = result.outcomes[p.index];
      out.done_ns = NowNs();
      out.status = r.status;
      out.queue_us = r.queue_us;
      out.work_us = r.work_us;
      Judge(jobs[p.index], r.predictions,
            r.status == serve::RequestStatus::kOk, &out);
      int64_t id = options.first_request_id + static_cast<int64_t>(p.index);
      Record(spans, id, SpanKind::kWait, SpanKind::kRequest, out.sent_ns,
             out.done_ns);
      Record(spans, id, SpanKind::kRequest, SpanKind::kNone, out.due_ns,
             out.done_ns);
    }
    if (options.spans != nullptr) options.spans->Append(std::move(local_spans));
  };
  std::vector<std::thread> waiters;
  for (int i = 0; i < kOpenWaiters; ++i) waiters.emplace_back(waiter);

  std::vector<Span> dispatch_spans;
  std::vector<Span>* spans =
      options.spans != nullptr ? &dispatch_spans : nullptr;
  const int64_t start_ns = NowNs();
  for (size_t i = 0; i < jobs.size(); ++i) {
    Outcome& out = result.outcomes[i];
    out.open_loop = true;
    out.due_ns = start_ns + offsets_ns[i];
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(out.due_ns)));
    out.send_ns = NowNs();
    std::future<serve::AnnotationResult> future =
        service.Submit(*jobs[i].table);
    out.sent_ns = NowNs();
    out.queue_depth = service.queue_depth();
    Record(spans, options.first_request_id + static_cast<int64_t>(i),
           SpanKind::kSubmit,
           SpanKind::kRequest, out.send_ns, out.sent_ns);
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back({i, std::move(future)});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& t : waiters) t.join();
  if (options.spans != nullptr) options.spans->Append(std::move(dispatch_spans));

  int64_t last_ns = start_ns;
  for (const Outcome& o : result.outcomes) last_ns = std::max(last_ns, o.done_ns);
  result.elapsed_s = static_cast<double>(last_ns - start_ns) / 1e9;
  return result;
}

int64_t CheckDeferred(core::KgLinkAnnotator& annotator,
                      const std::vector<DeferredCheck>& deferred) {
  int64_t mismatches = 0;
  for (const DeferredCheck& d : deferred) {
    core::AnnotateOutcome out = annotator.AnnotateTable(d.table->table);
    if (!out.status.ok() || out.degraded || out.predictions != d.served) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace perfbench
