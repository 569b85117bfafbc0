// Load generators: a closed loop of callers that each wait for their reply
// before sending again, and an open loop that sends on a precomputed
// seeded Poisson schedule (a fixed number of arrivals, rate x seconds, at
// uniform random times: a Poisson process conditioned on its count)
// whatever the service does. Both time requests
// from the caller's side; the open loop times each one from when it was due.
#ifndef PERFBENCH_LOADS_H_
#define PERFBENCH_LOADS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/annotation_service.h"
#include "setup.h"
#include "spans.h"

namespace perfbench {

namespace serve = kglink::serve;

struct Outcome {
  int64_t key = 0;      // the Job's table key
  int64_t due_ns = 0;   // schedule time; closed loop: previous completion
  int64_t send_ns = 0;  // the call into the service (or layers) began
  int64_t sent_ns = 0;  // Submit returned
  int64_t done_ns = 0;  // the caller saw the result
  bool open_loop = false;
  serve::RequestStatus status = serve::RequestStatus::kOk;
  // Service-reported; -1 for decomposed requests that bypass the service.
  int64_t queue_us = -1;
  int64_t work_us = -1;
  int queue_depth = 0;  // sampled right after Submit
  bool decomposed = false;
  bool mismatch = false;  // not kOk, or differs from the reference
  int labeled = 0;
  int correct = 0;

  // Caller-observed: from the due time in an open loop, from the send in
  // a closed one (a closed-loop caller's own gap is its lateness).
  double LatencyUs() const {
    return static_cast<double>(done_ns - (open_loop ? due_ns : send_ns)) / 1e3;
  }
  double LateUs() const { return static_cast<double>(send_ns - due_ns) / 1e3; }
};

// A generated table whose reference was unknown while it was served: the
// run re-annotates it sequentially afterwards and compares.
struct DeferredCheck {
  std::shared_ptr<const GoldTable> table;
  std::vector<int> served;
};

struct LoadResult {
  std::vector<Outcome> outcomes;
  double elapsed_s = 0.0;  // first send to last completion
  std::vector<DeferredCheck> deferred;
};

// Closed-loop callers; open-loop threads that wait on futures, oldest first.
inline constexpr int kCallers = 4;
inline constexpr int kOpenWaiters = 8;

struct ClosedLoopOptions {
  double seconds = 0.0;       // stop sending after this long, after this
  int64_t max_requests = 0;   // many (0: no cap), or when the source runs dry
  // Every request runs Preprocess then PredictProcessed in its caller
  // instead of going through Submit, so each layer call gets its own span.
  // (Mixing the two kinds in one phase puts eight busy threads on the
  // workers' cores and slows both kinds by about a quarter on 4 cores.)
  bool decompose = false;
  SpanLog* spans = nullptr;   // null: untraced
  int defer_every = 0;        // defer the check of every Nth fresh table
  uint64_t seed = 0;
  int stream = 0;
  int64_t first_request_id = 0;  // span ids count up from here
};

LoadResult RunClosedLoop(serve::AnnotationService& service,
                         core::KgLinkAnnotator& annotator, JobSource& source,
                         const ClosedLoopOptions& options);

struct OpenLoopOptions {
  double rate_per_s = 0.0;
  double seconds = 0.0;
  SpanLog* spans = nullptr;
  uint64_t seed = 0;
  int stream = 0;
  int64_t first_request_id = 0;  // span ids count up from here
};

LoadResult RunOpenLoop(serve::AnnotationService& service, JobSource& source,
                       const OpenLoopOptions& options);

// Re-annotates every deferred table sequentially with AnnotateTable and
// returns how many differ from what was served.
int64_t CheckDeferred(core::KgLinkAnnotator& annotator,
                      const std::vector<DeferredCheck>& deferred);

}  // namespace perfbench

#endif  // PERFBENCH_LOADS_H_
