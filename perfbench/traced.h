// The standalone half of the traced run: each replayed table goes through
// the layers one public call at a time, sequentially, so a child layer the
// load phase only reaches inside its parent (TopK inside Process, Forward
// inside PredictProcessed) gets its own time at the same inputs.
#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <cstdint>
#include <vector>

#include "setup.h"
#include "spans.h"

namespace perfbench {

// For each table, in order: Preprocess, PredictProcessed, SearchEngine::TopK
// on every string cell (what Process would pay if no lookup hit the cell
// cache), then a standalone encoder with the annotator's config, seeded
// from `seed`, runs Forward, and Forward + Backward + AdamW step, over the
// token sequences the annotator's serializer makes of the table. Records
// phase kStandalone spans under one kReplay root per table, with request
// ids counting up from `first_request_id`.
void RunReplays(const Workbench& bench, core::KgLinkAnnotator& annotator,
                const std::vector<const table::Table*>& tables, uint64_t seed,
                int64_t first_request_id, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
