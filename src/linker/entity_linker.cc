#include "linker/entity_linker.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/scope.h"

namespace kglink::linker {

namespace {

struct LinkerMetrics {
  obs::Counter& cells_linked;    // string cells sent to BM25
  obs::Counter& cells_skipped;   // numeric/date cells (linking score 0)
  obs::Counter& cands_retrieved; // raw BM25 candidates
  obs::Counter& cands_kept;      // candidates surviving Eq. 3 pruning

  static LinkerMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static LinkerMetrics& m = *new LinkerMetrics{
        reg.GetCounter("linker.cells.linked"),
        reg.GetCounter("linker.cells.skipped"),
        reg.GetCounter("linker.candidates.retrieved"),
        reg.GetCounter("linker.candidates.kept")};
    return m;
  }
};

}  // namespace

EntityLinker::EntityLinker(const kg::KnowledgeGraph* kg,
                           const search::SearchEngine* engine,
                           LinkerConfig config)
    : kg_(kg), engine_(engine), config_(config) {
  KGLINK_CHECK(kg_ != nullptr);
  KGLINK_CHECK(engine_ != nullptr);
  KGLINK_CHECK(engine_->finalized());
  if (config_.cell_cache_capacity > 0) {
    cache_ = std::make_unique<search::CellLinkCache>(
        static_cast<size_t>(config_.cell_cache_capacity));
  }
}

void EntityLinker::Rebind(const kg::KnowledgeGraph* kg,
                          const search::SearchEngine* engine) {
  KGLINK_CHECK(kg != nullptr);
  KGLINK_CHECK(engine != nullptr);
  KGLINK_CHECK(engine->finalized());
  kg_ = kg;
  engine_ = engine;
  if (cache_) cache_->Clear();
}

CellLinks EntityLinker::LinkCell(const table::Cell& cell,
                                 robust::TableOpContext* ctx) const {
  LinkerMetrics& metrics = LinkerMetrics::Get();
  CellLinks links;
  // Numbers and dates are unsuitable for KG linking: linking score 0
  // (paper Section III-A step 1 / Section IV preamble).
  if (cell.kind != table::CellKind::kString) {
    metrics.cells_skipped.Add();
    return links;
  }
  // Retrieval can fail in a real deployment (the paper's Elasticsearch
  // lookup). A hard failure after retries degrades to an unlinkable cell —
  // the same state a cell with no KG match is already in. This gate stays
  // ahead of the cache lookup so the injected-fault draw sequence is
  // independent of cache hits (per-seed chaos determinism).
  if (ctx != nullptr &&
      !ctx->Attempt(robust::FaultSite::kSearchTopK)) {
    return links;
  }
  metrics.cells_linked.Add();
  links.linkable = true;

  const RequestContext* rc = ctx != nullptr ? ctx->request() : nullptr;
  // An already-expired request bypasses the cache in both directions: it
  // gets the empty short-circuit TopK result (never a cached full one),
  // and nothing it produces is stored.
  bool expired = rc != nullptr && rc->Expired();
  std::vector<search::SearchResult> hits;
  bool cached = false;
  if (cache_ != nullptr && !expired) {
    KGLINK_SCOPE(rc, obs::Stage::kCellCache);
    cached = cache_->Get(cell.text, &hits);
    if (obs::RequestTelemetry* t = obs::TelemetryOf(rc)) {
      ++(cached ? t->cache_hits : t->cache_misses);
    }
  }
  if (!cached) {
    hits = engine_->TopK(cell.text, config_.max_entities_per_cell, rc);
    // A request that expired *during* TopK got a truncated (empty) result;
    // caching it would poison every later lookup of this cell text.
    if (cache_ != nullptr && !expired &&
        (rc == nullptr || !rc->Expired())) {
      KGLINK_SCOPE(rc, obs::Stage::kCellCache);
      cache_->Put(cell.text, hits);
    }
  }
  for (const search::SearchResult& hit : hits) {
    links.retrieved.push_back({hit.doc_id, hit.score, 0.0});
  }
  metrics.cands_retrieved.Add(static_cast<int64_t>(links.retrieved.size()));
  return links;
}

RowLinks EntityLinker::LinkRow(const table::Table& table, int row,
                               robust::TableOpContext* ctx) const {
  RowLinks out;
  int cols = table.num_cols();
  out.cells.reserve(static_cast<size_t>(cols));
  {
    KGLINK_SCOPE("part1.link_cells");
    for (int c = 0; c < cols; ++c) {
      out.cells.push_back(LinkCell(table.at(row, c), ctx));
      if (ctx != nullptr && ctx->degraded()) {
        // Invariant: a RowLinks always spans the full row. Pad the cells
        // the degradation skipped as empty/unlinkable so downstream
        // per-column consumers (GenerateCandidateTypes indexes cells[col])
        // never read out of bounds on a partial row.
        out.cells.resize(static_cast<size_t>(cols));
        return out;
      }
    }
  }

  KGLINK_SCOPE("part1.overlap");
  // The live supporters of column c are live[col_begin[c], col_begin[c+1]):
  // its retrieved entities whose neighbour evidence survived. "kg.neighbors"
  // is a soft fault site: a trip drops one candidate's neighbour evidence
  // without retries, so it stops supporting other columns (it is still
  // pruned and scored itself). Every draw happens here, in (column,
  // candidate) order and before any counting, which keeps the injected-fault
  // sequence independent of how support is counted.
  std::vector<kg::EntityId> live;
  std::vector<size_t> col_begin;
  col_begin.reserve(static_cast<size_t>(cols) + 1);
  for (int c = 0; c < cols; ++c) {
    col_begin.push_back(live.size());
    for (const EntityCandidate& cand :
         out.cells[static_cast<size_t>(c)].retrieved) {
      if (ctx != nullptr &&
          ctx->SoftFault(robust::FaultSite::kKgNeighbors)) {
        continue;
      }
      live.push_back(cand.entity);
    }
  }
  col_begin.push_back(live.size());

  // Eq. 3 pruning + Eq. 6 overlap scores: keep a candidate when it is a
  // one-hop neighbour of a live candidate in another column; its overlap
  // score counts those supporting candidates across all other columns.
  // Frozen neighbour lists are sorted and symmetric (cand in N(e') iff
  // e' in N(cand)), so the count is one binary search of cand's own list
  // per supporter.
  int64_t total_kept = 0;
  for (int c1 = 0; c1 < cols; ++c1) {
    CellLinks& cell = out.cells[static_cast<size_t>(c1)];
    for (const EntityCandidate& cand : cell.retrieved) {
      Span<kg::EntityId> nbrs = kg_->NeighborSet(cand.entity);
      int support = 0;
      for (int c2 = 0; c2 < cols; ++c2) {
        if (c2 == c1) continue;
        for (size_t i = col_begin[static_cast<size_t>(c2)];
             i < col_begin[static_cast<size_t>(c2) + 1]; ++i) {
          support += std::binary_search(nbrs.begin(), nbrs.end(), live[i]);
        }
      }
      if (support > 0) {
        EntityCandidate pruned = cand;
        pruned.overlap_score = static_cast<double>(support);
        cell.pruned.push_back(pruned);
      }
    }
    // Eq. 4: cell linking score = max BM25 score among pruned candidates.
    for (const EntityCandidate& cand : cell.pruned) {
      cell.score = std::max(cell.score, cand.linking_score);
    }
    total_kept += static_cast<int64_t>(cell.pruned.size());
    out.row_score += cell.score;  // Eq. 5
  }
  LinkerMetrics::Get().cands_kept.Add(total_kept);
  return out;
}

}  // namespace kglink::linker
