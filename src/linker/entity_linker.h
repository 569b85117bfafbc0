// Part-1 steps 1 & 2: cell-mention linking via BM25 (Eq. 1-2), overlapping
// entity-set pruning (Eq. 3), overlapping scores (Eq. 6) and cell/row
// linking scores (Eq. 4-5).
#ifndef KGLINK_LINKER_ENTITY_LINKER_H_
#define KGLINK_LINKER_ENTITY_LINKER_H_

#include <memory>
#include <vector>

#include "kg/knowledge_graph.h"
#include "linker/types.h"
#include "robust/retry.h"
#include "search/cell_link_cache.h"
#include "search/search_engine.h"
#include "table/table.h"

namespace kglink::linker {

class EntityLinker {
 public:
  // Both pointers must outlive the linker; `engine` must be finalized.
  // With config.cell_cache_capacity > 0 the linker owns a sharded LRU
  // memoizing cell-text -> TopK results (see search/cell_link_cache.h).
  EntityLinker(const kg::KnowledgeGraph* kg,
               const search::SearchEngine* engine, LinkerConfig config);

  // Step 1: retrieve E_m for one cell. NUMBER/DATE/empty cells come back
  // non-linkable with score 0. With a context, the retrieval is gated by
  // the "search.topk" fault site (retried per the context's policy); a
  // hard failure yields an empty, non-linkable cell. The fault gate runs
  // *before* the cache lookup, so injected-fault draw sequences (and with
  // them per-seed chaos determinism) never depend on cache state.
  CellLinks LinkCell(const table::Cell& cell,
                     robust::TableOpContext* ctx = nullptr) const;

  // Steps 1+2 for a whole row: link every cell, prune with the
  // inter-column overlap (Eq. 3), compute overlap scores (Eq. 6) and the
  // cell/row linking scores (Eq. 4-5). A candidate's overlap support is
  // the number of candidates in other columns that are its one-hop
  // neighbours, counted by binary search in its own frozen NeighborSet
  // (exact because the frozen neighbour relation is symmetric). The
  // "kg.neighbors" fault site is a soft site here: a trip drops that
  // candidate's neighbour evidence, so it supports no other column, but it
  // is still pruned and scored itself. All of a row's draws happen in
  // (column, candidate) order before any counting.
  //
  // Invariant: the returned RowLinks always has exactly table.num_cols()
  // cells — when the context degrades mid-row, the remaining cells are
  // padded as empty/unlinkable rather than left missing (downstream
  // consumers like GenerateCandidateTypes index cells[col] per column).
  RowLinks LinkRow(const table::Table& table, int row,
                   robust::TableOpContext* ctx = nullptr) const;

  const LinkerConfig& config() const { return config_; }
  // Null when config.cell_cache_capacity == 0.
  const search::CellLinkCache* cell_cache() const { return cache_.get(); }

  // Swaps the borrowed KG/engine for another generation (snapshot hot
  // reload) and clears the cell-link cache — cached TopK results index
  // into the old engine's document table. The caller must guarantee no
  // concurrent LinkCell/LinkRow while the swap runs (the serving layer
  // quiesces its workers first).
  void Rebind(const kg::KnowledgeGraph* kg,
              const search::SearchEngine* engine);

 private:
  const kg::KnowledgeGraph* kg_;
  const search::SearchEngine* engine_;
  LinkerConfig config_;
  // Internally synchronized; mutated from const LinkCell (the pipeline's
  // Process is const and concurrent by contract).
  std::unique_ptr<search::CellLinkCache> cache_;
};

}  // namespace kglink::linker

#endif  // KGLINK_LINKER_ENTITY_LINKER_H_
