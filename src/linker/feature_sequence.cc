#include "linker/feature_sequence.h"

namespace kglink::linker {

std::string SerializeFeatureSequence(const kg::KnowledgeGraph& kg,
                                     kg::EntityId entity,
                                     const LinkerConfig& config) {
  const kg::Entity& e = kg.entity(entity);
  std::string out = e.label;
  int budget = config.max_feature_edges;
  for (const kg::Edge& edge : kg.Edges(entity)) {
    if (budget-- <= 0) break;
    out += " | ";
    out += kg.predicate_label(edge.predicate);
    out += " ";
    out += kg.entity(edge.target).label;
  }
  return out;
}

kg::EntityId SelectFeatureEntity(const std::vector<RowLinks>& row_links,
                                 int col) {
  kg::EntityId best = kg::kInvalidEntity;
  double best_score = -1.0;
  // Preferred source: pruned candidates (filter-approved links).
  for (const RowLinks& row : row_links) {
    // As in GenerateCandidateTypes: a short row's missing cells are
    // unlinked, never an out-of-bounds read.
    if (static_cast<size_t>(col) >= row.cells.size()) continue;
    const CellLinks& cell = row.cells[static_cast<size_t>(col)];
    for (const EntityCandidate& cand : cell.pruned) {
      if (cand.linking_score > best_score) {
        best_score = cand.linking_score;
        best = cand.entity;
      }
    }
  }
  if (best != kg::kInvalidEntity) return best;
  // Fallback: best raw retrieval, so some KG context survives even when
  // the overlap filter excluded everything.
  for (const RowLinks& row : row_links) {
    if (static_cast<size_t>(col) >= row.cells.size()) continue;
    const CellLinks& cell = row.cells[static_cast<size_t>(col)];
    for (const EntityCandidate& cand : cell.retrieved) {
      if (cand.linking_score > best_score) {
        best_score = cand.linking_score;
        best = cand.entity;
      }
    }
  }
  return best;
}

}  // namespace kglink::linker
