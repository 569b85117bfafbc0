// Part-1 step 3: candidate type generation (Eq. 7-8) with the PERSON/DATE
// label-based filter.
#ifndef KGLINK_LINKER_CANDIDATE_TYPES_H_
#define KGLINK_LINKER_CANDIDATE_TYPES_H_

#include <vector>

#include "kg/knowledge_graph.h"
#include "linker/types.h"

namespace kglink::linker {

// Generates up to `config.max_candidate_types` candidate types for column
// `col` from the pruned candidate entities of the kept rows (`row_links`).
//
// Following Eq. 8, a candidate type ct is any one-hop neighbour of a pruned
// candidate entity; its score accumulates, over rows r2 and candidates
// e^{r2} of that column, overlap_score(e^{r2}) for each e^{r2} that has ct
// in its neighbourhood. To honour the r2 != r1 constraint (the type must be
// corroborated beyond the row that introduced it), types supported by
// fewer than two distinct rows are discarded. Entities tagged PERSON or
// DATE are filtered out (the paper's spaCy label filter), as they are
// unsuitable column types; the filter reads the graph's freeze-time flag
// array (KnowledgeGraph::IsPersonOrDate), not the Entity structs.
//
// Accumulation: a thread-local open-addressed table keyed by type holds
// {score, last row, distinct rows} per type. Rows are visited in ascending
// order, so counting distinct rows needs only the last row seen. The
// table allocates nothing per visit; it is sized by distinct types and
// only its used slots are reset after a column.
//
// Bit identity with a per-column hash map of {score, row set}: each type's
// score adds the same terms (overlap_score of its pruned neighbours) from
// 0.0 in the same visit order (rows, then pruned candidates, then sorted
// neighbours), so every double is the same. The output order
// (score desc, entity asc) is a total order over distinct types, so the
// partial sort to max_candidate_types returns the full sort's prefix.
std::vector<CandidateType> GenerateCandidateTypes(
    const kg::KnowledgeGraph& kg, const std::vector<RowLinks>& row_links,
    int col, const LinkerConfig& config);

}  // namespace kglink::linker

#endif  // KGLINK_LINKER_CANDIDATE_TYPES_H_
