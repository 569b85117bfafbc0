#include "linker/candidate_types.h"

#include <algorithm>
#include <cstdint>

#include "obs/metrics.h"

namespace kglink::linker {

namespace {

// Eq. 8's per-type state for one column in an open-addressed table keyed
// by type entity (linear probing, Fibonacci hashing). It is sized by the
// distinct types a column reaches, not by its visits: the capacity starts
// small and doubles when half full. Take() resets only the used slots, so
// one table serves every column a thread processes.
class TypeAccumulator {
 public:
  // One (type, row, term) visit. Rows arrive in ascending order, so a
  // distinct-row count only has to compare against the last row seen.
  void Add(kg::EntityId type, int row, double term) {
    Slot& s = FindOrInsert(type);
    s.score += term;
    if (s.last_row != row) {
      s.last_row = row;
      ++s.rows;
    }
  }

  // Appends every type supported by at least two distinct rows to `out`
  // and resets the table for the next column.
  void Take(std::vector<CandidateType>* out) {
    for (uint32_t i : used_) {
      Slot& s = slots_[i];
      // Eq. 8's r2 != r1: require corroboration from at least two rows.
      if (s.rows >= 2) out->push_back({s.type, s.score});
      s = Slot();
    }
    used_.clear();
  }

 private:
  struct Slot {
    kg::EntityId type = kg::kInvalidEntity;
    int last_row = -1;
    int rows = 0;
    double score = 0.0;
  };

  static constexpr int kInitialBits = 6;

  size_t Home(kg::EntityId type) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(static_cast<uint32_t>(type)) *
         0x9E3779B97F4A7C15ull) >>
        (64 - bits_));
  }

  Slot& FindOrInsert(kg::EntityId type) {
    if (2 * (used_.size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(type);; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.type == type) return s;
      if (s.type == kg::kInvalidEntity) {
        s.type = type;
        used_.push_back(static_cast<uint32_t>(i));
        return s;
      }
    }
  }

  // Doubles the capacity and reinserts the used slots, state included.
  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    bits_ = old.empty() ? kInitialBits : bits_ + 1;
    slots_.assign(size_t{1} << bits_, Slot());
    const size_t mask = slots_.size() - 1;
    for (uint32_t& u : used_) {
      const Slot& s = old[u];
      size_t i = Home(s.type);
      while (slots_[i].type != kg::kInvalidEntity) i = (i + 1) & mask;
      slots_[i] = s;
      u = static_cast<uint32_t>(i);
    }
  }

  int bits_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> used_;  // occupied slot indices
};

}  // namespace

std::vector<CandidateType> GenerateCandidateTypes(
    const kg::KnowledgeGraph& kg, const std::vector<RowLinks>& row_links,
    int col, const LinkerConfig& config) {
  thread_local TypeAccumulator accum;

  for (size_t r = 0; r < row_links.size(); ++r) {
    // LinkRow guarantees full-width rows (degraded rows are padded), but a
    // short row must never be UB here — treat missing cells as unlinked.
    if (static_cast<size_t>(col) >= row_links[r].cells.size()) continue;
    const CellLinks& cell = row_links[r].cells[static_cast<size_t>(col)];
    for (const EntityCandidate& cand : cell.pruned) {
      for (kg::EntityId ct : kg.NeighborSet(cand.entity)) {
        // Label-based filter: PERSON / DATE entities are not column types.
        if (kg.IsPersonOrDate(ct)) continue;
        accum.Add(ct, static_cast<int>(r), cand.overlap_score);
      }
    }
  }

  std::vector<CandidateType> out;
  accum.Take(&out);
  // (score desc, entity asc) is a total order over distinct entities, so
  // the top k of a partial sort are exactly the first k of a full sort.
  const size_t k = std::min(
      out.size(), static_cast<size_t>(std::max(0, config.max_candidate_types)));
  std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(k),
                    out.end(), [](const auto& a, const auto& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.entity < b.entity;
                    });
  out.resize(k);

  static obs::Counter& generated =
      obs::MetricsRegistry::Global().GetCounter("linker.ctypes.generated");
  static obs::Counter& empty =
      obs::MetricsRegistry::Global().GetCounter("linker.ctypes.empty_columns");
  if (out.empty()) {
    empty.Add();
  } else {
    generated.Add(static_cast<int64_t>(out.size()));
  }
  return out;
}

}  // namespace kglink::linker
