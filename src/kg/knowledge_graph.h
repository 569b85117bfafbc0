// In-memory property-graph knowledge graph in the WikiData mold: entities
// with labels/aliases/descriptions, typed predicates (with distinguished
// `instance of` / `subclass of`), and one-hop neighbourhood queries — the
// exact surface KGLink's Part-1 algorithms consume.
//
// The graph is built, then frozen. AddEntity/AddPredicate/AddTriple only
// append build-time state; Finalize() compacts it into flat CSR arrays
// (per-entity edges in insertion order, sorted unique neighbour lists, and
// sorted qid / label indexes) and frees the build state. FromFrozen()
// instead borrows the same arrays from an external read-only mapping (the
// mmap'd snapshot store), copying only entity/predicate strings. Either
// way every topology read and lookup goes through one FrozenTopologyView:
// plain array reads, no cache and no locks. The snapshot parity tests pin
// owned and borrowed graphs bit-identical. Topology reads before the graph
// is frozen, and mutation after, are checked errors.
#ifndef KGLINK_KG_KNOWLEDGE_GRAPH_H_
#define KGLINK_KG_KNOWLEDGE_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/span.h"
#include "util/status.h"

namespace kglink::kg {

using EntityId = int32_t;
using PredicateId = int32_t;
inline constexpr EntityId kInvalidEntity = -1;

// A node in the KG. `is_person` / `is_date` carry the named-entity schema
// tags the paper obtains from spaCy (used by the candidate-type filter);
// `is_type` marks class entities (objects of `instance of` / `subclass of`).
struct Entity {
  std::string qid;          // external identifier, e.g. "Q42"
  std::string label;        // primary surface form
  std::vector<std::string> aliases;
  std::string description;
  bool is_type = false;
  bool is_person = false;
  bool is_date = false;
};

// A directed labelled edge viewed from some entity. The layout is pinned
// (see the static_asserts below) because the snapshot store serializes
// edge arrays field-by-field into exactly this byte pattern and the frozen
// graph reinterprets the mapping in place.
struct Edge {
  PredicateId predicate;
  EntityId target;
  bool forward;  // true: this entity is the subject
};
static_assert(sizeof(Edge) == 12 && alignof(Edge) == 4,
              "Edge layout is part of the snapshot format");
static_assert(offsetof(Edge, predicate) == 0 && offsetof(Edge, target) == 4 &&
                  offsetof(Edge, forward) == 8,
              "Edge layout is part of the snapshot format");

// View of a frozen topology: flat CSR-style arrays, either owned by a
// finalized graph or borrowed from a read-only snapshot mapping that must
// outlive any graph constructed from it. Neighbour lists are sorted and
// deduplicated per entity. qid_sorted lists the entities with a non-empty
// qid in strictly ascending qid order; label_sorted lists every entity in
// (label, id) order. FindByQid/FindByLabel binary-search them in place.
struct FrozenTopologyView {
  uint64_t num_entities = 0;
  const Edge* edges = nullptr;             // [edge_offsets[num_entities]]
  const uint64_t* edge_offsets = nullptr;  // [num_entities + 1]
  const EntityId* neighbors = nullptr;  // [neighbor_offsets[num_entities]]
  const uint64_t* neighbor_offsets = nullptr;  // [num_entities + 1]
  const EntityId* qid_sorted = nullptr;    // [qid_sorted_count]
  uint64_t qid_sorted_count = 0;
  const EntityId* label_sorted = nullptr;  // [num_entities]
};

class KnowledgeGraph {
 public:
  // Distinguished predicates, created by the constructor.
  static constexpr PredicateId kInstanceOf = 0;
  static constexpr PredicateId kSubclassOf = 1;

  // Copies and moves are the defaults: a copy shares the immutable frozen
  // topology (owned arrays are reference-counted; borrowed ones stay
  // borrowed from the same mapping).
  KnowledgeGraph();

  // ----- construction -----
  // Mutators are a checked programming error once the graph is frozen.
  EntityId AddEntity(Entity entity);
  PredicateId AddPredicate(const std::string& label);
  void AddTriple(EntityId subject, PredicateId predicate, EntityId object);

  // Freezes the graph into the CSR layout the snapshot store writes and
  // frees the build-time state. Duplicate non-empty qids are reported as
  // kCorruption (the graph then stays unfrozen). Must run before any
  // topology read or lookup.
  Status Finalize();

  // View over this graph's frozen arrays, suitable for snapshot
  // serialization. Valid only while the graph (or a copy) is alive.
  // Requires frozen().
  FrozenTopologyView View() const;

  // Builds a graph whose topology *borrows* `topo`'s arrays — no edge,
  // neighbour or index copies; entity/predicate metadata is taken from the
  // (already-parsed) arguments. The memory behind `topo` must outlive the
  // returned graph. The caller is responsible for having bounds- and
  // order-checked the view (the snapshot loader validates sections before
  // handing views out).
  static KnowledgeGraph FromFrozen(std::vector<Entity> entities,
                                   std::vector<std::string> predicate_labels,
                                   int64_t num_triples,
                                   const FrozenTopologyView& topo);

  // True once Finalize() or FromFrozen() produced the topology.
  bool frozen() const { return frozen_; }

  // True when `id` is tagged PERSON or DATE, which the paper's label filter
  // keeps out of candidate types. One byte of a flat per-entity array that
  // Finalize()/FromFrozen() build from the entity tags (it is not part of
  // the snapshot format), so the candidate-type loop reads no Entity.
  // Requires frozen() and a valid `id`.
  bool IsPersonOrDate(EntityId id) const {
    KGLINK_DCHECK(id >= 0 &&
                  static_cast<size_t>(id) < person_or_date_.size());
    return person_or_date_[static_cast<size_t>(id)] != 0;
  }

  // ----- lookup -----
  int64_t num_entities() const { return static_cast<int64_t>(entities_.size()); }
  int64_t num_triples() const { return num_triples_; }
  int64_t num_predicates() const {
    return static_cast<int64_t>(predicate_labels_.size());
  }
  const Entity& entity(EntityId id) const;
  const std::string& predicate_label(PredicateId id) const;
  EntityId FindByQid(const std::string& qid) const;
  // All entities whose primary label matches exactly (case-sensitive), in
  // id order.
  std::vector<EntityId> FindByLabel(const std::string& label) const;

  // ----- topology -----
  // All edges incident to `id` (both directions), insertion order.
  Span<Edge> Edges(EntityId id) const;
  // Deduplicated, sorted one-hop neighbour entity ids (both directions).
  // Thread-safety: every const query on a frozen graph is a plain read of
  // immutable arrays, safe from any number of threads.
  Span<EntityId> NeighborSet(EntityId id) const;
  // True if `candidate` is a one-hop neighbour of `id`.
  bool IsNeighbor(EntityId id, EntityId candidate) const;

  // Objects of `id --instance of--> *`.
  std::vector<EntityId> InstanceTypes(EntityId id) const;
  // Transitive closure of `subclass of` starting from (and excluding) `id`.
  std::vector<EntityId> SuperClasses(EntityId id) const;
  // True if `a` equals `b` or `b` is in a's subclass-of closure.
  bool IsSubtypeOf(EntityId a, EntityId b) const;

  // ----- persistence (TSV) -----
  // Requires frozen(); LoadFromFile returns a frozen graph.
  Status SaveToFile(const std::string& path) const;
  static StatusOr<KnowledgeGraph> LoadFromFile(const std::string& path);

 private:
  struct Triple {
    EntityId subject;
    PredicateId predicate;
    EntityId object;
  };
  struct OwnedTopology;  // the arrays Finalize() builds

  void CheckFrozen() const;
  void BuildPersonOrDateFlags();

  std::vector<Entity> entities_;
  std::vector<std::string> predicate_labels_;
  int64_t num_triples_ = 0;
  std::vector<Triple> triples_;  // build-time only; freed by Finalize()

  bool frozen_ = false;
  std::shared_ptr<const OwnedTopology> owned_;  // null when borrowed
  FrozenTopologyView topo_;  // into *owned_ or the external mapping
  std::vector<uint8_t> person_or_date_;  // per entity; built on freeze
};

}  // namespace kglink::kg

#endif  // KGLINK_KG_KNOWLEDGE_GRAPH_H_
