#include "kg/knowledge_graph.h"

#include <algorithm>
#include <numeric>

#include "util/csv.h"
#include "util/string_util.h"

namespace kglink::kg {

struct KnowledgeGraph::OwnedTopology {
  std::vector<uint64_t> edge_offsets;
  std::vector<Edge> edges;
  std::vector<uint64_t> neighbor_offsets;
  std::vector<EntityId> neighbors;
  std::vector<EntityId> qid_sorted;
  std::vector<EntityId> label_sorted;
};

KnowledgeGraph::KnowledgeGraph() {
  PredicateId inst = AddPredicate("instance of");
  PredicateId sub = AddPredicate("subclass of");
  KGLINK_CHECK_EQ(inst, kInstanceOf);
  KGLINK_CHECK_EQ(sub, kSubclassOf);
}

EntityId KnowledgeGraph::AddEntity(Entity entity) {
  KGLINK_CHECK(!frozen_) << "AddEntity on a frozen graph";
  entities_.push_back(std::move(entity));
  return static_cast<EntityId>(entities_.size() - 1);
}

PredicateId KnowledgeGraph::AddPredicate(const std::string& label) {
  KGLINK_CHECK(!frozen_) << "AddPredicate on a frozen graph";
  predicate_labels_.push_back(label);
  return static_cast<PredicateId>(predicate_labels_.size() - 1);
}

void KnowledgeGraph::AddTriple(EntityId subject, PredicateId predicate,
                               EntityId object) {
  KGLINK_CHECK(!frozen_) << "AddTriple on a frozen graph";
  KGLINK_CHECK(subject >= 0 && subject < num_entities());
  KGLINK_CHECK(object >= 0 && object < num_entities());
  KGLINK_CHECK(predicate >= 0 && predicate < num_predicates());
  triples_.push_back({subject, predicate, object});
  ++num_triples_;
}

Status KnowledgeGraph::Finalize() {
  KGLINK_CHECK(!frozen_) << "Finalize on a frozen graph";
  const size_t n = entities_.size();
  auto t = std::make_shared<OwnedTopology>();

  // Lookup indexes first: a duplicate qid leaves the graph unfrozen.
  for (size_t i = 0; i < n; ++i) {
    if (!entities_[i].qid.empty()) {
      t->qid_sorted.push_back(static_cast<EntityId>(i));
    }
  }
  auto qid_of = [this](EntityId id) -> const std::string& {
    return entities_[static_cast<size_t>(id)].qid;
  };
  std::sort(t->qid_sorted.begin(), t->qid_sorted.end(),
            [&](EntityId a, EntityId b) { return qid_of(a) < qid_of(b); });
  auto dup = std::adjacent_find(
      t->qid_sorted.begin(), t->qid_sorted.end(),
      [&](EntityId a, EntityId b) { return qid_of(a) == qid_of(b); });
  if (dup != t->qid_sorted.end()) {
    return Status::Corruption("duplicate qid " + qid_of(*dup));
  }
  t->label_sorted.resize(n);
  std::iota(t->label_sorted.begin(), t->label_sorted.end(), 0);
  std::sort(t->label_sorted.begin(), t->label_sorted.end(),
            [this](EntityId a, EntityId b) {
              const std::string& la = entities_[static_cast<size_t>(a)].label;
              const std::string& lb = entities_[static_cast<size_t>(b)].label;
              return la != lb ? la < lb : a < b;
            });

  // Edges: a counting sort by entity that keeps each entity's edges in
  // triple insertion order (subject side before object side).
  t->edge_offsets.assign(n + 1, 0);
  for (const Triple& tr : triples_) {
    ++t->edge_offsets[static_cast<size_t>(tr.subject) + 1];
    ++t->edge_offsets[static_cast<size_t>(tr.object) + 1];
  }
  for (size_t i = 0; i < n; ++i) t->edge_offsets[i + 1] += t->edge_offsets[i];
  t->edges.resize(t->edge_offsets[n]);
  std::vector<uint64_t> cursor(t->edge_offsets.begin(),
                               t->edge_offsets.end() - 1);
  for (const Triple& tr : triples_) {
    t->edges[cursor[static_cast<size_t>(tr.subject)]++] = {
        tr.predicate, tr.object, /*forward=*/true};
    t->edges[cursor[static_cast<size_t>(tr.object)]++] = {
        tr.predicate, tr.subject, /*forward=*/false};
  }
  triples_ = {};

  // Neighbours: each entity's edge targets, sorted and deduplicated.
  t->neighbor_offsets.reserve(n + 1);
  t->neighbors.reserve(t->edges.size());
  for (size_t i = 0; i < n; ++i) {
    const size_t begin = t->neighbors.size();
    t->neighbor_offsets.push_back(begin);
    for (uint64_t e = t->edge_offsets[i]; e < t->edge_offsets[i + 1]; ++e) {
      t->neighbors.push_back(t->edges[e].target);
    }
    auto first = t->neighbors.begin() + static_cast<std::ptrdiff_t>(begin);
    std::sort(first, t->neighbors.end());
    t->neighbors.erase(std::unique(first, t->neighbors.end()),
                       t->neighbors.end());
  }
  t->neighbor_offsets.push_back(t->neighbors.size());

  topo_.num_entities = n;
  topo_.edges = t->edges.data();
  topo_.edge_offsets = t->edge_offsets.data();
  topo_.neighbors = t->neighbors.data();
  topo_.neighbor_offsets = t->neighbor_offsets.data();
  topo_.qid_sorted = t->qid_sorted.data();
  topo_.qid_sorted_count = t->qid_sorted.size();
  topo_.label_sorted = t->label_sorted.data();
  owned_ = std::move(t);
  BuildPersonOrDateFlags();
  frozen_ = true;
  return Status::Ok();
}

FrozenTopologyView KnowledgeGraph::View() const {
  CheckFrozen();
  return topo_;
}

KnowledgeGraph KnowledgeGraph::FromFrozen(
    std::vector<Entity> entities, std::vector<std::string> predicate_labels,
    int64_t num_triples, const FrozenTopologyView& topo) {
  KGLINK_CHECK_EQ(static_cast<int64_t>(topo.num_entities),
                  static_cast<int64_t>(entities.size()));
  KGLINK_CHECK(predicate_labels.size() >= 2 &&
               predicate_labels[0] == "instance of" &&
               predicate_labels[1] == "subclass of")
      << "frozen predicate table missing the built-in predicates";
  KnowledgeGraph kg;
  kg.predicate_labels_ = std::move(predicate_labels);
  kg.entities_ = std::move(entities);
  kg.num_triples_ = num_triples;
  kg.topo_ = topo;
  kg.BuildPersonOrDateFlags();
  kg.frozen_ = true;
  return kg;
}

void KnowledgeGraph::CheckFrozen() const {
  KGLINK_CHECK(frozen_) << "read of a KnowledgeGraph before Finalize()";
}

void KnowledgeGraph::BuildPersonOrDateFlags() {
  person_or_date_.resize(entities_.size());
  for (size_t i = 0; i < entities_.size(); ++i) {
    person_or_date_[i] = entities_[i].is_person || entities_[i].is_date;
  }
}

const Entity& KnowledgeGraph::entity(EntityId id) const {
  KGLINK_CHECK(id >= 0 && id < num_entities()) << "bad entity id " << id;
  return entities_[static_cast<size_t>(id)];
}

const std::string& KnowledgeGraph::predicate_label(PredicateId id) const {
  KGLINK_CHECK(id >= 0 && id < num_predicates());
  return predicate_labels_[static_cast<size_t>(id)];
}

EntityId KnowledgeGraph::FindByQid(const std::string& qid) const {
  CheckFrozen();
  if (qid.empty()) return kInvalidEntity;  // empty qids are never indexed
  const EntityId* end = topo_.qid_sorted + topo_.qid_sorted_count;
  const EntityId* it = std::lower_bound(
      topo_.qid_sorted, end, qid, [this](EntityId id, const std::string& q) {
        return entities_[static_cast<size_t>(id)].qid < q;
      });
  if (it != end && entities_[static_cast<size_t>(*it)].qid == qid) return *it;
  return kInvalidEntity;
}

std::vector<EntityId> KnowledgeGraph::FindByLabel(
    const std::string& label) const {
  CheckFrozen();
  const EntityId* end = topo_.label_sorted + entities_.size();
  const EntityId* lo = std::lower_bound(
      topo_.label_sorted, end, label,
      [this](EntityId id, const std::string& l) {
        return entities_[static_cast<size_t>(id)].label < l;
      });
  std::vector<EntityId> out;
  // Ties sort by id, so matches come out in id order.
  for (; lo != end && entities_[static_cast<size_t>(*lo)].label == label;
       ++lo) {
    out.push_back(*lo);
  }
  return out;
}

Span<Edge> KnowledgeGraph::Edges(EntityId id) const {
  CheckFrozen();
  KGLINK_CHECK(id >= 0 && id < num_entities());
  const size_t i = static_cast<size_t>(id);
  const uint64_t begin = topo_.edge_offsets[i];
  return {topo_.edges + begin,
          static_cast<size_t>(topo_.edge_offsets[i + 1] - begin)};
}

Span<EntityId> KnowledgeGraph::NeighborSet(EntityId id) const {
  CheckFrozen();
  KGLINK_CHECK(id >= 0 && id < num_entities());
  const size_t i = static_cast<size_t>(id);
  const uint64_t begin = topo_.neighbor_offsets[i];
  return {topo_.neighbors + begin,
          static_cast<size_t>(topo_.neighbor_offsets[i + 1] - begin)};
}

bool KnowledgeGraph::IsNeighbor(EntityId id, EntityId candidate) const {
  Span<EntityId> nbrs = NeighborSet(id);
  return std::binary_search(nbrs.begin(), nbrs.end(), candidate);
}

std::vector<EntityId> KnowledgeGraph::InstanceTypes(EntityId id) const {
  std::vector<EntityId> out;
  for (const Edge& e : Edges(id)) {
    if (e.forward && e.predicate == kInstanceOf) out.push_back(e.target);
  }
  return out;
}

std::vector<EntityId> KnowledgeGraph::SuperClasses(EntityId id) const {
  std::vector<EntityId> out;
  std::vector<EntityId> frontier = {id};
  std::vector<bool> seen(static_cast<size_t>(num_entities()), false);
  seen[static_cast<size_t>(id)] = true;
  while (!frontier.empty()) {
    EntityId cur = frontier.back();
    frontier.pop_back();
    for (const Edge& e : Edges(cur)) {
      if (e.forward && e.predicate == kSubclassOf &&
          !seen[static_cast<size_t>(e.target)]) {
        seen[static_cast<size_t>(e.target)] = true;
        out.push_back(e.target);
        frontier.push_back(e.target);
      }
    }
  }
  return out;
}

bool KnowledgeGraph::IsSubtypeOf(EntityId a, EntityId b) const {
  if (a == b) return true;
  for (EntityId super : SuperClasses(a)) {
    if (super == b) return true;
  }
  return false;
}

// ----- persistence -----
//
// Format (TSV, one record per line):
//   E <qid> <label> <flags TPD-> <description> <alias1;alias2;...>
//   P <label>                       (predicates beyond the two built-ins)
//   T <subject-id> <predicate-id> <object-id>

Status KnowledgeGraph::SaveToFile(const std::string& path) const {
  std::string out;
  for (PredicateId p = 2; p < num_predicates(); ++p) {
    out += "P\t" + predicate_labels_[static_cast<size_t>(p)] + "\n";
  }
  for (const Entity& e : entities_) {
    std::string flags;
    if (e.is_type) flags += 'T';
    if (e.is_person) flags += 'P';
    if (e.is_date) flags += 'D';
    if (flags.empty()) flags = "-";
    out += "E\t" + e.qid + "\t" + e.label + "\t" + flags + "\t" +
           e.description + "\t" + Join(e.aliases, ";") + "\n";
  }
  for (EntityId s = 0; s < num_entities(); ++s) {
    for (const Edge& e : Edges(s)) {
      if (!e.forward) continue;
      out += "T\t" + std::to_string(s) + "\t" + std::to_string(e.predicate) +
             "\t" + std::to_string(e.target) + "\n";
    }
  }
  return WriteFile(path, out);
}

StatusOr<KnowledgeGraph> KnowledgeGraph::LoadFromFile(
    const std::string& path) {
  KGLINK_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  KnowledgeGraph kg;
  for (const auto& line : Split(text, '\n')) {
    if (line.empty()) continue;
    auto fields = Split(line, '\t');
    if (fields[0] == "P") {
      if (fields.size() != 2) return Status::Corruption("bad P record");
      kg.AddPredicate(fields[1]);
    } else if (fields[0] == "E") {
      if (fields.size() != 6) return Status::Corruption("bad E record");
      Entity e;
      e.qid = fields[1];
      e.label = fields[2];
      e.is_type = fields[3].find('T') != std::string::npos;
      e.is_person = fields[3].find('P') != std::string::npos;
      e.is_date = fields[3].find('D') != std::string::npos;
      e.description = fields[4];
      if (!fields[5].empty()) e.aliases = Split(fields[5], ';');
      kg.AddEntity(std::move(e));
    } else if (fields[0] == "T") {
      if (fields.size() != 4) return Status::Corruption("bad T record");
      EntityId s = 0, o = 0;
      PredicateId p = 0;
      if (!ParseNonNegativeInt(fields[1], &s) ||
          !ParseNonNegativeInt(fields[2], &p) ||
          !ParseNonNegativeInt(fields[3], &o)) {
        return Status::Corruption("bad T record: " + line);
      }
      if (s >= kg.num_entities() || o >= kg.num_entities() ||
          p >= kg.num_predicates()) {
        return Status::Corruption("triple references unknown id");
      }
      kg.AddTriple(s, p, o);
    } else {
      return Status::Corruption("unknown record type: " + fields[0]);
    }
  }
  KGLINK_RETURN_IF_ERROR(kg.Finalize());
  return kg;
}

}  // namespace kglink::kg
