// Part-1 pipeline tests: BM25 cell linking, Eq. 3 pruning, Eq. 4-6 scores,
// row filtering, candidate-type generation with the PERSON/DATE filter,
// and feature sequences — on a hand-built KG where the right answers are
// known exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "data/corpus_gen.h"
#include "data/world.h"
#include "linker/candidate_types.h"
#include "linker/entity_linker.h"
#include "linker/feature_sequence.h"
#include "linker/pipeline.h"
#include "linker/row_filter.h"
#include "robust/fault_injector.h"
#include "search/search_engine.h"
#include "store/snapshot.h"
#include "store/snapshot_writer.h"

namespace kglink::linker {
namespace {

// Fixture world: two musicians with albums (Fig. 5's scenario).
//   peter "Peter Steele" --instance of--> human(person type, but entity
//     flagged person)  --performer of--> rust
//   rust "Rust" --instance of--> album_type
//   decoy "Rust" (no edges) -- linking ambiguity
//   mia "Mia Torv" --performer of--> echo "Echo"
class LinkerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    human_ = kg_.AddEntity({"T1", "human", {}, "", true, false, false});
    musician_ = kg_.AddEntity({"T2", "musician", {}, "", true, false, false});
    album_type_ = kg_.AddEntity({"T3", "album", {}, "", true, false, false});
    peter_ = kg_.AddEntity(
        {"Q1", "Peter Steele", {}, "", false, true, false});
    rust_ = kg_.AddEntity({"Q2", "Rust", {}, "", false, false, false});
    decoy_rust_ = kg_.AddEntity({"Q3", "Rust", {}, "", false, false, false});
    mia_ = kg_.AddEntity({"Q4", "Mia Torv", {}, "", false, true, false});
    echo_ = kg_.AddEntity({"Q5", "Echo", {}, "", false, false, false});
    performer_ = kg_.AddPredicate("performer");
    kg_.AddTriple(peter_, kg::KnowledgeGraph::kInstanceOf, human_);
    kg_.AddTriple(peter_, kg::KnowledgeGraph::kInstanceOf, musician_);
    kg_.AddTriple(mia_, kg::KnowledgeGraph::kInstanceOf, musician_);
    kg_.AddTriple(rust_, kg::KnowledgeGraph::kInstanceOf, album_type_);
    kg_.AddTriple(echo_, kg::KnowledgeGraph::kInstanceOf, album_type_);
    kg_.AddTriple(rust_, performer_, peter_);
    kg_.AddTriple(echo_, performer_, mia_);
    ASSERT_TRUE(kg_.Finalize().ok());
    engine_ = std::make_unique<search::SearchEngine>(
        search::IndexKnowledgeGraph(kg_));
    // Fig. 5 table: album | artist.
    tbl_ = table::Table::FromStrings(
        "fig5", {{"Rust", "Peter Steele"}, {"Echo", "Mia Torv"}});
  }

  LinkerConfig config_;
  kg::KnowledgeGraph kg_;
  kg::EntityId human_, musician_, album_type_, peter_, rust_, decoy_rust_,
      mia_, echo_;
  kg::PredicateId performer_;
  std::unique_ptr<search::SearchEngine> engine_;
  table::Table tbl_;
};

TEST_F(LinkerFixture, NumberAndDateCellsGetZeroScore) {
  EntityLinker linker(&kg_, engine_.get(), config_);
  table::Cell number{"1993", table::CellKind::kNumber, 1993};
  CellLinks links = linker.LinkCell(number);
  EXPECT_FALSE(links.linkable);
  EXPECT_TRUE(links.retrieved.empty());
  EXPECT_EQ(links.score, 0.0);
  table::Cell date{"1993-05-01", table::CellKind::kDate, 0};
  EXPECT_FALSE(linker.LinkCell(date).linkable);
}

TEST_F(LinkerFixture, LinkCellRetrievesBothRustEntities) {
  EntityLinker linker(&kg_, engine_.get(), config_);
  table::Cell cell{"Rust", table::CellKind::kString, 0};
  CellLinks links = linker.LinkCell(cell);
  ASSERT_EQ(links.retrieved.size(), 2u);
  std::set<kg::EntityId> ids = {links.retrieved[0].entity,
                                links.retrieved[1].entity};
  EXPECT_TRUE(ids.count(rust_));
  EXPECT_TRUE(ids.count(decoy_rust_));
}

TEST_F(LinkerFixture, OverlapPruningDropsTheDecoy) {
  // Fig. 5's red link: Rust--performer--Peter Steele means only the real
  // Rust survives pruning, because the decoy has no neighbours in the
  // other column's retrieved set.
  EntityLinker linker(&kg_, engine_.get(), config_);
  RowLinks row = linker.LinkRow(tbl_, 0);
  const CellLinks& album_cell = row.cells[0];
  ASSERT_EQ(album_cell.pruned.size(), 1u);
  EXPECT_EQ(album_cell.pruned[0].entity, rust_);
  EXPECT_GT(album_cell.pruned[0].overlap_score, 0.0);
  const CellLinks& artist_cell = row.cells[1];
  ASSERT_EQ(artist_cell.pruned.size(), 1u);
  EXPECT_EQ(artist_cell.pruned[0].entity, peter_);
  // Row score = sum of max pruned linking scores (Eq. 4-5).
  EXPECT_NEAR(row.row_score, album_cell.score + artist_cell.score, 1e-9);
  EXPECT_GT(row.row_score, 0.0);
}

TEST_F(LinkerFixture, RowFilterOrdersByScore) {
  LinkerConfig config;
  config.top_k_rows = 2;
  std::vector<double> scores = {0.5, 3.0, 1.0, 2.0};
  auto kept = FilterRows(scores, config);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], 1);
  EXPECT_EQ(kept[1], 3);
  config.row_filter_mode = RowFilterMode::kOriginalOrder;
  kept = FilterRows(scores, config);
  EXPECT_EQ(kept[0], 0);
  EXPECT_EQ(kept[1], 1);
}

TEST_F(LinkerFixture, RowFilterAllModeCaps) {
  LinkerConfig config;
  config.top_k_rows = 0;  // "all"
  config.max_rows_cap = 3;
  std::vector<double> scores = {1, 2, 3, 4, 5};
  EXPECT_EQ(FilterRows(scores, config).size(), 3u);
}

TEST_F(LinkerFixture, CandidateTypesVoteAcrossRows) {
  EntityLinker linker(&kg_, engine_.get(), config_);
  std::vector<RowLinks> rows = {linker.LinkRow(tbl_, 0),
                                linker.LinkRow(tbl_, 1)};
  // Artist column: 'musician' is a one-hop neighbour (instance of) of both
  // Peter and Mia -> corroborated across 2 rows.
  auto artist_types = GenerateCandidateTypes(kg_, rows, 1, config_);
  ASSERT_FALSE(artist_types.empty());
  EXPECT_EQ(artist_types[0].entity, musician_);
  // Album column: 'album' type from both Rust and Echo.
  auto album_types = GenerateCandidateTypes(kg_, rows, 0, config_);
  ASSERT_FALSE(album_types.empty());
  EXPECT_EQ(album_types[0].entity, album_type_);
}

TEST_F(LinkerFixture, PersonEntitiesFilteredFromCandidateTypes) {
  EntityLinker linker(&kg_, engine_.get(), config_);
  std::vector<RowLinks> rows = {linker.LinkRow(tbl_, 0),
                                linker.LinkRow(tbl_, 1)};
  for (int col = 0; col < 2; ++col) {
    for (const auto& ct : GenerateCandidateTypes(kg_, rows, col, config_)) {
      EXPECT_FALSE(kg_.entity(ct.entity).is_person)
          << kg_.entity(ct.entity).label;
    }
  }
}

TEST_F(LinkerFixture, SingleRowYieldsNoCandidateTypes) {
  // Eq. 8's corroboration requirement: one row cannot vote alone.
  EntityLinker linker(&kg_, engine_.get(), config_);
  std::vector<RowLinks> rows = {linker.LinkRow(tbl_, 0)};
  EXPECT_TRUE(GenerateCandidateTypes(kg_, rows, 0, config_).empty());
}

TEST_F(LinkerFixture, FeatureSequenceSerializesNeighbourhood) {
  std::string s = SerializeFeatureSequence(kg_, peter_, config_);
  EXPECT_NE(s.find("Peter Steele"), std::string::npos);
  EXPECT_NE(s.find("instance of"), std::string::npos);
  EXPECT_NE(s.find("musician"), std::string::npos);
  EXPECT_NE(s.find("performer"), std::string::npos);
}

TEST_F(LinkerFixture, FeatureSequenceRespectsEdgeBudget) {
  LinkerConfig config;
  config.max_feature_edges = 1;
  std::string s = SerializeFeatureSequence(kg_, peter_, config);
  // Only one " | " separator section.
  size_t first = s.find(" | ");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(s.find(" | ", first + 3), std::string::npos);
}

TEST_F(LinkerFixture, SelectFeatureEntityFallsBackToRetrieved) {
  // A single-column table: pruning removes everything (no other columns),
  // but retrieval still supplies the feature entity.
  table::Table single = table::Table::FromStrings("s", {{"Rust"}});
  EntityLinker linker(&kg_, engine_.get(), config_);
  std::vector<RowLinks> rows = {linker.LinkRow(single, 0)};
  EXPECT_TRUE(rows[0].cells[0].pruned.empty());
  kg::EntityId id = SelectFeatureEntity(rows, 0);
  EXPECT_NE(id, kg::kInvalidEntity);
}

TEST_F(LinkerFixture, PipelineEndToEnd) {
  KgPipeline pipeline(&kg_, engine_.get(), config_);
  ProcessedTable pt = pipeline.Process(tbl_);
  EXPECT_EQ(pt.filtered.num_rows(), 2);
  EXPECT_EQ(pt.columns.size(), 2u);
  EXPECT_FALSE(pt.columns[0].is_numeric);
  ASSERT_FALSE(pt.columns[1].candidate_types.empty());
  EXPECT_EQ(pt.columns[1].candidate_type_labels[0], "musician");
  EXPECT_TRUE(pt.columns[0].has_feature);
  EXPECT_TRUE(pt.columns[1].has_feature);
}

TEST_F(LinkerFixture, PipelineNumericColumnGetsStatsNotLinks) {
  table::Table t = table::Table::FromStrings(
      "nums", {{"Rust", "10"}, {"Echo", "20"}, {"Rust", "30"}});
  KgPipeline pipeline(&kg_, engine_.get(), config_);
  ProcessedTable pt = pipeline.Process(t);
  ASSERT_EQ(pt.columns.size(), 2u);
  EXPECT_TRUE(pt.columns[1].is_numeric);
  EXPECT_FALSE(pt.columns[1].has_feature);
  EXPECT_TRUE(pt.columns[1].candidate_types.empty());
  EXPECT_DOUBLE_EQ(pt.columns[1].stats.mean, 20.0);
  EXPECT_DOUBLE_EQ(pt.columns[1].stats.median, 20.0);
}

TEST_F(LinkerFixture, PipelineTopKLimitsRows) {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({"Rust", "Peter Steele"});
  table::Table t = table::Table::FromStrings("big", rows);
  LinkerConfig config;
  config.top_k_rows = 4;
  KgPipeline pipeline(&kg_, engine_.get(), config);
  ProcessedTable pt = pipeline.Process(t);
  EXPECT_EQ(pt.filtered.num_rows(), 4);
  EXPECT_EQ(pt.kept_rows.size(), 4u);
  EXPECT_EQ(pt.row_links.size(), 4u);
}

TEST_F(LinkerFixture, UnlinkableTableHasNoKgInfo) {
  table::Table t = table::Table::FromStrings(
      "none", {{"Zzyx Qwfp", "Vbnm Hjkl"}, {"Qqq Www", "Rrr Ttt"}});
  KgPipeline pipeline(&kg_, engine_.get(), config_);
  ProcessedTable pt = pipeline.Process(t);
  for (const auto& col : pt.columns) {
    EXPECT_TRUE(col.candidate_types.empty());
    EXPECT_FALSE(col.has_feature);
  }
}

TEST_F(LinkerFixture, DegradedLinkRowIsPaddedToFullWidth) {
  // Regression: a context that degrades mid-row used to return a RowLinks
  // with fewer cells than the table has columns, and
  // GenerateCandidateTypes indexed cells[col] out of bounds. With every
  // search.topk attempt failing, the context degrades at the first cell;
  // the row must still span all columns, padded unlinkable.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:1.0", 42)
                  .ok());
  EntityLinker linker(&kg_, engine_.get(), config_);
  robust::TableOpContext ctx(config_.retry, config_.fault_budget,
                             /*jitter_seed=*/1);
  RowLinks row = linker.LinkRow(tbl_, 0);
  RowLinks degraded = linker.LinkRow(tbl_, 0, &ctx);
  robust::FaultInjector::Global().Disable();
  ASSERT_TRUE(ctx.degraded());
  ASSERT_EQ(degraded.cells.size(), static_cast<size_t>(tbl_.num_cols()));
  for (const CellLinks& cell : degraded.cells) {
    EXPECT_TRUE(cell.retrieved.empty());
    EXPECT_TRUE(cell.pruned.empty());
  }
  // Downstream consumers index cells[col] per column: the padded row must
  // be safe for every column (this crashed / was UB before the fix).
  std::vector<RowLinks> rows = {degraded, row};
  for (int c = 0; c < tbl_.num_cols(); ++c) {
    auto types = GenerateCandidateTypes(kg_, rows, c, config_);
    (void)types;
  }
}

TEST_F(LinkerFixture, CandidateTypesTolerateShortRows) {
  // Belt-and-braces for the same bug: even a hand-built short row (as a
  // hypothetical future caller might produce) must not read out of
  // bounds — missing cells count as unlinked.
  EntityLinker linker(&kg_, engine_.get(), config_);
  RowLinks full = linker.LinkRow(tbl_, 0);
  RowLinks short_row;
  short_row.cells.resize(1);
  // Column 1 is past the short row's width; column 0 still aggregates the
  // two full rows (two distinct supporting rows, as Eq. 8 requires).
  std::vector<RowLinks> rows = {short_row, full, full};
  auto artist_types = GenerateCandidateTypes(kg_, rows, /*col=*/1, config_);
  EXPECT_FALSE(artist_types.empty());
  auto album_types = GenerateCandidateTypes(kg_, rows, /*col=*/0, config_);
  ASSERT_FALSE(album_types.empty());
  EXPECT_EQ(album_types[0].entity, album_type_);
  // The pipeline picks the feature entity from the same rows: it skips the
  // short row's missing cells in both of its passes.
  EXPECT_EQ(SelectFeatureEntity(rows, /*col=*/1), peter_);
  std::vector<RowLinks> only_short = {short_row};
  EXPECT_EQ(SelectFeatureEntity(only_short, /*col=*/1), kg::kInvalidEntity);
}

TEST_F(LinkerFixture, NonAsciiLabelsLinkEndToEnd) {
  // Regression for the ASCII-only tokenizer: accented and CJK labels used
  // to tokenize to nothing, making their cells silently unlinkable.
  kg::KnowledgeGraph kg;
  kg::EntityId city_type =
      kg.AddEntity({"T1", "city", {}, "", true, false, false});
  kg::EntityId koeln =
      kg.AddEntity({"Q1", "Köln", {"Cologne"}, "", false, false, false});
  kg::EntityId tokyo =
      kg.AddEntity({"Q2", "東京", {"Tokyo"}, "", false, false, false});
  kg::EntityId rhine =
      kg.AddEntity({"Q3", "Rhein", {}, "", false, false, false});
  kg::EntityId sumida =
      kg.AddEntity({"Q4", "隅田川", {"Sumida"}, "", false, false, false});
  kg::PredicateId river = kg.AddPredicate("river");
  kg.AddTriple(koeln, kg::KnowledgeGraph::kInstanceOf, city_type);
  kg.AddTriple(tokyo, kg::KnowledgeGraph::kInstanceOf, city_type);
  kg.AddTriple(koeln, river, rhine);
  kg.AddTriple(tokyo, river, sumida);
  ASSERT_TRUE(kg.Finalize().ok());
  search::SearchEngine engine = search::IndexKnowledgeGraph(kg);

  EntityLinker linker(&kg, &engine, config_);
  table::Cell koeln_cell{"Köln", table::CellKind::kString, 0};
  CellLinks links = linker.LinkCell(koeln_cell);
  ASSERT_FALSE(links.retrieved.empty());
  EXPECT_EQ(links.retrieved[0].entity, koeln);

  // Whole-row linking with the overlap pruning, all through non-ASCII
  // mentions: city column | river column.
  table::Table t = table::Table::FromStrings(
      "cities", {{"Köln", "Rhein"}, {"東京", "隅田川"}});
  RowLinks row0 = linker.LinkRow(t, 0);
  ASSERT_EQ(row0.cells.size(), 2u);
  ASSERT_FALSE(row0.cells[0].pruned.empty());
  EXPECT_EQ(row0.cells[0].pruned[0].entity, koeln);
  RowLinks row1 = linker.LinkRow(t, 1);
  ASSERT_FALSE(row1.cells[0].pruned.empty());
  EXPECT_EQ(row1.cells[0].pruned[0].entity, tokyo);
}


// The map-based Eq. 3/6 step LinkRow ran before it counted overlap support
// by binary search: every live candidate's neighbours go into a per-column
// multiset, then each candidate is looked up in the other columns' sets.
// It reads "cand is a neighbour of a candidate in another column" straight
// off the paper, with no reliance on neighbour symmetry, which makes it
// the oracle for the lookup version.
RowLinks NeighbourMapOracleLinkRow(const kg::KnowledgeGraph& kg,
                                   const EntityLinker& linker,
                                   const table::Table& table, int row,
                                   robust::TableOpContext* ctx) {
  RowLinks out;
  int cols = table.num_cols();
  for (int c = 0; c < cols; ++c) {
    out.cells.push_back(linker.LinkCell(table.at(row, c), ctx));
    if (ctx != nullptr && ctx->degraded()) {
      out.cells.resize(static_cast<size_t>(cols));
      return out;
    }
  }
  std::vector<std::unordered_map<kg::EntityId, int>> neighbor_counts(
      static_cast<size_t>(cols));
  for (int c = 0; c < cols; ++c) {
    for (const EntityCandidate& cand :
         out.cells[static_cast<size_t>(c)].retrieved) {
      if (ctx != nullptr &&
          ctx->SoftFault(robust::FaultSite::kKgNeighbors)) {
        continue;
      }
      for (kg::EntityId nbr : kg.NeighborSet(cand.entity)) {
        ++neighbor_counts[static_cast<size_t>(c)][nbr];
      }
    }
  }
  for (int c1 = 0; c1 < cols; ++c1) {
    CellLinks& cell = out.cells[static_cast<size_t>(c1)];
    for (const EntityCandidate& cand : cell.retrieved) {
      int support = 0;
      for (int c2 = 0; c2 < cols; ++c2) {
        if (c2 == c1) continue;
        auto it = neighbor_counts[static_cast<size_t>(c2)].find(cand.entity);
        if (it != neighbor_counts[static_cast<size_t>(c2)].end()) {
          support += it->second;
        }
      }
      if (support > 0) {
        EntityCandidate pruned = cand;
        pruned.overlap_score = static_cast<double>(support);
        cell.pruned.push_back(pruned);
      }
    }
    for (const EntityCandidate& cand : cell.pruned) {
      cell.score = std::max(cell.score, cand.linking_score);
    }
    out.row_score += cell.score;
  }
  return out;
}

void ExpectSameCandidates(const std::vector<EntityCandidate>& got,
                          const std::vector<EntityCandidate>& want,
                          const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].entity, want[i].entity) << where << " #" << i;
    EXPECT_EQ(got[i].linking_score, want[i].linking_score)
        << where << " #" << i;
    EXPECT_EQ(got[i].overlap_score, want[i].overlap_score)
        << where << " #" << i;
  }
}

// Bit-identical, doubles included: both sides add the same integers and
// take the max of the same BM25 scores in the same order.
void ExpectSameRowLinks(const RowLinks& got, const RowLinks& want,
                        const std::string& where) {
  EXPECT_EQ(got.row_score, want.row_score) << where;
  ASSERT_EQ(got.cells.size(), want.cells.size()) << where;
  for (size_t c = 0; c < got.cells.size(); ++c) {
    std::string cell_where = where + " col " + std::to_string(c);
    EXPECT_EQ(got.cells[c].linkable, want.cells[c].linkable) << cell_where;
    EXPECT_EQ(got.cells[c].score, want.cells[c].score) << cell_where;
    ExpectSameCandidates(got.cells[c].retrieved, want.cells[c].retrieved,
                         cell_where + " retrieved");
    ExpectSameCandidates(got.cells[c].pruned, want.cells[c].pruned,
                         cell_where + " pruned");
  }
}

double TotalOverlap(const RowLinks& row) {
  double total = 0.0;
  for (const CellLinks& cell : row.cells) {
    for (const EntityCandidate& cand : cell.pruned) {
      total += cand.overlap_score;
    }
  }
  return total;
}

TEST(LinkerTest, OverlapMatchesNeighbourMapOracle) {
  // SemTab-like tables of 100-200 rows over a world with same-label decoys,
  // so pruning has ambiguous candidates to drop.
  data::WorldConfig world_config;
  world_config.seed = 5;
  world_config.open_class_scale = 20.0;
  world_config.duplicate_entity_prob = 0.2;
  data::World world = data::GenerateWorld(world_config);
  search::SearchEngine engine = search::IndexKnowledgeGraph(world.kg);
  data::CorpusOptions options = data::CorpusOptions::SemTabDefaults(16, 17);
  options.min_rows = 100;
  options.max_rows = 200;
  // The generator shortens a table whose anchor class has fewer entities
  // than the drawn row count; keep only the full-length ones.
  std::vector<table::Table> tables;
  for (table::LabeledTable& lt : data::GenerateSemTabCorpus(world, options)
                                     .tables) {
    if (lt.table.num_rows() >= 100) tables.push_back(std::move(lt.table));
  }
  ASSERT_GE(tables.size(), 5u);

  LinkerConfig config;
  EntityLinker linker(&world.kg, &engine, config);
  struct FaultsOff {
    ~FaultsOff() { robust::FaultInjector::Global().Disable(); }
  } faults_off;
  int64_t rows = 0;
  int64_t pruned = 0;
  int64_t rows_changed_by_faults = 0;
  for (const char* spec : {"", "kg.neighbors:0.3"}) {
    bool faults = spec[0] != '\0';
    if (faults) {
      ASSERT_TRUE(robust::FaultInjector::Global()
                      .ConfigureFromSpec(spec, /*seed=*/1234)
                      .ok());
    }
    for (size_t t = 0; t < tables.size(); ++t) {
      const table::Table& table = tables[t];
      for (int r = 0; r < table.num_rows(); ++r) {
        // Two contexts on the same request stream draw the same faults.
        RequestContext rc;
        rc.stream_key = t * 1000 + static_cast<uint64_t>(r);
        robust::TableOpContext got_ctx(config.retry, config.fault_budget,
                                       /*jitter_seed=*/1, &rc);
        robust::TableOpContext want_ctx(config.retry, config.fault_budget,
                                        /*jitter_seed=*/1, &rc);
        RowLinks got = linker.LinkRow(table, r, &got_ctx);
        RowLinks want =
            NeighbourMapOracleLinkRow(world.kg, linker, table, r, &want_ctx);
        std::string where = std::string(faults ? "faults" : "clean") +
                            " table " + std::to_string(t) + " row " +
                            std::to_string(r);
        ExpectSameRowLinks(got, want, where);
        if (faults) {
          RowLinks clean = linker.LinkRow(table, r);
          rows_changed_by_faults += TotalOverlap(clean) != TotalOverlap(got);
        } else {
          ++rows;
          for (const CellLinks& cell : got.cells) {
            pruned += static_cast<int64_t>(cell.pruned.size());
          }
        }
      }
    }
  }
  // Not vacuous: the clean pass kept candidates, and the fault pass
  // actually changed some rows' support.
  EXPECT_GT(pruned, rows);
  EXPECT_GT(rows_changed_by_faults, 0);
}


// The hash-map Eq. 7-8 step GenerateCandidateTypes ran before it moved to
// an open-addressed accumulator: one unordered_map of {score, row set} per
// column, the PERSON/DATE tags read off each Entity, then a full sort. It
// is the oracle for the accumulator. `skipped`, when set, counts the
// neighbour visits the label filter dropped.
std::vector<CandidateType> HashMapOracleCandidateTypes(
    const kg::KnowledgeGraph& kg, const std::vector<RowLinks>& row_links,
    int col, const LinkerConfig& config, int64_t* skipped = nullptr) {
  struct Accum {
    double score = 0.0;
    std::unordered_set<int> rows;
  };
  std::unordered_map<kg::EntityId, Accum> accum;
  for (size_t r = 0; r < row_links.size(); ++r) {
    if (static_cast<size_t>(col) >= row_links[r].cells.size()) continue;
    const CellLinks& cell = row_links[r].cells[static_cast<size_t>(col)];
    for (const EntityCandidate& cand : cell.pruned) {
      for (kg::EntityId ct : kg.NeighborSet(cand.entity)) {
        const kg::Entity& e = kg.entity(ct);
        if (e.is_person || e.is_date) {
          if (skipped != nullptr) ++*skipped;
          continue;
        }
        Accum& a = accum[ct];
        a.score += cand.overlap_score;
        a.rows.insert(static_cast<int>(r));
      }
    }
  }
  std::vector<CandidateType> out;
  for (const auto& [entity, a] : accum) {
    if (a.rows.size() < 2) continue;
    out.push_back({entity, a.score});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.entity < b.entity;
  });
  if (static_cast<int>(out.size()) > config.max_candidate_types) {
    out.resize(static_cast<size_t>(config.max_candidate_types));
  }
  return out;
}

void ExpectSameTypes(const std::vector<CandidateType>& got,
                     const std::vector<CandidateType>& want,
                     const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].entity, want[i].entity) << where << " #" << i;
    EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(double)), 0)
        << where << " #" << i;
  }
}

// What KgPipeline::Process must have put in column `c`, recomputed from
// its own kept rows with the oracle.
ColumnKgInfo OracleColumn(const kg::KnowledgeGraph& kg,
                          const table::Table& table,
                          const std::vector<RowLinks>& row_links, int c,
                          const LinkerConfig& config, int64_t* skipped) {
  ColumnKgInfo info;
  info.is_numeric = table.IsNumericColumn(c);
  if (info.is_numeric) {
    info.stats = table.ColumnStats(c);
    return info;
  }
  info.candidate_types =
      HashMapOracleCandidateTypes(kg, row_links, c, config, skipped);
  for (const CandidateType& ct : info.candidate_types) {
    info.candidate_type_labels.push_back(kg.entity(ct.entity).label);
  }
  kg::EntityId feature = SelectFeatureEntity(row_links, c);
  if (feature != kg::kInvalidEntity) {
    info.has_feature = true;
    info.feature_sequence = SerializeFeatureSequence(kg, feature, config);
  }
  return info;
}

void ExpectSameColumn(const ColumnKgInfo& got, const ColumnKgInfo& want,
                      const std::string& where) {
  EXPECT_EQ(got.is_numeric, want.is_numeric) << where;
  EXPECT_EQ(std::memcmp(&got.stats.mean, &want.stats.mean, sizeof(double)),
            0)
      << where;
  EXPECT_EQ(std::memcmp(&got.stats.variance, &want.stats.variance,
                        sizeof(double)),
            0)
      << where;
  EXPECT_EQ(
      std::memcmp(&got.stats.median, &want.stats.median, sizeof(double)), 0)
      << where;
  EXPECT_EQ(got.stats.count, want.stats.count) << where;
  ExpectSameTypes(got.candidate_types, want.candidate_types, where);
  EXPECT_EQ(got.candidate_type_labels, want.candidate_type_labels) << where;
  EXPECT_EQ(got.has_feature, want.has_feature) << where;
  EXPECT_EQ(got.feature_sequence, want.feature_sequence) << where;
}

TEST(LinkerTest, CandidateTypesMatchHashMapOracle) {
  // The perfbench-shaped world: open-class scale 20, same-label decoys.
  data::WorldConfig world_config;
  world_config.seed = 7;
  world_config.open_class_scale = 20.0;
  world_config.duplicate_entity_prob = 0.2;
  data::World world = data::GenerateWorld(world_config);
  search::SearchEngine engine = search::IndexKnowledgeGraph(world.kg);
  data::CorpusOptions options = data::CorpusOptions::SemTabDefaults(16, 23);
  options.min_rows = 100;
  options.max_rows = 200;
  std::vector<table::Table> tables;
  for (table::LabeledTable& lt : data::GenerateSemTabCorpus(world, options)
                                     .tables) {
    if (lt.table.num_rows() >= 100) tables.push_back(std::move(lt.table));
  }
  ASSERT_GE(tables.size(), 5u);

  // The same graph loaded back from a snapshot: its IsPersonOrDate flags
  // come from FromFrozen(), not Finalize().
  const std::string path = ::testing::TempDir() + "linker_test_ctypes.snap";
  ASSERT_TRUE(store::WriteSnapshot(path, world.kg, engine, {}).ok());
  auto snap = store::Snapshot::Open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto mapped = (*snap)->MakeKg();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_EQ(mapped->num_entities(), world.kg.num_entities());
  int64_t flagged = 0;
  for (kg::EntityId id = 0; id < world.kg.num_entities(); ++id) {
    const kg::Entity& e = mapped->entity(id);
    ASSERT_EQ(mapped->IsPersonOrDate(id), e.is_person || e.is_date) << id;
    ASSERT_EQ(world.kg.IsPersonOrDate(id), mapped->IsPersonOrDate(id)) << id;
    flagged += mapped->IsPersonOrDate(id);
  }
  EXPECT_GT(flagged, 0);

  // Every column is checked against the oracle on its own graph; the
  // mapped graph's clean columns must also equal the owned graph's.
  LinkerConfig config;
  struct FaultsOff {
    ~FaultsOff() { robust::FaultInjector::Global().Disable(); }
  } faults_off;
  std::vector<std::vector<ColumnKgInfo>> owned_clean;
  int64_t typed_columns = 0;
  int64_t truncated_columns = 0;
  int64_t skipped = 0;
  int64_t changed_by_faults = 0;
  int64_t processed = 0;
  for (const kg::KnowledgeGraph* graph : {&world.kg, &*mapped}) {
    const bool is_mapped = graph != &world.kg;
    for (const char* spec : {"", "search.topk:0.05,kg.neighbors:0.3"}) {
      const bool faults = spec[0] != '\0';
      // A fresh cell cache per pass, so the fault pass really searches.
      KgPipeline pipeline(graph, &engine, config);
      if (faults) {
        ASSERT_TRUE(robust::FaultInjector::Global()
                        .ConfigureFromSpec(spec, /*seed=*/1234)
                        .ok());
      } else {
        robust::FaultInjector::Global().Disable();
      }
      for (size_t t = 0; t < tables.size(); ++t) {
        RequestContext rc;
        rc.stream_key = t;
        ProcessedTable out = pipeline.Process(tables[t], &rc);
        ++processed;
        ASSERT_EQ(out.columns.size(),
                  static_cast<size_t>(tables[t].num_cols()));
        for (int c = 0; c < tables[t].num_cols(); ++c) {
          const std::string where =
              std::string(is_mapped ? "mapped" : "owned") +
              (faults ? " faults" : " clean") + " table " +
              std::to_string(t) + " col " + std::to_string(c);
          const ColumnKgInfo& got = out.columns[static_cast<size_t>(c)];
          ExpectSameColumn(got,
                           OracleColumn(*graph, tables[t], out.row_links, c,
                                        config, &skipped),
                           where);
          typed_columns += !got.candidate_types.empty();
          LinkerConfig uncapped = config;
          uncapped.max_candidate_types = 1 << 20;
          truncated_columns +=
              HashMapOracleCandidateTypes(*graph, out.row_links, c, uncapped)
                  .size() > got.candidate_types.size();
        }
        if (!faults && !is_mapped) {
          owned_clean.push_back(out.columns);
          continue;
        }
        for (int c = 0; c < tables[t].num_cols(); ++c) {
          const ColumnKgInfo& got = out.columns[static_cast<size_t>(c)];
          const ColumnKgInfo& clean = owned_clean[t][static_cast<size_t>(c)];
          if (faults) {
            changed_by_faults +=
                got.candidate_type_labels != clean.candidate_type_labels;
          } else {
            ExpectSameColumn(got, clean,
                             "owned vs mapped table " + std::to_string(t) +
                                 " col " + std::to_string(c));
          }
        }
      }
    }
  }
  // Not vacuous: types were kept and cut at max_candidate_types, the
  // label filter dropped visits, and the faults changed some columns.
  EXPECT_GT(typed_columns, processed);
  EXPECT_GT(truncated_columns, 0);
  EXPECT_GT(skipped, 0);
  EXPECT_GT(changed_by_faults, 0);
}

// Hand-built rows over a small graph, one pruned candidate per cell, to
// pin each rule of Eq. 8 against the oracle.
class CandidateTypeRulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 6; ++i) {
      types_.push_back(kg_.AddEntity(
          {"T" + std::to_string(i), "type" + std::to_string(i), {}, "",
           true, false, false}));
    }
    person_ = kg_.AddEntity({"P", "person", {}, "", false, true, false});
    date_ = kg_.AddEntity({"D", "date", {}, "", false, false, true});
    for (int i = 0; i < 4; ++i) {
      cands_.push_back(kg_.AddEntity({"Q" + std::to_string(i),
                                      "cand" + std::to_string(i), {}, "",
                                      false, false, false}));
    }
    // cand0..cand3 all reach type0, type1 and the person/date entities;
    // type2 and type3 are reached by cand0/cand1 only; type4 by cand2
    // only; type5 by cand0 only.
    for (kg::EntityId c : cands_) {
      kg_.AddTriple(c, kg::KnowledgeGraph::kInstanceOf, types_[0]);
      kg_.AddTriple(c, kg::KnowledgeGraph::kInstanceOf, types_[1]);
      kg_.AddTriple(c, kg::KnowledgeGraph::kInstanceOf, person_);
      kg_.AddTriple(c, kg::KnowledgeGraph::kInstanceOf, date_);
    }
    for (int i = 0; i < 2; ++i) {
      kg_.AddTriple(cands_[static_cast<size_t>(i)],
                    kg::KnowledgeGraph::kInstanceOf, types_[2]);
      kg_.AddTriple(cands_[static_cast<size_t>(i)],
                    kg::KnowledgeGraph::kInstanceOf, types_[3]);
    }
    kg_.AddTriple(cands_[2], kg::KnowledgeGraph::kInstanceOf, types_[4]);
    kg_.AddTriple(cands_[0], kg::KnowledgeGraph::kInstanceOf, types_[5]);
    ASSERT_TRUE(kg_.Finalize().ok());
  }

  // One row per (candidate, overlap score) pair, the candidate pruned in
  // column 0.
  static std::vector<RowLinks> Rows(
      const std::vector<std::pair<kg::EntityId, double>>& cells) {
    std::vector<RowLinks> rows;
    for (const auto& [entity, overlap] : cells) {
      RowLinks row;
      row.cells.resize(1);
      row.cells[0].pruned.push_back({entity, 1.0, overlap});
      rows.push_back(row);
    }
    return rows;
  }

  std::vector<CandidateType> Check(const std::vector<RowLinks>& rows,
                                   int max_types) {
    LinkerConfig config;
    config.max_candidate_types = max_types;
    std::vector<CandidateType> got =
        GenerateCandidateTypes(kg_, rows, 0, config);
    ExpectSameTypes(got,
                    HashMapOracleCandidateTypes(kg_, rows, 0, config),
                    "max " + std::to_string(max_types));
    return got;
  }

  kg::KnowledgeGraph kg_;
  std::vector<kg::EntityId> types_;
  std::vector<kg::EntityId> cands_;
  kg::EntityId person_ = kg::kInvalidEntity;
  kg::EntityId date_ = kg::kInvalidEntity;
};

TEST_F(CandidateTypeRulesTest, SingleRowSupportIsDropped) {
  // type5 gets two terms from cand0 but only one row, so Eq. 8 drops it;
  // type4 (cand2, rows 1 and 2) has two rows and stays.
  RowLinks two_cands;
  two_cands.cells.resize(1);
  two_cands.cells[0].pruned = {{cands_[0], 1.0, 4.0}, {cands_[0], 1.0, 4.0}};
  std::vector<RowLinks> rows = {two_cands};
  for (RowLinks& row : Rows({{cands_[2], 1.0}, {cands_[2], 1.0}})) {
    rows.push_back(row);
  }
  std::vector<CandidateType> got = Check(rows, 10);
  std::set<kg::EntityId> kept;
  for (const CandidateType& ct : got) kept.insert(ct.entity);
  EXPECT_EQ(kept.count(types_[5]), 0u);
  EXPECT_EQ(kept.count(types_[2]), 0u);
  EXPECT_EQ(kept.count(types_[4]), 1u);
  EXPECT_EQ(kept.count(types_[0]), 1u);
}

TEST_F(CandidateTypeRulesTest, TiesBreakByEntityAndTruncate) {
  // Four rows give type0 and type1 the same score; cand0/cand1 rows give
  // type2 and type3 a smaller, equal score. Ties order by entity id, and
  // every cut keeps that order's prefix.
  std::vector<RowLinks> rows = Rows(
      {{cands_[0], 2.0}, {cands_[1], 2.0}, {cands_[2], 2.0}, {cands_[3], 2.0}});
  std::vector<CandidateType> all = Check(rows, 10);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].entity, types_[0]);
  EXPECT_EQ(all[1].entity, types_[1]);
  EXPECT_EQ(all[0].score, all[1].score);
  EXPECT_EQ(all[2].entity, types_[2]);
  EXPECT_EQ(all[3].entity, types_[3]);
  EXPECT_EQ(all[2].score, all[3].score);
  for (int k = 0; k <= 5; ++k) {
    std::vector<CandidateType> cut = Check(rows, k);
    ASSERT_EQ(cut.size(), std::min<size_t>(static_cast<size_t>(k), 4u));
    for (size_t i = 0; i < cut.size(); ++i) {
      EXPECT_EQ(cut[i].entity, all[i].entity) << "k " << k;
    }
  }
}

TEST_F(CandidateTypeRulesTest, PersonAndDateAreNeverTypes) {
  // Every candidate reaches the person and date entities from every row,
  // the best-supported neighbours there are, yet neither is a type.
  std::vector<RowLinks> rows = Rows(
      {{cands_[0], 1.0}, {cands_[1], 1.0}, {cands_[2], 1.0}, {cands_[3], 1.0}});
  EXPECT_TRUE(kg_.IsPersonOrDate(person_));
  EXPECT_TRUE(kg_.IsPersonOrDate(date_));
  EXPECT_FALSE(kg_.IsPersonOrDate(types_[0]));
  for (const CandidateType& ct : Check(rows, 100)) {
    EXPECT_NE(ct.entity, person_);
    EXPECT_NE(ct.entity, date_);
  }
}

TEST_F(CandidateTypeRulesTest, AccumulatorGrowsAcrossManyTypes) {
  // A column reaching more distinct types than the accumulator's first
  // capacity, then a small one on the same thread: growth keeps every
  // score, and the reset leaves nothing behind.
  kg::KnowledgeGraph kg;
  std::vector<kg::EntityId> cands;
  for (int i = 0; i < 3; ++i) {
    cands.push_back(kg.AddEntity({"C" + std::to_string(i), "c", {}, "",
                                  false, false, false}));
  }
  for (int i = 0; i < 500; ++i) {
    kg::EntityId t = kg.AddEntity(
        {"T" + std::to_string(i), "t", {}, "", true, false, false});
    kg.AddTriple(cands[0], kg::KnowledgeGraph::kInstanceOf, t);
    if (i % 3 == 0) kg.AddTriple(cands[1], kg::KnowledgeGraph::kInstanceOf, t);
    if (i % 7 == 0) kg.AddTriple(cands[2], kg::KnowledgeGraph::kInstanceOf, t);
  }
  ASSERT_TRUE(kg.Finalize().ok());
  LinkerConfig config;
  config.max_candidate_types = 1000;
  std::vector<RowLinks> rows =
      Rows({{cands[0], 1.5}, {cands[1], 0.25}, {cands[2], 3.0}});
  std::vector<CandidateType> got = GenerateCandidateTypes(kg, rows, 0, config);
  ExpectSameTypes(got, HashMapOracleCandidateTypes(kg, rows, 0, config),
                  "many types");
  EXPECT_GT(got.size(), 200u);
  std::vector<RowLinks> small = Rows({{cands_[0], 1.0}, {cands_[1], 1.0}});
  ExpectSameTypes(GenerateCandidateTypes(kg_, small, 0, config),
                  HashMapOracleCandidateTypes(kg_, small, 0, config),
                  "after many types");
}

}  // namespace
}  // namespace kglink::linker
