#include "linker/pipeline.h"

#include <algorithm>

#include "linker/candidate_types.h"
#include "linker/feature_sequence.h"
#include "linker/row_filter.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/scope.h"

namespace kglink::linker {

namespace {

struct PipelineMetrics {
  obs::Counter& tables_processed;
  obs::Counter& degraded_tables;

  static PipelineMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static PipelineMetrics& m = *new PipelineMetrics{
        reg.GetCounter("pipeline.tables.processed"),
        reg.GetCounter("robust.degraded_tables")};
    return m;
  }
};

}  // namespace

KgPipeline::KgPipeline(const kg::KnowledgeGraph* kg,
                       const search::SearchEngine* engine,
                       LinkerConfig config)
    : kg_(kg), linker_(kg, engine, config) {}

void KgPipeline::Rebind(const kg::KnowledgeGraph* kg,
                        const search::SearchEngine* engine) {
  kg_ = kg;
  linker_.Rebind(kg, engine);
}

ProcessedTable KgPipeline::ProcessDegraded(const table::Table& table,
                                           const char* reason) const {
  PipelineMetrics::Get().degraded_tables.Add();
  KGLINK_LOG(kWarn, "pipeline.degraded")
      .With("table", table.id())
      .With("reason", reason);

  const LinkerConfig& config = linker_.config();
  ProcessedTable out;
  out.degraded = true;
  out.degrade_reason = reason;

  // No row scores without KG linking: keep the first k rows in original
  // order (the RowFilterMode::kOriginalOrder baseline).
  int k = config.top_k_rows > 0 ? config.top_k_rows : config.max_rows_cap;
  k = std::min({k, table.num_rows(), config.max_rows_cap});
  out.kept_rows.reserve(static_cast<size_t>(k));
  for (int r = 0; r < k; ++r) out.kept_rows.push_back(r);
  out.filtered = table.SelectRows(out.kept_rows);

  // Empty (unlinkable) cell links keep the ProcessedTable invariants:
  // row_links parallel to kept_rows, one CellLinks per column.
  out.row_links.assign(
      out.kept_rows.size(),
      RowLinks{std::vector<CellLinks>(static_cast<size_t>(table.num_cols())),
               0.0});

  // Columns carry no KG evidence (the serializer's "w/o ct" / "w/o fv"
  // path), but numeric statistics need no KG and are still computed.
  out.columns.resize(static_cast<size_t>(table.num_cols()));
  for (int c = 0; c < table.num_cols(); ++c) {
    ColumnKgInfo& info = out.columns[static_cast<size_t>(c)];
    info.is_numeric = table.IsNumericColumn(c);
    if (info.is_numeric) info.stats = table.ColumnStats(c);
  }
  return out;
}

ProcessedTable KgPipeline::Process(const table::Table& table) const {
  return Process(table, nullptr);
}

ProcessedTable KgPipeline::Process(const table::Table& table,
                                   const RequestContext* rc) const {
  KGLINK_SCOPE("part1.process");
  // Inclusive link-stage wall time; TopK and cell-cache time nested below
  // are accounted separately and subtracted in exclusive_stage_us().
  KGLINK_SCOPE(rc, obs::Stage::kLink);
  PipelineMetrics::Get().tables_processed.Add();
  const LinkerConfig& config = linker_.config();

  // A request that arrives already out of budget short-circuits straight
  // to the PLM-only fallback without touching search or the KG.
  if (rc != nullptr && rc->Expired()) {
    return ProcessDegraded(table, rc->ExpiryReason());
  }

  // Per-table failure budget. Jitter seed varies per table so retry
  // backoffs do not synchronize, but stays deterministic per process run.
  // Serving-path requests key the jitter stream on their stable stream_key
  // instead of the submission-order counter, for the same determinism the
  // fault stream gets.
  robust::TableOpContext ctx(
      config.retry, config.fault_budget,
      robust::FaultInjector::Global().seed() ^
          (rc != nullptr
               ? rc->stream_key
               : ctx_counter_.fetch_add(1, std::memory_order_relaxed)),
      rc);

  // Steps 1-2: link & prune every row; collect row scores.
  std::vector<RowLinks> all_rows;
  all_rows.reserve(static_cast<size_t>(table.num_rows()));
  std::vector<double> row_scores;
  row_scores.reserve(static_cast<size_t>(table.num_rows()));
  {
    KGLINK_SCOPE("part1.link_rows");
    for (int r = 0; r < table.num_rows(); ++r) {
      all_rows.push_back(linker_.LinkRow(table, r, &ctx));
      if (ctx.degraded()) {
        return ProcessDegraded(table, ctx.degrade_reason());
      }
      row_scores.push_back(all_rows.back().row_score);
    }
  }

  // Row filter (Eq. 5 ordering or original order).
  ProcessedTable out;
  {
    KGLINK_SCOPE("part1.row_filter");
    out.kept_rows = FilterRows(row_scores, config);
    out.filtered = table.SelectRows(out.kept_rows);
    out.row_links.reserve(out.kept_rows.size());
    for (int r : out.kept_rows) {
      out.row_links.push_back(all_rows[static_cast<size_t>(r)]);
    }
  }

  // Step 3 per column: candidate types (numeric statistics in their
  // place), then the feature sequences, each under its own span.
  out.columns.resize(static_cast<size_t>(table.num_cols()));
  {
    KGLINK_SCOPE("part1.candidate_types");
    for (int c = 0; c < table.num_cols(); ++c) {
      ColumnKgInfo& info = out.columns[static_cast<size_t>(c)];
      info.is_numeric = table.IsNumericColumn(c);
      if (info.is_numeric) {
        // Numeric columns: no KG linkage; candidate types are replaced by
        // the column's summary statistics (paper Part-1 step 3).
        info.stats = table.ColumnStats(c);
        continue;
      }
      for (const CandidateType& ct :
           GenerateCandidateTypes(*kg_, out.row_links, c, config)) {
        info.candidate_types.push_back(ct);
        info.candidate_type_labels.push_back(kg_->entity(ct.entity).label);
      }
    }
  }
  {
    KGLINK_SCOPE("part1.feature_sequence");
    for (int c = 0; c < table.num_cols(); ++c) {
      ColumnKgInfo& info = out.columns[static_cast<size_t>(c)];
      if (info.is_numeric) continue;
      kg::EntityId feature_entity = SelectFeatureEntity(out.row_links, c);
      if (feature_entity != kg::kInvalidEntity) {
        info.has_feature = true;
        info.feature_sequence =
            SerializeFeatureSequence(*kg_, feature_entity, config);
      }
    }
  }
  return out;
}

}  // namespace kglink::linker
