#include "core/annotator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>

#include "obs/json_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/scope.h"
#include "robust/fault_injector.h"
#include "util/csv.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace kglink::core {

namespace {

struct TrainMetrics {
  obs::Counter& epochs;
  obs::Counter& grad_clips;
  obs::Counter& early_stops;
  obs::Counter& skipped_batches;
  obs::Counter& divergence_rollbacks;
  obs::Gauge& epoch_loss;
  obs::Gauge& valid_accuracy;
  obs::Gauge& grad_norm;
  obs::Gauge& log_var0;
  obs::Gauge& log_var1;

  static TrainMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static TrainMetrics& m = *new TrainMetrics{
        reg.GetCounter("train.epoch.count"),
        reg.GetCounter("train.grad.clips"),
        reg.GetCounter("train.early_stops"),
        reg.GetCounter("train.skipped_batches"),
        reg.GetCounter("train.divergence_rollbacks"),
        reg.GetGauge("train.epoch.loss"),
        reg.GetGauge("train.valid.accuracy"),
        reg.GetGauge("train.grad.norm"),
        reg.GetGauge("train.sigma.log_var0"),
        reg.GetGauge("train.sigma.log_var1")};
    return m;
  }
};

obs::Counter& BadTokenCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("encode.bad_token_id");
  return c;
}

// Pre-encode validation gate: a genuine out-of-range id or a tripped
// "encode.bad_token" fault site becomes a per-request InvalidArgument.
Status CheckEncodeTokens(const std::vector<int>& tokens, int vocab_size) {
  Status s = KgLinkAnnotator::ValidateTokenIds(tokens, vocab_size);
  if (s.ok() && robust::MaybeInject(robust::FaultSite::kEncodeBadToken)) {
    s = Status::InvalidArgument(
        "injected bad token id (fault site encode.bad_token)");
  }
  if (!s.ok()) BadTokenCounter().Add();
  return s;
}

}  // namespace

// Part-1 output plus the supervision needed for Part 2.
struct KgLinkAnnotator::PreparedTable {
  linker::ProcessedTable processed;
  std::vector<int> labels;              // per original column; kUnlabeled ok
  std::vector<std::string> label_texts; // "" for unlabeled columns
};

KgLinkAnnotator::KgLinkAnnotator(const kg::KnowledgeGraph* kg,
                                 const search::SearchEngine* engine,
                                 KgLinkOptions options)
    : kg_(kg),
      engine_(engine),
      options_(options),
      pipeline_(kg, engine, options.linker) {}

KgLinkAnnotator::~KgLinkAnnotator() = default;

void KgLinkAnnotator::Rebind(const kg::KnowledgeGraph* kg,
                             const search::SearchEngine* engine) {
  KGLINK_CHECK(kg != nullptr);
  KGLINK_CHECK(engine != nullptr);
  kg_ = kg;
  engine_ = engine;
  pipeline_.Rebind(kg, engine);
}

linker::ProcessedTable KgLinkAnnotator::Preprocess(
    const table::Table& t) const {
  return pipeline_.Process(t);
}

linker::ProcessedTable KgLinkAnnotator::Preprocess(
    const table::Table& t, const RequestContext* rc) const {
  return pipeline_.Process(t, rc);
}

Status KgLinkAnnotator::GatePredict(const table::Table& t,
                                    const RequestContext* rc,
                                    linker::ProcessedTable* processed) const {
  robust::TableOpContext ctx(
      pipeline_.config().retry, pipeline_.config().fault_budget,
      robust::FaultInjector::Global().seed() ^
          (rc != nullptr ? rc->stream_key : 0),
      rc);
  if (ctx.Attempt(robust::FaultSite::kPredict)) return Status::Ok();
  const char* reason = ctx.degrade_reason();
  bool expiry = std::strcmp(reason, "deadline") == 0 ||
                std::strcmp(reason, "cancelled") == 0;
  if (!expiry) {
    return Status::Unavailable(
        std::string("predict failed at fault site ") +
        robust::FaultSiteName(robust::FaultSite::kPredict));
  }
  if (!processed->degraded) {
    *processed = pipeline_.ProcessDegraded(t, reason);
  }
  return Status::Ok();
}

AnnotateOutcome KgLinkAnnotator::AnnotateTable(const table::Table& t,
                                               const RequestContext* rc) {
  AnnotateOutcome out;
  if (model_ == nullptr) {
    out.status = Status::FailedPrecondition("AnnotateTable before Fit/Load");
    return out;
  }
  linker::ProcessedTable processed = pipeline_.Process(t, rc);
  out.status = GatePredict(t, rc, &processed);
  if (!out.status.ok()) return out;

  {
    KGLINK_SCOPE(rc, obs::Stage::kEncode);
    out.status = PredictWithStatus(processed, &out.predictions);
  }
  out.degraded = processed.degraded;
  out.degrade_reason = processed.degrade_reason;
  return out;
}

std::vector<AnnotateOutcome> KgLinkAnnotator::AnnotateBatch(
    const std::vector<const table::Table*>& tables,
    const std::vector<const RequestContext*>& rcs) {
  const size_t n = tables.size();
  KGLINK_CHECK_EQ(rcs.size(), n) << "AnnotateBatch rcs must parallel tables";
  std::vector<AnnotateOutcome> out(n);
  if (model_ == nullptr) {
    for (auto& o : out) {
      o.status = Status::FailedPrecondition("AnnotateBatch before Fit/Load");
    }
    return out;
  }

  // One pre-computed encode, in the exact order EvalForward will request
  // them for the owning request: each chunk, then that chunk's non-empty
  // feature sequences in column order.
  struct EncodeJob {
    const std::vector<int>* tokens = nullptr;
    const std::vector<int>* segments = nullptr;  // null: no segments
    nn::Tensor hidden;
  };
  struct Entry {
    linker::ProcessedTable processed;
    std::vector<SerializedTable> chunks;
    std::deque<std::vector<int>> feature_store;  // stable addresses
    std::vector<EncodeJob> jobs;
    bool encode_ready = false;
  };
  std::vector<Entry> entries(n);
  const int vocab_size = model_->config().encoder.vocab_size;

  // Phase 1: Part 1 + the per-request predict gate + serialization and
  // token validation. Every failure here is scoped to its own request.
  for (size_t i = 0; i < n; ++i) {
    Entry& e = entries[i];
    const RequestContext* rc = rcs[i];
    e.processed = pipeline_.Process(*tables[i], rc);
    out[i].status = GatePredict(*tables[i], rc, &e.processed);
    if (!out[i].status.ok()) continue;

    e.chunks = serializer_->Serialize(e.processed, LabelSlot::kMask, nullptr,
                                      options_.use_candidate_types);
    Status s = Status::Ok();
    for (const SerializedTable& chunk : e.chunks) {
      s = CheckEncodeTokens(chunk.tokens, vocab_size);
      if (!s.ok()) break;
      e.jobs.push_back({&chunk.tokens, &chunk.segments, {}});
      for (const SerializedColumn& sc : chunk.columns) {
        const linker::ColumnKgInfo& info =
            e.processed.columns[static_cast<size_t>(sc.source_col)];
        if (!options_.use_feature_vector || !info.has_feature) continue;
        std::vector<int> ftokens =
            serializer_->EncodeFeature(info.feature_sequence);
        if (ftokens.empty()) continue;
        s = CheckEncodeTokens(ftokens, vocab_size);
        if (!s.ok()) break;
        e.feature_store.push_back(std::move(ftokens));
        e.jobs.push_back({&e.feature_store.back(), nullptr, {}});
      }
      if (!s.ok()) break;
    }
    if (!s.ok()) {
      out[i].status = std::move(s);
      continue;
    }
    e.encode_ready = true;
  }

  // Phase 2: one padded masked forward per segment-presence bucket
  // (ForwardBatch requires every item in a batch to agree on segments).
  Stopwatch forward_watch;
  nn::NoGradGuard no_grad;  // serving inference: no tape (see nn/tensor.h)
  for (int want_segments = 0; want_segments < 2; ++want_segments) {
    std::vector<nn::EncoderBatchItem> items;
    std::vector<EncodeJob*> bucket;
    for (Entry& e : entries) {
      if (!e.encode_ready) continue;
      for (EncodeJob& job : e.jobs) {
        const bool has_seg =
            job.segments != nullptr && !job.segments->empty();
        if (has_seg != (want_segments == 1)) continue;
        items.push_back({job.tokens, has_seg ? job.segments : nullptr});
        bucket.push_back(&job);
      }
    }
    if (items.empty()) continue;
    std::vector<nn::Tensor> hidden =
        model_->EncodeBatch(items, *rng_, /*training=*/false);
    for (size_t j = 0; j < bucket.size(); ++j) {
      bucket[j]->hidden = hidden[j];
    }
  }
  // Every member waited for the whole shared forward, so each member's
  // encode stage is charged all of it.
  const uint64_t forward_us =
      static_cast<uint64_t>(forward_watch.ElapsedSeconds() * 1e6);
  for (size_t i = 0; i < n; ++i) {
    obs::RequestTelemetry* t = obs::TelemetryOf(rcs[i]);
    if (t != nullptr && entries[i].encode_ready) {
      t->AddStage(obs::Stage::kEncode, forward_us);
    }
  }

  // Phase 3: replay each request through the normal eval path, feeding the
  // pre-computed hidden states back in call order.
  for (size_t i = 0; i < n; ++i) {
    Entry& e = entries[i];
    if (!e.encode_ready) continue;
    size_t cursor = 0;
    EncodeFn fn = [&e, &cursor](const std::vector<int>& toks,
                                const std::vector<int>&) {
      KGLINK_CHECK_LT(cursor, e.jobs.size())
          << "batched encode replay drifted from serialization";
      EncodeJob& job = e.jobs[cursor++];
      KGLINK_CHECK_EQ(job.tokens->size(), toks.size())
          << "batched encode replay drifted from serialization";
      return job.hidden;
    };
    {
      KGLINK_SCOPE(rcs[i], obs::Stage::kEncode);
      out[i].status =
          PredictWithStatus(e.processed, &out[i].predictions, &fn);
    }
    KGLINK_CHECK_EQ(cursor, e.jobs.size())
        << "batched encode replay consumed fewer encodes than planned";
    out[i].degraded = e.processed.degraded;
    out[i].degrade_reason = e.processed.degrade_reason;
  }
  return out;
}

AnnotateOutcome KgLinkAnnotator::AnnotateDegraded(const table::Table& t,
                                                  const char* reason) {
  AnnotateOutcome out;
  if (model_ == nullptr) {
    out.status =
        Status::FailedPrecondition("AnnotateDegraded before Fit/Load");
    return out;
  }
  linker::ProcessedTable processed = pipeline_.ProcessDegraded(t, reason);
  out.predictions = PredictProcessed(processed);
  out.degraded = true;
  out.degrade_reason = processed.degrade_reason;
  return out;
}

void KgLinkAnnotator::BuildVocabulary(
    const std::vector<PreparedTable>& prepared) {
  std::vector<std::string> corpus_texts;
  for (const auto& name : label_names_) corpus_texts.push_back(name);
  for (const auto& p : prepared) {
    const table::Table& t = p.processed.filtered;
    for (int r = 0; r < t.num_rows(); ++r) {
      for (int c = 0; c < t.num_cols(); ++c) {
        corpus_texts.push_back(t.at(r, c).text);
      }
    }
    for (const auto& info : p.processed.columns) {
      for (const auto& label : info.candidate_type_labels) {
        corpus_texts.push_back(label);
      }
      if (info.has_feature) corpus_texts.push_back(info.feature_sequence);
    }
  }
  vocab_ = nn::Vocabulary::Build(corpus_texts, options_.max_vocab);
}

Status KgLinkAnnotator::EvalForward(
    const PreparedTable& prepared, std::vector<int>* predictions,
    std::vector<std::vector<float>>* logits_out, const EncodeFn* encode) {
  // Encode, FeatureVector, Compose and Classify all run without a tape.
  nn::NoGradGuard no_grad;
  if (predictions != nullptr) {
    predictions->assign(prepared.processed.columns.size(), 0);
  }
  if (logits_out != nullptr) {
    logits_out->assign(prepared.processed.columns.size(), {});
  }
  const int vocab_size = model_->config().encoder.vocab_size;
  const int dim = model_->config().encoder.dim;

  std::vector<SerializedTable> msk_chunks = serializer_->Serialize(
      prepared.processed, LabelSlot::kMask, nullptr,
      options_.use_candidate_types);
  for (const SerializedTable& chunk : msk_chunks) {
    nn::Tensor hidden;
    if (encode != nullptr) {
      hidden = (*encode)(chunk.tokens, chunk.segments);
    } else {
      KGLINK_RETURN_IF_ERROR(CheckEncodeTokens(chunk.tokens, vocab_size));
      hidden = model_->Encode(chunk.tokens, chunk.segments, *rng_,
                              /*training=*/false);
    }

    std::vector<nn::Tensor> composed;
    composed.reserve(chunk.columns.size());
    for (const SerializedColumn& sc : chunk.columns) {
      // The encoder truncates over-length sequences instead of aborting;
      // a [CLS] that fell off the end clamps to the last surviving row so
      // the request still answers (with degraded quality for that column).
      int cls_pos = std::min(sc.cls_pos, hidden.rows() - 1);
      nn::Tensor cls_vec = nn::Rows(hidden, {cls_pos});
      const linker::ColumnKgInfo& info =
          prepared.processed.columns[static_cast<size_t>(sc.source_col)];
      std::vector<int> feature_tokens;
      if (options_.use_feature_vector && info.has_feature) {
        feature_tokens = serializer_->EncodeFeature(info.feature_sequence);
      }
      nn::Tensor fv;
      if (feature_tokens.empty()) {
        fv = nn::Tensor::Zeros({1, dim});
      } else if (encode != nullptr) {
        fv = nn::MeanRows((*encode)(feature_tokens, {}));
      } else {
        KGLINK_RETURN_IF_ERROR(CheckEncodeTokens(feature_tokens, vocab_size));
        fv = model_->FeatureVector(feature_tokens, *rng_, /*training=*/false);
      }
      composed.push_back(model_->Compose(cls_vec, fv));
    }
    nn::Tensor logits = model_->Classify(nn::ConcatRows(composed));

    if (predictions != nullptr) {
      const auto& data = logits.data();
      int num_labels = logits.cols();
      for (size_t j = 0; j < chunk.columns.size(); ++j) {
        const float* row = data.data() + j * static_cast<size_t>(num_labels);
        int best = 0;
        for (int l = 1; l < num_labels; ++l) {
          if (row[l] > row[best]) best = l;
        }
        size_t source_col = static_cast<size_t>(chunk.columns[j].source_col);
        (*predictions)[source_col] = best;
        if (logits_out != nullptr) {
          (*logits_out)[source_col].assign(row, row + num_labels);
        }
      }
    }
  }
  return Status::Ok();
}

double KgLinkAnnotator::ForwardTable(
    const PreparedTable& prepared, bool training, float loss_scale,
    std::vector<int>* predictions,
    std::vector<std::vector<float>>* logits_out) {
  if (!training) {
    // Eval callers without a status channel (the train-loop validation and
    // the legacy Predict* API) keep the zero predictions on failure.
    Status ignored = EvalForward(prepared, predictions, logits_out);
    (void)ignored;
    return 0.0;
  }
  const bool mask_task = options_.use_mask_task;
  if (predictions != nullptr) {
    predictions->assign(prepared.processed.columns.size(), 0);
  }
  if (logits_out != nullptr) {
    logits_out->assign(prepared.processed.columns.size(), {});
  }

  std::vector<SerializedTable> msk_chunks = serializer_->Serialize(
      prepared.processed, LabelSlot::kMask, &prepared.label_texts,
      options_.use_candidate_types);
  std::vector<SerializedTable> gt_chunks;
  if (mask_task) {
    gt_chunks = serializer_->Serialize(prepared.processed,
                                       LabelSlot::kGroundTruth,
                                       &prepared.label_texts,
                                       options_.use_candidate_types);
  }

  double loss_value = 0.0;
  for (size_t chunk_i = 0; chunk_i < msk_chunks.size(); ++chunk_i) {
    const SerializedTable& chunk = msk_chunks[chunk_i];
    nn::Tensor hidden =
        model_->Encode(chunk.tokens, chunk.segments, *rng_, training);

    // Composed per-column vectors phi(Ycls, Yfv).
    std::vector<nn::Tensor> composed;
    composed.reserve(chunk.columns.size());
    for (const SerializedColumn& sc : chunk.columns) {
      // Mirror the eval path: the encoder truncates over-length sequences,
      // so a [CLS] past the truncated length clamps to the last surviving
      // row instead of aborting the training step.
      int cls_pos = std::min(sc.cls_pos, hidden.rows() - 1);
      nn::Tensor cls_vec = nn::Rows(hidden, {cls_pos});
      const linker::ColumnKgInfo& info =
          prepared.processed.columns[static_cast<size_t>(sc.source_col)];
      std::vector<int> feature_tokens;
      if (options_.use_feature_vector && info.has_feature) {
        feature_tokens = serializer_->EncodeFeature(info.feature_sequence);
      }
      nn::Tensor fv = model_->FeatureVector(feature_tokens, *rng_, training);
      composed.push_back(model_->Compose(cls_vec, fv));
    }
    nn::Tensor column_vectors = nn::ConcatRows(composed);
    nn::Tensor logits = model_->Classify(column_vectors);

    if (predictions != nullptr) {
      const auto& data = logits.data();
      int num_labels = logits.cols();
      for (size_t j = 0; j < chunk.columns.size(); ++j) {
        const float* row = data.data() + j * static_cast<size_t>(num_labels);
        int best = 0;
        for (int l = 1; l < num_labels; ++l) {
          if (row[l] > row[best]) best = l;
        }
        size_t source_col = static_cast<size_t>(chunk.columns[j].source_col);
        (*predictions)[source_col] = best;
        if (logits_out != nullptr) {
          (*logits_out)[source_col].assign(row, row + num_labels);
        }
      }
    }

    // ----- classification loss over labeled columns -----
    std::vector<int> labeled_rows;
    std::vector<int> labels;
    for (size_t j = 0; j < chunk.columns.size(); ++j) {
      int label = prepared.labels[static_cast<size_t>(
          chunk.columns[j].source_col)];
      if (label == table::kUnlabeled) continue;
      labeled_rows.push_back(static_cast<int>(j));
      labels.push_back(label);
    }
    if (labels.empty()) continue;
    nn::Tensor ce = nn::CrossEntropy(nn::Rows(logits, labeled_rows), labels);

    nn::Tensor total;
    if (mask_task) {
      // ----- column-type representation generation (DMLM) -----
      const SerializedTable& gt_chunk = gt_chunks[chunk_i];
      // Teacher encoding without dropout: a stable distillation target.
      // DmlmLoss detaches the teacher, so the teacher side records no tape
      // (the gradients are the same with or without one; pinned by
      // DmlmLossTest.TeacherUnderNoGradGuardLeavesGradientsUnchanged).
      nn::Tensor gt_hidden;
      {
        nn::NoGradGuard no_grad;
        gt_hidden = model_->Encode(gt_chunk.tokens, gt_chunk.segments, *rng_,
                                   /*training=*/false);
      }
      std::vector<int> msk_pos;
      std::vector<int> gt_pos;
      for (size_t j = 0; j < chunk.columns.size(); ++j) {
        int label = prepared.labels[static_cast<size_t>(
            chunk.columns[j].source_col)];
        if (label == table::kUnlabeled) continue;
        // Label positions are paired token-for-token between the masked and
        // ground-truth serializations; a pair where either side fell off a
        // truncated encoding has no hidden state to distill, so it is
        // dropped (rather than aborting in Rows).
        const auto& mp = chunk.columns[j].label_positions;
        const auto& gp = gt_chunk.columns[j].label_positions;
        size_t pairs = std::min(mp.size(), gp.size());
        for (size_t t = 0; t < pairs; ++t) {
          if (mp[t] >= hidden.rows() || gp[t] >= gt_hidden.rows()) continue;
          msk_pos.push_back(mp[t]);
          gt_pos.push_back(gp[t]);
        }
      }
      KGLINK_CHECK_EQ(msk_pos.size(), gt_pos.size());
      if (msk_pos.empty()) {
        // Every label token was truncated away: nothing to distill on this
        // chunk, fall back to the classification loss alone.
        total = ce;
      } else {
        nn::Tensor msk_logits =
            model_->ProjectToVocab(nn::Rows(hidden, msk_pos));
        nn::Tensor gt_logits;
        {
          nn::NoGradGuard no_grad;  // teacher side, see above
          gt_logits = model_->ProjectToVocab(nn::Rows(gt_hidden, gt_pos));
        }
        nn::Tensor dmlm =
            nn::DmlmLoss(msk_logits, gt_logits, options_.dmlm_temperature);
        total = model_->uncertainty_loss().Combine(dmlm, ce);
      }
    } else {
      total = ce;
    }
    loss_value += total.item();
    nn::Scale(total, loss_scale).Backward();
  }
  return loss_value;
}

double KgLinkAnnotator::EvaluatePrepared(
    const std::vector<PreparedTable>& tables) {
  int64_t correct = 0;
  int64_t total = 0;
  std::vector<int> pred;
  for (const auto& p : tables) {
    ForwardTable(p, /*training=*/false, 0.0f, &pred);
    for (size_t c = 0; c < p.labels.size(); ++c) {
      if (p.labels[c] == table::kUnlabeled) continue;
      ++total;
      if (pred[c] == p.labels[c]) ++correct;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(correct) /
                          static_cast<double>(total);
}

void KgLinkAnnotator::Fit(const table::Corpus& train,
                          const table::Corpus& valid) {
  KGLINK_SCOPE("train.fit");
  Stopwatch watch;
  label_names_ = train.label_names;
  rng_ = std::make_unique<Rng>(options_.seed);

  auto prepare = [&](const table::Corpus& corpus) {
    KGLINK_SCOPE("train.prepare");
    std::vector<PreparedTable> out;
    out.reserve(corpus.tables.size());
    for (const auto& lt : corpus.tables) {
      PreparedTable p;
      p.processed = pipeline_.Process(lt.table);
      p.labels = lt.column_labels;
      for (int label : lt.column_labels) {
        p.label_texts.push_back(label == table::kUnlabeled
                                    ? std::string()
                                    : label_names_[static_cast<size_t>(label)]);
      }
      out.push_back(std::move(p));
    }
    return out;
  };
  std::vector<PreparedTable> train_prepared = prepare(train);
  std::vector<PreparedTable> valid_prepared = prepare(valid);

  BuildVocabulary(train_prepared);
  serializer_.emplace(&*vocab_, options_.serializer);

  KgLinkModelConfig model_config;
  model_config.encoder = options_.encoder;
  model_config.encoder.vocab_size = vocab_->size();
  model_config.encoder.max_seq_len =
      std::max(model_config.encoder.max_seq_len,
               options_.serializer.max_seq_len);
  model_config.num_labels = train.num_labels();
  model_config.dmlm_temperature = options_.dmlm_temperature;
  model_config.composition = options_.composition;
  model_ = std::make_unique<KgLinkModel>(model_config, *rng_);
  model_->uncertainty_loss() =
      nn::UncertaintyWeightedLoss(options_.init_log_var0,
                                  options_.init_log_var1);
  model_->uncertainty_loss().SetFrozen(options_.freeze_sigmas);

  nn::AdamWOptions adam;
  adam.lr = options_.lr;
  adam.eps = options_.adam_eps;
  adam.weight_decay = options_.weight_decay;
  nn::AdamW optimizer(model_->Parameters(), adam);

  int64_t steps_per_epoch =
      (static_cast<int64_t>(train_prepared.size()) + options_.batch_size - 1) /
      options_.batch_size;
  nn::LinearDecaySchedule schedule(options_.lr,
                                   steps_per_epoch * options_.epochs);

  std::vector<size_t> order(train_prepared.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Early-stopping snapshot of the best parameters.
  double best_valid = -1.0;
  int bad_epochs = 0;
  std::vector<std::vector<float>> best_params;
  auto snapshot = [&] {
    best_params.clear();
    for (const auto& p : optimizer.params()) {
      best_params.push_back(p.tensor.data());
    }
  };
  auto restore = [&] {
    if (best_params.empty()) return;
    auto params = optimizer.params();
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].tensor.data() = best_params[i];
    }
  };

  epoch_stats_.clear();
  TrainMetrics& metrics = TrainMetrics::Get();
  int64_t step = 0;
  int diverged_epochs = 0;
  float loss_scale = 1.0f / static_cast<float>(options_.batch_size);
  double epoch_loss = 0.0;
  double batch_loss = 0.0;
  // Applies (or discards) one accumulated gradient batch. A poisoned batch
  // — non-finite loss or gradient norm, whether from a genuine numeric
  // blow-up or the "train.batch" fault site — is skipped: gradients are
  // zeroed, no optimizer step, and its loss does not pollute epoch stats.
  auto clip_and_step = [&] {
    float norm = optimizer.ClipGradNorm(options_.clip_norm);
    if (!std::isfinite(batch_loss) || !std::isfinite(norm)) {
      metrics.skipped_batches.Add();
      if (options_.verbose) {
        KGLINK_LOG(kWarn, "train.batch_skipped")
            .With("model", name())
            .With("loss", batch_loss)
            .With("grad_norm", static_cast<double>(norm));
      }
      optimizer.ZeroGrad();
      batch_loss = 0.0;
      return;
    }
    metrics.grad_norm.Set(norm);
    if (norm > options_.clip_norm) metrics.grad_clips.Add();
    optimizer.Step(schedule.LrAt(step++));
    optimizer.ZeroGrad();
    epoch_loss += batch_loss;
    batch_loss = 0.0;
  };
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    KGLINK_SCOPE("train.epoch");
    rng_->Shuffle(order);
    epoch_loss = 0.0;
    batch_loss = 0.0;
    int in_batch = 0;
    optimizer.ZeroGrad();
    for (size_t idx : order) {
      double table_loss = ForwardTable(train_prepared[idx], /*training=*/true,
                                       loss_scale, nullptr);
      if (robust::MaybeInject(robust::FaultSite::kTrainBatch)) {
        // Injected poison: the batch behaves as if its loss diverged.
        table_loss = std::numeric_limits<double>::quiet_NaN();
      }
      batch_loss += table_loss;
      if (++in_batch == options_.batch_size) {
        clip_and_step();
        in_batch = 0;
      }
    }
    if (in_batch > 0) clip_and_step();

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = train_prepared.empty()
                           ? 0.0
                           : epoch_loss / static_cast<double>(
                                              train_prepared.size());
    {
      KGLINK_SCOPE("train.validate");
      stats.valid_accuracy = EvaluatePrepared(
          valid_prepared.empty() ? train_prepared : valid_prepared);
    }
    stats.log_var0 = model_->uncertainty_loss().log_var0();
    stats.log_var1 = model_->uncertainty_loss().log_var1();
    epoch_stats_.push_back(stats);

    metrics.epochs.Add();
    metrics.epoch_loss.Set(stats.train_loss);
    metrics.valid_accuracy.Set(stats.valid_accuracy);
    metrics.log_var0.Set(stats.log_var0);
    metrics.log_var1.Set(stats.log_var1);
    if (options_.verbose) {
      KGLINK_LOG(kInfo, "train.epoch")
          .With("model", name())
          .With("epoch", epoch)
          .With("loss", stats.train_loss, 4)
          .With("valid_acc", stats.valid_accuracy, 4)
          .With("log_var0", static_cast<double>(stats.log_var0), 3)
          .With("log_var1", static_cast<double>(stats.log_var1), 3);
    }

    // Divergence guard: a non-finite epoch loss or a validation collapse
    // rolls back to the best checkpoint (patience-bounded) instead of
    // letting a poisoned run overwrite good parameters.
    bool diverged =
        !std::isfinite(stats.train_loss) ||
        (best_valid >= 0.0 &&
         stats.valid_accuracy + options_.divergence_threshold < best_valid);
    if (diverged) {
      metrics.divergence_rollbacks.Add();
      restore();
      if (options_.verbose) {
        KGLINK_LOG(kWarn, "train.divergence_rollback")
            .With("model", name())
            .With("epoch", epoch)
            .With("valid_acc", stats.valid_accuracy, 4)
            .With("best_valid_acc", best_valid, 4);
      }
      if (++diverged_epochs > options_.divergence_patience) break;
      continue;
    }

    if (stats.valid_accuracy > best_valid) {
      best_valid = stats.valid_accuracy;
      bad_epochs = 0;
      snapshot();
    } else if (++bad_epochs > options_.early_stopping_patience) {
      metrics.early_stops.Add();
      if (options_.verbose) {
        KGLINK_LOG(kInfo, "train.early_stop")
            .With("model", name())
            .With("epoch", epoch)
            .With("best_valid_acc", best_valid, 4);
      }
      break;
    }
  }
  restore();
  fit_seconds_ = watch.ElapsedSeconds();
}

std::vector<int> KgLinkAnnotator::PredictTable(const table::Table& t) {
  linker::ProcessedTable processed = pipeline_.Process(t);
  return PredictProcessed(processed);
}

std::vector<int> KgLinkAnnotator::PredictProcessed(
    const linker::ProcessedTable& pt) {
  std::vector<int> predictions;
  // Legacy status-less API: a failed encode leaves the zero predictions.
  Status ignored = PredictWithStatus(pt, &predictions);
  (void)ignored;
  return predictions;
}

Status KgLinkAnnotator::PredictWithStatus(const linker::ProcessedTable& pt,
                                          std::vector<int>* predictions,
                                          const EncodeFn* encode) {
  KGLINK_CHECK(model_ != nullptr) << "PredictTable before Fit/Load";
  PreparedTable prepared;
  prepared.processed = pt;
  prepared.labels.assign(pt.columns.size(), table::kUnlabeled);
  prepared.label_texts.assign(pt.columns.size(), "");
  obs::ProvenanceRecorder& recorder = obs::ProvenanceRecorder::Global();
  if (recorder.enabled()) {
    std::vector<std::vector<float>> logits;
    Status s = EvalForward(prepared, predictions, &logits, encode);
    if (s.ok()) EmitProvenance(pt, logits, *predictions);
    return s;
  }
  return EvalForward(prepared, predictions, nullptr, encode);
}

Status KgLinkAnnotator::ValidateTokenIds(const std::vector<int>& tokens,
                                         int vocab_size) {
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] < 0 || tokens[i] >= vocab_size) {
      return Status::InvalidArgument(
          "token id " + std::to_string(tokens[i]) + " at position " +
          std::to_string(i) + " outside vocabulary [0, " +
          std::to_string(vocab_size) + ")");
    }
  }
  return Status::Ok();
}

namespace {

// Record-size bounds: full per-cell evidence for the first few kept rows
// is plenty to explain a column without ballooning the JSONL.
constexpr size_t kProvenanceMaxCells = 8;
constexpr size_t kProvenanceMaxTerms = 6;
constexpr size_t kProvenanceMaxFeatureChars = 200;

}  // namespace

void KgLinkAnnotator::EmitProvenance(
    const linker::ProcessedTable& pt,
    const std::vector<std::vector<float>>& logits,
    const std::vector<int>& predictions) const {
  obs::ProvenanceRecorder& recorder = obs::ProvenanceRecorder::Global();
  const std::string table_id = obs::JsonEscape(pt.filtered.id());
  auto num = [](double v) { return obs::JsonNumber(v); };
  auto str = [](std::string_view s) {
    return "\"" + obs::JsonEscape(s) + "\"";
  };

  // Table-level record: the row filter's outcome (Eq. 5 ordering) and the
  // degraded marker.
  {
    std::string rec = "{\"kind\":\"table\",\"table\":\"" + table_id + "\"";
    rec += ",\"model\":" + str(options_.display_name);
    rec += ",\"cols\":" + std::to_string(pt.columns.size());
    rec += ",\"degraded\":";
    rec += pt.degraded ? "true" : "false";
    rec += ",\"degrade_reason\":" + str(pt.degrade_reason);
    rec += ",\"kept_rows\":[";
    for (size_t i = 0; i < pt.kept_rows.size(); ++i) {
      if (i > 0) rec += ',';
      rec += std::to_string(pt.kept_rows[i]);
    }
    rec += "],\"row_scores\":[";
    for (size_t i = 0; i < pt.row_links.size(); ++i) {
      if (i > 0) rec += ',';
      rec += num(pt.row_links[i].row_score);
    }
    rec += "]}";
    recorder.Emit(std::move(rec));
  }

  const std::vector<std::string>& col_names = pt.filtered.column_names();
  for (size_t c = 0; c < pt.columns.size(); ++c) {
    const linker::ColumnKgInfo& info = pt.columns[c];

    // KG-evidence condition driving the error-analysis split (the paper's
    // Table IV no-KG ablation, per column from one run).
    bool has_kg = !info.candidate_types.empty();
    for (const linker::RowLinks& row : pt.row_links) {
      if (has_kg) break;
      if (c < row.cells.size() && !row.cells[c].pruned.empty()) has_kg = true;
    }
    const char* evidence =
        pt.degraded ? "degraded" : (has_kg ? "linked" : "unlinked");

    std::string rec = "{\"kind\":\"column\",\"table\":\"" + table_id + "\"";
    rec += ",\"col\":" + std::to_string(c);
    rec += ",\"name\":" +
           str(c < col_names.size() ? col_names[c] : std::string());
    rec += ",\"kg_evidence\":\"";
    rec += evidence;
    rec += "\",\"numeric\":";
    rec += info.is_numeric ? "true" : "false";
    rec += ",\"degraded\":";
    rec += pt.degraded ? "true" : "false";

    // Per-cell evidence over the first kept rows: raw BM25 retrieval (E_m,
    // Eq. 1), the overlapping-score filter's keep/drop verdicts (Eq. 3/6),
    // the cell linking score (Eq. 4), and the per-term BM25 breakdown of
    // the top hit (Eq. 1-2).
    rec += ",\"cells\":[";
    size_t cells_emitted = 0;
    for (size_t i = 0;
         i < pt.row_links.size() && cells_emitted < kProvenanceMaxCells;
         ++i) {
      if (c >= pt.row_links[i].cells.size()) break;
      const linker::CellLinks& cell = pt.row_links[i].cells[c];
      if (cells_emitted > 0) rec += ',';
      ++cells_emitted;
      const std::string& text =
          pt.filtered.at(static_cast<int>(i), static_cast<int>(c)).text;
      rec += "{\"row\":" + std::to_string(pt.kept_rows[i]);
      rec += ",\"text\":" + str(text);
      rec += ",\"linkable\":";
      rec += cell.linkable ? "true" : "false";
      rec += ",\"score\":" + num(cell.score);
      rec += ",\"retrieved\":[";
      for (size_t e = 0; e < cell.retrieved.size(); ++e) {
        const linker::EntityCandidate& cand = cell.retrieved[e];
        if (e > 0) rec += ',';
        rec += "{\"entity\":" + std::to_string(cand.entity);
        rec += ",\"label\":" + str(kg_->entity(cand.entity).label);
        rec += ",\"bm25\":" + num(cand.linking_score) + "}";
      }
      rec += "],\"kept\":[";
      for (size_t e = 0; e < cell.pruned.size(); ++e) {
        const linker::EntityCandidate& cand = cell.pruned[e];
        if (e > 0) rec += ',';
        rec += "{\"entity\":" + std::to_string(cand.entity);
        rec += ",\"bm25\":" + num(cand.linking_score);
        rec += ",\"overlap\":" + num(cand.overlap_score) + "}";
      }
      rec += "],\"dropped\":[";
      bool first_drop = true;
      for (const linker::EntityCandidate& cand : cell.retrieved) {
        bool kept = false;
        for (const linker::EntityCandidate& k : cell.pruned) {
          if (k.entity == cand.entity) { kept = true; break; }
        }
        if (kept) continue;
        if (!first_drop) rec += ',';
        first_drop = false;
        rec += "{\"entity\":" + std::to_string(cand.entity);
        rec += ",\"bm25\":" + num(cand.linking_score) + "}";
      }
      rec += "]";
      if (!cell.retrieved.empty()) {
        rec += ",\"top_hit_terms\":[";
        std::vector<search::TermScore> terms =
            engine_->ExplainScore(text, cell.retrieved[0].entity);
        for (size_t t = 0; t < terms.size() && t < kProvenanceMaxTerms; ++t) {
          if (t > 0) rec += ',';
          rec += "{\"term\":" + str(terms[t].term);
          rec += ",\"idf\":" + num(terms[t].idf);
          rec += ",\"tf\":" + std::to_string(terms[t].term_freq);
          rec += ",\"bm25\":" + num(terms[t].contribution) + "}";
        }
        rec += "]";
      }
      rec += "}";
    }
    rec += "],\"cells_truncated\":" +
           std::to_string(pt.row_links.size() > cells_emitted
                              ? pt.row_links.size() - cells_emitted
                              : 0);

    // Candidate types (Eq. 8) and the feature sequence S(e) (Eq. 9).
    rec += ",\"candidate_types\":[";
    for (size_t t = 0; t < info.candidate_types.size(); ++t) {
      const linker::CandidateType& ct = info.candidate_types[t];
      if (t > 0) rec += ',';
      rec += "{\"entity\":" + std::to_string(ct.entity);
      rec += ",\"label\":" +
             str(t < info.candidate_type_labels.size()
                     ? info.candidate_type_labels[t]
                     : std::string());
      rec += ",\"score\":" + num(ct.score) + "}";
    }
    rec += "],\"has_feature\":";
    rec += info.has_feature ? "true" : "false";
    rec += ",\"feature_sequence\":" +
           str(std::string_view(info.feature_sequence)
                   .substr(0, kProvenanceMaxFeatureChars));

    // Final decision: raw logits, the argmax, and softmax confidence.
    static const std::vector<float>& kNoLogits = *new std::vector<float>();
    const std::vector<float>& col_logits =
        c < logits.size() ? logits[c] : kNoLogits;
    rec += ",\"logits\":[";
    for (size_t l = 0; l < col_logits.size(); ++l) {
      if (l > 0) rec += ',';
      rec += num(static_cast<double>(col_logits[l]));
    }
    rec += "]";
    int pred = c < predictions.size() ? predictions[c] : 0;
    rec += ",\"pred\":" + std::to_string(pred);
    rec += ",\"pred_label\":" +
           str(pred >= 0 && static_cast<size_t>(pred) < label_names_.size()
                   ? label_names_[static_cast<size_t>(pred)]
                   : std::string());
    if (!col_logits.empty() &&
        static_cast<size_t>(pred) < col_logits.size()) {
      double max_logit = col_logits[static_cast<size_t>(pred)];
      double denom = 0.0;
      for (float l : col_logits) denom += std::exp(l - max_logit);
      rec += ",\"confidence\":" + num(denom > 0.0 ? 1.0 / denom : 0.0);
    }

    // Gold label (when the eval loop published the table's ground truth).
    int gold = recorder.GoldFor(pt.filtered.id(), c);
    if (gold != obs::kProvenanceNoGold) {
      std::string gold_name = recorder.GoldLabelName(gold);
      if (gold_name.empty() &&
          static_cast<size_t>(gold) < label_names_.size()) {
        gold_name = label_names_[static_cast<size_t>(gold)];
      }
      rec += ",\"gold\":" + std::to_string(gold);
      rec += ",\"gold_label\":" + str(gold_name);
      rec += ",\"correct\":";
      rec += pred == gold ? "true" : "false";
    }
    rec += "}";
    recorder.Emit(std::move(rec));
  }
}

Status KgLinkAnnotator::Save(const std::string& prefix) const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("Save before Fit");
  }
  KGLINK_RETURN_IF_ERROR(vocab_->SaveToFile(prefix + ".vocab"));
  std::string labels;
  for (const auto& name : label_names_) labels += name + "\n";
  KGLINK_RETURN_IF_ERROR(WriteFile(prefix + ".labels", labels));
  return model_->Save(prefix + ".weights");
}

Status KgLinkAnnotator::Load(const std::string& prefix) {
  KGLINK_ASSIGN_OR_RETURN(nn::Vocabulary vocab,
                          nn::Vocabulary::LoadFromFile(prefix + ".vocab"));
  vocab_ = std::move(vocab);
  KGLINK_ASSIGN_OR_RETURN(std::string labels_text,
                          ReadFile(prefix + ".labels"));
  label_names_.clear();
  for (auto& line : Split(labels_text, '\n')) {
    if (!line.empty()) label_names_.push_back(std::move(line));
  }
  if (label_names_.empty()) {
    return Status::Corruption("empty label file");
  }
  rng_ = std::make_unique<Rng>(options_.seed);
  serializer_.emplace(&*vocab_, options_.serializer);
  KgLinkModelConfig model_config;
  model_config.encoder = options_.encoder;
  model_config.encoder.vocab_size = vocab_->size();
  model_config.encoder.max_seq_len =
      std::max(model_config.encoder.max_seq_len,
               options_.serializer.max_seq_len);
  model_config.num_labels = static_cast<int>(label_names_.size());
  model_config.dmlm_temperature = options_.dmlm_temperature;
  model_config.composition = options_.composition;
  model_ = std::make_unique<KgLinkModel>(model_config, *rng_);
  return model_->Load(prefix + ".weights");
}

}  // namespace kglink::core
