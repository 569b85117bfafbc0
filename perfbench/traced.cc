#include "traced.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "core/serializer.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "nn/vocab.h"

namespace perfbench {

namespace nn = kglink::nn;

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kSubmit: return "serve.submit";
    case SpanKind::kWait: return "serve.wait";
    case SpanKind::kProcess: return "linker.process";
    case SpanKind::kPredict: return "core.predict";
    case SpanKind::kReplay: return "replay";
    case SpanKind::kTopK: return "search.topk";
    case SpanKind::kForward: return "nn.forward";
    case SpanKind::kTrainStep: return "nn.train_step";
    case SpanKind::kNone: break;
  }
  return "none";
}

std::vector<KindSummary> Summarize(const std::vector<Span>& spans,
                                   Phase phase) {
  // Child time per (request, parent kind), clipped to the parent's span.
  std::map<std::pair<int64_t, SpanKind>, const Span*> by_key;
  for (const Span& s : spans) {
    if (s.phase == phase) by_key[{s.request, s.kind}] = &s;
  }
  std::map<std::pair<int64_t, SpanKind>, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.phase != phase || s.parent == SpanKind::kNone) continue;
    auto it = by_key.find({s.request, s.parent});
    if (it == by_key.end()) continue;
    const Span& p = *it->second;
    int64_t overlap = std::min(s.end_ns, p.end_ns) -
                      std::max(s.start_ns, p.start_ns);
    child_ns[{s.request, s.parent}] += std::max<int64_t>(overlap, 0);
  }
  std::vector<KindSummary> out(kNumSpanKinds);
  for (const Span& s : spans) {
    if (s.phase != phase) continue;
    KindSummary& k = out[static_cast<size_t>(s.kind)];
    double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    auto child = child_ns.find({s.request, s.kind});
    double child_us =
        child == child_ns.end() ? 0.0 : static_cast<double>(child->second) / 1e3;
    ++k.count;
    k.total_us += us;
    k.mean_self_us += us - child_us;
    k.units += s.units;
  }
  for (KindSummary& k : out) {
    if (k.count == 0) continue;
    k.mean_us = k.total_us / static_cast<double>(k.count);
    k.mean_self_us /= static_cast<double>(k.count);
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"req\":%lld,\"span\":\"%s\",\"parent\":\"%s\","
                 "\"phase\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"units\":%lld}\n",
                 static_cast<long long>(s.request), SpanName(s.kind),
                 SpanName(s.parent),
                 s.phase == Phase::kLoad ? "load" : "standalone",
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.units));
  }
  return std::fclose(f) == 0;
}

void RunReplays(const Workbench& bench, core::KgLinkAnnotator& annotator,
                const std::vector<const table::Table*>& tables, uint64_t seed,
                int64_t first_request_id, SpanLog* spans) {
  const core::KgLinkOptions config = AnnotatorOptions();
  // Serialized lengths do not depend on the vocabulary (every word is one
  // token, known or not), so a specials-only vocabulary reproduces the
  // annotator's sequences token for token.
  nn::Vocabulary vocab;
  core::TableSerializer serializer(&vocab, config.serializer);
  nn::EncoderConfig encoder_config = config.encoder;
  encoder_config.vocab_size = config.max_vocab;
  encoder_config.max_seq_len =
      std::max(encoder_config.max_seq_len, config.serializer.max_seq_len);
  Rng rng(StreamSeed(seed, 9, 0));
  nn::TransformerEncoder encoder(encoder_config, rng);
  nn::AdamWOptions adam;
  adam.lr = config.lr;
  adam.eps = config.adam_eps;
  adam.weight_decay = config.weight_decay;
  nn::AdamW optimizer(encoder.Parameters(), adam);

  std::vector<Span> out;
  auto record = [&](int64_t id, SpanKind kind, SpanKind parent,
                    int64_t start_ns, int64_t end_ns, int64_t units) {
    out.push_back({id, kind, parent, Phase::kStandalone, start_ns, end_ns,
                   units});
  };
  for (size_t i = 0; i < tables.size(); ++i) {
    const table::Table& t = *tables[i];
    int64_t id = first_request_id + static_cast<int64_t>(i);

    int64_t start_ns = NowNs();
    kglink::linker::ProcessedTable processed = annotator.Preprocess(t);
    int64_t processed_ns = NowNs();
    annotator.PredictProcessed(processed);
    int64_t predicted_ns = NowNs();

    struct Sequence {
      std::vector<int> tokens;
      std::vector<int> segments;
    };
    std::vector<Sequence> sequences;
    int64_t tokens = 0;
    for (core::SerializedTable& chunk : serializer.Serialize(
             processed, core::LabelSlot::kMask, nullptr,
             config.use_candidate_types)) {
      sequences.push_back({std::move(chunk.tokens), std::move(chunk.segments)});
    }
    for (const kglink::linker::ColumnKgInfo& info : processed.columns) {
      if (!config.use_feature_vector || !info.has_feature) continue;
      std::vector<int> feature = serializer.EncodeFeature(info.feature_sequence);
      if (!feature.empty()) sequences.push_back({std::move(feature), {}});
    }
    for (const Sequence& s : sequences) {
      tokens += static_cast<int64_t>(s.tokens.size());
    }

    int64_t topk_start_ns = NowNs();
    int64_t queries = 0;
    for (int r = 0; r < t.num_rows(); ++r) {
      for (int c = 0; c < t.num_cols(); ++c) {
        const table::Cell& cell = t.at(r, c);
        if (cell.kind != table::CellKind::kString) continue;
        auto hits = bench.engine.TopK(cell.text,
                                      config.linker.max_entities_per_cell);
        (void)hits;
        ++queries;
      }
    }
    int64_t forward_start_ns = NowNs();
    for (const Sequence& s : sequences) {
      nn::Tensor hidden =
          encoder.Forward(s.tokens, s.segments, rng, /*training=*/false);
      (void)hidden;
    }
    int64_t train_start_ns = NowNs();
    for (const Sequence& s : sequences) {
      nn::Tensor hidden =
          encoder.Forward(s.tokens, s.segments, rng, /*training=*/true);
      nn::Mean(hidden).Backward();
    }
    optimizer.Step();
    optimizer.ZeroGrad();
    int64_t end_ns = NowNs();

    record(id, SpanKind::kProcess, SpanKind::kReplay, start_ns, processed_ns,
           t.num_rows());
    record(id, SpanKind::kPredict, SpanKind::kReplay, processed_ns,
           predicted_ns, tokens);
    record(id, SpanKind::kTopK, SpanKind::kReplay, topk_start_ns,
           forward_start_ns, queries);
    record(id, SpanKind::kForward, SpanKind::kReplay, forward_start_ns,
           train_start_ns, tokens);
    record(id, SpanKind::kTrainStep, SpanKind::kReplay, train_start_ns,
           end_ns, tokens);
    record(id, SpanKind::kReplay, SpanKind::kNone, start_ns, end_ns, 0);
  }
  spans->Append(std::move(out));
}

}  // namespace perfbench
