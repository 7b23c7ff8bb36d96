#include "seq2seq/kv_cache.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"
#include "seq2seq/transformer.h"

namespace serd {

namespace {

namespace k = nn::kernels;

/// y[d] = LN(x[d]), the single-row mirror of LayerNormLayer::Forward at
/// inference (same kernel, same 1e-5 eps as Tape::LayerNorm's default).
void LayerNormRow(const nn::LayerNormLayer& ln, std::size_t d, const float* x,
                  float* y) {
  k::LayerNormRows(1, d, x, ln.gamma()->value().data(),
                   ln.beta()->value().data(), 1e-5f, y,
                   /*xhat=*/nullptr, /*inv_std=*/nullptr);
}

/// One query row against `len` cached K/V rows, all heads. `kbuf`/`vbuf`
/// are [*, d] row-major with the head's columns at offset h*head_dim, so
/// the score GEMM reads K transposed via strides (brs=1, bcs=d) and the
/// mix GEMM reads V directly (brs=d, bcs=1) — no copies. The scale is
/// applied after the score GEMM, matching the full path's
/// Scale(MatMul(...)) order.
void AttentionRow(int num_heads, int head_dim, int d, int len, const float* q,
                  const float* kbuf, const float* vbuf, float* scores,
                  float* out) {
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  for (int h = 0; h < num_heads; ++h) {
    const std::size_t off = static_cast<std::size_t>(h) * head_dim;
    k::GemmStrided(1, len, head_dim, q + off, head_dim, 1, kbuf + off, 1, d,
                   scores, /*accumulate=*/false);
    k::ScaleCopy(len, scale, scores, scores);
    k::SoftmaxRows(1, len, scores, /*add_mask=*/nullptr, scores);
    k::GemmStrided(1, head_dim, len, scores, len, 1, vbuf + off, d, 1,
                   out + off, /*accumulate=*/false);
  }
}

/// y[rows, out] = x[rows, in] * W + b, the row mirror of Linear::Forward
/// (MatMul then per-row bias Add — identical kernel calls, so identical
/// rounding): one GEMM over all rows, then the bias. The GEMM driver
/// accumulates every output element in its own sequential chain over k
/// whatever the row count, so each row of `y` is bit-identical to a
/// 1-row call and to the matching row of the full forward. `y` must not
/// alias `x`.
void LinearRowsInto(const nn::Linear& lin, std::size_t rows, const float* x,
                    float* y) {
  const auto& w = lin.weight();
  const std::size_t in = w->rows(), out = w->cols();
  k::GemmNN(rows, out, in, x, w->value().data(), y, /*accumulate=*/false);
  if (lin.bias() != nullptr) {
    const float* bias = lin.bias()->value().data();
    for (std::size_t r = 0; r < rows; ++r) {
      k::Add(out, y + r * out, bias, y + r * out);
    }
  }
}

/// Routes one per-step projection of `rows` rows: the quantized kernel
/// when a reduced-precision copy is attached (QuantizedGemm's per-element
/// chains are m-independent like the fp32 driver, so lane batching stays
/// bit-exact per lane within a precision), the exact fp32 path otherwise.
void ProjectRows(const nn::QuantizedLinear* q, const nn::Linear& lin,
                 std::size_t rows, const float* x, float* y) {
  if (q != nullptr) {
    k::QuantizedGemm(q->w, q->bias.empty() ? nullptr : q->bias.data(), rows,
                     x, y);
    return;
  }
  LinearRowsInto(lin, rows, x, y);
}

/// y[rows, d] = LN(x[rows, d]) row-wise — LayerNormRows normalizes each
/// row independently, so this equals `rows` LayerNormRow calls.
void LayerNormRowsInto(const nn::LayerNormLayer& ln, std::size_t rows,
                       std::size_t d, const float* x, float* y) {
  k::LayerNormRows(rows, d, x, ln.gamma()->value().data(),
                   ln.beta()->value().data(), 1e-5f, y,
                   /*xhat=*/nullptr, /*inv_std=*/nullptr);
}

/// `m` query rows against one shared [len, d] K/V pair, all heads — the
/// M-row mirror of AttentionRow. Per head: one M-row score GEMM, one
/// softmax over [m, len], one M-row mix GEMM into the dense `mix`
/// scratch, then a copy of each row into its head-column slice of `out`
/// (the strided GEMM writes C densely, so the scatter is a copy, not
/// arithmetic). Row i is bit-identical to AttentionRow on q row i: the
/// GEMM driver's per-element chains ignore the row count, ScaleCopy is
/// elementwise, and SoftmaxRows is row-independent.
void AttentionRows(int num_heads, int head_dim, int d, int len, std::size_t m,
                   const float* q, const float* kbuf, const float* vbuf,
                   float* scores, float* mix, float* out) {
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  for (int h = 0; h < num_heads; ++h) {
    const std::size_t off = static_cast<std::size_t>(h) * head_dim;
    k::GemmStrided(m, len, head_dim, q + off, d, 1, kbuf + off, 1, d,
                   scores, /*accumulate=*/false);
    k::ScaleCopy(m * static_cast<std::size_t>(len), scale, scores, scores);
    k::SoftmaxRows(m, len, scores, /*add_mask=*/nullptr, scores);
    k::GemmStrided(m, head_dim, len, scores, len, 1, vbuf + off, d, 1,
                   mix, /*accumulate=*/false);
    for (std::size_t i = 0; i < m; ++i) {
      std::copy(mix + i * head_dim, mix + (i + 1) * head_dim,
                out + i * d + off);
    }
  }
}

}  // namespace

void KvCache::Reset(int num_layers, int d_model, int capacity, int num_lanes) {
  layers_.resize(num_layers);
  lane_stride_ =
      static_cast<std::size_t>(capacity) * static_cast<std::size_t>(d_model);
  const std::size_t floats =
      lane_stride_ * static_cast<std::size_t>(num_lanes);
  for (auto& layer : layers_) {
    if (layer.k.size() < floats) layer.k.resize(floats);
    if (layer.v.size() < floats) layer.v.resize(floats);
  }
  len_ = 0;
}

IncrementalDecoder::IncrementalDecoder(const TransformerSeq2Seq* model,
                                       EncoderMemoryPtr memory)
    : model_(model), memory_(std::move(memory)) {
  SERD_CHECK(model_ != nullptr);
  SERD_CHECK(memory_ != nullptr);
  SERD_CHECK_EQ(memory_->model_uid, model_->uid())
      << "encoder memory was built by a different model";
  const TransformerConfig& cfg = model_->config();
  SERD_CHECK_EQ(memory_->d_model, cfg.d_model);
  SERD_CHECK_EQ(memory_->cross.size(), model_->decoder_.size());
  cache_.Reset(cfg.num_layers, cfg.d_model, cfg.max_len);
  x_.resize(cfg.d_model);
  normed_.resize(cfg.d_model);
  q_.resize(cfg.d_model);
  concat_.resize(cfg.d_model);
  attn_.resize(cfg.d_model);
  h_.resize(cfg.d_model);
  scores_.resize(std::max(cfg.max_len, memory_->mem_len));
  ff_.resize(cfg.ffn_dim);
  logits_.resize(cfg.vocab_size);
}

void IncrementalDecoder::Restart() {
  const TransformerConfig& cfg = model_->config();
  cache_.Reset(cfg.num_layers, cfg.d_model, cfg.max_len);
}

int IncrementalDecoder::len() const { return cache_.len(); }

const float* IncrementalDecoder::Step(int token) {
  const TransformerConfig& cfg = model_->config_;
  const int d = cfg.d_model;
  const int pos = cache_.len();
  SERD_CHECK_LT(pos, cfg.max_len) << "decode position past max_len";
  SERD_CHECK(token >= 0 && token < cfg.vocab_size)
      << "token id out of range: " << token;

  // x = token_embed[token] + pos_embed[pos], row `pos` of the full path's
  // embedding sum.
  const float* tok_row = model_->token_embed_->table()->value().data() +
                         static_cast<std::size_t>(token) * d;
  const float* pos_row = model_->pos_embed_->table()->value().data() +
                         static_cast<std::size_t>(pos) * d;
  k::Add(d, tok_row, pos_row, x_.data());

  const int len = pos + 1;
  for (std::size_t l = 0; l < model_->decoder_.size(); ++l) {
    const DecoderLayer& layer = *model_->decoder_[l];
    // Quantized projection weights for this layer, when attached. The KV
    // cache itself and everything outside the projections (LN, attention,
    // embeddings, logits) stays fp32 (DESIGN.md §5m).
    const QuantizedDecoderLayer* ql =
        model_->quant_ != nullptr ? &model_->quant_->layers[l] : nullptr;

    // Causal self-attention: project the new row, append its K/V to the
    // cache, attend over positions [0, pos]. The full path's causal mask
    // drives the softmax weight of every position > pos to exactly 0
    // (kernels::Exp returns +0 below its cutoff, far above the -1e9
    // logits), so restricting the extent to `len` is bit-exact, not an
    // approximation.
    const MultiHeadAttention& self = *layer.self_attn_;
    LayerNormRow(*layer.ln1_, d, x_.data(), normed_.data());
    ProjectRows(ql ? &ql->self_wq : nullptr, *self.wq_, 1, normed_.data(),
                q_.data());
    ProjectRows(ql ? &ql->self_wk : nullptr, *self.wk_, 1, normed_.data(),
                cache_.k(l) + static_cast<std::size_t>(pos) * d);
    ProjectRows(ql ? &ql->self_wv : nullptr, *self.wv_, 1, normed_.data(),
                cache_.v(l) + static_cast<std::size_t>(pos) * d);
    AttentionRow(self.num_heads_, self.head_dim_, d, len, q_.data(),
                 cache_.k(l), cache_.v(l), scores_.data(), concat_.data());
    ProjectRows(ql ? &ql->self_wo : nullptr, *self.wo_, 1, concat_.data(),
                attn_.data());
    k::Add(d, x_.data(), attn_.data(), h_.data());

    // Cross-attention over the precomputed encoder K/V.
    const MultiHeadAttention& cross = *layer.cross_attn_;
    const EncoderMemory::CrossKv& ckv = memory_->cross[l];
    LayerNormRow(*layer.ln2_, d, h_.data(), normed_.data());
    ProjectRows(ql ? &ql->cross_wq : nullptr, *cross.wq_, 1, normed_.data(),
                q_.data());
    AttentionRow(cross.num_heads_, cross.head_dim_, d, memory_->mem_len,
                 q_.data(), ckv.k.data(), ckv.v.data(), scores_.data(),
                 concat_.data());
    ProjectRows(ql ? &ql->cross_wo : nullptr, *cross.wo_, 1, concat_.data(),
                attn_.data());
    k::Add(d, h_.data(), attn_.data(), h_.data());

    // FFN.
    LayerNormRow(*layer.ln3_, d, h_.data(), normed_.data());
    ProjectRows(ql ? &ql->ffn1 : nullptr, *layer.ffn1_, 1, normed_.data(),
                ff_.data());
    k::Gelu(ff_.size(), ff_.data(), ff_.data());
    ProjectRows(ql ? &ql->ffn2 : nullptr, *layer.ffn2_, 1, ff_.data(),
                attn_.data());
    k::Add(d, h_.data(), attn_.data(), x_.data());
  }
  cache_.Advance();

  LayerNormRow(*model_->final_ln_, d, x_.data(), normed_.data());
  LinearRowsInto(*model_->output_proj_, 1, normed_.data(), logits_.data());
  return logits_.data();
}

BatchedDecoder::BatchedDecoder(const TransformerSeq2Seq* model,
                               std::vector<EncoderMemoryPtr> memories)
    : model_(model), memories_(std::move(memories)) {
  SERD_CHECK(model_ != nullptr);
  SERD_CHECK(!memories_.empty());
  const TransformerConfig& cfg = model_->config();
  int max_mem = 0;
  for (const auto& mem : memories_) {
    SERD_CHECK(mem != nullptr);
    SERD_CHECK_EQ(mem->model_uid, model_->uid())
        << "encoder memory was built by a different model";
    SERD_CHECK_EQ(mem->d_model, cfg.d_model);
    SERD_CHECK_EQ(mem->cross.size(), model_->decoder_.size());
    max_mem = std::max(max_mem, mem->mem_len);
  }
  const std::size_t n = memories_.size();
  const std::size_t d = cfg.d_model;
  cache_.Reset(cfg.num_layers, cfg.d_model, cfg.max_len,
               static_cast<int>(n));
  x_.resize(n * d);
  normed_.resize(n * d);
  q_.resize(n * d);
  knew_.resize(n * d);
  vnew_.resize(n * d);
  concat_.resize(n * d);
  attn_.resize(n * d);
  h_.resize(n * d);
  scores_.resize(n * static_cast<std::size_t>(std::max(cfg.max_len, max_mem)));
  mix_.resize(n * d);
  ff_.resize(n * static_cast<std::size_t>(cfg.ffn_dim));
  logits_.resize(n * static_cast<std::size_t>(cfg.vocab_size));
  // Candidate decode hands every lane the same memory; detect that and
  // let cross-attention batch its score/mix GEMMs over all live rows.
  shared_memory_ = memories_[0].get();
  for (const auto& mem : memories_) {
    if (mem.get() != shared_memory_) {
      shared_memory_ = nullptr;
      break;
    }
  }
}

void BatchedDecoder::Restart() {
  const TransformerConfig& cfg = model_->config();
  cache_.Reset(cfg.num_layers, cfg.d_model, cfg.max_len,
               static_cast<int>(memories_.size()));
}

const float* BatchedDecoder::Step(const std::vector<int>& lanes,
                                  const std::vector<int>& tokens) {
  const TransformerConfig& cfg = model_->config_;
  const std::size_t d = cfg.d_model;
  const std::size_t m = lanes.size();
  SERD_CHECK_GT(m, 0u) << "batched step with no live lanes";
  SERD_CHECK_EQ(tokens.size(), m);
  const int pos = cache_.len();
  SERD_CHECK_LT(pos, cfg.max_len) << "decode position past max_len";

  // Row i of every scratch buffer belongs to lane lanes[i]. All live lanes
  // share position `pos`, so one positional-embedding row serves the batch.
  const float* pos_row = model_->pos_embed_->table()->value().data() +
                         static_cast<std::size_t>(pos) * d;
  for (std::size_t i = 0; i < m; ++i) {
    SERD_CHECK(lanes[i] >= 0 && lanes[i] < num_lanes())
        << "lane id out of range: " << lanes[i];
    SERD_CHECK(tokens[i] >= 0 && tokens[i] < cfg.vocab_size)
        << "token id out of range: " << tokens[i];
    const float* tok_row = model_->token_embed_->table()->value().data() +
                           static_cast<std::size_t>(tokens[i]) * d;
    k::Add(d, tok_row, pos_row, x_.data() + i * d);
  }

  const int len = pos + 1;
  for (std::size_t l = 0; l < model_->decoder_.size(); ++l) {
    const DecoderLayer& layer = *model_->decoder_[l];
    // Per-layer quantized projections when attached (see the single-lane
    // Step above) — m-row quantized calls stay bit-identical per row, so
    // the lockstep/oracle equivalence holds at every precision.
    const QuantizedDecoderLayer* ql =
        model_->quant_ != nullptr ? &model_->quant_->layers[l] : nullptr;

    // Causal self-attention: project all live rows in one GEMM per weight,
    // land each lane's fresh K/V row in that lane's cache slice, then
    // attend per lane (attention extents differ only across layers, not
    // lanes, but the score/mix GEMMs are single-query anyway).
    const MultiHeadAttention& self = *layer.self_attn_;
    LayerNormRowsInto(*layer.ln1_, m, d, x_.data(), normed_.data());
    ProjectRows(ql ? &ql->self_wq : nullptr, *self.wq_, m, normed_.data(),
                q_.data());
    ProjectRows(ql ? &ql->self_wk : nullptr, *self.wk_, m, normed_.data(),
                knew_.data());
    ProjectRows(ql ? &ql->self_wv : nullptr, *self.wv_, m, normed_.data(),
                vnew_.data());
    for (std::size_t i = 0; i < m; ++i) {
      const int lane = lanes[i];
      float* krow = cache_.k(l, lane) + static_cast<std::size_t>(pos) * d;
      float* vrow = cache_.v(l, lane) + static_cast<std::size_t>(pos) * d;
      std::copy(knew_.begin() + i * d, knew_.begin() + (i + 1) * d, krow);
      std::copy(vnew_.begin() + i * d, vnew_.begin() + (i + 1) * d, vrow);
      AttentionRow(self.num_heads_, self.head_dim_, static_cast<int>(d), len,
                   q_.data() + i * d, cache_.k(l, lane), cache_.v(l, lane),
                   scores_.data(), concat_.data() + i * d);
    }
    ProjectRows(ql ? &ql->self_wo : nullptr, *self.wo_, m, concat_.data(),
                attn_.data());
    k::Add(m * d, x_.data(), attn_.data(), h_.data());

    // Cross-attention over the precomputed encoder K/V: one batched
    // score/mix pass per head when every lane shares the memory, per-lane
    // single-query passes otherwise.
    const MultiHeadAttention& cross = *layer.cross_attn_;
    LayerNormRowsInto(*layer.ln2_, m, d, h_.data(), normed_.data());
    ProjectRows(ql ? &ql->cross_wq : nullptr, *cross.wq_, m, normed_.data(),
                q_.data());
    if (shared_memory_ != nullptr) {
      const EncoderMemory::CrossKv& ckv = shared_memory_->cross[l];
      AttentionRows(cross.num_heads_, cross.head_dim_, static_cast<int>(d),
                    shared_memory_->mem_len, m, q_.data(), ckv.k.data(),
                    ckv.v.data(), scores_.data(), mix_.data(),
                    concat_.data());
    } else {
      for (std::size_t i = 0; i < m; ++i) {
        const EncoderMemory& mem = *memories_[lanes[i]];
        const EncoderMemory::CrossKv& ckv = mem.cross[l];
        AttentionRow(cross.num_heads_, cross.head_dim_, static_cast<int>(d),
                     mem.mem_len, q_.data() + i * d, ckv.k.data(),
                     ckv.v.data(), scores_.data(), concat_.data() + i * d);
      }
    }
    ProjectRows(ql ? &ql->cross_wo : nullptr, *cross.wo_, m, concat_.data(),
                attn_.data());
    k::Add(m * d, h_.data(), attn_.data(), h_.data());

    // FFN.
    LayerNormRowsInto(*layer.ln3_, m, d, h_.data(), normed_.data());
    ProjectRows(ql ? &ql->ffn1 : nullptr, *layer.ffn1_, m, normed_.data(),
                ff_.data());
    k::Gelu(m * static_cast<std::size_t>(cfg.ffn_dim), ff_.data(), ff_.data());
    ProjectRows(ql ? &ql->ffn2 : nullptr, *layer.ffn2_, m, ff_.data(),
                attn_.data());
    k::Add(m * d, h_.data(), attn_.data(), x_.data());
  }
  cache_.Advance();

  LayerNormRowsInto(*model_->final_ln_, m, d, x_.data(), normed_.data());
  LinearRowsInto(*model_->output_proj_, m, normed_.data(), logits_.data());
  return logits_.data();
}

}  // namespace serd
