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

/// y[out] = x[in] * W + b, the row mirror of Linear::Forward (MatMul then
/// per-row bias Add — identical kernel calls, so identical rounding). The
/// GEMM driver accumulates every output element in its own sequential
/// chain over k whatever the row count, so `y` is bit-identical to the
/// matching row of the full forward. `y` must not alias `x`.
void LinearRowInto(const nn::Linear& lin, const float* x, float* y) {
  const auto& w = lin.weight();
  const std::size_t in = w->rows(), out = w->cols();
  k::GemmNN(1, out, in, x, w->value().data(), y, /*accumulate=*/false);
  if (lin.bias() != nullptr) k::Add(out, y, lin.bias()->value().data(), y);
}

}  // namespace

void KvCache::Reset(int num_layers, int d_model, int capacity) {
  layers_.resize(num_layers);
  const std::size_t floats =
      static_cast<std::size_t>(capacity) * static_cast<std::size_t>(d_model);
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

    // Causal self-attention: project the new row, append its K/V to the
    // cache, attend over positions [0, pos]. The full path's causal mask
    // drives the softmax weight of every position > pos to exactly 0
    // (kernels::Exp returns +0 below its cutoff, far above the -1e9
    // logits), so restricting the extent to `len` is bit-exact, not an
    // approximation.
    const MultiHeadAttention& self = *layer.self_attn_;
    LayerNormRow(*layer.ln1_, d, x_.data(), normed_.data());
    LinearRowInto(*self.wq_, normed_.data(), q_.data());
    LinearRowInto(*self.wk_, normed_.data(),
                  cache_.k(l) + static_cast<std::size_t>(pos) * d);
    LinearRowInto(*self.wv_, normed_.data(),
                  cache_.v(l) + static_cast<std::size_t>(pos) * d);
    AttentionRow(self.num_heads_, self.head_dim_, d, len, q_.data(),
                 cache_.k(l), cache_.v(l), scores_.data(), concat_.data());
    LinearRowInto(*self.wo_, concat_.data(), attn_.data());
    k::Add(d, x_.data(), attn_.data(), h_.data());

    // Cross-attention over the precomputed encoder K/V.
    const MultiHeadAttention& cross = *layer.cross_attn_;
    const EncoderMemory::CrossKv& ckv = memory_->cross[l];
    LayerNormRow(*layer.ln2_, d, h_.data(), normed_.data());
    LinearRowInto(*cross.wq_, normed_.data(), q_.data());
    AttentionRow(cross.num_heads_, cross.head_dim_, d, memory_->mem_len,
                 q_.data(), ckv.k.data(), ckv.v.data(), scores_.data(),
                 concat_.data());
    LinearRowInto(*cross.wo_, concat_.data(), attn_.data());
    k::Add(d, h_.data(), attn_.data(), h_.data());

    // FFN.
    LayerNormRow(*layer.ln3_, d, h_.data(), normed_.data());
    LinearRowInto(*layer.ffn1_, normed_.data(), ff_.data());
    k::Gelu(ff_.size(), ff_.data(), ff_.data());
    LinearRowInto(*layer.ffn2_, ff_.data(), attn_.data());
    k::Add(d, h_.data(), attn_.data(), x_.data());
  }
  cache_.Advance();

  LayerNormRow(*model_->final_ln_, d, x_.data(), normed_.data());
  LinearRowInto(*model_->output_proj_, normed_.data(), logits_.data());
  return logits_.data();
}

}  // namespace serd
