#ifndef SERD_SEQ2SEQ_KV_CACHE_H_
#define SERD_SEQ2SEQ_KV_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace serd {

class TransformerSeq2Seq;

/// Encoder output captured once per (model, source string) and shared by
/// every candidate decode of that source (TransformerSeq2Seq::GenerateBatch)
/// and by rejection-loop retries via the per-thread cache in
/// StringSynthesisBank. Besides the raw encoder memory it carries the
/// cross-attention key/value projections of every decoder layer, which
/// depend only on the memory and therefore never change across decode
/// steps or candidates. Immutable after EncodeMemory() returns (always
/// handled as EncoderMemoryPtr = shared_ptr<const ...>), so sharing across
/// threads is safe.
struct EncoderMemory {
  struct CrossKv {
    std::vector<float> k;  ///< [mem_len, d_model] = wk(memory)
    std::vector<float> v;  ///< [mem_len, d_model] = wv(memory)
  };

  std::uint64_t model_uid = 0;  ///< TransformerSeq2Seq::uid() that built it
  int mem_len = 0;              ///< encoded (clamped) source length
  int d_model = 0;
  int src_len = 0;  ///< unclamped source id count; drives the length cap
  std::vector<float> values;    ///< [mem_len, d_model] encoder output
  std::vector<CrossKv> cross;   ///< one entry per decoder layer
};

using EncoderMemoryPtr = std::shared_ptr<const EncoderMemory>;

/// Decode-step accounting for the s2.decode_steps counter. One "step" =
/// one next-token logits row.
struct GenerateStats {
  long steps = 0;
};

/// Per-layer self-attention K/V rows of one in-flight decode. Row t of
/// layer l holds wk/wv(LN1(x_t)) exactly as the full re-decode would
/// compute them for position t — each row is written once, when its token
/// is fed, and never touched again (causal masking is implicit: only
/// positions <= t exist in the cache at step t).
class KvCache {
 public:
  /// Sizes the buffers for `num_layers` layers of `capacity` rows of
  /// `d_model` floats and rewinds to length 0. Buffer capacity is kept
  /// across calls, so restarting for a new candidate allocates nothing.
  void Reset(int num_layers, int d_model, int capacity);

  int len() const { return len_; }
  void Advance() { ++len_; }

  float* k(int layer) { return layers_[layer].k.data(); }
  float* v(int layer) { return layers_[layer].v.data(); }

 private:
  struct LayerKv {
    std::vector<float> k;  ///< [capacity, d_model]
    std::vector<float> v;
  };
  std::vector<LayerKv> layers_;
  int len_ = 0;
};

/// Inference-only incremental decoder: each Step() feeds one token and
/// produces the next-token logits row in O(T) attention work instead of
/// re-running the whole prefix (O(T^2) per step). Logits are bit-identical
/// to TransformerSeq2Seq's full re-decode at every step: all matrix work
/// routes through the same nn/kernels GEMM driver, whose per-element
/// accumulation chains do not depend on how many rows are computed at
/// once, and the full path's causal-mask softmax zeros exactly the
/// positions this cache never stores (see DESIGN.md section 5h).
class IncrementalDecoder {
 public:
  /// Binds to `model` (not owned; must outlive the decoder) and the
  /// encoder memory the decode attends over.
  IncrementalDecoder(const TransformerSeq2Seq* model, EncoderMemoryPtr memory);

  /// Rewinds to position 0 for a fresh candidate over the same memory,
  /// reusing all buffers.
  void Restart();

  /// Feeds `token` at the next position and returns the logits row
  /// [vocab_size] for the token after it. The pointer is valid until the
  /// next Step()/Restart(). Checks that the position stays below
  /// config().max_len.
  const float* Step(int token);

  /// Number of tokens fed so far.
  int len() const;

 private:
  const TransformerSeq2Seq* model_;
  EncoderMemoryPtr memory_;
  KvCache cache_;
  // Row-sized scratch, reused across steps and candidates.
  std::vector<float> x_;       // [d] residual stream
  std::vector<float> normed_;  // [d]
  std::vector<float> q_;       // [d]
  std::vector<float> concat_;  // [d] per-head attention outputs
  std::vector<float> attn_;    // [d] output-projected attention
  std::vector<float> h_;       // [d] post-self-attention residual
  std::vector<float> scores_;  // [max(max_len, mem_len)]
  std::vector<float> ff_;      // [ffn_dim]
  std::vector<float> logits_;  // [vocab_size]
};

}  // namespace serd

#endif  // SERD_SEQ2SEQ_KV_CACHE_H_
