#ifndef SERD_SEQ2SEQ_MODEL_BANK_H_
#define SERD_SEQ2SEQ_MODEL_BANK_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "seq2seq/trainer.h"
#include "seq2seq/transformer.h"
#include "text/char_vocab.h"

namespace serd {

/// Similarity function over strings (bound to the column's measure).
using StringSimFn =
    std::function<double(const std::string&, const std::string&)>;

/// Options for the bucketed string synthesizer (paper Section VI).
struct StringBankOptions {
  int num_buckets = 10;        ///< paper: 10 similarity intervals
  int num_candidates = 10;     ///< paper: 10 sampled decoder outputs
  float temperature = 0.9f;    ///< decoding temperature
  TransformerConfig transformer;  ///< vocab_size is filled during training
  Seq2SeqTrainOptions train;
  int max_pairs_per_bucket = 160;
  int min_pairs_per_bucket = 6;   ///< buckets below this are left untrained
  int random_pair_samples = 4000; ///< background pairs examined for bucketing

  /// When the best transformer candidate misses the target similarity by
  /// more than this, a hill-climbing refinement pass nudges it toward the
  /// target (keeps the pipeline usable at CPU-scale model capacity; see
  /// DESIGN.md). Deliberately loose by default: a synthesis step that can
  /// miss is what the paper's entity rejection (Section V) exists to
  /// police — SERD rejects the misses, SERD- keeps them. Set >= 1 to
  /// disable refinement entirely.
  double refine_threshold = 0.22;

  /// Decoder outputs whose fraction of known-pool words falls below this
  /// are discarded as degenerate. Low by default for the same reason as
  /// refine_threshold: implausible entities should reach the GAN
  /// discriminator, whose rejection is the paper's case-1 mechanism.
  double min_pool_word_fraction = 0.15;

  /// Decode candidates through the KV-cached incremental path
  /// (IncrementalDecoder + shared encoder memory + per-thread
  /// encoder-memory cache). Off = the original per-candidate full
  /// re-decode, kept as the reference implementation the cached path is
  /// validated against (serd_cli --reference-decode). Both settings
  /// produce bit-identical synthesized strings at a fixed seed.
  bool incremental_decode = true;

  /// Decode candidates on per-candidate RNG streams (one counter-derived
  /// stream per candidate index) so all live candidates advance
  /// token-lockstep through one M-row GEMM per weight per layer per step
  /// (TransformerSeq2Seq::GenerateBatchLanes). Off by default because the
  /// per-candidate streams draw differently from the shared-stream path,
  /// so released bytes change when this flips (DESIGN.md §5k) — quality is
  /// gated e2e instead (F1 delta vs --reference-decode). Only consulted
  /// when incremental_decode is on, and only by calls without a BankRun
  /// (a run passes its own route in BankRun::batched_decode).
  bool batched_decode = false;

  /// With batched_decode: true = token-lockstep matrix batching, false =
  /// the lane-sequential per-candidate-stream oracle (same streams, lanes
  /// decoded one at a time). Both produce bit-identical strings — the
  /// oracle exists for equivalence tests and the ci.sh diff stage.
  bool batched_lockstep = true;

  /// Numeric format for the KV-cached decode projections (DESIGN.md §5m):
  /// kFp32 is the exact path, kBf16/kInt8 quantize each trained model's
  /// decoder projection weights once after training/restore and route the
  /// per-step GEMMs through the reduced-precision kernels. Released bytes
  /// can change vs fp32 (perturbed logits), which is why the quality gate
  /// is an e2e F1/JSD delta bound, not bitwise equality. Only consulted
  /// when incremental_decode is on — the full re-decode reference
  /// (--reference-decode) always runs fp32.
  nn::DecodePrecision decode_precision = nn::DecodePrecision::kFp32;

  /// Observability sink (not owned; nullptr = off): counters
  /// s2.bank_synth_calls / s2.bank_fallback_calls / s2.bank_refined_calls
  /// / s2.bank_empty_decode_calls (model-backed calls whose decode kept no
  /// candidate) / s2.decode_steps / s2.decode_cached_steps /
  /// s2.decode_quantized_steps /
  /// s2.encoder_cache_hits / s2.encoder_cache_misses,
  /// histogram s2.bank_bucket (index of the model actually used).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-bucket training statistics, serialized by the artifact store.
struct StringBankStats {
  std::vector<int> pairs_per_bucket;
  std::vector<bool> bucket_trained;
  double train_seconds = 0.0;
  double mean_epsilon = 0.0;  ///< mean DP epsilon across trained buckets
  // Call counters of the artifact format. Runs never write them (a run's
  // accounting lives in its BankRun), so they hold what training left (0)
  // or what an older artifact recorded; they round-trip byte for byte.
  int synth_calls = 0;
  int refined_calls = 0;
  std::vector<long> bucket_hits;  ///< length num_buckets once trained
  long fallback_calls = 0;
};

/// One run's controls and accounting for StringSynthesisBank::Synthesize.
/// The bank keeps no run state, so concurrent runs on one bank each pass
/// their own (SerdSynthesizer passes one per run to all its text columns'
/// banks, which then sum into it).
struct BankRun {
  /// Decode route of these calls; overrides StringBankOptions::
  /// batched_decode.
  bool batched_decode = false;
  /// Cooperative cancellation (not owned; nullptr = never cancelled). A
  /// tripped token is folded into the decoder's early-stop callbacks, so a
  /// call abandons its remaining candidates within one decode step and
  /// returns its best-so-far; the caller observes the token at its next
  /// poll and discards the truncated string, so it is never released.
  const CancelToken* cancel = nullptr;

  long fallback_calls = 0;    ///< calls served by hill-climb search alone
  /// Calls served by each bucket's model (after the nearest-trained-bucket
  /// redirect); grows to the bank's bucket count on first use.
  std::vector<long> bucket_hits;
  long decode_steps = 0;         ///< next-token logits rows computed
  long decode_cached_steps = 0;  ///< of those, served by the KV cache
  long decode_quantized_steps = 0;  ///< of those, int8/bf16 projections
  long encoder_cache_hits = 0;   ///< encoder memory reused from the cache
  long encoder_cache_misses = 0; ///< encoder memory computed fresh
};

/// The paper's string synthesizer: k transformer models M_1..M_k, one per
/// similarity interval I_i, trained differentially privately on background
/// string pairs whose similarity falls in I_i. Synthesize(s, sim) picks
/// the bucket containing sim, samples `num_candidates` outputs, and
/// returns the one whose achieved similarity is closest to sim.
class StringSynthesisBank {
 public:
  StringSynthesisBank(StringBankOptions options, StringSimFn sim);

  /// Trains the bank from a background corpus (strings from the same
  /// domain, disjoint from the active domain — the privacy mechanism of
  /// paper Fig. 2). Pairs are formed by (a) random corpus pairs, which
  /// populate the low-similarity buckets, and (b) perturbation-augmented
  /// pairs (s, perturb*(s)), which populate mid/high buckets the way
  /// near-duplicates do in real crawled corpora.
  Status Train(const std::vector<std::string>& background_corpus, Rng* rng);

  /// Trains from explicit labeled pairs (callers that already have them).
  Status TrainFromPairs(
      const std::vector<std::pair<std::string, std::string>>& pairs,
      Rng* rng);

  /// Synthesizes s' with sim(s, s') ≈ target_sim. Falls back to
  /// hill-climbing from s (high targets) or from a random background
  /// string (low targets) for untrained buckets. `run` (optional) supplies
  /// the decode route and cancel token and collects the accounting; null
  /// decodes by StringBankOptions::batched_decode with no cancel token.
  /// Writes nothing to the bank, so any number of threads may call it.
  std::string Synthesize(const std::string& s, double target_sim, Rng* rng,
                         BankRun* run = nullptr) const;

  bool trained() const { return trained_; }
  const StringBankStats& stats() const { return stats_; }
  const CharVocab& vocab() const { return vocab_; }

  /// Sets the decode precision of a trained/restored bank, before it
  /// serves any run (training, restore and the artifact load call it).
  /// Quantizes every trained model's decoder projections to `precision`
  /// (a no-op for models already carrying that precision, including
  /// pre-quantized artifact loads) or clears them back to the exact fp32
  /// path. The trained fp32 weights are never modified.
  void set_decode_precision(nn::DecodePrecision precision);
  nn::DecodePrecision decode_precision() const {
    return options_.decode_precision;
  }

  /// The bucket index whose interval contains `sim`.
  int BucketOf(double sim) const;

  // --- artifact-store access (src/artifact) ---

  /// Per-bucket models (index = bucket; null = untrained bucket).
  const std::vector<std::unique_ptr<TransformerSeq2Seq>>& models() const {
    return models_;
  }

  /// Mutable access to a bucket's model (null = untrained bucket). Used by
  /// the artifact store to attach pre-quantized decode weights after
  /// RestoreTrained; never replaces the model itself.
  TransformerSeq2Seq* mutable_model(std::size_t bucket) {
    return bucket < models_.size() ? models_[bucket].get() : nullptr;
  }
  const std::vector<std::string>& corpus() const { return corpus_; }
  const std::vector<std::string>& word_pool() const { return word_pool_; }

  /// Reinstates a trained bank from serialized state without re-running
  /// DP training (warm start). `models.size()` becomes the bank's bucket
  /// count (the trained structure is authoritative over the constructor
  /// options); the stats vectors must match it. The DP epsilon recorded in
  /// `stats.mean_epsilon` is the budget spent by the original training —
  /// reloading spends nothing further.
  Status RestoreTrained(CharVocab vocab, std::vector<std::string> corpus,
                        std::vector<std::string> word_pool,
                        std::vector<std::unique_ptr<TransformerSeq2Seq>> models,
                        StringBankStats stats);

 private:
  std::string SynthesizeWithModel(int bucket, const std::string& s,
                                  double target_sim, Rng* rng,
                                  BankRun* run) const;
  std::string FallbackSynthesize(const std::string& s, double target_sim,
                                 Rng* rng) const;

  StringBankOptions options_;
  StringSimFn sim_;
  CharVocab vocab_;
  std::vector<std::unique_ptr<TransformerSeq2Seq>> models_;  // size k; may hold nulls
  std::vector<std::string> word_pool_;  // background words for refinement
  std::vector<std::string> corpus_;     // background strings (fallback seeds)
  bool trained_ = false;
  StringBankStats stats_;
};

}  // namespace serd

#endif  // SERD_SEQ2SEQ_MODEL_BANK_H_
