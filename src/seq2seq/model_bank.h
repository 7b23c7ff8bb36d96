#ifndef SERD_SEQ2SEQ_MODEL_BANK_H_
#define SERD_SEQ2SEQ_MODEL_BANK_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "runtime/thread_pool.h"
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

  /// Decode candidates through the KV-cached incremental path
  /// (IncrementalDecoder + shared encoder memory + per-thread
  /// encoder-memory cache). Off = the original per-candidate full
  /// re-decode, kept as the reference implementation the cached path is
  /// validated against (serd_cli --reference-decode). Both settings
  /// produce bit-identical synthesized strings at a fixed seed.
  bool incremental_decode = true;

  /// Observability sink (not owned; nullptr = off): counters
  /// s2.bank_synth_calls / s2.bank_fallback_calls / s2.bank_refined_calls
  /// / s2.bank_empty_decode_calls (model-backed calls whose decode kept no
  /// candidate) / s2.decode_steps / s2.encoder_cache_hits /
  /// s2.encoder_cache_misses / s2.climb_proposals (hill-climb proposals
  /// scored), timer s2.climb_seconds (wall time in the hill climb),
  /// histogram s2.bank_bucket (index of the model actually used).
  obs::MetricsRegistry* metrics = nullptr;
};

/// When the best decoded candidate misses the target similarity by more
/// than this, a hill-climbing refinement pass nudges it toward the target
/// (keeps the pipeline usable at CPU-scale model capacity; see DESIGN.md).
/// Deliberately loose: a synthesis step that can miss is what the paper's
/// entity rejection (Section V) exists to police — SERD rejects the
/// misses, SERD- keeps them.
inline constexpr double kRefineThreshold = 0.22;

/// Decoded candidates whose fraction of known-pool words falls below this
/// are discarded as degenerate. Low for the same reason as
/// kRefineThreshold: implausible entities should reach the GAN
/// discriminator, whose rejection is the paper's case-1 mechanism.
inline constexpr double kMinPoolWordFraction = 0.15;

/// One bucket model's fit-time keep measurement (DESIGN.md §2):
/// candidates decoded from background sources, and how many passed the
/// keep test Synthesize applies. decoded == 0 means unmeasured.
struct KeepCount {
  int decoded = 0;
  int kept = 0;
};

/// A measured bucket decodes only when a call's chance of keeping at
/// least one of its C candidates, 1 - (1 - kept / decoded)^C, reaches this
/// (ROADMAP item 3's success bar: a kept-decode share of at least 50%).
inline constexpr double kMinCallKeepChance = 0.5;

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
  /// string (low targets) when no bucket decodes (BucketDecodes). `run`
  /// (optional) supplies the cancel token and collects the accounting;
  /// null runs with no cancel token and drops the accounting.
  /// Writes nothing to the bank, so any number of threads may call it.
  std::string Synthesize(const std::string& s, double target_sim, Rng* rng,
                         BankRun* run = nullptr) const;

  bool trained() const { return trained_; }
  const StringBankStats& stats() const { return stats_; }
  const CharVocab& vocab() const { return vocab_; }

  /// The bucket index whose interval contains `sim`.
  int BucketOf(double sim) const;

  /// Measures every trained bucket and installs the counts, which gate
  /// Synthesize from then on (BucketDecodes): each bucket decodes
  /// num_candidates candidates from each of `sources` on the configured
  /// decode route, from an Rng of its own derived from `seed`, and counts
  /// those that pass the keep test. Buckets run in parallel on `pool`
  /// (nullptr = serial) with the same counts at any pool size. Call
  /// before the bank serves any run.
  void MeasureKeepCounts(const std::vector<std::string>& sources,
                         uint64_t seed, runtime::ThreadPool* pool);

  /// Installs keep measurements (the artifact load), before the bank
  /// serves any run. `counts` is empty (nothing measured) or holds one
  /// entry per bucket, with nothing decoded for an untrained bucket and
  /// 0 <= kept <= decoded.
  Status SetKeepCounts(std::vector<KeepCount> counts);
  /// Per-bucket keep measurements; empty when none was taken.
  const std::vector<KeepCount>& keep_counts() const { return keep_counts_; }

  /// Whether Synthesize decodes with `bucket`'s model: it is trained and
  /// either unmeasured or measured to keep a decode in at least
  /// kMinCallKeepChance of calls. Other buckets are served like untrained
  /// ones (nearest decoding bucket, else the hill-climb fallback).
  bool BucketDecodes(int bucket) const;

  // --- artifact-store access (src/artifact) ---

  /// Per-bucket models (index = bucket; null = untrained bucket).
  const std::vector<std::unique_ptr<TransformerSeq2Seq>>& models() const {
    return models_;
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
  /// HillClimbToSimilarity from `start` toward sim(s, ·) = target_sim over
  /// the word pool, recorded in s2.climb_proposals and s2.climb_seconds.
  std::string Climb(const std::string& s, const std::string& start,
                    double target_sim, Rng* rng) const;
  /// The s2.bank_bucket histogram (null without a registry), created
  /// with bounds for the bank's final bucket count.
  obs::Histogram* BucketHistogram() const;
  /// One bucket's keep count (MeasureKeepCounts); writes nothing.
  KeepCount MeasureKeepCount(int bucket,
                             const std::vector<std::string>& sources,
                             uint64_t seed) const;
  /// The keep test: a decoded candidate is kept when it is non-empty and
  /// at least kMinPoolWordFraction of its words are pool words (the
  /// fraction is returned through `pool_fraction`).
  bool KeepsCandidate(const std::string& candidate,
                      double* pool_fraction) const;
  /// The decode route: up to num_candidates candidates of `model` from
  /// `src_ids`, each handed to `consider`, which returns whether to go on.
  /// `memory` is the source's encoder memory on the incremental route and
  /// unused on the reference route.
  void DecodeCandidates(
      const TransformerSeq2Seq& model, const std::vector<int>& src_ids,
      const EncoderMemoryPtr& memory, Rng* rng,
      const std::function<bool(const std::vector<int>&)>& consider,
      GenerateStats* stats) const;

  StringBankOptions options_;
  StringSimFn sim_;
  CharVocab vocab_;
  std::vector<std::unique_ptr<TransformerSeq2Seq>> models_;  // size k; may hold nulls
  std::vector<std::string> word_pool_;  // background words for refinement
  std::vector<std::string> corpus_;     // background strings (fallback seeds)
  bool trained_ = false;
  StringBankStats stats_;
  std::vector<KeepCount> keep_counts_;  // empty = unmeasured
};

}  // namespace serd

#endif  // SERD_SEQ2SEQ_MODEL_BANK_H_
