#ifndef SERD_CORE_DISTRIBUTION_H_
#define SERD_CORE_DISTRIBUTION_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/cached_sim.h"
#include "data/er_dataset.h"
#include "gmm/gmm.h"
#include "gmm/o_distribution.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace serd {

/// Non-matching pairs sampled per matching pair in S1's labeled pair
/// sample (the full cross product is quadratic). π is the match share of
/// that sample, so it is 1/11 whenever enough non-matches exist.
inline constexpr double kNegPairsPerMatch = 10.0;

/// S1 (paper Section IV-A): the O-distribution of `dataset`. Samples its
/// labeled pairs (every match plus kNegPairsPerMatch non-matches each,
/// drawn from Rng(seed)), computes their similarity vectors under `spec`,
/// fits the M- and N-GMMs with AIC selection and sets π to the sample's
/// match share. Every step runs on `gmm.pool`, and the result is the same
/// for any pool, including none. FailedPrecondition when the sample lacks
/// matching or non-matching pairs.
Result<ODistribution> FitODistribution(const ERDataset& dataset,
                                       const SimilaritySpec& spec,
                                       const GmmFitOptions& gmm,
                                       uint64_t seed);

/// The one labeling rule of S2's partner pairs and S3's cross pairs: a
/// pair is a match iff P_m(x) >= P_n(x) under `o`, x being its similarity
/// vector. Pairs are added one at a time and scored together in one
/// PosteriorMatchBatch; each label equals LabelAsMatch of the pair's
/// SimilarityVector bit for bit. The buffers only grow, so a reused
/// labeler stops allocating once it has seen its largest batch.
class PairLabeler {
 public:
  /// `o` and `sim` must outlive the labeler.
  PairLabeler(const ODistribution& o, const CachedSimilarity& sim)
      : o_(&o), sim_(&sim) {}

  /// Drops the added pairs, keeping their buffers.
  void Clear() { size_ = 0; }
  /// Adds the pair (first, second); vector(size()) becomes its similarity
  /// vector.
  void Add(const CachedSimilarity::Digest& first,
           const CachedSimilarity::Digest& second);
  /// Scores every added pair.
  void Label();

  size_t size() const { return size_; }
  /// Pair t's label, after Label(): LabelAsMatch's rule.
  bool match(size_t t) const { return posterior_[t] >= 0.5; }
  /// Pair t's similarity vector. A caller may swap it out; the labeler
  /// then reuses what it is left with.
  Vec& vector(size_t t) { return vectors_[t]; }

 private:
  const ODistribution* o_;
  const CachedSimilarity* sim_;
  size_t size_ = 0;
  std::vector<Vec> vectors_;
  std::vector<double> xs_;  ///< coordinate c of pair t at xs_[c * size_ + t]
  std::vector<double> posterior_;
};

/// How S3 enumerates the cross-pair space (DESIGN.md Section 5j).
///   kOff   — exact O(|A|·|B|) scan (the reference behavior).
///   kQgram — only candidate pairs from the q-gram index are scored:
///            pairs whose q-gram Jaccard can reach block::kJaccardTau on
///            some column. Candidates are scored by the same posterior,
///            so blocked matches are a subset of the exact ones
///            (precision 1 by construction); recall is estimated per run.
///   kAuto  — kQgram from kBlockingAutoMinPairs cross pairs up, else kOff.
enum class BlockingMode { kOff, kQgram, kAuto };

/// Cross-pair count at which kAuto switches to the q-gram index.
inline constexpr size_t kBlockingAutoMinPairs = size_t{1} << 20;

/// Uniform draws from the pruned pair space behind a blocked run's recall
/// estimate.
inline constexpr size_t kBlockRecallSamples = 2048;

/// What one S3 pass labeled, and the pair counts behind it.
struct CrossPairLabels {
  /// Scanned pairs labeled as matches, in ascending (a_idx, b_idx) order.
  std::vector<PairRef> matches;
  /// True when the pass scored q-gram candidates instead of every pair.
  bool blocked = false;
  size_t total_pairs = 0;      ///< |A| * |B|
  size_t candidate_pairs = 0;  ///< the pair stream (total_pairs if exact)
  size_t scanned_pairs = 0;    ///< the stream after the label cap
  size_t scored_pairs = 0;     ///< scanned pairs outside the known set
  /// Blocked matches / (blocked matches + the missed matches a seeded
  /// uniform sample of the pruned pairs extrapolates); 1.0 when nothing
  /// was pruned.
  double block_recall = 1.0;
  /// True when block_recall is that sampled estimate.
  bool block_recall_estimated = false;
};

/// S3 (paper Section IV-C): labels the cross pairs of tables A and B,
/// given as digests, by the posterior of `o`. Pairs in `known` (keys
/// a_idx * |B| + b_idx, labeled elsewhere) are scanned but not scored.
/// `blocking` picks the exact scan or the q-gram candidates. A
/// `label_cap` below the pair stream's size (0 = no cap) labels a uniform
/// subsample of it, drawn from `seed`; the recall estimate draws from
/// `seed` too, on a stream of its own. Pairs are scored on `pool`, and the
/// result is the same for any pool, including none. Records the s3.*
/// spans, counters and gauges into `metrics` when it is not null.
CrossPairLabels LabelCrossPairs(
    const ODistribution& o, const CachedSimilarity& sim,
    const std::vector<CachedSimilarity::Digest>& a,
    const std::vector<CachedSimilarity::Digest>& b,
    const std::unordered_set<uint64_t>& known, BlockingMode blocking,
    size_t label_cap, uint64_t seed, runtime::ThreadPool* pool,
    obs::MetricsRegistry* metrics);

}  // namespace serd

#endif  // SERD_CORE_DISTRIBUTION_H_
