#include "core/distribution.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "block/candidates.h"
#include "block/qgram_index.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"

namespace serd {

Result<ODistribution> FitODistribution(const ERDataset& dataset,
                                       const SimilaritySpec& spec,
                                       const GmmFitOptions& gmm,
                                       uint64_t seed) {
  Rng rng(seed);
  LabeledPairSet pairs =
      BuildLabeledPairs(dataset, kNegPairsPerMatch, &rng, gmm.pool);
  std::vector<Vec> x_pos, x_neg;
  ComputeSimilarityVectors(dataset, spec, pairs, &x_pos, &x_neg, gmm.pool);
  if (x_pos.empty() || x_neg.empty()) {
    return Status::FailedPrecondition(
        "dataset '" + dataset.name +
        "' lacks matching or non-matching pairs");
  }
  auto m_fit = Gmm::FitWithAic(x_pos, gmm);
  SERD_RETURN_IF_ERROR(m_fit.status());
  auto n_fit = Gmm::FitWithAic(x_neg, gmm);
  SERD_RETURN_IF_ERROR(n_fit.status());
  const double pi = static_cast<double>(x_pos.size()) /
                    static_cast<double>(x_pos.size() + x_neg.size());
  return ODistribution(pi, std::move(m_fit).value(),
                       std::move(n_fit).value());
}

CrossPairLabels LabelCrossPairs(
    const ODistribution& o, const CachedSimilarity& sim,
    const std::vector<CachedSimilarity::Digest>& a,
    const std::vector<CachedSimilarity::Digest>& b,
    const std::unordered_set<uint64_t>& known, BlockingMode blocking,
    size_t label_cap, uint64_t seed, runtime::ThreadPool* pool,
    obs::MetricsRegistry* metrics) {
  obs::TraceSpan label_span(metrics, "s3.label");
  CrossPairLabels out;
  const size_t nb = b.size();
  out.total_pairs = a.size() * nb;

  // Resolve the blocking decision: explicit qgram, or auto once the pair
  // space is large enough that the exact scan dominates the run.
  const std::vector<size_t> gram_cols = sim.GramColumns();
  out.blocked = out.total_pairs > 0 && !gram_cols.empty() &&
                (blocking == BlockingMode::kQgram ||
                 (blocking == BlockingMode::kAuto &&
                  out.total_pairs >= kBlockingAutoMinPairs));

  // Blocked enumeration: index B's q-gram profiles and keep the pairs
  // whose per-column Jaccard can reach tau.
  block::CandidateSet cand;
  if (out.blocked) {
    obs::TraceSpan index_span(metrics, "s3.block_index");
    auto index_grams = [&](size_t row,
                           size_t col) -> const std::vector<uint32_t>& {
      return b[row].grams[gram_cols[col]];
    };
    block::QgramIndex index =
        block::QgramIndex::Build(nb, gram_cols.size(), index_grams);
    auto probe_grams = [&](size_t row,
                           size_t col) -> const std::vector<uint32_t>& {
      return a[row].grams[gram_cols[col]];
    };
    cand = block::GenerateCandidates(index, a.size(), probe_grams, pool);
    if (metrics != nullptr) {
      metrics->gauge("s3.block_distinct_grams")
          ->Set(index.stats().distinct_grams);
    }
  }

  // The pair stream: candidate pairs when blocked, the full cross product
  // otherwise — both enumerate in ascending (i, j) order. A cap below the
  // stream size labels a seeded uniform subsample without replacement
  // (sorted, so the ascending order survives).
  out.candidate_pairs = out.blocked ? cand.num_pairs() : out.total_pairs;
  out.scanned_pairs = label_cap == 0
                          ? out.candidate_pairs
                          : std::min(out.candidate_pairs, label_cap);
  std::vector<size_t> subsample;
  if (out.scanned_pairs < out.candidate_pairs) {
    subsample = block::SampleDistinctSorted(
        out.candidate_pairs, out.scanned_pairs, seed ^ 0x5e3b10cULL);
  }
  auto pair_at = [&](size_t k) -> std::pair<size_t, size_t> {
    const size_t pos = subsample.empty() ? k : subsample[k];
    if (out.blocked) return cand.PairAt(pos);
    return {pos / nb, pos % nb};
  };

  // Scanned pairs are labeled concurrently into a flag array, then
  // appended in ascending pair order, so the match list is identical to
  // the serial scan for any thread count. Each chunk gathers its pairs
  // outside the known set into tiles of kBatchTile and scores a tile's
  // posteriors in one batch, each bit-identical to PosteriorMatch of its
  // pair. The scored tally excludes the known pairs: its per-chunk sums
  // commute, so the atomic total is deterministic too.
  std::vector<uint8_t> is_match_flag(out.scanned_pairs, 0);
  std::atomic<size_t> scored_pairs{0};
  runtime::ParallelFor(
      pool, 0, out.scanned_pairs, 512, [&](size_t lo, size_t hi) {
        constexpr size_t kTile = MultivariateGaussian::kBatchTile;
        const size_t dim = o.dimension();
        std::vector<double> xs(dim * kTile);
        size_t tile_k[kTile], tile_i[kTile], tile_j[kTile];
        double posterior[kTile];
        size_t scored = 0;
        Vec x;
        size_t k = lo;
        while (k < hi) {
          size_t n = 0;
          for (; k < hi && n < kTile; ++k) {
            auto [i, j] = pair_at(k);
            if (known.count(static_cast<uint64_t>(i) * nb + j)) continue;
            tile_k[n] = k;
            tile_i[n] = i;
            tile_j[n] = j;
            ++n;
          }
          // Coordinate c of the tile's point t at xs[c * n + t].
          for (size_t t = 0; t < n; ++t) {
            sim.SimilarityVectorInto(a[tile_i[t]], b[tile_j[t]], &x);
            for (size_t c = 0; c < dim; ++c) xs[c * n + t] = x[c];
          }
          o.PosteriorMatchBatch(xs.data(), n, posterior);
          for (size_t t = 0; t < n; ++t) {
            // LabelAsMatch's rule: P_m(x) >= P_n(x).
            if (posterior[t] >= 0.5) is_match_flag[tile_k[t]] = 1;
          }
          scored += n;
        }
        scored_pairs.fetch_add(scored, std::memory_order_relaxed);
      });
  out.scored_pairs = scored_pairs.load(std::memory_order_relaxed);
  for (size_t k = 0; k < out.scanned_pairs; ++k) {
    if (!is_match_flag[k]) continue;
    auto [i, j] = pair_at(k);
    out.matches.push_back({i, j});
  }

  // Recall tripwire: estimate the matches blocking pruned away from a
  // seeded uniform sample of the non-candidate pair space, scored by the
  // same posterior. Its RNG is its own, so the labels do not depend on it.
  if (out.blocked && cand.num_pairs() < out.total_pairs) {
    out.block_recall_estimated = true;
    obs::TraceSpan recall_span(metrics, "s3.block_recall_estimate");
    Rng recall_rng(seed ^ 0xb10c4ec5ULL);
    const size_t samples = std::min(kBlockRecallSamples, out.total_pairs);
    size_t outside = 0, missed = 0;
    Vec x;
    for (size_t s = 0; s < samples; ++s) {
      const size_t flat = recall_rng.UniformInt(out.total_pairs);
      const size_t i = flat / nb, j = flat % nb;
      if (cand.Contains(i, static_cast<uint32_t>(j))) continue;
      if (known.count(static_cast<uint64_t>(flat))) continue;
      ++outside;
      sim.SimilarityVectorInto(a[i], b[j], &x);
      if (o.LabelAsMatch(x)) ++missed;
    }
    const double pruned =
        static_cast<double>(out.total_pairs - cand.num_pairs());
    const double est_missed =
        outside > 0
            ? (static_cast<double>(missed) / static_cast<double>(outside)) *
                  pruned
            : 0.0;
    const double found = static_cast<double>(out.matches.size());
    out.block_recall =
        found + est_missed > 0.0 ? found / (found + est_missed) : 1.0;
  }
  label_span.Stop();

  if (metrics != nullptr) {
    const size_t pruned = out.total_pairs - out.candidate_pairs;
    metrics->counter("s3.scanned_pairs")->Add(out.scanned_pairs);
    metrics->counter("s3.scored_pairs")->Add(out.scored_pairs);
    metrics->counter("s3.candidates")->Add(out.candidate_pairs);
    metrics->counter("s3.pruned_pairs")->Add(pruned);
    metrics->counter("s3.posterior_matches")->Add(out.matches.size());
    metrics->gauge("s3.block_recall")->Set(out.block_recall);
    metrics->gauge("s3.block_recall_estimated")
        ->Set(out.block_recall_estimated ? 1.0 : 0.0);
    metrics->gauge("s3.blocked")->Set(out.blocked ? 1.0 : 0.0);
  }
  return out;
}

}  // namespace serd
