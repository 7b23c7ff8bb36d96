#ifndef SERD_BLOCK_QGRAM_INDEX_H_
#define SERD_BLOCK_QGRAM_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

namespace serd::block {

/// Per-column q-gram Jaccard threshold of the candidate rule (DESIGN.md
/// Section 5j). Over every exact-scan match at scale 1.0 the minimum
/// best-column Jaccard is 0.442 (DBLP-ACM), 1.000 (Restaurant) and 1.000
/// (Walmart-Amazon), comfortably above it (bench_blocking --rarity).
inline constexpr double kJaccardTau = 0.35;

/// Build statistics of one index (feeds the s3.block_* gauges).
struct IndexStats {
  size_t rows = 0;
  size_t indexed_columns = 0;
  size_t total_postings = 0;  ///< (gram, row) pairs
  size_t distinct_grams = 0;  ///< distinct (column, gram) keys
};

/// Inverted index over hashed q-gram profiles: (column, gram hash) ->
/// posting list of row ids. Rows are supplied through an accessor so the
/// index has no dependency on how callers store their digests (the S3
/// labeler feeds CachedSimilarity::Digest columns; the tests feed raw
/// vectors).
///
/// The one candidate rule: a probe row p and an indexed row r are a
/// candidate iff on some indexed column their shared-gram count o reaches
///   ceil(tau / (1 + tau) * (g + G)),  clamped to >= 1,
/// where g and G are the column's probe and indexed gram counts. That is
/// the exact integer form of q-gram Jaccard >= tau (J >= tau <=> o >=
/// tau/(1+tau) * (g+G)), so the candidates are precisely the rows with
/// Jaccard >= tau on some nonempty column. The ceil carries a -1e-9
/// epsilon so floating-point rounding can only loosen the bound.
///
/// Determinism: the index is a pure function of (rows, tau) — build order,
/// probe results and statistics are identical for any thread count (the
/// build is single-threaded; candidate generation parallelism lives in
/// candidates.h).
class QgramIndex {
 public:
  /// Returns the sorted hashed gram set of (row, col); col indexes the
  /// caller's list of indexed columns, not the schema.
  using GramAccessor =
      std::function<const std::vector<uint32_t>&(size_t row, size_t col)>;

  static QgramIndex Build(size_t num_rows, size_t num_cols,
                          const GramAccessor& grams,
                          double tau = kJaccardTau);

  /// Reusable per-thread probe state: a counts array over the indexed rows
  /// plus the list of rows touched by the current probe column.
  /// Candidates() leaves the counts zeroed, so one Scratch serves any
  /// number of sequential probes without re-zeroing O(rows) memory.
  struct Scratch {
    std::vector<uint16_t> counts;
    std::vector<uint32_t> touched;
  };

  /// Appends to `out` the ascending ids of the indexed rows that are
  /// candidates for the probe. `probe[col]` is the sorted hashed gram set
  /// of the probe row's col-th indexed column.
  void Candidates(const std::vector<const std::vector<uint32_t>*>& probe,
                  Scratch* scratch, std::vector<uint32_t>* out) const;

  size_t num_rows() const { return stats_.rows; }
  const IndexStats& stats() const { return stats_; }

 private:
  struct Slice {
    uint32_t begin = 0;
    uint32_t length = 0;
  };

  static uint64_t Key(size_t col, uint32_t gram) {
    return (static_cast<uint64_t>(col) << 32) | gram;
  }

  double tau_ = kJaccardTau;
  IndexStats stats_;
  /// Posting lists, concatenated; each list holds ascending rows.
  std::vector<uint32_t> rows_;
  std::unordered_map<uint64_t, Slice> buckets_;
  /// [col][row] -> the row's gram count, the G of the threshold.
  std::vector<std::vector<uint32_t>> col_row_grams_;
};

}  // namespace serd::block

#endif  // SERD_BLOCK_QGRAM_INDEX_H_
