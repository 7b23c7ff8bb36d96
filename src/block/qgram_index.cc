#include "block/qgram_index.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace serd::block {

QgramIndex QgramIndex::Build(size_t num_rows, size_t num_cols,
                             const GramAccessor& grams, double tau) {
  QgramIndex index;
  index.tau_ = tau;
  index.stats_.rows = num_rows;
  index.stats_.indexed_columns = num_cols;
  SERD_CHECK(num_rows <= UINT32_MAX) << "index row ids are 32-bit";

  // Collect (key, row) postings, then sort: the sorted run of each key is
  // its posting list with rows already ascending, so the CSR layout falls
  // out of one pass. Sorting is O(P log P) on P postings — the whole build
  // stays linear in the table's text volume, never in the pair count.
  std::vector<std::pair<uint64_t, uint32_t>> postings;
  index.col_row_grams_.assign(num_cols, std::vector<uint32_t>(num_rows, 0));
  for (size_t row = 0; row < num_rows; ++row) {
    for (size_t col = 0; col < num_cols; ++col) {
      const std::vector<uint32_t>& set = grams(row, col);
      index.col_row_grams_[col][row] = static_cast<uint32_t>(set.size());
      for (uint32_t gram : set) {
        postings.emplace_back(Key(col, gram), static_cast<uint32_t>(row));
      }
    }
  }
  index.stats_.total_postings = postings.size();
  std::sort(postings.begin(), postings.end());

  index.rows_.reserve(postings.size());
  for (size_t i = 0; i < postings.size();) {
    size_t j = i;
    while (j < postings.size() && postings[j].first == postings[i].first) ++j;
    ++index.stats_.distinct_grams;
    Slice slice;
    slice.begin = static_cast<uint32_t>(index.rows_.size());
    slice.length = static_cast<uint32_t>(j - i);
    for (size_t k = i; k < j; ++k) index.rows_.push_back(postings[k].second);
    index.buckets_.emplace(postings[i].first, slice);
    i = j;
  }
  return index;
}

void QgramIndex::Candidates(
    const std::vector<const std::vector<uint32_t>*>& probe, Scratch* scratch,
    std::vector<uint32_t>* out) const {
  SERD_CHECK_EQ(probe.size(), stats_.indexed_columns);
  out->clear();
  if (scratch->counts.size() < stats_.rows) {
    scratch->counts.assign(stats_.rows, 0);
  }

  // Each column is probed and resolved on its own, so the counts array is
  // reused across columns. A row may qualify through several columns; the
  // final sort + unique dedups.
  const double base = tau_ / (1.0 + tau_);
  for (size_t col = 0; col < probe.size(); ++col) {
    const std::vector<uint32_t>& set = *probe[col];
    if (set.empty()) continue;
    scratch->touched.clear();
    for (uint32_t gram : set) {
      auto it = buckets_.find(Key(col, gram));
      if (it == buckets_.end()) continue;
      const Slice& slice = it->second;
      for (uint32_t k = slice.begin; k < slice.begin + slice.length; ++k) {
        const uint32_t row = rows_[k];
        if (scratch->counts[row] == 0) scratch->touched.push_back(row);
        // Saturate rather than wrap: a pair sharing 65535 grams is a
        // candidate under any threshold.
        if (scratch->counts[row] != UINT16_MAX) ++scratch->counts[row];
      }
    }
    const std::vector<uint32_t>& indexed_counts = col_row_grams_[col];
    for (uint32_t row : scratch->touched) {
      // ceil with an epsilon guard: rounding down only loosens the
      // threshold, which keeps every pair at tau; rounding an exact
      // integer up would drop one.
      const double total = static_cast<double>(set.size()) +
                           static_cast<double>(indexed_counts[row]);
      const size_t needed = std::max<size_t>(
          1, static_cast<size_t>(std::ceil(base * total - 1e-9)));
      if (scratch->counts[row] >= needed) out->push_back(row);
      scratch->counts[row] = 0;
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

}  // namespace serd::block
