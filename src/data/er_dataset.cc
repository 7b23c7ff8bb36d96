#include "data/er_dataset.h"

#include <algorithm>

#include "runtime/parallel_for.h"
#include "text/qgram.h"

namespace serd {

size_t ERDataset::NumTotalPairs() const {
  size_t total = a.size() * b.size();
  if (self_join) total -= std::min(a.size(), b.size());
  return total;
}

bool ERDataset::IsMatch(size_t a_idx, size_t b_idx) const {
  for (const auto& m : matches) {
    if (m.a_idx == a_idx && m.b_idx == b_idx) return true;
  }
  return false;
}

std::unordered_set<uint64_t> ERDataset::MatchSet() const {
  std::unordered_set<uint64_t> set;
  set.reserve(matches.size() * 2);
  for (const auto& m : matches) set.insert(PairKey(m.a_idx, m.b_idx));
  return set;
}

size_t LabeledPairSet::NumMatches() const {
  size_t n = 0;
  for (const auto& p : pairs) n += p.match ? 1 : 0;
  return n;
}

namespace {

/// Blocking column: the text column with the longest average value (the
/// "title"-like column carries the most blocking signal; short code-like
/// columns such as model numbers block poorly). Falls back to column 0.
size_t BlockingColumn(const ERDataset& dataset) {
  const Schema& schema = dataset.schema();
  size_t best = 0;
  double best_len = -1.0;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type != ColumnType::kText) continue;
    double total = 0.0;
    size_t counted = std::min<size_t>(dataset.a.size(), 50);
    for (size_t i = 0; i < counted; ++i) {
      total += static_cast<double>(dataset.a.row(i).values[c].size());
    }
    double avg = counted > 0 ? total / counted : 0.0;
    if (avg > best_len) {
      best_len = avg;
      best = c;
    }
  }
  return best;
}

}  // namespace

LabeledPairSet BuildLabeledPairs(const ERDataset& dataset, double neg_per_pos,
                                 Rng* rng, runtime::ThreadPool* pool) {
  SERD_CHECK(rng != nullptr);
  LabeledPairSet out;
  auto match_set = dataset.MatchSet();

  for (const auto& m : dataset.matches) {
    out.pairs.push_back({m.a_idx, m.b_idx, true});
  }

  const size_t want_neg = static_cast<size_t>(
      neg_per_pos * static_cast<double>(std::max<size_t>(1, dataset.matches.size())));
  if (dataset.a.empty() || dataset.b.empty()) return out;

  const size_t max_neg =
      dataset.NumTotalPairs() >= dataset.matches.size()
          ? dataset.NumTotalPairs() - dataset.matches.size()
          : 0;
  const size_t target = std::min(want_neg, max_neg);

  std::unordered_set<uint64_t> used = match_set;

  // Hard negatives: for a random matched A-entity, find the B-entity with
  // the highest blocking-column q-gram similarity that is not its match.
  const size_t block_col = BlockingColumn(dataset);
  std::vector<std::vector<uint32_t>> b_grams(dataset.b.size());
  runtime::ParallelFor(pool, 0, dataset.b.size(), 64,
                       [&](size_t lo, size_t hi) {
                         for (size_t j = lo; j < hi; ++j) {
                           b_grams[j] = HashedQgramSet(
                               dataset.b.row(j).values[block_col], 3);
                         }
                       });

  size_t added = 0;
  size_t hard_target = target / 2;
  size_t attempts = 0;
  while (added < hard_target && attempts < hard_target * 8) {
    ++attempts;
    size_t i = rng->UniformInt(dataset.a.size());
    auto a_grams = HashedQgramSet(dataset.a.row(i).values[block_col], 3);
    // Scan a random window of B for the most similar non-match.
    double best = -1.0;
    size_t best_j = dataset.b.size();
    size_t window = std::min<size_t>(dataset.b.size(), 64);
    for (size_t w = 0; w < window; ++w) {
      size_t j = rng->UniformInt(dataset.b.size());
      if (dataset.self_join && i == j) continue;
      uint64_t key = dataset.PairKey(i, j);
      if (used.count(key)) continue;
      double s = JaccardOfHashedSets(a_grams, b_grams[j]);
      if (s > best) {
        best = s;
        best_j = j;
      }
    }
    if (best_j == dataset.b.size()) continue;
    used.insert(dataset.PairKey(i, best_j));
    out.pairs.push_back({i, best_j, false});
    ++added;
  }

  // Uniform random negatives for the remainder.
  attempts = 0;
  while (added < target && attempts < target * 20 + 100) {
    ++attempts;
    size_t i = rng->UniformInt(dataset.a.size());
    size_t j = rng->UniformInt(dataset.b.size());
    if (dataset.self_join && i == j) continue;
    uint64_t key = dataset.PairKey(i, j);
    if (used.count(key)) continue;
    used.insert(key);
    out.pairs.push_back({i, j, false});
    ++added;
  }
  return out;
}

void SplitPairs(const LabeledPairSet& all, double test_fraction, Rng* rng,
                LabeledPairSet* train, LabeledPairSet* test) {
  SERD_CHECK(rng != nullptr && train != nullptr && test != nullptr);
  SERD_CHECK(test_fraction >= 0.0 && test_fraction <= 1.0);
  train->pairs.clear();
  test->pairs.clear();
  std::vector<LabeledPair> pos, neg;
  for (const auto& p : all.pairs) (p.match ? pos : neg).push_back(p);
  rng->Shuffle(&pos);
  rng->Shuffle(&neg);
  auto split_into = [&](std::vector<LabeledPair>& v) {
    size_t n_test = static_cast<size_t>(test_fraction * v.size());
    for (size_t i = 0; i < v.size(); ++i) {
      (i < n_test ? test : train)->pairs.push_back(v[i]);
    }
  };
  split_into(pos);
  split_into(neg);
  rng->Shuffle(&train->pairs);
  rng->Shuffle(&test->pairs);
}

void ComputeSimilarityVectors(const ERDataset& dataset,
                              const SimilaritySpec& spec,
                              const LabeledPairSet& pairs,
                              std::vector<Vec>* x_pos,
                              std::vector<Vec>* x_neg,
                              runtime::ThreadPool* pool) {
  SERD_CHECK(x_pos != nullptr && x_neg != nullptr);
  x_pos->clear();
  x_neg->clear();
  std::vector<std::pair<size_t, size_t>> refs;
  refs.reserve(pairs.pairs.size());
  for (const auto& p : pairs.pairs) refs.emplace_back(p.a_idx, p.b_idx);
  std::vector<Vec> vectors =
      spec.BatchSimilarityVectors(dataset.a, dataset.b, refs, pool);
  for (size_t k = 0; k < pairs.pairs.size(); ++k) {
    (pairs.pairs[k].match ? x_pos : x_neg)
        ->push_back(std::move(vectors[k]));
  }
}

}  // namespace serd
