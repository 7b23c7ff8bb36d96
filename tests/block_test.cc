#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "block/candidates.h"
#include "block/qgram_index.h"
#include "common/rng.h"
#include "core/serd.h"
#include "datagen/generators.h"
#include "runtime/thread_pool.h"
#include "text/qgram.h"

namespace serd {
namespace {

using block::BlockOptions;
using block::CandidateSet;
using block::QgramIndex;
using datagen::DatasetKind;

/// Random sorted-unique hashed gram profiles, rows x cols.
using GramTable = std::vector<std::vector<std::vector<uint32_t>>>;

GramTable RandomGramTable(size_t rows, size_t cols, uint32_t universe,
                          size_t max_grams, uint64_t seed) {
  Rng rng(seed);
  GramTable table(rows);
  for (auto& row : table) {
    row.resize(cols);
    for (auto& set : row) {
      std::set<uint32_t> grams;
      const size_t n = rng.UniformInt(max_grams + 1);
      for (size_t k = 0; k < n; ++k) {
        grams.insert(static_cast<uint32_t>(rng.UniformInt(universe)));
      }
      set.assign(grams.begin(), grams.end());
    }
  }
  return table;
}

QgramIndex::GramAccessor Accessor(const GramTable& table) {
  return [&table](size_t row, size_t col) -> const std::vector<uint32_t>& {
    return table[row][col];
  };
}

/// Count-mode options with no pruning: every gram survives regardless of
/// frequency, and the adaptive Jaccard tier (on by default) is disabled
/// so min_shared_grams counting is what gets exercised.
BlockOptions Unpruned(int min_shared = 1) {
  BlockOptions o;
  o.max_df_frac = 1.0;
  o.min_df_rows = 0;
  o.min_shared_grams = min_shared;
  o.jaccard_tau = 0.0;
  return o;
}

// ------------------------------------------------------------- QgramIndex

TEST(QgramIndexTest, PostingListsAndStats) {
  GramTable table = {{{1, 2}}, {{2, 3}}, {{2}}};
  QgramIndex index = QgramIndex::Build(3, 1, Accessor(table), Unpruned());

  EXPECT_EQ(index.num_rows(), 3u);
  EXPECT_EQ(index.stats().indexed_columns, 1u);
  EXPECT_EQ(index.stats().total_postings, 5u);
  EXPECT_EQ(index.stats().distinct_grams, 3u);
  EXPECT_EQ(index.stats().stop_grams, 0u);
  EXPECT_EQ(index.stats().pruned_postings, 0u);
  // threshold = max(min_df_rows, ceil(1.0 * 3)) = 3: nothing pruned.
  EXPECT_EQ(index.stats().df_threshold, 3u);
  EXPECT_EQ(index.PostingCount(0, 1), 1u);
  EXPECT_EQ(index.PostingCount(0, 2), 3u);
  EXPECT_EQ(index.PostingCount(0, 3), 1u);
  EXPECT_EQ(index.PostingCount(0, 99), 0u);
}

TEST(QgramIndexTest, StopGramPruning) {
  GramTable table = {{{1, 2}}, {{2, 3}}, {{2}}};
  BlockOptions opts;
  opts.max_df_frac = 0.5;  // threshold = max(1, ceil(1.5)) = 2
  opts.min_df_rows = 1;
  QgramIndex index = QgramIndex::Build(3, 1, Accessor(table), opts);

  EXPECT_EQ(index.stats().df_threshold, 2u);
  EXPECT_EQ(index.stats().stop_grams, 1u);      // gram 2, df 3 > 2
  EXPECT_EQ(index.stats().pruned_postings, 3u);
  EXPECT_EQ(index.PostingCount(0, 2), 0u);
  EXPECT_EQ(index.PostingCount(0, 1), 1u);
  EXPECT_EQ(index.PostingCount(0, 3), 1u);
}

TEST(QgramIndexTest, CandidatesMatchBruteForceOverlap) {
  // Against random profiles with no pruning, the candidate set of each
  // probe must be exactly the rows whose cross-column shared-gram count
  // clears min_shared_grams (oracle: OverlapOfHashedSets).
  const GramTable indexed = RandomGramTable(60, 2, 40, 12, 11);
  const GramTable probes = RandomGramTable(40, 2, 40, 12, 22);
  for (int min_shared : {1, 2, 3}) {
    QgramIndex index =
        QgramIndex::Build(60, 2, Accessor(indexed), Unpruned(min_shared));
    QgramIndex::Scratch scratch;
    std::vector<uint32_t> got;
    for (size_t p = 0; p < probes.size(); ++p) {
      index.Candidates({&probes[p][0], &probes[p][1]}, &scratch, &got);
      std::vector<uint32_t> want;
      for (size_t r = 0; r < indexed.size(); ++r) {
        size_t overlap = 0;
        for (size_t c = 0; c < 2; ++c) {
          overlap += OverlapOfHashedSets(probes[p][c], indexed[r][c]);
        }
        if (overlap >= static_cast<size_t>(min_shared)) {
          want.push_back(static_cast<uint32_t>(r));
        }
      }
      ASSERT_EQ(got, want) << "probe " << p << " min_shared " << min_shared;
    }
  }
}

TEST(QgramIndexTest, PrunedCandidatesCountSurvivingGramsOnly) {
  // With stop-gram pruning on, the oracle counts only grams whose posting
  // list survived (PostingCount > 0).
  const GramTable indexed = RandomGramTable(80, 1, 12, 8, 33);
  const GramTable probes = RandomGramTable(30, 1, 12, 8, 44);
  BlockOptions opts;
  opts.max_df_frac = 0.2;
  opts.min_df_rows = 4;
  opts.min_shared_grams = 1;
  opts.jaccard_tau = 0.0;  // exercise the count tier
  QgramIndex index = QgramIndex::Build(80, 1, Accessor(indexed), opts);
  ASSERT_GT(index.stats().stop_grams, 0u)
      << "fixture too sparse to exercise pruning";

  QgramIndex::Scratch scratch;
  std::vector<uint32_t> got;
  for (size_t p = 0; p < probes.size(); ++p) {
    index.Candidates({&probes[p][0]}, &scratch, &got);
    std::vector<uint32_t> want;
    for (size_t r = 0; r < indexed.size(); ++r) {
      size_t surviving = 0;
      for (uint32_t g : probes[p][0]) {
        if (index.PostingCount(0, g) == 0) continue;
        if (std::binary_search(indexed[r][0].begin(), indexed[r][0].end(),
                               g)) {
          ++surviving;
        }
      }
      if (surviving >= 1) want.push_back(static_cast<uint32_t>(r));
    }
    ASSERT_EQ(got, want) << "probe " << p;
  }
}

TEST(QgramIndexTest, PrefixFilterKeepsEveryPairAboveTau) {
  // The prefix tier's guarantee: with no df pruning and
  // min_shared_grams = 1, every pair whose q-gram Jaccard reaches tau on
  // some column is still generated, and the tier only ever shrinks the
  // candidate set.
  const GramTable indexed = RandomGramTable(70, 2, 30, 14, 55);
  const GramTable probes = RandomGramTable(50, 2, 30, 14, 66);
  for (double tau : {0.3, 0.6}) {
    BlockOptions with_prefix = Unpruned();
    with_prefix.prefix_jaccard = tau;
    QgramIndex pruned = QgramIndex::Build(70, 2, Accessor(indexed),
                                          with_prefix);
    QgramIndex full = QgramIndex::Build(70, 2, Accessor(indexed), Unpruned());

    QgramIndex::Scratch scratch;
    std::vector<uint32_t> got, all;
    for (size_t p = 0; p < probes.size(); ++p) {
      pruned.Candidates({&probes[p][0], &probes[p][1]}, &scratch, &got);
      full.Candidates({&probes[p][0], &probes[p][1]}, &scratch, &all);
      ASSERT_TRUE(std::includes(all.begin(), all.end(), got.begin(),
                                got.end()))
          << "prefix tier added a candidate (probe " << p << ")";
      for (size_t r = 0; r < indexed.size(); ++r) {
        double best = 0.0;
        for (size_t c = 0; c < 2; ++c) {
          // Empty-vs-empty scores Jaccard 1.0 but shares no gram, so the
          // guarantee (like candidate generation) only covers nonempty
          // columns.
          if (probes[p][c].empty() || indexed[r][c].empty()) continue;
          best = std::max(
              best, JaccardOfHashedSets(probes[p][c], indexed[r][c]));
        }
        if (best >= tau) {
          ASSERT_TRUE(std::binary_search(got.begin(), got.end(),
                                         static_cast<uint32_t>(r)))
              << "pair (" << p << ", " << r << ") with Jaccard " << best
              << " missed at tau " << tau;
        }
      }
    }
  }
}

TEST(QgramIndexTest, JaccardTauIsExactWithoutPruning) {
  // With no stop-gram pruning the adaptive threshold has zero slack, so
  // the tier is an exact per-column Jaccard filter: candidates are
  // precisely the rows with q-gram Jaccard >= tau on some nonempty
  // column — no superset, no misses.
  const GramTable indexed = RandomGramTable(70, 2, 30, 14, 91);
  const GramTable probes = RandomGramTable(45, 2, 30, 14, 92);
  for (double tau : {0.2, 0.35, 0.5, 0.8}) {
    BlockOptions opts = Unpruned();
    opts.jaccard_tau = tau;
    QgramIndex index = QgramIndex::Build(70, 2, Accessor(indexed), opts);
    QgramIndex::Scratch scratch;
    std::vector<uint32_t> got;
    for (size_t p = 0; p < probes.size(); ++p) {
      index.Candidates({&probes[p][0], &probes[p][1]}, &scratch, &got);
      std::vector<uint32_t> want;
      for (size_t r = 0; r < indexed.size(); ++r) {
        bool above = false;
        for (size_t c = 0; c < 2; ++c) {
          if (probes[p][c].empty() || indexed[r][c].empty()) continue;
          if (JaccardOfHashedSets(probes[p][c], indexed[r][c]) >= tau) {
            above = true;
          }
        }
        if (above) want.push_back(static_cast<uint32_t>(r));
      }
      ASSERT_EQ(got, want) << "probe " << p << " tau " << tau;
    }
  }
}

TEST(QgramIndexTest, JaccardTauGuaranteeSurvivesPruning) {
  // With stop-gram pruning on, the slack term must keep every pair whose
  // full-profile column Jaccard reaches tau; the candidate set may only
  // grow less selective, never lose such a pair.
  const GramTable indexed = RandomGramTable(90, 2, 10, 8, 93);
  const GramTable probes = RandomGramTable(40, 2, 10, 8, 94);
  BlockOptions opts;
  opts.max_df_frac = 0.15;
  opts.min_df_rows = 4;
  opts.jaccard_tau = 0.4;
  QgramIndex index = QgramIndex::Build(90, 2, Accessor(indexed), opts);
  ASSERT_GT(index.stats().stop_grams, 0u)
      << "fixture too sparse to exercise pruning";

  QgramIndex::Scratch scratch;
  std::vector<uint32_t> got;
  for (size_t p = 0; p < probes.size(); ++p) {
    index.Candidates({&probes[p][0], &probes[p][1]}, &scratch, &got);
    for (size_t r = 0; r < indexed.size(); ++r) {
      double best = 0.0;
      size_t surviving_overlap = 0;
      for (size_t c = 0; c < 2; ++c) {
        if (probes[p][c].empty() || indexed[r][c].empty()) continue;
        best =
            std::max(best, JaccardOfHashedSets(probes[p][c], indexed[r][c]));
        for (uint32_t g : probes[p][c]) {
          if (index.PostingCount(c, g) > 0 &&
              std::binary_search(indexed[r][c].begin(), indexed[r][c].end(),
                                 g)) {
            ++surviving_overlap;
          }
        }
      }
      // The clamp to >= 1 shared surviving gram is the tier's only
      // escape hatch: pairs whose overlap lives entirely in stop grams
      // are the documented residual risk.
      if (best >= opts.jaccard_tau && surviving_overlap > 0) {
        ASSERT_TRUE(std::binary_search(got.begin(), got.end(),
                                       static_cast<uint32_t>(r)))
            << "pair (" << p << ", " << r << ") with Jaccard " << best
            << " lost under pruning";
      }
    }
  }
}

// ----------------------------------------------------------- CandidateSet

TEST(CandidateSetTest, PairAtEnumeratesAscendingAndContainsAgrees) {
  const GramTable indexed = RandomGramTable(50, 1, 25, 10, 7);
  const GramTable probes = RandomGramTable(35, 1, 25, 10, 8);
  QgramIndex index = QgramIndex::Build(50, 1, Accessor(indexed), Unpruned());
  CandidateSet cand =
      block::GenerateCandidates(index, probes.size(), Accessor(probes));

  ASSERT_EQ(cand.offsets.size(), probes.size() + 1);
  std::pair<size_t, size_t> prev{0, 0};
  for (size_t k = 0; k < cand.num_pairs(); ++k) {
    auto pair = cand.PairAt(k);
    if (k > 0) {
      ASSERT_LT(prev, pair) << "flat order not ascending at " << k;
    }
    prev = pair;
    EXPECT_TRUE(cand.Contains(pair.first,
                              static_cast<uint32_t>(pair.second)));
  }
  // Contains is exact: every (i, j) answer matches membership in the slice.
  for (size_t i = 0; i < probes.size(); ++i) {
    for (uint32_t j = 0; j < 50; ++j) {
      bool in_slice = false;
      for (size_t k = cand.offsets[i]; k < cand.offsets[i + 1]; ++k) {
        if (cand.cols[k] == j) in_slice = true;
      }
      ASSERT_EQ(cand.Contains(i, j), in_slice) << i << "," << j;
    }
  }
}

TEST(CandidateSetTest, GenerateCandidatesIsPoolInvariant) {
  const GramTable indexed = RandomGramTable(90, 2, 35, 12, 17);
  const GramTable probes = RandomGramTable(200, 2, 35, 12, 18);
  QgramIndex index = QgramIndex::Build(90, 2, Accessor(indexed), Unpruned());

  CandidateSet serial =
      block::GenerateCandidates(index, probes.size(), Accessor(probes));
  runtime::ThreadPool pool(4);
  CandidateSet pooled = block::GenerateCandidates(index, probes.size(),
                                                  Accessor(probes), &pool);
  EXPECT_EQ(serial.offsets, pooled.offsets);
  EXPECT_EQ(serial.cols, pooled.cols);
}

// --------------------------------------------------- SampleDistinctSorted

TEST(SampleDistinctSortedTest, DistinctSortedInRangeDeterministic) {
  auto sample = block::SampleDistinctSorted(10000, 300, 99);
  ASSERT_EQ(sample.size(), 300u);
  for (size_t i = 0; i < sample.size(); ++i) {
    EXPECT_LT(sample[i], 10000u);
    if (i > 0) {
      EXPECT_LT(sample[i - 1], sample[i]);  // sorted + distinct
    }
  }
  EXPECT_EQ(sample, block::SampleDistinctSorted(10000, 300, 99));
  EXPECT_NE(sample, block::SampleDistinctSorted(10000, 300, 100));

  auto full = block::SampleDistinctSorted(5, 5, 1);
  EXPECT_EQ(full, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(block::SampleDistinctSorted(5, 0, 1).empty());
}

TEST(SampleDistinctSortedTest, RoughlyUniform) {
  // Element-wise inclusion frequency over many seeds: each of the 50
  // values is picked with probability 10/50 = 0.2; 4000 trials put the
  // expected count at 800 with sd 25, so [650, 950] is a >6-sigma band.
  std::vector<size_t> counts(50, 0);
  for (uint64_t seed = 0; seed < 4000; ++seed) {
    for (size_t v : block::SampleDistinctSorted(50, 10, seed)) ++counts[v];
  }
  for (size_t v = 0; v < counts.size(); ++v) {
    EXPECT_GT(counts[v], 650u) << "value " << v << " undersampled";
    EXPECT_LT(counts[v], 950u) << "value " << v << " oversampled";
  }
}

// --------------------------------------------------- End-to-end S3 blocking

SerdOptions FastOptions() {
  SerdOptions opts;
  opts.seed = 77;
  opts.string_bank.num_buckets = 4;
  opts.string_bank.num_candidates = 2;
  opts.string_bank.transformer.d_model = 16;
  opts.string_bank.transformer.num_heads = 2;
  opts.string_bank.transformer.num_layers = 1;
  opts.string_bank.transformer.ffn_dim = 24;
  opts.string_bank.transformer.max_len = 32;
  opts.string_bank.train.epochs = 1;
  opts.string_bank.train.batch_size = 16;
  opts.string_bank.max_pairs_per_bucket = 16;
  opts.string_bank.random_pair_samples = 120;
  opts.gan.epochs = 4;
  opts.gan.batch_size = 16;
  opts.jsd_samples = 48;
  opts.rejection_partner_sample = 8;
  opts.max_label_pairs = 0;  // full exact scan: the blocked baseline
  return opts;
}

struct Fitted {
  std::unique_ptr<SerdSynthesizer> synth;
  ERDataset real;
};

Fitted FitSmall(DatasetKind kind, double scale, SerdOptions opts) {
  Fitted f;
  f.real = datagen::Generate(kind, {.seed = 3, .scale = scale});
  std::vector<std::vector<std::string>> corpora;
  size_t idx = 0;
  for (const auto& col : f.real.schema().columns()) {
    if (col.type != ColumnType::kText) continue;
    corpora.push_back(
        datagen::BackgroundCorpus(kind, col.name, 60, 100 + idx++));
  }
  Table background = datagen::BackgroundEntities(kind, 50, 11);
  f.synth = std::make_unique<SerdSynthesizer>(f.real, opts);
  auto fit = f.synth->Fit(corpora, background);
  EXPECT_TRUE(fit.ok()) << fit.ToString();
  return f;
}

using PairSet = std::set<std::pair<size_t, size_t>>;

PairSet MatchSet(const ERDataset& ds) {
  PairSet out;
  for (const auto& m : ds.matches) out.insert({m.a_idx, m.b_idx});
  return out;
}

TEST(BlockingPipelineTest, ExactVsBlockedAgreementFuzz) {
  for (uint64_t seed : {3u, 11u}) {
    SerdOptions opts = FastOptions();
    opts.seed = seed;
    Fitted f = FitSmall(DatasetKind::kDblpAcm, 0.03, opts);

    auto exact = f.synth->Synthesize();
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    const SerdReport exact_report = f.synth->report();
    EXPECT_FALSE(exact_report.s3_blocked);
    EXPECT_EQ(exact_report.s3_pruned_pairs, 0);
    EXPECT_EQ(exact_report.s3_candidate_pairs, exact_report.s3_total_pairs);
    EXPECT_EQ(exact_report.s3_block_recall, 1.0);
    // Exact scans measure recall; the flag must say so.
    EXPECT_FALSE(exact_report.s3_block_recall_estimated);

    RunOptions qgram = f.synth->DefaultRunOptions();
    qgram.blocking = SerdOptions::BlockingMode::kQgram;
    SerdReport report;
    auto blocked = f.synth->Synthesize(qgram, &report);
    ASSERT_TRUE(blocked.ok()) << blocked.status().ToString();
    EXPECT_TRUE(report.s3_blocked);
    EXPECT_GT(report.s3_candidate_pairs, 0);
    EXPECT_EQ(report.s3_candidate_pairs + report.s3_pruned_pairs,
              report.s3_total_pairs);
    EXPECT_GT(report.s3_block_recall, 0.0);
    EXPECT_LE(report.s3_block_recall, 1.0);
    // Blocked runs publish the sampled estimate in s3_block_recall; the
    // flag keeps it from being conflated with a measured value whenever
    // blocking actually pruned anything.
    EXPECT_EQ(report.s3_block_recall_estimated, report.s3_pruned_pairs > 0);

    // Blocking only changes which pairs S3 scores, never the entities.
    ASSERT_EQ(exact->a.size(), blocked->a.size());
    ASSERT_EQ(exact->b.size(), blocked->b.size());
    for (size_t i = 0; i < exact->a.size(); ++i) {
      ASSERT_EQ(exact->a.row(i).values, blocked->a.row(i).values) << i;
    }
    for (size_t i = 0; i < exact->b.size(); ++i) {
      ASSERT_EQ(exact->b.row(i).values, blocked->b.row(i).values) << i;
    }

    // Precision 1 by construction: blocked matches are a subset of the
    // exact ones; with full recall the lists are bit-identical (same
    // ascending enumeration order on both paths).
    PairSet exact_matches = MatchSet(*exact);
    PairSet blocked_matches = MatchSet(*blocked);
    for (const auto& m : blocked_matches) {
      ASSERT_TRUE(exact_matches.count(m))
          << "blocked-only match (" << m.first << ", " << m.second
          << ") at seed " << seed;
    }
    const double true_recall =
        exact_matches.empty()
            ? 1.0
            : static_cast<double>(blocked_matches.size()) /
                  static_cast<double>(exact_matches.size());
    EXPECT_GT(true_recall, 0.0);
    if (true_recall == 1.0) {
      EXPECT_EQ(exact->matches.size(), blocked->matches.size());
      for (size_t i = 0; i < exact->matches.size(); ++i) {
        EXPECT_EQ(exact->matches[i].a_idx, blocked->matches[i].a_idx) << i;
        EXPECT_EQ(exact->matches[i].b_idx, blocked->matches[i].b_idx) << i;
      }
    }
  }
}

TEST(BlockingPipelineTest, ScannedVsScoredAccounting) {
  Fitted f = FitSmall(DatasetKind::kRestaurant, 0.05, FastOptions());
  auto syn = f.synth->Synthesize();
  ASSERT_TRUE(syn.ok()) << syn.status().ToString();
  const SerdReport& report = f.synth->report();

  // Uncapped exact scan: every cross pair is scanned; the pairs S2
  // already labeled are skipped by the scorer, not silently recounted as
  // scored. Every accepted entity except the S2 bootstrap entity (which
  // starts table A with no partner) contributes exactly one linked pair.
  EXPECT_EQ(report.s3_scanned_pairs, report.s3_total_pairs);
  EXPECT_EQ(report.s3_total_pairs,
            static_cast<long>(syn->a.size() * syn->b.size()));
  EXPECT_EQ(report.s3_scanned_pairs - report.s3_scored_pairs,
            static_cast<long>(report.accepted_entities) - 1);
  // syn.matches = S2's linked matches + S3's posterior matches; the
  // linked-match share can never exceed the accepted-entity link count.
  const long linked_matches =
      static_cast<long>(syn->matches.size()) - report.s3_posterior_matches;
  EXPECT_GE(linked_matches, 0);
  EXPECT_LE(linked_matches, static_cast<long>(report.accepted_entities));
}

TEST(BlockingPipelineTest, BlockedLabelingIsThreadCountInvariant) {
  SerdOptions opts1 = FastOptions();
  opts1.threads = 1;
  opts1.blocking = SerdOptions::BlockingMode::kQgram;
  opts1.max_label_pairs = 400;  // exercise the Floyd subsample too
  Fitted f1 = FitSmall(DatasetKind::kDblpAcm, 0.03, opts1);
  SerdOptions opts3 = opts1;
  opts3.threads = 3;
  Fitted f3 = FitSmall(DatasetKind::kDblpAcm, 0.03, opts3);

  auto syn1 = f1.synth->Synthesize();
  auto syn3 = f3.synth->Synthesize();
  ASSERT_TRUE(syn1.ok() && syn3.ok());
  ASSERT_EQ(syn1->matches.size(), syn3->matches.size());
  for (size_t i = 0; i < syn1->matches.size(); ++i) {
    EXPECT_EQ(syn1->matches[i].a_idx, syn3->matches[i].a_idx) << i;
    EXPECT_EQ(syn1->matches[i].b_idx, syn3->matches[i].b_idx) << i;
  }
  EXPECT_EQ(f1.synth->report().s3_scored_pairs,
            f3.synth->report().s3_scored_pairs);
  // The cap must actually bind (candidates > cap) for Floyd to engage.
  EXPECT_GT(f1.synth->report().s3_candidate_pairs, 400);
  EXPECT_EQ(f1.synth->report().s3_scanned_pairs, 400);

  // The exact path's Floyd-sampled cap is thread-invariant too.
  RunOptions exact = f1.synth->DefaultRunOptions();
  exact.blocking = SerdOptions::BlockingMode::kOff;
  auto cap1 = f1.synth->Synthesize(exact, nullptr);
  auto cap3 = f3.synth->Synthesize(exact, nullptr);
  ASSERT_TRUE(cap1.ok() && cap3.ok());
  ASSERT_EQ(cap1->matches.size(), cap3->matches.size());
  for (size_t i = 0; i < cap1->matches.size(); ++i) {
    EXPECT_EQ(cap1->matches[i].a_idx, cap3->matches[i].a_idx) << i;
    EXPECT_EQ(cap1->matches[i].b_idx, cap3->matches[i].b_idx) << i;
  }
}

TEST(BlockingModeTest, ParseAndNameRoundTrip) {
  SerdOptions::BlockingMode mode;
  ASSERT_TRUE(ParseBlockingMode("off", &mode));
  EXPECT_EQ(mode, SerdOptions::BlockingMode::kOff);
  ASSERT_TRUE(ParseBlockingMode("qgram", &mode));
  EXPECT_EQ(mode, SerdOptions::BlockingMode::kQgram);
  ASSERT_TRUE(ParseBlockingMode("auto", &mode));
  EXPECT_EQ(mode, SerdOptions::BlockingMode::kAuto);
  EXPECT_FALSE(ParseBlockingMode("qgrams", &mode));
  EXPECT_FALSE(ParseBlockingMode("", &mode));
  for (auto m : {SerdOptions::BlockingMode::kOff,
                 SerdOptions::BlockingMode::kQgram,
                 SerdOptions::BlockingMode::kAuto}) {
    SerdOptions::BlockingMode parsed;
    ASSERT_TRUE(ParseBlockingMode(BlockingModeName(m), &parsed));
    EXPECT_EQ(parsed, m);
  }
}

}  // namespace
}  // namespace serd
