#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "block/candidates.h"
#include "block/qgram_index.h"
#include "common/rng.h"
#include "core/cached_sim.h"
#include "core/distribution.h"
#include "core/serd.h"
#include "datagen/generators.h"
#include "runtime/thread_pool.h"
#include "text/qgram.h"

namespace serd {
namespace {

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

// ------------------------------------------------------------- QgramIndex

TEST(QgramIndexTest, PostingListsAndStats) {
  GramTable table = {{{1, 2}}, {{2, 3}}, {{2}}};
  QgramIndex index = QgramIndex::Build(3, 1, Accessor(table));

  EXPECT_EQ(index.num_rows(), 3u);
  EXPECT_EQ(index.stats().indexed_columns, 1u);
  EXPECT_EQ(index.stats().total_postings, 5u);
  EXPECT_EQ(index.stats().distinct_grams, 3u);
  // Jaccard {2} vs each row: 1/2, 1/2, 1 — all reach tau = 0.35.
  QgramIndex::Scratch scratch;
  std::vector<uint32_t> got;
  const std::vector<uint32_t> common = {2};
  index.Candidates({&common}, &scratch, &got);
  EXPECT_EQ(got, (std::vector<uint32_t>{0, 1, 2}));
  // {1}: 1/2 with row 0 only; a gram no row holds has no candidate.
  const std::vector<uint32_t> rare = {1};
  index.Candidates({&rare}, &scratch, &got);
  EXPECT_EQ(got, (std::vector<uint32_t>{0}));
  const std::vector<uint32_t> absent = {99};
  index.Candidates({&absent}, &scratch, &got);
  EXPECT_TRUE(got.empty());
}

TEST(QgramIndexTest, JaccardTauIsExactWithoutPruning) {
  // The candidate rule is an exact per-column Jaccard filter: candidates
  // are precisely the rows with q-gram Jaccard >= tau on some nonempty
  // column — no superset, no misses.
  const GramTable indexed = RandomGramTable(70, 2, 30, 14, 91);
  const GramTable probes = RandomGramTable(45, 2, 30, 14, 92);
  for (double tau : {0.2, 0.35, 0.5, 0.8}) {
    QgramIndex index = QgramIndex::Build(70, 2, Accessor(indexed), tau);
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

// ----------------------------------------------------------- CandidateSet

TEST(CandidateSetTest, PairAtEnumeratesAscendingAndContainsAgrees) {
  const GramTable indexed = RandomGramTable(50, 1, 25, 10, 7);
  const GramTable probes = RandomGramTable(35, 1, 25, 10, 8);
  QgramIndex index = QgramIndex::Build(50, 1, Accessor(indexed));
  CandidateSet cand =
      block::GenerateCandidates(index, probes.size(), Accessor(probes));

  ASSERT_EQ(cand.offsets.size(), probes.size() + 1);
  ASSERT_GT(cand.num_pairs(), 0u) << "fixture yields no candidates";
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
  QgramIndex index = QgramIndex::Build(90, 2, Accessor(indexed));

  CandidateSet serial =
      block::GenerateCandidates(index, probes.size(), Accessor(probes));
  runtime::ThreadPool pool(4);
  CandidateSet pooled = block::GenerateCandidates(index, probes.size(),
                                                  Accessor(probes), &pool);
  ASSERT_GT(serial.num_pairs(), 0u) << "fixture yields no candidates";
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

// ------------------------------------------------- The S3 labeler on E_real

/// A real dataset's labeler inputs: O_real from S1's fit and the digests
/// of both tables. No synthesis is involved. Built in place, since `sim`
/// points at `spec`.
struct RealInputs {
  RealInputs(DatasetKind kind, double scale)
      : real(datagen::Generate(kind, {.seed = 5, .scale = scale})),
        spec(SimilaritySpec::FromTables(real.schema(), {&real.a, &real.b})),
        sim(spec) {
    auto fit = FitODistribution(real, spec, GmmFitOptions(), 5);
    EXPECT_TRUE(fit.ok()) << fit.status().ToString();
    if (fit.ok()) o = std::move(fit).value();
    for (const auto& row : real.a.rows()) a.push_back(sim.MakeDigest(row));
    for (const auto& row : real.b.rows()) b.push_back(sim.MakeDigest(row));
  }

  ERDataset real;
  SimilaritySpec spec;
  CachedSimilarity sim;
  ODistribution o;
  std::vector<CachedSimilarity::Digest> a, b;
};

CrossPairLabels LabelReal(const RealInputs& in,
                          const std::unordered_set<uint64_t>& known,
                          BlockingMode blocking, size_t label_cap = 0,
                          runtime::ThreadPool* pool = nullptr) {
  return LabelCrossPairs(in.o, in.sim, in.a, in.b, known, blocking,
                         label_cap, /*seed=*/9, pool, /*metrics=*/nullptr);
}

TEST(LabelCrossPairsTest, ExactAndBlockedAgreeOnRealData) {
  for (const auto& [kind, scale] :
       {std::pair{DatasetKind::kDblpAcm, 0.05},
        std::pair{DatasetKind::kRestaurant, 0.2}}) {
    RealInputs in(kind, scale);
    CrossPairLabels exact = LabelReal(in, {}, BlockingMode::kOff);
    CrossPairLabels blocked = LabelReal(in, {}, BlockingMode::kQgram);
    EXPECT_FALSE(exact.blocked);
    EXPECT_TRUE(blocked.blocked);
    EXPECT_EQ(exact.scored_pairs, exact.total_pairs);
    EXPECT_LT(blocked.candidate_pairs, blocked.total_pairs);
    EXPECT_EQ(blocked.scanned_pairs, blocked.candidate_pairs);
    ASSERT_FALSE(exact.matches.empty()) << in.real.name;
    EXPECT_EQ(exact.matches, blocked.matches) << in.real.name;
    // Nothing outside the candidates matches, so no sample can miss one.
    EXPECT_TRUE(blocked.block_recall_estimated);
    EXPECT_EQ(blocked.block_recall, 1.0);
    // Below 2^20 pairs the automatic mode keeps the exact scan.
    ASSERT_LT(exact.total_pairs, kBlockingAutoMinPairs);
    EXPECT_FALSE(LabelReal(in, {}, BlockingMode::kAuto).blocked);
  }
}

TEST(LabelCrossPairsTest, KnownPairsAreScannedButNotScored) {
  RealInputs in(DatasetKind::kDblpAcm, 0.05);
  const size_t nb = in.b.size();
  for (BlockingMode mode : {BlockingMode::kOff, BlockingMode::kQgram}) {
    CrossPairLabels all = LabelReal(in, {}, mode);
    ASSERT_GE(all.matches.size(), 3u);
    // Mark the first and last matches known, as S2 marks its links.
    std::unordered_set<uint64_t> known;
    for (const PairRef& m : {all.matches.front(), all.matches.back()}) {
      known.insert(static_cast<uint64_t>(m.a_idx) * nb + m.b_idx);
    }
    CrossPairLabels rest = LabelReal(in, known, mode);
    EXPECT_EQ(rest.scanned_pairs, all.scanned_pairs);
    EXPECT_EQ(rest.scored_pairs, all.scored_pairs - known.size());
    const std::vector<PairRef> unknown(all.matches.begin() + 1,
                                       all.matches.end() - 1);
    EXPECT_EQ(rest.matches, unknown);
  }
}

TEST(LabelCrossPairsTest, TiledPosteriorsMatchPerPairLabels) {
  // Known pairs every 37th key, so most 64-pair tiles hold one or two and
  // a chunk's tiles do not line up with its pairs.
  RealInputs in(DatasetKind::kDblpAcm, 0.05);
  const size_t nb = in.b.size();
  std::unordered_set<uint64_t> known;
  for (uint64_t key = 3; key < in.a.size() * nb; key += 37) known.insert(key);
  // The per-pair reference: LabelAsMatch on each unknown pair in order.
  std::vector<PairRef> want;
  size_t scored = 0;
  for (size_t i = 0; i < in.a.size(); ++i) {
    for (size_t j = 0; j < nb; ++j) {
      if (known.count(static_cast<uint64_t>(i) * nb + j)) continue;
      ++scored;
      if (in.o.LabelAsMatch(in.sim.SimilarityVector(in.a[i], in.b[j]))) {
        want.push_back({i, j});
      }
    }
  }
  ASSERT_FALSE(want.empty());
  runtime::ThreadPool pool(3);
  for (runtime::ThreadPool* p : {static_cast<runtime::ThreadPool*>(nullptr),
                                 &pool}) {
    CrossPairLabels exact = LabelReal(in, known, BlockingMode::kOff, 0, p);
    EXPECT_EQ(exact.matches, want);
    EXPECT_EQ(exact.scored_pairs, scored);
    EXPECT_EQ(LabelReal(in, known, BlockingMode::kQgram, 0, p).matches, want);
  }

  // The labeler behind both, as S2's partner step uses it: batches below,
  // at and around one 64-pair tile, half of them matches, through one
  // labeler (its buffers carry over), under O_real and the one-arm
  // mixtures pi = 0 and pi = 1.
  for (const ODistribution& o :
       {in.o, ODistribution(0.0, in.o.m_distribution(), in.o.n_distribution()),
        ODistribution(1.0, in.o.m_distribution(), in.o.n_distribution())}) {
    PairLabeler labeler(o, in.sim);
    for (size_t n : {1, 63, 64, 65, 130}) {
      SCOPED_TRACE("pi " + std::to_string(o.pi()) + " n " + std::to_string(n));
      std::vector<PairRef> pairs;
      labeler.Clear();
      for (size_t k = 0; k < n; ++k) {
        pairs.push_back(k % 2 == 1 ? want[(k / 2) % want.size()]
                                   : PairRef{k % in.a.size(), 7 * k % nb});
        labeler.Add(in.a[pairs[k].a_idx], in.b[pairs[k].b_idx]);
      }
      ASSERT_EQ(labeler.size(), n);
      labeler.Label();
      for (size_t k = 0; k < n; ++k) {
        const Vec x =
            in.sim.SimilarityVector(in.a[pairs[k].a_idx], in.b[pairs[k].b_idx]);
        EXPECT_EQ(labeler.match(k), o.LabelAsMatch(x)) << k;
        ASSERT_EQ(labeler.vector(k).size(), x.size());
        EXPECT_EQ(std::memcmp(labeler.vector(k).data(), x.data(),
                              x.size() * sizeof(double)),
                  0)
            << k;
      }
    }
  }
}

TEST(LabelCrossPairsTest, CapSubsampleIsPoolInvariant) {
  RealInputs in(DatasetKind::kDblpAcm, 0.05);
  runtime::ThreadPool pool(3);
  for (BlockingMode mode : {BlockingMode::kOff, BlockingMode::kQgram}) {
    const size_t cap = LabelReal(in, {}, mode).candidate_pairs / 2;
    CrossPairLabels serial = LabelReal(in, {}, mode, cap);
    CrossPairLabels pooled = LabelReal(in, {}, mode, cap, &pool);
    EXPECT_EQ(serial.scanned_pairs, cap);
    ASSERT_FALSE(serial.matches.empty());
    EXPECT_EQ(serial.matches, pooled.matches);
    EXPECT_EQ(serial.scored_pairs, pooled.scored_pairs);
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
