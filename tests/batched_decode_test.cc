#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/serd.h"
#include "datagen/generators.h"
#include "eval/metrics.h"
#include "matcher/random_forest.h"
#include "seq2seq/model_bank.h"
#include "seq2seq/transformer.h"
#include "text/qgram.h"
#include "text/token.h"

namespace serd {
namespace {

using datagen::DatasetKind;

TransformerConfig TinyConfig(int vocab_size) {
  TransformerConfig cfg;
  cfg.vocab_size = vocab_size;
  cfg.d_model = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 2;  // two layers so cross-layer cache indexing is covered
  cfg.ffn_dim = 32;
  cfg.max_len = 24;
  cfg.dropout = 0.0f;
  return cfg;
}

/// Collects every candidate GenerateBatchLanes delivers, in order.
std::vector<std::vector<int>> CollectLanes(const TransformerSeq2Seq& model,
                                           const EncoderMemoryPtr& memory,
                                           int num_candidates,
                                           uint64_t stream_seed, bool lockstep,
                                           GenerateStats* stats = nullptr) {
  std::vector<std::vector<int>> out;
  int produced = model.GenerateBatchLanes(
      memory, num_candidates, stream_seed, 0.9f,
      [&](int c, const std::vector<int>& ids) {
        EXPECT_EQ(c, static_cast<int>(out.size())) << "out-of-order delivery";
        out.push_back(ids);
        return true;
      },
      lockstep, stats);
  EXPECT_EQ(produced, static_cast<int>(out.size()));
  return out;
}

// ---------------------------------------- lockstep vs lane-sequential oracle

TEST(BatchedDecodeTest, LockstepMatchesOracleAtEveryCandidateCount) {
  CharVocab vocab;
  vocab.Fit({"synthesize privacy preserving records"});
  Rng rng(71);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  EncoderMemoryPtr memory = model.EncodeMemory(vocab.Encode("records vary"));

  // Every candidate count from 1 through 8: lanes finish at different
  // steps, so this sweeps lane retirement with 0..7 retired lanes in
  // flight, including the all-but-one-retired and single-lane cases.
  for (int n = 1; n <= 8; ++n) {
    GenerateStats batched_stats, oracle_stats;
    auto batched =
        CollectLanes(model, memory, n, 900 + n, /*lockstep=*/true,
                     &batched_stats);
    auto oracle =
        CollectLanes(model, memory, n, 900 + n, /*lockstep=*/false,
                     &oracle_stats);
    ASSERT_EQ(batched.size(), static_cast<size_t>(n)) << "candidates " << n;
    // Bit-exact per lane, not merely same length: the batched kernels must
    // reproduce the single-lane accumulation chains exactly.
    EXPECT_EQ(batched, oracle) << "candidates " << n;
    // Both paths take one step per live lane per position and every step
    // is KV-cached; identical tokens means identical step counts.
    EXPECT_GT(batched_stats.steps, 0);
    EXPECT_EQ(batched_stats.steps, oracle_stats.steps);
    EXPECT_EQ(batched_stats.steps, batched_stats.cached_steps);
    EXPECT_EQ(oracle_stats.steps, oracle_stats.cached_steps);
  }
}

TEST(BatchedDecodeTest, PerCandidateStreamsAreIndependent) {
  // Candidate c's tokens depend only on (stream_seed, c), never on how
  // many sibling lanes decode alongside it — the property the shared
  // stream of GenerateBatch cannot offer.
  CharVocab vocab;
  vocab.Fit({"independent streams"});
  Rng rng(72);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  EncoderMemoryPtr memory = model.EncodeMemory(vocab.Encode("streams"));

  auto solo = CollectLanes(model, memory, 1, 4242, /*lockstep=*/true);
  auto eight = CollectLanes(model, memory, 8, 4242, /*lockstep=*/true);
  ASSERT_EQ(eight.size(), 8u);
  EXPECT_EQ(solo[0], eight[0]);

  auto five = CollectLanes(model, memory, 5, 4242, /*lockstep=*/true);
  for (int c = 0; c < 5; ++c) EXPECT_EQ(five[c], eight[c]) << "lane " << c;
}

TEST(BatchedDecodeTest, EarlyStopDeliversIdenticallyInBothModes) {
  CharVocab vocab;
  vocab.Fit({"early exit lanes"});
  Rng rng(73);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  EncoderMemoryPtr memory = model.EncodeMemory(vocab.Encode("exit"));

  for (bool lockstep : {true, false}) {
    std::vector<std::vector<int>> seen;
    int produced = model.GenerateBatchLanes(
        memory, 8, 777, 0.9f,
        [&](int, const std::vector<int>& ids) {
          seen.push_back(ids);
          return seen.size() < 2;  // stop after the second candidate
        },
        lockstep, nullptr);
    EXPECT_EQ(produced, 2) << "lockstep " << lockstep;
    ASSERT_EQ(seen.size(), 2u);
    // Abandoned lanes drew only from their own streams, so the delivered
    // candidates match the full-batch run bitwise.
    auto full = CollectLanes(model, memory, 8, 777, lockstep);
    EXPECT_EQ(seen[0], full[0]);
    EXPECT_EQ(seen[1], full[1]);
  }
}

TEST(BatchedDecodeTest, DistinctStreamSeedsDecorrelate) {
  CharVocab vocab;
  vocab.Fit({"seed separation check"});
  Rng rng(74);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  EncoderMemoryPtr memory = model.EncodeMemory(vocab.Encode("separation"));
  auto a = CollectLanes(model, memory, 4, 1, /*lockstep=*/true);
  auto b = CollectLanes(model, memory, 4, 2, /*lockstep=*/true);
  EXPECT_NE(a, b);
}

// ------------------------------------------------- bank-level equivalence

StringBankOptions FastBankOptions() {
  StringBankOptions opts;
  opts.num_buckets = 4;
  opts.num_candidates = 3;
  opts.transformer.d_model = 16;
  opts.transformer.num_heads = 2;
  opts.transformer.num_layers = 1;
  opts.transformer.ffn_dim = 24;
  opts.transformer.max_len = 32;
  opts.train.epochs = 1;
  opts.train.batch_size = 8;
  opts.train.dp.enabled = true;
  opts.train.dp.noise_multiplier = 0.6;
  opts.max_pairs_per_bucket = 24;
  opts.min_pairs_per_bucket = 4;
  opts.random_pair_samples = 150;
  return opts;
}

double Sim(const std::string& a, const std::string& b) {
  return QgramJaccard(a, b);
}

const std::vector<std::string> kCorpus = {
    "adaptive query optimization",  "temporal middleware systems",
    "generalised hash teams",       "join and group-by processing",
    "frequent elements in streams", "parameterized complexity theory",
    "entity resolution at scale",   "duplicate detection pipelines",
};

TEST(BatchedBankTest, BatchedAndOracleBanksSynthesizeIdentically) {
  StringBankOptions batched_opts = FastBankOptions();
  batched_opts.batched_decode = true;
  batched_opts.batched_lockstep = true;
  StringBankOptions oracle_opts = batched_opts;
  oracle_opts.batched_lockstep = false;

  StringSynthesisBank batched(batched_opts, Sim);
  StringSynthesisBank oracle(oracle_opts, Sim);
  Rng t1(81), t2(81);
  ASSERT_TRUE(batched.Train(kCorpus, &t1).ok());
  ASSERT_TRUE(oracle.Train(kCorpus, &t2).ok());

  Rng s1(82), s2(82);
  BankRun batched_run, oracle_run;
  batched_run.batched_decode = oracle_run.batched_decode = true;
  for (double target : {0.1, 0.35, 0.6, 0.85}) {
    EXPECT_EQ(batched.Synthesize("entity resolution at scale", target, &s1,
                                 &batched_run),
              oracle.Synthesize("entity resolution at scale", target, &s2,
                                &oracle_run))
        << "target " << target;
  }
  EXPECT_EQ(batched_run.decode_steps, oracle_run.decode_steps);
}

// --------------------------------------------- encoder-memory LRU eviction

/// Builds a trained-looking bank via RestoreTrained with a random-weight
/// model in every bucket — enough to drive the encoder-memory cache, which
/// only depends on (model uid, source string).
std::unique_ptr<StringSynthesisBank> AllBucketsTrainedBank(
    const std::vector<std::string>& corpus) {
  StringBankOptions opts = FastBankOptions();
  auto bank = std::make_unique<StringSynthesisBank>(opts, Sim);

  CharVocab vocab;
  vocab.Fit(corpus);
  std::vector<std::string> pool;
  for (const auto& s : corpus) {
    for (auto& w : WordTokens(s)) pool.push_back(std::move(w));
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  TransformerConfig cfg = opts.transformer;
  cfg.vocab_size = vocab.size();
  const size_t k = static_cast<size_t>(opts.num_buckets);
  std::vector<std::unique_ptr<TransformerSeq2Seq>> models(k);
  for (size_t b = 0; b < k; ++b) {
    Rng rng(200 + b);
    models[b] = std::make_unique<TransformerSeq2Seq>(cfg, &rng);
  }
  StringBankStats stats;
  stats.pairs_per_bucket.assign(k, 0);
  stats.bucket_trained.assign(k, true);
  stats.bucket_hits.assign(k, 0);
  SERD_CHECK(bank->RestoreTrained(std::move(vocab), corpus, std::move(pool),
                                  std::move(models), std::move(stats))
                 .ok());
  return bank;
}

TEST(BatchedBankTest, EncoderMemoryCacheEvictsLruAtNinthSource) {
  // Nine distinct sources against the 8-entry per-thread cache. All
  // sources share one word so every bucket routing stays stable; the
  // target 0.5 keeps every call on the same (bucket 2) model, making one
  // cache lookup per Synthesize call.
  std::vector<std::string> sources;
  for (int i = 1; i <= 9; ++i) {
    sources.push_back("record source number " + std::to_string(i));
  }
  auto bank = AllBucketsTrainedBank(sources);
  Rng rng(91);
  const double target = 0.5;

  // Prime: eight distinct sources fill the cache (and flush whatever
  // earlier tests on this thread left in it) — all misses.
  BankRun stats;
  for (int i = 0; i < 8; ++i) {
    bank->Synthesize(sources[i], target, &rng, &stats);
  }
  const long hits_primed = stats.encoder_cache_hits;
  const long misses_primed = stats.encoder_cache_misses;
  EXPECT_GE(misses_primed, 8);

  // s1 again: cache hit, and its stamp is refreshed (s2 becomes LRU).
  bank->Synthesize(sources[0], target, &rng, &stats);
  EXPECT_EQ(stats.encoder_cache_hits, hits_primed + 1);
  EXPECT_EQ(stats.encoder_cache_misses, misses_primed);

  // The ninth distinct source misses and evicts exactly the LRU entry.
  bank->Synthesize(sources[8], target, &rng, &stats);
  EXPECT_EQ(stats.encoder_cache_hits, hits_primed + 1);
  EXPECT_EQ(stats.encoder_cache_misses, misses_primed + 1);

  // s2 was the LRU victim: miss. s1 survived: hit.
  bank->Synthesize(sources[1], target, &rng, &stats);
  EXPECT_EQ(stats.encoder_cache_misses, misses_primed + 2);
  bank->Synthesize(sources[0], target, &rng, &stats);
  EXPECT_EQ(stats.encoder_cache_hits, hits_primed + 2);
}

// --------------------------------------------------- end-to-end pipeline

SerdOptions FastPipelineOptions() {
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
  opts.max_label_pairs = 20000;
  return opts;
}

struct Fixture {
  ERDataset real;
  std::vector<std::vector<std::string>> corpora;
  Table background;
};

Fixture MakeFixture(double scale = 0.02) {
  Fixture f;
  f.real = datagen::Generate(DatasetKind::kDblpAcm, {.seed = 3, .scale = scale});
  size_t idx = 0;
  for (const auto& col : f.real.schema().columns()) {
    if (col.type != ColumnType::kText) continue;
    f.corpora.push_back(datagen::BackgroundCorpus(DatasetKind::kDblpAcm,
                                                  col.name, 60, 100 + idx++));
  }
  f.background = datagen::BackgroundEntities(DatasetKind::kDblpAcm, 50, 11);
  return f;
}

void ExpectSameDataset(const ERDataset& x, const ERDataset& y,
                       const char* what) {
  ASSERT_EQ(x.a.size(), y.a.size()) << what;
  ASSERT_EQ(x.b.size(), y.b.size()) << what;
  for (size_t i = 0; i < x.a.size(); ++i) {
    ASSERT_EQ(x.a.row(i).values, y.a.row(i).values) << what << " a row " << i;
  }
  for (size_t i = 0; i < x.b.size(); ++i) {
    ASSERT_EQ(x.b.row(i).values, y.b.row(i).values) << what << " b row " << i;
  }
  ASSERT_EQ(x.matches.size(), y.matches.size()) << what;
}

TEST(BatchedPipelineTest, ReleaseIsThreadCountAndLockstepInvariant) {
  // The acceptance matrix: {lockstep, lane-sequential oracle} at threads
  // {1, 8} must release byte-identical datasets. Per-candidate streams
  // never couple lanes, and per-entity sharded streams never couple
  // threads, so all four runs agree.
  auto f = MakeFixture();
  auto run = [&](int threads, bool lockstep) {
    SerdOptions opts = FastPipelineOptions();
    opts.target_a = 12;
    opts.target_b = 12;
    opts.threads = threads;
    opts.string_bank.batched_decode = true;
    opts.string_bank.batched_lockstep = lockstep;
    SerdSynthesizer synth(f.real, opts);
    SERD_CHECK(synth.Fit(f.corpora, f.background).ok());
    return std::move(synth.Synthesize()).value();
  };
  ERDataset base = run(1, true);
  ExpectSameDataset(base, run(8, true), "threads 8 lockstep");
  ExpectSameDataset(base, run(1, false), "threads 1 oracle");
  ExpectSameDataset(base, run(8, false), "threads 8 oracle");
}

TEST(BatchedPipelineTest, QualityGateF1WithinBoundOfReferenceDecode) {
  // Released bytes legitimately differ from the shared-stream reference
  // (different RNG draws per candidate), so the gate is statistical: a
  // matcher trained on the batched release must land within a bound of
  // one trained on the reference release, both scored on real test pairs.
  auto f = MakeFixture(0.04);
  SerdSynthesizer synth(f.real, FastPipelineOptions());
  ASSERT_TRUE(synth.Fit(f.corpora, f.background).ok());

  // Default path first: bit-identical to --reference-decode (the
  // incremental/reference equivalence is proven elsewhere).
  auto reference = synth.Synthesize();
  ASSERT_TRUE(reference.ok());
  RunOptions batched_run = synth.DefaultRunOptions();
  batched_run.batched_decode = true;
  auto batched = synth.Synthesize(batched_run, nullptr);
  ASSERT_TRUE(batched.ok());

  auto spec = SimilaritySpec::FromTables(f.real.schema(),
                                         {&f.real.a, &f.real.b});
  FeatureExtractor fx(spec);
  Rng rng(7);
  auto real_pairs = BuildLabeledPairs(f.real, 6.0, &rng);
  LabeledPairSet real_train, real_test;
  SplitPairs(real_pairs, 0.4, &rng, &real_train, &real_test);

  auto ref_pairs = synth.LabelPairs(*reference, 6.0, &rng);
  auto bat_pairs = synth.LabelPairs(*batched, 6.0, &rng);
  RandomForest m_ref, m_bat;
  auto prf_ref = TrainAndEvaluate(&m_ref, fx, *reference, ref_pairs, fx,
                                  f.real, real_test);
  auto prf_bat = TrainAndEvaluate(&m_bat, fx, *batched, bat_pairs, fx,
                                  f.real, real_test);

  EXPECT_GT(prf_ref.f1, 0.3);
  EXPECT_GT(prf_bat.f1, 0.3);
  EXPECT_LT(std::fabs(prf_ref.f1 - prf_bat.f1), 0.3);
}

}  // namespace
}  // namespace serd
