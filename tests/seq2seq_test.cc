#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "common/check.h"
#include "dp/accountant.h"
#include "dp/dp_sgd.h"
#include "nn/arena.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "runtime/sharded_rng.h"
#include "runtime/thread_pool.h"
#include "seq2seq/model_bank.h"
#include "seq2seq/trainer.h"
#include "seq2seq/transformer.h"
#include "text/perturb.h"
#include "text/qgram.h"
#include "text/token.h"

namespace serd {
namespace {

TransformerConfig TinyConfig(int vocab_size) {
  TransformerConfig cfg;
  cfg.vocab_size = vocab_size;
  cfg.d_model = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_dim = 32;
  cfg.max_len = 24;
  cfg.dropout = 0.0f;
  return cfg;
}

// ------------------------------------------------------------ transformer

TEST(TransformerTest, LossIsFiniteAndPositive) {
  CharVocab vocab;
  vocab.Fit({"abcde"});
  Rng rng(1);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  nn::Tape tape;
  auto loss = model.Loss(&tape, vocab.Encode("abc"), vocab.Encode("cba"),
                         nullptr);
  EXPECT_TRUE(std::isfinite(loss->value()[0]));
  EXPECT_GT(loss->value()[0], 0.0f);
}

TEST(TransformerTest, TrainingReducesLossOnCopyTask) {
  CharVocab vocab;
  vocab.Fit({"abcd"});
  Rng rng(2);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);

  std::vector<std::pair<std::string, std::string>> pairs = {
      {"ab", "ab"}, {"ba", "ba"}, {"abc", "abc"}, {"cab", "cab"},
      {"d", "d"},   {"dc", "dc"}, {"abcd", "abcd"}};

  auto mean_loss = [&]() {
    double total = 0;
    for (const auto& [s, t] : pairs) {
      nn::Tape tape;
      total += model.Loss(&tape, vocab.Encode(s), vocab.Encode(t), nullptr)
                   ->value()[0];
    }
    return total / pairs.size();
  };

  double before = mean_loss();
  Seq2SeqTrainOptions opts;
  opts.epochs = 30;
  opts.batch_size = 7;
  opts.dp.enabled = false;
  opts.learning_rate = 5e-3f;
  TrainSeq2Seq(&model, vocab, pairs, opts);
  double after = mean_loss();
  EXPECT_LT(after, before * 0.7);
}

TEST(TransformerTest, GenerateTerminatesAndUsesVocab) {
  CharVocab vocab;
  vocab.Fit({"xyz"});
  Rng rng(3);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  Rng gen_rng(4);
  auto ids = model.Generate(vocab.Encode("xy"), &gen_rng);
  EXPECT_LT(ids.size(), 24u);
  for (int id : ids) {
    EXPECT_GE(id, CharVocab::kNumSpecials);
    EXPECT_LT(id, vocab.size());
  }
}

TEST(TransformerTest, GenerateIsDeterministicGivenSeed) {
  CharVocab vocab;
  vocab.Fit({"abc"});
  Rng rng(5);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  Rng g1(7), g2(7);
  EXPECT_EQ(model.Generate(vocab.Encode("ab"), &g1),
            model.Generate(vocab.Encode("ab"), &g2));
}

TEST(TransformerTest, LongInputsClampedToMaxLen) {
  CharVocab vocab;
  vocab.Fit({"a"});
  Rng rng(8);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  std::string longer(100, 'a');
  nn::Tape tape;
  auto loss = model.Loss(&tape, vocab.Encode(longer), vocab.Encode(longer),
                         nullptr);
  EXPECT_TRUE(std::isfinite(loss->value()[0]));
}

// ------------------------------------------------- KV-cached decode path

TEST(KvCacheTest, StepLogitsMatchFullDecodeBitExact) {
  CharVocab vocab;
  vocab.Fit({"abcdefgh"});
  Rng rng(21);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  auto src_ids = vocab.Encode("fedcba");
  EncoderMemoryPtr memory = model.EncodeMemory(src_ids);

  IncrementalDecoder dec(&model, memory);
  std::vector<int> prefix = {CharVocab::kBos};
  Rng tok_rng(22);
  for (int step = 0; step < 12; ++step) {
    const float* inc = dec.Step(prefix.back());
    auto full = model.NextLogitsFull(prefix, memory);
    ASSERT_EQ(full.size(), static_cast<size_t>(vocab.size()));
    for (size_t c = 0; c < full.size(); ++c) {
      // Bit-exact, not just close: the incremental path routes through the
      // same kernels with the same per-element accumulation chains.
      ASSERT_EQ(inc[c], full[c]) << "step " << step << " logit " << c;
    }
    prefix.push_back(static_cast<int>(
        CharVocab::kNumSpecials + tok_rng.UniformInt(vocab.size() -
                                                     CharVocab::kNumSpecials)));
  }
}

TEST(KvCacheTest, GenerateBatchCachedMatchesSerialGenerate) {
  CharVocab vocab;
  vocab.Fit({"synthesize records"});
  Rng rng(23);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  auto src_ids = vocab.Encode("records ok");

  constexpr int kCandidates = 4;
  Rng g1(24), g2(24);
  std::vector<std::vector<int>> batch;
  GenerateStats stats;
  int produced = model.GenerateBatch(
      model.EncodeMemory(src_ids), kCandidates, &g1, 0.9f,
      [&](int, const std::vector<int>& ids) {
        batch.push_back(ids);
        return true;
      },
      &stats);
  ASSERT_EQ(produced, kCandidates);
  ASSERT_EQ(batch.size(), static_cast<size_t>(kCandidates));
  // Same RNG stream, candidate by candidate: the batch path must sample
  // identical tokens to a plain Generate loop.
  for (int c = 0; c < kCandidates; ++c) {
    EXPECT_EQ(batch[c], model.Generate(src_ids, &g2, 0.9f)) << "candidate "
                                                            << c;
  }
  EXPECT_GT(stats.steps, 0);
}

TEST(KvCacheTest, CandidateCallbackStopsTheBatchEarly) {
  CharVocab vocab;
  vocab.Fit({"early stop"});
  Rng rng(27);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  auto src_ids = vocab.Encode("stop");
  Rng g(28);
  int seen = 0;
  int produced = model.GenerateBatch(
      model.EncodeMemory(src_ids), 10, &g, 0.9f,
      [&](int, const std::vector<int>&) {
        ++seen;
        return false;  // stop after the first candidate
      });
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(produced, 1);
}

TEST(KvCacheTest, EncodeMemoryCapturesCrossKvPerLayer) {
  CharVocab vocab;
  vocab.Fit({"memo"});
  Rng rng(29);
  TransformerConfig cfg = TinyConfig(vocab.size());
  cfg.num_layers = 2;
  TransformerSeq2Seq model(cfg, &rng);
  auto src_ids = vocab.Encode("memo");
  EncoderMemoryPtr memory = model.EncodeMemory(src_ids);
  ASSERT_NE(memory, nullptr);
  EXPECT_EQ(memory->model_uid, model.uid());
  EXPECT_EQ(memory->d_model, cfg.d_model);
  EXPECT_EQ(memory->mem_len, static_cast<int>(src_ids.size()));
  EXPECT_EQ(memory->src_len, static_cast<int>(src_ids.size()));
  ASSERT_EQ(memory->cross.size(), 2u);
  for (const auto& kv : memory->cross) {
    EXPECT_EQ(kv.k.size(),
              static_cast<size_t>(memory->mem_len) * cfg.d_model);
    EXPECT_EQ(kv.v.size(),
              static_cast<size_t>(memory->mem_len) * cfg.d_model);
  }
  EXPECT_EQ(memory->values.size(),
            static_cast<size_t>(memory->mem_len) * cfg.d_model);
}

TEST(KvCacheTest, ModelUidsAreUnique) {
  CharVocab vocab;
  vocab.Fit({"uid"});
  Rng rng(30);
  TransformerSeq2Seq a(TinyConfig(vocab.size()), &rng);
  TransformerSeq2Seq b(TinyConfig(vocab.size()), &rng);
  EXPECT_NE(a.uid(), b.uid());
}

// ---------------------------------------------------------------- trainer

TEST(TrainerTest, ReportsStepsAndEpsilon) {
  CharVocab vocab;
  vocab.Fit({"ab"});
  Rng rng(9);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"a", "b"}, {"b", "a"}, {"ab", "ba"}, {"ba", "ab"}};
  Seq2SeqTrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 2;
  opts.dp.enabled = true;
  opts.dp.noise_multiplier = 1.0;
  auto report = TrainSeq2Seq(&model, vocab, pairs, opts);
  EXPECT_EQ(report.steps, 4);  // 2 epochs x 2 batches
  EXPECT_GT(report.epsilon, 0.0);
  EXPECT_TRUE(std::isfinite(report.epsilon));
}

TEST(TrainerTest, DpOffMeansInfiniteEpsilon) {
  CharVocab vocab;
  vocab.Fit({"ab"});
  Rng rng(10);
  TransformerSeq2Seq model(TinyConfig(vocab.size()), &rng);
  Seq2SeqTrainOptions opts;
  opts.epochs = 1;
  opts.dp.enabled = false;
  auto report = TrainSeq2Seq(&model, vocab, {{"a", "b"}}, opts);
  EXPECT_TRUE(std::isinf(report.epsilon));
}

/// The serial lot tail TrainSeq2Seq ran before its tail moved onto the
/// pool, kept as the reference: a float batch sum merged one clipped
/// example at a time in lot order, then noise drawn inline per element and
/// 1/J applied.
class ReferenceLotSum {
 public:
  explicit ReferenceLotSum(std::vector<nn::TensorPtr> params,
                           DpSgdConfig config)
      : params_(std::move(params)), config_(config) {
    for (const auto& p : params_) sum_.emplace_back(p->size(), 0.0f);
  }

  void BeginBatch() {
    for (auto& s : sum_) std::fill(s.begin(), s.end(), 0.0f);
  }

  void MergeClipped(const PerExampleGradAccumulator::ClippedGrad& clipped) {
    SERD_CHECK_EQ(clipped.size(), sum_.size());
    for (size_t pi = 0; pi < sum_.size(); ++pi) {
      auto& s = sum_[pi];
      const auto& c = clipped[pi];
      if (c.empty()) continue;
      SERD_CHECK_EQ(c.size(), s.size());
      for (size_t i = 0; i < s.size(); ++i) s[i] += c[i];
    }
  }

  void FinishBatch(size_t batch_size, Rng* rng) {
    SERD_CHECK_GT(batch_size, 0u);
    SERD_CHECK(rng != nullptr);
    const double noise_std =
        config_.enabled ? config_.noise_multiplier * config_.clip_norm : 0.0;
    const float inv_j = 1.0f / static_cast<float>(batch_size);
    for (size_t pi = 0; pi < params_.size(); ++pi) {
      auto& g = params_[pi]->grad();
      const auto& s = sum_[pi];
      for (size_t i = 0; i < g.size(); ++i) {
        double noisy = s[i];
        if (noise_std > 0.0) noisy += rng->Gaussian(0.0, noise_std);
        g[i] = static_cast<float>(noisy * inv_j);
      }
    }
  }

 private:
  std::vector<nn::TensorPtr> params_;
  DpSgdConfig config_;
  std::vector<std::vector<float>> sum_;
};

/// TrainSeq2Seq's serial lot loop as it was before the noise moved into
/// the examples' region and the merge and finish onto the pool: fresh
/// slots per lot, ClipInto per example, ordered MergeClipped, then
/// FinishBatch(&noise_rng) and Adam.
Seq2SeqTrainReport ReferenceTrain(
    TransformerSeq2Seq* model, const CharVocab& vocab,
    const std::vector<std::pair<std::string, std::string>>& pairs,
    const Seq2SeqTrainOptions& options) {
  constexpr uint64_t kDropoutSalt = 0x5eedd40b0a5a17e5ULL;
  Rng rng(options.seed);
  Rng noise_rng = rng.Fork();
  (void)rng.Fork();
  std::vector<std::pair<std::vector<int>, std::vector<int>>> encoded;
  for (const auto& [src, tgt] : pairs) {
    encoded.emplace_back(vocab.Encode(src), vocab.Encode(tgt));
  }
  nn::Adam optimizer(model->parameters(), options.learning_rate);
  PerExampleGradAccumulator clipper(model->parameters(), options.dp);
  ReferenceLotSum accumulator(model->parameters(), options.dp);
  const size_t n = encoded.size();
  const size_t batch =
      std::min<size_t>(std::max(1, options.batch_size), n);
  nn::TensorArena arena;
  Seq2SeqTrainReport report;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  const bool dp_on = options.dp.enabled && options.dp.noise_multiplier > 0.0;
  const double q =
      std::min(1.0, static_cast<double>(batch) / static_cast<double>(n));
  std::unique_ptr<RdpAccountant> accountant;
  if (dp_on) {
    accountant =
        std::make_unique<RdpAccountant>(q, options.dp.noise_multiplier);
  }
  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t epoch_examples = 0;
    for (size_t start = 0; start < n; start += batch) {
      const size_t bs = std::min(n, start + batch) - start;
      accumulator.BeginBatch();
      optimizer.ZeroGrad();
      std::vector<PerExampleGradAccumulator::ClippedGrad> slots(bs);
      std::vector<double> losses(bs, 0.0);
      std::vector<double> norms(bs, 0.0);
      for (size_t k = 0; k < bs; ++k) {
        const auto& [src, tgt] = encoded[order[start + k]];
        const uint64_t example_id =
            static_cast<uint64_t>(epoch) * n + (start + k);
        Rng ex_rng(runtime::ShardedRng::DeriveSeed(
            options.seed ^ kDropoutSalt, example_id));
        nn::Tape tape;
        arena.Reset();
        tape.set_arena(&arena);
        auto loss = model->Loss(&tape, src, tgt, &ex_rng);
        losses[k] = loss->value()[0];
        tape.Backward(loss);
        norms[k] = clipper.ClipInto(model->parameters(), &slots[k]);
      }
      for (size_t k = 0; k < bs; ++k) {
        epoch_loss += losses[k];
        ++epoch_examples;
        if (options.dp.enabled && norms[k] > options.dp.clip_norm) {
          ++report.clipped_examples;
        }
        accumulator.MergeClipped(slots[k]);
      }
      report.total_examples += static_cast<long>(bs);
      accumulator.FinishBatch(bs, &noise_rng);
      optimizer.Step();
      ++report.steps;
    }
    last_epoch_loss = epoch_loss / std::max<size_t>(1, epoch_examples);
    report.epoch_losses.push_back(last_epoch_loss);
    if (accountant != nullptr) {
      accountant->AddSteps(report.steps - accountant->steps());
      report.epoch_epsilons.push_back(accountant->Epsilon(report.delta));
    }
  }
  report.final_loss = last_epoch_loss;
  report.epsilon = accountant != nullptr
                       ? accountant->Epsilon(report.delta)
                       : std::numeric_limits<double>::infinity();
  return report;
}

TEST(TrainerTest, LotTailMatchesSerialReferenceBitwise) {
  CharVocab vocab;
  vocab.Fit({"abcdefgh ijkl"});
  std::vector<std::pair<std::string, std::string>> pairs;
  const std::string text = "abc defg hij kla bcd efgh ijk lab cdef ghij";
  for (size_t i = 0; i < 20; ++i) {
    pairs.emplace_back(text.substr(i, 4 + i % 7),
                       text.substr(i + 2, 3 + i % 5));
  }
  TransformerConfig cfg = TinyConfig(vocab.size());
  cfg.dropout = 0.1f;
  struct Dp {
    bool enabled;
    double sigma;
  };
  for (size_t lot : {1, 3, 16, 32}) {
    for (const Dp& dp : {Dp{false, 1.0}, Dp{true, 0.0}, Dp{true, 1.0}}) {
      SCOPED_TRACE("lot " + std::to_string(lot) + " dp " +
                   std::to_string(dp.enabled) + " sigma " +
                   std::to_string(dp.sigma));
      Seq2SeqTrainOptions opts;
      opts.epochs = 2;
      opts.batch_size = static_cast<int>(lot);
      opts.seed = 31 + lot;
      opts.dp.enabled = dp.enabled;
      opts.dp.noise_multiplier = dp.sigma;
      opts.dp.clip_norm = 0.5;
      Rng ref_init(77);
      TransformerSeq2Seq reference(cfg, &ref_init);
      const Seq2SeqTrainReport want =
          ReferenceTrain(&reference, vocab, pairs, opts);
      for (int workers : {0, 1, 3}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        std::unique_ptr<runtime::ThreadPool> pool;
        if (workers > 0) pool = std::make_unique<runtime::ThreadPool>(workers);
        opts.pool = pool.get();
        Rng init(77);
        TransformerSeq2Seq model(cfg, &init);
        const Seq2SeqTrainReport got = TrainSeq2Seq(&model, vocab, pairs, opts);
        EXPECT_EQ(got.steps, want.steps);
        EXPECT_EQ(got.epoch_losses, want.epoch_losses);
        EXPECT_EQ(got.final_loss, want.final_loss);
        EXPECT_EQ(got.clipped_examples, want.clipped_examples);
        EXPECT_EQ(got.total_examples, want.total_examples);
        EXPECT_EQ(got.epoch_epsilons, want.epoch_epsilons);
        EXPECT_EQ(got.epsilon, want.epsilon);
        const auto& params = model.parameters();
        const auto& ref_params = reference.parameters();
        ASSERT_EQ(params.size(), ref_params.size());
        for (size_t pi = 0; pi < params.size(); ++pi) {
          const auto& v = params[pi]->value();
          const auto& r = ref_params[pi]->value();
          ASSERT_EQ(v.size(), r.size());
          EXPECT_EQ(std::memcmp(v.data(), r.data(), v.size() * sizeof(float)),
                    0)
              << "parameter " << pi;
        }
      }
    }
  }
}

// --------------------------------------------------------------- the bank

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

TEST(StringBankTest, BucketMapping) {
  StringBankOptions opts = FastBankOptions();
  StringSynthesisBank bank(opts, Sim);
  EXPECT_EQ(bank.BucketOf(0.0), 0);
  EXPECT_EQ(bank.BucketOf(0.24), 0);
  EXPECT_EQ(bank.BucketOf(0.25), 1);
  EXPECT_EQ(bank.BucketOf(0.99), 3);
  EXPECT_EQ(bank.BucketOf(1.0), 3);
  EXPECT_EQ(bank.BucketOf(-0.5), 0);
  EXPECT_EQ(bank.BucketOf(1.5), 3);
}

TEST(StringBankTest, TrainRejectsTinyCorpus) {
  StringSynthesisBank bank(FastBankOptions(), Sim);
  Rng rng(11);
  EXPECT_FALSE(bank.Train({"only one"}, &rng).ok());
}

TEST(StringBankTest, OneBucketBankSynthesizesWithAndWithoutRegistry) {
  // A one-bucket bank routes every target to bucket 0; its bucket
  // histogram needs bounds over [0, 1], not the empty [0, 0].
  const std::vector<std::string> corpus = {
      "adaptive query optimization", "temporal middleware systems",
      "generalised hash teams",      "join and group-by processing",
      "frequent elements in streams", "entity resolution at scale",
      "duplicate detection pipelines", "probabilistic record linkage"};
  for (bool with_registry : {false, true}) {
    SCOPED_TRACE(with_registry ? "registry" : "no registry");
    obs::MetricsRegistry registry;
    StringBankOptions opts = FastBankOptions();
    opts.num_buckets = 1;
    opts.metrics = with_registry ? &registry : nullptr;
    StringSynthesisBank bank(opts, Sim);
    Rng rng(61);
    ASSERT_TRUE(bank.Train(corpus, &rng).ok());
    ASSERT_TRUE(bank.stats().bucket_trained[0]);
    BankRun run;
    for (double target : {0.0, 0.5, 1.0}) {
      EXPECT_FALSE(
          bank.Synthesize("entity resolution at scale", target, &rng, &run)
              .empty());
    }
    ASSERT_EQ(run.bucket_hits.size(), 1u);
    EXPECT_EQ(run.bucket_hits[0], 3);
    if (with_registry) {
      const auto snap = registry.TakeSnapshot();
      const auto it = snap.histograms.find("s2.bank_bucket");
      ASSERT_NE(it, snap.histograms.end());
      EXPECT_EQ(it->second.bounds, std::vector<double>{1.0});
      EXPECT_EQ(it->second.counts, (std::vector<uint64_t>{3, 0}));
    }
  }
}

class StringBankFixture : public testing::Test {
 protected:
  void SetUp() override {
    corpus_ = {
        "adaptive query optimization", "temporal middleware systems",
        "generalised hash teams",      "join and group-by processing",
        "frequent elements in streams", "parameterized complexity theory",
        "entity resolution at scale",  "duplicate detection pipelines",
        "similarity search indexes",   "schema matching with transformers",
        "crowdsourced data cleaning",  "probabilistic record linkage",
    };
    bank_ = std::make_unique<StringSynthesisBank>(FastBankOptions(), Sim);
    Rng rng(12);
    ASSERT_TRUE(bank_->Train(corpus_, &rng).ok());
  }

  std::vector<std::string> corpus_;
  std::unique_ptr<StringSynthesisBank> bank_;
};

TEST_F(StringBankFixture, TrainedWithStats) {
  EXPECT_TRUE(bank_->trained());
  const auto& stats = bank_->stats();
  ASSERT_EQ(stats.pairs_per_bucket.size(), 4u);
  int total = 0;
  for (int c : stats.pairs_per_bucket) total += c;
  EXPECT_GT(total, 0);
  EXPECT_GT(stats.train_seconds, 0.0);
}

TEST_F(StringBankFixture, SynthesizeHitsLowTargets) {
  Rng rng(13);
  const std::string s = "adaptive query optimization";
  double target = 0.08;
  double total_err = 0.0;
  for (int i = 0; i < 5; ++i) {
    std::string out = bank_->Synthesize(s, target, &rng);
    EXPECT_FALSE(out.empty());
    total_err += std::fabs(Sim(s, out) - target);
  }
  EXPECT_LT(total_err / 5, 0.25);
}

TEST_F(StringBankFixture, SynthesizeHitsHighTargets) {
  Rng rng(14);
  const std::string s = "duplicate detection pipelines";
  double target = 0.8;
  double total_err = 0.0;
  for (int i = 0; i < 5; ++i) {
    std::string out = bank_->Synthesize(s, target, &rng);
    EXPECT_FALSE(out.empty());
    total_err += std::fabs(Sim(s, out) - target);
  }
  EXPECT_LT(total_err / 5, 0.25);
}

TEST_F(StringBankFixture, SynthesizeClampsTargets) {
  Rng rng(15);
  std::string out = bank_->Synthesize("entity resolution at scale", 1.4,
                                      &rng);
  EXPECT_FALSE(out.empty());
}

// -------------------------------------------- bucket-fallback routing

/// Builds a trained-looking bank via RestoreTrained whose bucket b holds a
/// (random-weight) model iff trained_buckets[b] — routing in Synthesize
/// only depends on which buckets hold models, so untrained weights are
/// enough to observe bucket_hits.
std::unique_ptr<StringSynthesisBank> BankWithTrainedBuckets(
    const std::vector<bool>& trained_buckets,
    const std::vector<std::string>& corpus) {
  StringBankOptions opts = FastBankOptions();
  opts.num_buckets = static_cast<int>(trained_buckets.size());
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
  const size_t k = trained_buckets.size();
  std::vector<std::unique_ptr<TransformerSeq2Seq>> models(k);
  for (size_t b = 0; b < k; ++b) {
    if (!trained_buckets[b]) continue;
    Rng rng(100 + b);
    models[b] = std::make_unique<TransformerSeq2Seq>(cfg, &rng);
  }
  StringBankStats stats;
  stats.pairs_per_bucket.assign(k, 0);
  stats.bucket_trained = trained_buckets;
  stats.bucket_hits.assign(k, 0);
  SERD_CHECK(bank->RestoreTrained(std::move(vocab), corpus, std::move(pool),
                                  std::move(models), std::move(stats))
                 .ok());
  return bank;
}

const std::vector<std::string> kRoutingCorpus = {
    "adaptive query optimization", "temporal middleware systems",
    "generalised hash teams", "entity resolution at scale"};

TEST(StringBankFallbackTest, ExactBucketServesItsOwnTargets) {
  // 4 buckets; bucket 2 trained; target 0.6 lands in bucket 2.
  auto bank = BankWithTrainedBuckets({false, false, true, false},
                                     kRoutingCorpus);
  Rng rng(51);
  BankRun run;
  bank->Synthesize("adaptive query optimization", 0.6, &rng, &run);
  EXPECT_EQ(run.bucket_hits[2], 1);
  EXPECT_EQ(run.fallback_calls, 0);
}

TEST(StringBankFallbackTest, NearestSearchPrefersLowerBucketAtEqualDistance) {
  // Target 0.6 -> bucket 2 (untrained); buckets 1 and 3 both trained at
  // distance 1 — the search probes lo before hi, so bucket 1 serves it.
  auto bank = BankWithTrainedBuckets({false, true, false, true},
                                     kRoutingCorpus);
  Rng rng(52);
  BankRun run;
  bank->Synthesize("temporal middleware systems", 0.6, &rng, &run);
  EXPECT_EQ(run.bucket_hits[1], 1);
  EXPECT_EQ(run.bucket_hits[3], 0);
}

TEST(StringBankFallbackTest, NearestSearchReachesUpward) {
  // Only the top bucket is trained; a bottom-bucket target must walk all
  // the way up to it.
  auto bank = BankWithTrainedBuckets({false, false, false, true},
                                     kRoutingCorpus);
  Rng rng(53);
  BankRun run;
  bank->Synthesize("generalised hash teams", 0.0, &rng, &run);
  EXPECT_EQ(run.bucket_hits[3], 1);
  EXPECT_EQ(run.fallback_calls, 0);
}

TEST(StringBankFallbackTest, NearestSearchReachesDownward) {
  // Only the bottom bucket is trained; BucketOf(1.0) = top bucket, so the
  // search walks down to bucket 0.
  auto bank = BankWithTrainedBuckets({true, false, false, false},
                                     kRoutingCorpus);
  Rng rng(54);
  BankRun run;
  bank->Synthesize("entity resolution at scale", 1.0, &rng, &run);
  EXPECT_EQ(run.bucket_hits[0], 1);
}

TEST(StringBankFallbackTest, NoTrainedBucketsFallsBackToHillClimb) {
  auto bank = BankWithTrainedBuckets({false, false, false, false},
                                     kRoutingCorpus);
  Rng rng(55);
  BankRun run;
  std::string out =
      bank->Synthesize("adaptive query optimization", 0.5, &rng, &run);
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(run.fallback_calls, 1);
  for (long h : run.bucket_hits) EXPECT_EQ(h, 0);
}

TEST(StringBankFallbackTest, BoundaryTargetsRouteToEdgeBuckets) {
  // BucketOf(0.0) = 0 and BucketOf(1.0) = k-1: with every bucket trained,
  // boundary targets are served by the edge models directly.
  auto bank =
      BankWithTrainedBuckets({true, true, true, true}, kRoutingCorpus);
  Rng rng(56);
  BankRun run;
  bank->Synthesize("temporal middleware systems", 0.0, &rng, &run);
  EXPECT_EQ(run.bucket_hits[0], 1);
  bank->Synthesize("temporal middleware systems", 1.0, &rng, &run);
  EXPECT_EQ(run.bucket_hits[3], 1);
}

TEST(StringBankTest, EncoderMemoryCacheEvictsLruAtNinthSource) {
  // Nine distinct sources against the 8-entry per-thread cache. All
  // sources share one word so every bucket routing stays stable; the
  // target 0.5 keeps every call on the same (bucket 2) model, making one
  // cache lookup per Synthesize call.
  std::vector<std::string> sources;
  for (int i = 1; i <= 9; ++i) {
    sources.push_back("record source number " + std::to_string(i));
  }
  auto bank = BankWithTrainedBuckets({true, true, true, true}, sources);
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

// ------------------------------------- decode counters & path equivalence

TEST_F(StringBankFixture, IncrementalDecodeRecordsStatsAndCacheTraffic) {
  const auto& stats = bank_->stats();
  // Find a trained bucket and aim straight at it so the model path runs.
  int trained_bucket = -1;
  for (size_t b = 0; b < stats.bucket_trained.size(); ++b) {
    if (stats.bucket_trained[b]) trained_bucket = static_cast<int>(b);
  }
  ASSERT_GE(trained_bucket, 0) << "fixture trained no buckets";
  const double target = (trained_bucket + 0.5) / stats.bucket_trained.size();

  Rng rng(57);
  BankRun run;
  const std::string s = "similarity search indexes";
  bank_->Synthesize(s, target, &rng, &run);
  EXPECT_GT(run.decode_steps, 0);
  EXPECT_GT(run.encoder_cache_misses, 0);

  // Same (model, source) again: the per-thread encoder cache must hit.
  const long hits_before = run.encoder_cache_hits;
  bank_->Synthesize(s, target, &rng, &run);
  EXPECT_GT(run.encoder_cache_hits, hits_before);
}

TEST(StringBankTest, IncrementalAndReferenceDecodeSynthesizeIdentically) {
  std::vector<std::string> corpus = {
      "adaptive query optimization", "temporal middleware systems",
      "generalised hash teams",      "join and group-by processing",
      "frequent elements in streams", "parameterized complexity theory",
      "entity resolution at scale",  "duplicate detection pipelines",
  };
  StringBankOptions ref_opts = FastBankOptions();
  ref_opts.incremental_decode = false;
  StringSynthesisBank cached(FastBankOptions(), Sim);
  StringSynthesisBank reference(ref_opts, Sim);
  Rng t1(58), t2(58);
  ASSERT_TRUE(cached.Train(corpus, &t1).ok());
  ASSERT_TRUE(reference.Train(corpus, &t2).ok());

  Rng s1(59), s2(59);
  BankRun cached_run, reference_run;
  for (double target : {0.1, 0.35, 0.6, 0.85}) {
    EXPECT_EQ(cached.Synthesize("entity resolution at scale", target, &s1,
                                &cached_run),
              reference.Synthesize("entity resolution at scale", target, &s2,
                                   &reference_run))
        << "target " << target;
  }
  EXPECT_EQ(cached_run.decode_steps, reference_run.decode_steps);
  // Only the cached route encodes through the encoder-memory cache.
  EXPECT_GT(cached_run.encoder_cache_misses, 0);
  EXPECT_EQ(reference_run.encoder_cache_hits +
                reference_run.encoder_cache_misses,
            0);
}

TEST(StringBankTest, UntrainedFallsBackToHillClimb) {
  StringSynthesisBank bank(FastBankOptions(), Sim);
  Rng rng(16);
  std::string out = bank.Synthesize("some reference string here", 0.7, &rng);
  EXPECT_FALSE(out.empty());
  EXPECT_NEAR(Sim("some reference string here", out), 0.7, 0.3);
}

TEST(StringBankTest, ClimbCountersRecordEveryClimbAndProposal) {
  obs::MetricsRegistry registry;
  StringBankOptions opts = FastBankOptions();
  opts.metrics = &registry;
  StringSynthesisBank bank(opts, QgramJaccardSim{});
  // Registered up front, so a manifest shows them before any climb.
  auto snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.counters.count("s2.climb_proposals"), 1u);
  EXPECT_EQ(snap.counters.at("s2.climb_proposals"), 0u);
  ASSERT_EQ(snap.histograms.count("s2.climb_seconds"), 1u);
  EXPECT_EQ(snap.histograms.at("s2.climb_seconds").count, 0u);
  // An untrained bank (no corpus, no pool) serves each call with one climb
  // from the source, so replaying the climbs counts the same proposals.
  const std::string source = "adaptive query optimization";
  const double targets[] = {0.2, 0.5, 0.8};
  Rng rng(7);
  for (double target : targets) bank.Synthesize(source, target, &rng);
  Rng replay(7);
  long proposals = 0;
  for (double target : targets) {
    HillClimbToSimilarity(source, source, target, QgramJaccardSim{}, {},
                          &replay, {}, &proposals);
  }
  EXPECT_GT(proposals, 0);
  snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("s2.climb_proposals"),
            static_cast<uint64_t>(proposals));
  EXPECT_EQ(snap.histograms.at("s2.climb_seconds").count, 3u);
}

/// Property sweep: synthesized similarity tracks the target across the
/// whole range (coarse tolerance; the refinement pass bounds the error).
class BankTargetSweep : public testing::TestWithParam<double> {};

TEST_P(BankTargetSweep, AchievedSimilarityTracksTarget) {
  static StringSynthesisBank* bank = [] {
    auto* b = new StringSynthesisBank(FastBankOptions(), Sim);
    std::vector<std::string> corpus = {
        "adaptive query optimization", "temporal middleware systems",
        "generalised hash teams",      "join and group-by processing",
        "frequent elements in streams", "parameterized complexity theory",
        "entity resolution at scale",  "duplicate detection pipelines",
    };
    Rng rng(17);
    SERD_CHECK(b->Train(corpus, &rng).ok());
    return b;
  }();
  Rng rng(18 + static_cast<uint64_t>(GetParam() * 100));
  std::string out =
      bank->Synthesize("generalised hash teams", GetParam(), &rng);
  ASSERT_FALSE(out.empty());
  EXPECT_NEAR(Sim("generalised hash teams", out), GetParam(), 0.3);
}

INSTANTIATE_TEST_SUITE_P(TargetRange, BankTargetSweep,
                         testing::Values(0.05, 0.2, 0.4, 0.6, 0.8, 0.95));

}  // namespace
}  // namespace serd
