#include <gtest/gtest.h>

#include <cstdio>

#include "core/serd.h"
#include "datagen/generators.h"
#include "embench/embench.h"
#include "eval/metrics.h"
#include "eval/privacy.h"
#include "matcher/random_forest.h"

namespace serd {
namespace {

using datagen::DatasetKind;

/// Whole-pipeline smoke at CPU-test scale: generate a real dataset,
/// synthesize with SERD, train matchers on real vs synthesized data, and
/// verify the paper's qualitative claims hold (loosely — the statistical
/// margins are validated at larger scale by the benchmark harnesses).
class EndToEnd : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    real_ = new ERDataset(datagen::Generate(DatasetKind::kDblpAcm,
                                            {.seed = 13, .scale = 0.04}));
    SerdOptions opts;
    opts.seed = 99;
    opts.string_bank.num_buckets = 4;
    opts.string_bank.num_candidates = 2;
    opts.string_bank.transformer.d_model = 16;
    opts.string_bank.transformer.num_heads = 2;
    opts.string_bank.transformer.num_layers = 1;
    opts.string_bank.transformer.ffn_dim = 24;
    opts.string_bank.transformer.max_len = 32;
    opts.string_bank.train.epochs = 1;
    opts.string_bank.max_pairs_per_bucket = 16;
    opts.string_bank.random_pair_samples = 150;
    opts.gan.epochs = 4;
    opts.jsd_samples = 48;
    opts.rejection_partner_sample = 8;
    opts.max_label_pairs = 30000;

    std::vector<std::vector<std::string>> corpora;
    size_t i = 0;
    for (const auto& col : real_->schema().columns()) {
      if (col.type != ColumnType::kText) continue;
      corpora.push_back(datagen::BackgroundCorpus(DatasetKind::kDblpAcm,
                                                  col.name, 80, 300 + i++));
    }
    auto background =
        datagen::BackgroundEntities(DatasetKind::kDblpAcm, 60, 31);

    synth_ = new SerdSynthesizer(*real_, opts);
    ASSERT_TRUE(synth_->Fit(corpora, background).ok());
    syn_ = new ERDataset(std::move(synth_->Synthesize()).value());
    embench_ = new ERDataset(SynthesizeEmbench(*real_));
  }
  static void TearDownTestSuite() {
    delete embench_;
    delete syn_;
    delete synth_;
    delete real_;
  }

  static ERDataset* real_;
  static SerdSynthesizer* synth_;
  static ERDataset* syn_;
  static ERDataset* embench_;
};

ERDataset* EndToEnd::real_ = nullptr;
SerdSynthesizer* EndToEnd::synth_ = nullptr;
ERDataset* EndToEnd::syn_ = nullptr;
ERDataset* EndToEnd::embench_ = nullptr;

TEST_F(EndToEnd, SynthesizedSizesMatchReal) {
  EXPECT_EQ(syn_->a.size(), real_->a.size());
  EXPECT_EQ(syn_->b.size(), real_->b.size());
}

TEST_F(EndToEnd, MatcherTrainedOnSynWorksOnRealTest) {
  auto spec = SimilaritySpec::FromTables(real_->schema(),
                                         {&real_->a, &real_->b});
  FeatureExtractor fx(spec);
  Rng rng(7);

  auto real_pairs = BuildLabeledPairs(*real_, 6.0, &rng);
  LabeledPairSet real_train, real_test;
  SplitPairs(real_pairs, 0.4, &rng, &real_train, &real_test);

  auto syn_pairs = synth_->LabelPairs(*syn_, 6.0, &rng);

  RandomForest m_real, m_syn;
  auto prf_real = TrainAndEvaluate(&m_real, fx, *real_, real_train, fx,
                                   *real_, real_test);
  auto prf_syn =
      TrainAndEvaluate(&m_syn, fx, *syn_, syn_pairs, fx, *real_, real_test);

  // The paper's core result at test scale: the synthetic-trained matcher
  // works on real test data and lands in the neighborhood of the
  // real-trained one (F1 gap < 6% at full scale; allow slack here).
  std::printf("matcher F1: real-trained %.4f, synthetic-trained %.4f, "
              "gap %.4f\n",
              prf_real.f1, prf_syn.f1, prf_real.f1 - prf_syn.f1);
  EXPECT_GT(prf_real.f1, 0.85);
  EXPECT_GT(prf_syn.f1, 0.5);
  EXPECT_LT(prf_real.f1 - prf_syn.f1, 0.45);
}

TEST_F(EndToEnd, SerdPrivacyBeatsEmbench) {
  auto spec = SimilaritySpec::FromTables(real_->schema(),
                                         {&real_->a, &real_->b});
  PrivacyOptions popts;
  popts.max_entities = 120;
  auto serd_privacy = EvaluatePrivacy(*real_, *syn_, spec, popts);
  auto embench_privacy = EvaluatePrivacy(*real_, *embench_, spec, popts);

  // Table III shape: EMBench hits real entities far more often and sits
  // closer to them (lower DCR).
  EXPECT_LE(serd_privacy.hitting_rate_percent,
            embench_privacy.hitting_rate_percent);
  EXPECT_GT(serd_privacy.dcr, embench_privacy.dcr);
  EXPECT_LT(serd_privacy.hitting_rate_percent, 1.0);
}

TEST_F(EndToEnd, OfflineDominatesOnline) {
  // Table IV shape: offline (model training) >> online (synthesis) per
  // entity batch at fixed sizes.
  EXPECT_GT(synth_->report().offline_seconds, 0.0);
  EXPECT_GT(synth_->report().online_seconds, 0.0);
}

TEST_F(EndToEnd, RestaurantSelfJoinPipelineRuns) {
  auto real = datagen::Generate(DatasetKind::kRestaurant,
                                {.seed = 15, .scale = 0.08});
  SerdOptions opts;
  opts.seed = 101;
  opts.target_a = 20;
  opts.target_b = 20;
  opts.string_bank.num_buckets = 3;
  opts.string_bank.num_candidates = 2;
  opts.string_bank.transformer.d_model = 16;
  opts.string_bank.transformer.num_heads = 2;
  opts.string_bank.transformer.num_layers = 1;
  opts.string_bank.transformer.ffn_dim = 24;
  opts.string_bank.train.epochs = 1;
  opts.string_bank.max_pairs_per_bucket = 12;
  opts.string_bank.random_pair_samples = 100;
  opts.gan.epochs = 3;
  opts.jsd_samples = 32;

  std::vector<std::vector<std::string>> corpora;
  size_t i = 0;
  for (const auto& col : real.schema().columns()) {
    if (col.type != ColumnType::kText) continue;
    corpora.push_back(datagen::BackgroundCorpus(DatasetKind::kRestaurant,
                                                col.name, 50, 400 + i++));
  }
  auto background =
      datagen::BackgroundEntities(DatasetKind::kRestaurant, 40, 41);

  SerdSynthesizer synth(real, opts);
  ASSERT_TRUE(synth.Fit(corpora, background).ok());
  auto result = synth.Synthesize();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->a.size(), 20u);
}

}  // namespace
}  // namespace serd
