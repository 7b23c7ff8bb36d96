#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "datagen/generators.h"
#include "gan/entity_encoder.h"
#include "gan/entity_gan.h"
#include "text/qgram.h"

namespace serd {
namespace {

using datagen::DatasetKind;

class EncoderTest : public testing::Test {
 protected:
  void SetUp() override {
    dataset_ = datagen::Generate(DatasetKind::kDblpAcm,
                                 {.seed = 1, .scale = 0.02});
    spec_ = SimilaritySpec::FromTables(dataset_.schema(),
                                       {&dataset_.a, &dataset_.b});
    encoder_ = std::make_unique<EntityEncoder>(spec_);
  }

  ERDataset dataset_;
  SimilaritySpec spec_;
  std::unique_ptr<EntityEncoder> encoder_;
};

TEST_F(EncoderTest, FeatureDimIsStable) {
  // title(text)=25, authors(text)=25, venue(cat)=8, year(num)=1.
  EXPECT_EQ(encoder_->feature_dim(), 25u + 25u + 8u + 1u);
}

TEST_F(EncoderTest, EncodeProducesBoundedFeatures) {
  for (size_t i = 0; i < std::min<size_t>(dataset_.a.size(), 20); ++i) {
    auto f = encoder_->Encode(dataset_.a.row(i));
    ASSERT_EQ(f.size(), encoder_->feature_dim());
    for (float v : f) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f + 1e-5f);
    }
  }
}

TEST_F(EncoderTest, SameEntitySameEncoding) {
  auto f1 = encoder_->Encode(dataset_.a.row(0));
  auto f2 = encoder_->Encode(dataset_.a.row(0));
  EXPECT_EQ(f1, f2);
}

TEST_F(EncoderTest, DecodeRecoversExactPoolMember) {
  const Entity& target = dataset_.a.row(3);
  std::vector<std::vector<std::string>> pools;
  for (size_t c = 0; c < dataset_.schema().num_columns(); ++c) {
    pools.push_back(dataset_.a.ColumnValues(c));
  }
  Entity decoded = encoder_->Decode(encoder_->Encode(target), pools);
  EXPECT_EQ(decoded.values, target.values);
}

TEST_F(EncoderTest, NumericEncodingIsMinMaxNormalized) {
  Entity lo = dataset_.a.row(0);
  lo.values[3] = std::to_string(
      static_cast<long long>(spec_.stats()[3].min_value));
  Entity hi = lo;
  hi.values[3] = std::to_string(
      static_cast<long long>(spec_.stats()[3].max_value));
  auto flo = encoder_->Encode(lo);
  auto fhi = encoder_->Encode(hi);
  // year is the last feature.
  EXPECT_NEAR(flo.back(), 0.0f, 1e-6);
  EXPECT_NEAR(fhi.back(), 1.0f, 1e-6);
}

/// A text column's features as the encoder computed them from string
/// grams: one count per distinct QgramSet gram in the bucket of the gram's
/// FNV-1a-64, L2-normalized, then the length feature.
std::vector<float> StringGramTextFeatures(const std::string& value) {
  const size_t nb = kEncoderTextBuckets;
  std::vector<float> out(nb + 1, 0.0f);
  for (const std::string& g : QgramSet(value, 3)) {
    uint64_t h = 1469598103934665603ULL;
    for (char c : g) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    out[h % nb] += 1.0f;
  }
  double norm_sq = 0.0;
  for (size_t i = 0; i < nb; ++i) norm_sq += out[i] * out[i];
  if (norm_sq > 0.0) {
    const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (size_t i = 0; i < nb; ++i) out[i] *= inv;
  }
  out[nb] =
      static_cast<float>(std::min(1.0, value.size() / kEncoderMaxTextLen));
  return out;
}

TEST_F(EncoderTest, TextFeaturesMatchStringGramEncoderBitwise) {
  // Real titles and authors, then fuzzed values: uppercase, bytes >= 0x80,
  // whitespace runs, repeated grams, strings shorter than a gram, empty.
  std::vector<std::string> values;
  for (const Table* t : {&dataset_.a, &dataset_.b}) {
    for (const Entity& e : t->rows()) {
      values.push_back(e.values[0]);
      values.push_back(e.values[1]);
    }
  }
  Rng rng(26);
  const std::string alphabet = "abcXYZ019 \t\x80\xc3\xa9\xff.-";
  for (int i = 0; i < 300; ++i) {
    std::string v;
    const size_t len = rng.UniformInt(120u);
    for (size_t k = 0; k < len; ++k) {
      v.push_back(alphabet[rng.UniformInt(alphabet.size())]);
    }
    values.push_back(v);
  }
  for (const char* v : {"", "a", "AB", "aaaa", "abcabcabc"}) {
    values.push_back(v);
  }

  const size_t width = kEncoderTextBuckets + 1;
  Entity e = dataset_.a.row(0);
  for (size_t i = 0; i + 1 < values.size(); i += 2) {
    e.values[0] = values[i];
    e.values[1] = values[i + 1];
    const std::vector<float> f = encoder_->Encode(e);
    for (size_t col = 0; col < 2; ++col) {
      const std::vector<float> expected =
          StringGramTextFeatures(values[i + col]);
      EXPECT_EQ(std::memcmp(f.data() + col * width, expected.data(),
                            width * sizeof(float)),
                0)
          << "value '" << values[i + col] << "'";
    }
  }
}

// --------------------------------------------------------------- EntityGan

GanConfig FastGan() {
  GanConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 16;
  cfg.latent_dim = 8;
  cfg.hidden_dim = 24;
  return cfg;
}

TEST(EntityGanTest, TrainsAndScores) {
  auto table = datagen::BackgroundEntities(DatasetKind::kRestaurant, 80, 3);
  ERDataset tmp;
  tmp.a = table;
  tmp.b = table;
  auto spec = SimilaritySpec::FromTables(table.schema(), {&table});
  EntityEncoder encoder(spec);
  std::vector<std::vector<float>> features;
  for (const auto& row : table.rows()) features.push_back(encoder.Encode(row));

  EntityGan gan(encoder.feature_dim(), FastGan());
  EXPECT_FALSE(gan.trained());
  gan.Train(features);
  EXPECT_TRUE(gan.trained());

  double score = gan.DiscriminatorScore(features[0]);
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
}

TEST(EntityGanTest, GeneratedFeaturesHaveRightShape) {
  EntityGan gan(17, FastGan());
  Rng rng(4);
  auto f = gan.GenerateFeatures(&rng);
  ASSERT_EQ(f.size(), 17u);
  for (float v : f) {
    EXPECT_GE(v, 0.0f);  // sigmoid output
    EXPECT_LE(v, 1.0f);
  }
}

TEST(EntityGanTest, DiscriminatorSeparatesDisjointDistributions) {
  // Real: features near 0.9; garbage: features near 0.1. After training,
  // real inputs should outscore garbage on average.
  std::vector<std::vector<float>> real;
  Rng rng(5);
  for (int i = 0; i < 120; ++i) {
    std::vector<float> f(10);
    for (auto& v : f) v = static_cast<float>(rng.Uniform(0.8, 1.0));
    real.push_back(std::move(f));
  }
  GanConfig cfg = FastGan();
  cfg.epochs = 20;
  EntityGan gan(10, cfg);
  gan.Train(real);

  std::vector<std::vector<float>> garbage;
  for (int i = 0; i < 40; ++i) {
    std::vector<float> f(10);
    for (auto& v : f) v = static_cast<float>(rng.Uniform(0.0, 0.2));
    garbage.push_back(std::move(f));
  }
  EXPECT_GT(gan.MeanScore(real), gan.MeanScore(garbage));
}

TEST(EntityGanTest, DeterministicGivenSeeds) {
  std::vector<std::vector<float>> real;
  Rng rng(6);
  for (int i = 0; i < 40; ++i) {
    std::vector<float> f(6);
    for (auto& v : f) v = static_cast<float>(rng.Uniform());
    real.push_back(std::move(f));
  }
  EntityGan g1(6, FastGan()), g2(6, FastGan());
  g1.Train(real);
  g2.Train(real);
  EXPECT_DOUBLE_EQ(g1.DiscriminatorScore(real[0]),
                   g2.DiscriminatorScore(real[0]));
}

}  // namespace
}  // namespace serd
