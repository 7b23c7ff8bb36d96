// Quantized-decode tests (DESIGN.md §5m), two tiers:
//  - kernel tolerance sweep: GemmInt8 over random shapes against a
//    double-precision fp32 reference, each element bounded by the
//    analytic Int8ErrorBound; plus the bitwise contracts (M-row == M
//    single-row calls, determinism across calls);
//  - end-to-end quality gate: the dblp-acm pipeline decoded at int8 must
//    hold matcher F1 within 0.01 and JSD within 0.05 of the fp32 run
//    (released bytes may differ — the gate is statistical).
// Codec round-trips for the "quant" artifact section live here too.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "artifact/bytes.h"
#include "artifact/model_codec.h"
#include "common/rng.h"
#include "core/serd.h"
#include "datagen/generators.h"
#include "eval/metrics.h"
#include "matcher/random_forest.h"
#include "nn/quant.h"
#include "seq2seq/model_bank.h"
#include "seq2seq/transformer.h"

namespace serd {
namespace {

using nn::DecodePrecision;
using nn::QuantizedMatrix;
using datagen::DatasetKind;
namespace k = nn::kernels;

std::vector<float> RandomVec(std::size_t n, double lo, double hi, Rng* rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->Uniform(lo, hi));
  return v;
}

/// fp32 reference y = x · W + bias computed in double, W in the nn::Linear
/// [in, out] layout.
std::vector<double> ReferenceGemm(std::size_t m, std::size_t in,
                                  std::size_t out, const float* x,
                                  const float* w, const float* bias) {
  std::vector<double> y(m * out, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < out; ++j) {
      double acc = bias != nullptr ? bias[j] : 0.0;
      for (std::size_t c = 0; c < in; ++c) {
        acc += static_cast<double>(x[i * in + c]) *
               static_cast<double>(w[c * out + j]);
      }
      y[i * out + j] = acc;
    }
  }
  return y;
}

// ------------------------------------------------------- kernel tolerance

struct GemmShape {
  std::size_t m, in, out;
};

const GemmShape kShapes[] = {
    {1, 1, 1},    {1, 8, 8},    {3, 16, 32},  {2, 33, 17},
    {5, 64, 48},  {4, 31, 95},  {8, 32, 32},  {1, 129, 7},
};

TEST(QuantKernelTest, Int8WithinAnalyticBound) {
  // Sweep shapes x seeds; every element of the int8 result must sit
  // within the per-element analytic bound of the double reference, plus a
  // sliver for the fp32 epilogue multiply.
  for (const auto& shape : kShapes) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed * 77 + shape.in);
      auto x = RandomVec(shape.m * shape.in, -2.0, 2.0, &rng);
      auto w = RandomVec(shape.in * shape.out, -1.5, 1.5, &rng);
      auto bias = RandomVec(shape.out, -0.5, 0.5, &rng);

      QuantizedMatrix qw =
          nn::QuantizeWeightMatrix(shape.in, shape.out, w.data());
      std::vector<std::int8_t> aq(shape.m * qw.cstride);
      std::vector<float> ascales(shape.m);
      k::QuantizeActivationRows(shape.m, shape.in, qw.cstride, x.data(),
                                aq.data(), ascales.data());
      std::vector<float> y(shape.m * shape.out);
      k::GemmInt8(qw, bias.data(), shape.m, aq.data(), ascales.data(),
                  y.data());

      auto ref = ReferenceGemm(shape.m, shape.in, shape.out, x.data(),
                               w.data(), bias.data());
      for (std::size_t i = 0; i < shape.m; ++i) {
        for (std::size_t j = 0; j < shape.out; ++j) {
          double bound = k::Int8ErrorBound(
              shape.in, x.data() + i * shape.in, w.data() + j, shape.out,
              ascales[i], qw.scales[j]);
          double err = std::fabs(ref[i * shape.out + j] -
                                 static_cast<double>(y[i * shape.out + j]));
          EXPECT_LE(err, bound + 1e-4)
              << "shape " << shape.m << "x" << shape.in << "x" << shape.out
              << " seed " << seed << " elem (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(QuantKernelTest, MultiRowCallMatchesSingleRowCallsBitwise) {
  // Per-element accumulation chains never depend on m.
  const std::size_t m = 6, in = 48, out = 33;
  Rng rng(99);
  auto x = RandomVec(m * in, -3.0, 3.0, &rng);
  auto w = RandomVec(in * out, -1.0, 1.0, &rng);
  auto bias = RandomVec(out, -0.5, 0.5, &rng);
  QuantizedMatrix qw = nn::QuantizeWeightMatrix(in, out, w.data());

  std::vector<float> batched(m * out);
  k::QuantizedGemm(qw, bias.data(), m, x.data(), batched.data());

  for (std::size_t i = 0; i < m; ++i) {
    std::vector<float> row(out);
    k::QuantizedGemm(qw, bias.data(), 1, x.data() + i * in, row.data());
    EXPECT_EQ(0, std::memcmp(row.data(), batched.data() + i * out,
                             out * sizeof(float)))
        << "row " << i;
  }
}

TEST(QuantKernelTest, DeterministicAcrossCalls) {
  const std::size_t m = 3, in = 40, out = 24;
  Rng rng(7);
  auto x = RandomVec(m * in, -2.0, 2.0, &rng);
  auto w = RandomVec(in * out, -2.0, 2.0, &rng);
  QuantizedMatrix qw = nn::QuantizeWeightMatrix(in, out, w.data());
  std::vector<float> y1(m * out), y2(m * out);
  k::QuantizedGemm(qw, nullptr, m, x.data(), y1.data());
  k::QuantizedGemm(qw, nullptr, m, x.data(), y2.data());
  EXPECT_EQ(0, std::memcmp(y1.data(), y2.data(), y1.size() * sizeof(float)));
}

TEST(QuantKernelTest, FusedBiasMatchesSeparateAdd) {
  const std::size_t m = 2, in = 32, out = 16;
  Rng rng(21);
  auto x = RandomVec(m * in, -1.0, 1.0, &rng);
  auto w = RandomVec(in * out, -1.0, 1.0, &rng);
  auto bias = RandomVec(out, -1.0, 1.0, &rng);
  QuantizedMatrix qw = nn::QuantizeWeightMatrix(in, out, w.data());
  std::vector<float> fused(m * out), bare(m * out);
  k::QuantizedGemm(qw, bias.data(), m, x.data(), fused.data());
  k::QuantizedGemm(qw, nullptr, m, x.data(), bare.data());
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < out; ++j) {
      EXPECT_EQ(fused[i * out + j], bare[i * out + j] + bias[j]);
    }
  }
}

TEST(QuantKernelTest, ZeroAndConstantInputsAreExact) {
  // amax == 0 rows use scale 1.0 and quantize to all-zero; the result must
  // be exactly the bias.
  const std::size_t in = 24, out = 8;
  Rng rng(3);
  auto w = RandomVec(in * out, -1.0, 1.0, &rng);
  auto bias = RandomVec(out, -1.0, 1.0, &rng);
  std::vector<float> x(in, 0.0f);
  QuantizedMatrix qw = nn::QuantizeWeightMatrix(in, out, w.data());
  std::vector<float> y(out);
  k::QuantizedGemm(qw, bias.data(), 1, x.data(), y.data());
  for (std::size_t j = 0; j < out; ++j) EXPECT_EQ(y[j], bias[j]);
}

// ----------------------------------------------------- model-level wiring

TransformerConfig TinyConfig() {
  TransformerConfig c;
  c.vocab_size = 20;
  c.d_model = 16;
  c.num_heads = 2;
  c.num_layers = 2;
  c.ffn_dim = 24;
  c.max_len = 24;
  return c;
}

TEST(QuantModelTest, QuantizeWeightsIsIdempotentPerPrecision) {
  Rng rng(5);
  TransformerSeq2Seq model(TinyConfig(), &rng);
  EXPECT_EQ(model.quantized_weights(), nullptr);
  model.QuantizeWeights(DecodePrecision::kInt8);
  const auto* first = model.quantized_weights();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->precision, DecodePrecision::kInt8);
  EXPECT_EQ(first->layers.size(), 2u);
  // Same precision again: no re-quantization (same object); fp32 clears.
  model.QuantizeWeights(DecodePrecision::kInt8);
  EXPECT_EQ(model.quantized_weights(), first);
  model.QuantizeWeights(DecodePrecision::kFp32);
  EXPECT_EQ(model.quantized_weights(), nullptr);
}

StringBankOptions TinyBankOptions() {
  StringBankOptions opts;
  opts.num_buckets = 3;
  opts.num_candidates = 2;
  opts.transformer.d_model = 16;
  opts.transformer.num_heads = 2;
  opts.transformer.num_layers = 1;
  opts.transformer.ffn_dim = 24;
  opts.transformer.max_len = 32;
  opts.train.epochs = 1;
  opts.train.batch_size = 8;
  opts.max_pairs_per_bucket = 12;
  opts.min_pairs_per_bucket = 2;
  return opts;
}

double EditSim(const std::string& a, const std::string& b) {
  // Cheap symmetric similarity for bank tests (prefix overlap ratio).
  std::size_t n = std::min(a.size(), b.size());
  std::size_t same = 0;
  for (std::size_t i = 0; i < n; ++i) same += a[i] == b[i];
  std::size_t len = std::max(a.size(), b.size());
  return len == 0 ? 1.0 : static_cast<double>(same) / static_cast<double>(len);
}

std::vector<std::pair<std::string, std::string>> TinyPairs() {
  std::vector<std::pair<std::string, std::string>> pairs;
  const char* words[] = {"data", "base", "entity", "match", "record",
                         "table", "index", "query"};
  for (const char* a : words) {
    for (const char* b : words) {
      pairs.emplace_back(a, b);
      pairs.emplace_back(std::string(a) + " one", std::string(b) + " two");
    }
  }
  return pairs;
}

/// Decode precision of every trained model of `bank` (kFp32 when a model
/// carries no quantized set); untrained buckets are skipped.
std::vector<DecodePrecision> ModelPrecisions(const StringSynthesisBank& bank) {
  std::vector<DecodePrecision> out;
  for (const auto& model : bank.models()) {
    if (model == nullptr) continue;
    const auto* qw = model->quantized_weights();
    out.push_back(qw != nullptr ? qw->precision : DecodePrecision::kFp32);
  }
  return out;
}

/// True when every trained model of every string bank of `synth` decodes
/// at `precision` (and there is at least one).
bool AllBankModelsAt(const SerdSynthesizer& synth, DecodePrecision precision) {
  std::size_t models = 0;
  for (std::size_t c = 0; c < synth.spec().schema().num_columns(); ++c) {
    const StringSynthesisBank* bank = synth.string_bank(c);
    if (bank == nullptr) continue;
    for (DecodePrecision p : ModelPrecisions(*bank)) {
      if (p != precision) return false;
      ++models;
    }
  }
  return models > 0;
}

TEST(QuantModelTest, BankModelsFollowTheDecodePrecision) {
  StringBankOptions opts = TinyBankOptions();
  opts.decode_precision = DecodePrecision::kInt8;
  opts.train.seed = 11;
  StringSynthesisBank bank(opts, EditSim);
  Rng rng(17);
  ASSERT_TRUE(bank.TrainFromPairs(TinyPairs(), &rng).ok());

  // Training quantizes every trained model, and decoding through them
  // works.
  const auto int8 = ModelPrecisions(bank);
  ASSERT_FALSE(int8.empty());
  for (DecodePrecision p : int8) EXPECT_EQ(p, DecodePrecision::kInt8);
  Rng srng(5);
  BankRun run;
  bank.Synthesize("index table", 0.6, &srng, &run);
  EXPECT_GT(run.decode_steps, 0);

  // Back to fp32: every model drops its quantized set.
  bank.set_decode_precision(DecodePrecision::kFp32);
  for (DecodePrecision p : ModelPrecisions(bank)) {
    EXPECT_EQ(p, DecodePrecision::kFp32);
  }
}

// --------------------------------------------------------- codec round-trip

TEST(QuantCodecTest, EncodeDecodeEncodeIsByteIdentical) {
  Rng rng(41);
  TransformerConfig config = TinyConfig();
  TransformerSeq2Seq model(config, &rng);
  model.QuantizeWeights(DecodePrecision::kInt8);
  ASSERT_NE(model.quantized_weights(), nullptr);

  artifact::ByteWriter w1;
  artifact::EncodeQuantizedWeights(*model.quantized_weights(), &w1);
  artifact::ByteReader r(w1.bytes());
  auto decoded = artifact::DecodeQuantizedWeights(&r, config);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.Finish().ok());

  artifact::ByteWriter w2;
  artifact::EncodeQuantizedWeights(*decoded.value(), &w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());
}

TEST(QuantCodecTest, RetiredPrecisionTagIsADecodeError) {
  // Tag 1 was the retired bf16 format: a quant section carrying it must
  // come back as a decode-cause Status, never an abort.
  Rng rng(41);
  TransformerConfig config = TinyConfig();
  TransformerSeq2Seq model(config, &rng);
  model.QuantizeWeights(DecodePrecision::kInt8);
  artifact::ByteWriter w;
  artifact::EncodeQuantizedWeights(*model.quantized_weights(), &w);
  std::string bytes = w.bytes();
  ASSERT_EQ(bytes[0], static_cast<char>(DecodePrecision::kInt8));
  bytes[0] = 1;

  artifact::ByteReader r(bytes);
  auto decoded = artifact::DecodeQuantizedWeights(&r, config);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("precision tag 1"),
            std::string::npos)
      << decoded.status().ToString();
  EXPECT_STREQ(ArtifactLoadFailureCause(decoded.status()), "decode");
}

TEST(QuantCodecTest, ShapeMismatchAgainstModelConfigIsRejected) {
  Rng rng(41);
  TransformerSeq2Seq model(TinyConfig(), &rng);
  model.QuantizeWeights(DecodePrecision::kInt8);
  artifact::ByteWriter w;
  artifact::EncodeQuantizedWeights(*model.quantized_weights(), &w);

  // Same payload read back against a model with a different d_model: the
  // decoder must reject instead of building wrong-sized matrices.
  TransformerConfig other = TinyConfig();
  other.d_model = 24;
  other.num_heads = 2;
  artifact::ByteReader r(w.bytes());
  auto decoded = artifact::DecodeQuantizedWeights(&r, other);
  EXPECT_FALSE(decoded.ok());

  TransformerConfig deeper = TinyConfig();
  deeper.num_layers = 3;
  artifact::ByteReader r2(w.bytes());
  auto decoded2 = artifact::DecodeQuantizedWeights(&r2, deeper);
  EXPECT_FALSE(decoded2.ok());
  EXPECT_NE(decoded2.status().message().find("layers"), std::string::npos);
}

TEST(QuantCodecTest, DecoderSurvivesRandomBytes) {
  TransformerConfig config = TinyConfig();
  for (uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(seed * 2654435761ull + 7);
    std::string junk(1 + rng.UniformInt(300), '\0');
    for (char& c : junk) c = static_cast<char>(rng.UniformInt(256));
    artifact::ByteReader r(junk);
    auto decoded = artifact::DecodeQuantizedWeights(&r, config);
    (void)decoded.ok();  // must return, never crash or over-allocate
  }
}

// ------------------------------------------------------- end-to-end gate

/// Banks trained without noise long enough that some buckets' keep gates
/// open, so both runs below decode: the default DP-trained banks keep
/// every gate closed and would compare two decode-free releases.
SerdOptions OpenGatePipelineOptions() {
  SerdOptions opts;
  opts.seed = 77;
  opts.string_bank.num_buckets = 5;
  opts.string_bank.num_candidates = 3;
  opts.string_bank.train.dp.enabled = false;
  opts.string_bank.train.epochs = 20;
  opts.string_bank.max_pairs_per_bucket = 32;
  opts.gan.epochs = 4;
  opts.gan.batch_size = 16;
  opts.jsd_samples = 192;
  opts.rejection_partner_sample = 8;
  opts.max_label_pairs = 20000;
  return opts;
}

TEST(QuantPipelineTest, QualityGateInt8WithinBoundOfFp32) {
  // The acceptance gate: one trained dblp-acm pipeline, decoded at fp32
  // and again at int8 on the same trained models. Released bytes may differ
  // (perturbed logits flip occasional sampled tokens), so the gate is
  // statistical: matcher F1 within 0.01 and JSD within 0.005 of fp32.
  auto real = datagen::Generate(DatasetKind::kDblpAcm,
                                {.seed = 3, .scale = 0.04});
  std::vector<std::vector<std::string>> corpora;
  std::size_t idx = 0;
  for (const auto& col : real.schema().columns()) {
    if (col.type != ColumnType::kText) continue;
    corpora.push_back(datagen::BackgroundCorpus(DatasetKind::kDblpAcm,
                                                col.name, 60, 100 + idx++));
  }
  Table background = datagen::BackgroundEntities(DatasetKind::kDblpAcm, 50,
                                                 11);

  // The precision is fixed when models are loaded, so the int8 run loads
  // the fp32 run's saved models at int8.
  const std::string model_dir = testing::TempDir() + "/serd_quant_gate";
  SerdOptions fp32_opts = OpenGatePipelineOptions();
  fp32_opts.model_dir = model_dir;
  fp32_opts.artifact_mode = SerdOptions::ArtifactMode::kSave;
  SerdSynthesizer synth(real, fp32_opts);
  ASSERT_TRUE(synth.Fit(corpora, background).ok());

  auto fp32 = synth.Synthesize();
  ASSERT_TRUE(fp32.ok()) << fp32.status().ToString();
  const double fp32_jsd = synth.report().jsd_real_vs_syn;
  EXPECT_TRUE(AllBankModelsAt(synth, DecodePrecision::kFp32));
  EXPECT_GT(synth.report().decode_steps, 0);

  SerdOptions int8_opts = fp32_opts;
  int8_opts.artifact_mode = SerdOptions::ArtifactMode::kLoad;
  int8_opts.string_bank.decode_precision = nn::DecodePrecision::kInt8;
  SerdSynthesizer int8_synth(real, int8_opts);
  ASSERT_TRUE(int8_synth.Fit({}, Table()).ok());
  auto int8 = int8_synth.Synthesize();
  ASSERT_TRUE(int8.ok()) << int8.status().ToString();
  const double int8_jsd = int8_synth.report().jsd_real_vs_syn;
  EXPECT_TRUE(AllBankModelsAt(int8_synth, DecodePrecision::kInt8));
  EXPECT_GT(int8_synth.report().decode_steps, 0);

  // JSD bound note: the S2 loop conditions every entity on the release
  // prefix, so one flipped token early on cascades and the int8 release is
  // effectively an independent resample — JSD(O_real, O_syn) then carries
  // the resampling noise of a GMM fitted on ~200 entities (~0.03 at this
  // scale). 0.05 is that noise floor, not a statement
  // about kernel error; the kernel-level bound is the analytic one above,
  // and the release-scale fp32/int8 JSD pair is recorded per run in
  // BENCH_generate.json.
  EXPECT_LE(std::fabs(fp32_jsd - int8_jsd), 0.05)
      << "fp32 jsd " << fp32_jsd << " int8 jsd " << int8_jsd;

  auto spec = SimilaritySpec::FromTables(real.schema(), {&real.a, &real.b});
  FeatureExtractor fx(spec);
  Rng rng(7);
  auto real_pairs = BuildLabeledPairs(real, 6.0, &rng);
  LabeledPairSet real_train, real_test;
  SplitPairs(real_pairs, 0.4, &rng, &real_train, &real_test);

  auto fp32_pairs = synth.LabelPairs(*fp32, 6.0, &rng);
  auto int8_pairs = synth.LabelPairs(*int8, 6.0, &rng);
  RandomForest m_fp32, m_int8;
  auto prf_fp32 = TrainAndEvaluate(&m_fp32, fx, *fp32, fp32_pairs, fx, real,
                                   real_test);
  auto prf_int8 = TrainAndEvaluate(&m_int8, fx, *int8, int8_pairs, fx, real,
                                   real_test);

  EXPECT_GT(prf_fp32.f1, 0.3);
  EXPECT_GT(prf_int8.f1, 0.3);
  EXPECT_LE(std::fabs(prf_fp32.f1 - prf_int8.f1), 0.01)
      << "fp32 f1 " << prf_fp32.f1 << " int8 f1 " << prf_int8.f1;
}

}  // namespace
}  // namespace serd
