// Artifact-store tests: byte codec primitives, container fault injection
// (truncation at every prefix, a flipped bit at every offset, version
// skew), model codec round-trips (encode -> decode -> encode must be
// byte-identical), and the SerdSynthesizer warm-start path (a loaded
// model bank must synthesize bit-identically to the run that saved it).
// Every malformed input must come back as a descriptive Status — never an
// abort, never an out-of-bounds read (the suite runs under TSan and
// ASan/UBSan labels in CI).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "artifact/artifact_file.h"
#include "artifact/bytes.h"
#include "artifact/model_codec.h"
#include "common/rng.h"
#include "core/serd.h"
#include "datagen/generators.h"
#include "obs/json.h"

namespace serd {
namespace {

using artifact::ArtifactReader;
using artifact::ArtifactWriter;
using artifact::ByteReader;
using artifact::ByteWriter;
using datagen::DatasetKind;

std::string MakeTempDir(const char* tag) {
  std::string dir = testing::TempDir() + "/serd_artifact_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ------------------------------------------------------------------ bytes

TEST(Crc32Test, MatchesKnownVectors) {
  // IEEE CRC-32 check value (e.g. zlib's crc32("123456789")).
  EXPECT_EQ(artifact::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(artifact::Crc32(""), 0x00000000u);
  EXPECT_NE(artifact::Crc32("abc"), artifact::Crc32("abd"));
}

/// The bytewise table loop: the reference Crc32's slice-by-8 is held to.
uint32_t BytewiseCrc32(const unsigned char* p, size_t size) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SliceBy8MatchesBytewiseReference) {
  Rng rng(61);
  std::vector<unsigned char> buf(4096 + 8);
  for (unsigned char& c : buf) {
    c = static_cast<unsigned char>(rng.UniformInt(256u));
  }
  // Every length up to three 8-byte steps at every alignment, then random
  // lengths and offsets.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 24; ++len) {
      EXPECT_EQ(artifact::Crc32(buf.data() + offset, len),
                BytewiseCrc32(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
  for (int trial = 0; trial < 300; ++trial) {
    const size_t offset = rng.UniformInt(8u);
    const size_t len = rng.UniformInt(4097u);
    EXPECT_EQ(artifact::Crc32(buf.data() + offset, len),
              BytewiseCrc32(buf.data() + offset, len))
        << "offset " << offset << " len " << len;
  }
}

TEST(ByteCodecTest, PrimitivesRoundTrip) {
  ByteWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.I64(-1234567890123ll);
  w.F32(3.25f);
  w.F64(-2.5e-300);
  w.Bool(true);
  const std::string with_nul("hello\0world", 11);  // embedded NUL survives
  w.Str(with_nul);
  w.StrVec({"a", "", "ccc"});
  w.F32Vec({1.5f, -0.0f});
  w.F64Vec({0.1, 0.2, 0.3});
  w.I32Vec({-1, 0, 1});
  w.I64Vec({-5, 5});
  w.BoolVec({true, false, true});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I32(), -42);
  EXPECT_EQ(r.I64(), -1234567890123ll);
  EXPECT_EQ(r.F32(), 3.25f);
  EXPECT_EQ(r.F64(), -2.5e-300);
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.Str(), (std::string("hello\0world", 11)));
  EXPECT_EQ(r.StrVec(), (std::vector<std::string>{"a", "", "ccc"}));
  EXPECT_EQ(r.F32Vec(), (std::vector<float>{1.5f, -0.0f}));
  EXPECT_EQ(r.F64Vec(), (std::vector<double>{0.1, 0.2, 0.3}));
  EXPECT_EQ(r.I32Vec(), (std::vector<int>{-1, 0, 1}));
  EXPECT_EQ(r.I64Vec(), (std::vector<long>{-5, 5}));
  EXPECT_EQ(r.BoolVec(), (std::vector<bool>{true, false, true}));
  EXPECT_TRUE(r.Finish().ok()) << r.Finish().ToString();
}

TEST(ByteCodecTest, ReadPastEndIsStickyAndReturnsZeros) {
  ByteWriter w;
  w.U32(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 0u);  // past the end
  EXPECT_FALSE(r.ok());
  // Sticky: all subsequent reads are zero-valued, no matter the type.
  EXPECT_EQ(r.U8(), 0);
  EXPECT_EQ(r.F64(), 0.0);
  EXPECT_TRUE(r.Str().empty());
  EXPECT_TRUE(r.F32Vec().empty());
  EXPECT_FALSE(r.Finish().ok());
}

TEST(ByteCodecTest, CorruptedCountCannotDriveAllocation) {
  // A 4-byte payload claiming 2^31 doubles must fail instantly instead of
  // attempting a 16 GiB allocation or an unbounded loop.
  ByteWriter w;
  w.U32(0x80000000u);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.F64Vec().empty());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("artifact"), std::string::npos);
}

TEST(ByteCodecTest, TrailingBytesFailFinish) {
  ByteWriter w;
  w.U32(1);
  w.U8(9);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.U32(), 1u);
  EXPECT_FALSE(r.Finish().ok());  // one unread byte
}

// --------------------------------------------------------- artifact file

std::string TinyArtifact() {
  ArtifactWriter w;
  ByteWriter* s1 = w.AddSection("alpha");
  s1->U32(123);
  s1->Str("payload-one");
  ByteWriter* s2 = w.AddSection("beta");
  s2->F64(2.75);
  return w.Assemble();
}

TEST(ArtifactFileTest, RoundTripSections) {
  auto reader = ArtifactReader::FromBytes(TinyArtifact());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader->Has("alpha"));
  EXPECT_TRUE(reader->Has("beta"));
  EXPECT_FALSE(reader->Has("gamma"));
  EXPECT_EQ(reader->sections().size(), 2u);

  auto alpha = reader->Section("alpha");
  ASSERT_TRUE(alpha.ok()) << alpha.status().ToString();
  EXPECT_EQ(alpha->U32(), 123u);
  EXPECT_EQ(alpha->Str(), "payload-one");
  EXPECT_TRUE(alpha->Finish().ok());

  auto gamma = reader->Section("gamma");
  EXPECT_FALSE(gamma.ok());
  EXPECT_EQ(gamma.status().code(), StatusCode::kNotFound);
}

TEST(ArtifactFileTest, EveryTruncationFailsGracefully) {
  const std::string full = TinyArtifact();
  // Every proper prefix must yield an error Status from either the
  // container validation or a subsequent section read — never a crash.
  for (size_t len = 0; len < full.size(); ++len) {
    auto reader = ArtifactReader::FromBytes(full.substr(0, len));
    if (!reader.ok()) {
      EXPECT_FALSE(reader.status().message().empty()) << "len=" << len;
      continue;
    }
    // The table parsed (truncation hit payload bytes): the damaged
    // section must fail its CRC.
    bool any_section_failed = false;
    for (const auto& info : reader->sections()) {
      if (!reader->Section(info.name).ok()) any_section_failed = true;
    }
    EXPECT_TRUE(any_section_failed) << "len=" << len;
  }
}

TEST(ArtifactFileTest, EveryByteFlipIsDetected) {
  const std::string full = TinyArtifact();
  for (size_t pos = 0; pos < full.size(); ++pos) {
    std::string corrupted = full;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x20);
    auto reader = ArtifactReader::FromBytes(std::move(corrupted));
    if (!reader.ok()) continue;  // magic/header/table damage: caught early
    bool any_section_failed = false;
    for (const auto& info : reader->sections()) {
      if (!reader->Section(info.name).ok()) any_section_failed = true;
    }
    EXPECT_TRUE(any_section_failed)
        << "flip at byte " << pos << " went undetected";
  }
}

TEST(ArtifactFileTest, FutureFormatVersionIsRejected) {
  std::string bytes = TinyArtifact();
  bytes[8] = static_cast<char>(artifact::kArtifactFormatVersion + 1);
  auto reader = ArtifactReader::FromBytes(std::move(bytes));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reader.status().message().find("version"), std::string::npos);
}

TEST(ArtifactFileTest, WrongMagicIsRejected) {
  std::string bytes = TinyArtifact();
  bytes[0] = 'X';
  auto reader = ArtifactReader::FromBytes(std::move(bytes));
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("magic"), std::string::npos);
}

TEST(ArtifactFileTest, OpenMissingFileIsIOError) {
  auto reader = ArtifactReader::Open("/nonexistent/dir/nothing.bin");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
}

// ----------------------------------------------------------- model codec

MultivariateGaussian RandomGaussian(Rng* rng, size_t d) {
  Vec mean(d);
  for (double& m : mean) m = rng->Uniform(-2.0, 2.0);
  Matrix cov(d, d);
  // A. A^T + ridge: symmetric positive definite by construction.
  Matrix a(d, d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) a(i, j) = rng->Uniform(-1.0, 1.0);
  }
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      double s = 0.0;
      for (size_t k = 0; k < d; ++k) s += a(i, k) * a(j, k);
      cov(i, j) = s + (i == j ? 0.5 : 0.0);
    }
  }
  return MultivariateGaussian(std::move(mean), std::move(cov));
}

Gmm RandomGmm(Rng* rng, size_t d, size_t components) {
  std::vector<double> weights(components);
  std::vector<MultivariateGaussian> parts;
  for (size_t i = 0; i < components; ++i) {
    weights[i] = rng->Uniform(0.1, 1.0);
    parts.push_back(RandomGaussian(rng, d));
  }
  return Gmm(std::move(weights), std::move(parts));
}

TEST(ModelCodecTest, GaussianRoundTripIsByteIdenticalAndBitExact) {
  Rng rng(11);
  for (size_t d : {1, 2, 5}) {
    MultivariateGaussian g = RandomGaussian(&rng, d);
    ByteWriter w1;
    artifact::EncodeGaussian(g, &w1);
    ByteReader r(w1.bytes());
    auto decoded = artifact::DecodeGaussian(&r);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(r.Finish().ok());

    ByteWriter w2;
    artifact::EncodeGaussian(decoded.value(), &w2);
    EXPECT_EQ(w1.bytes(), w2.bytes()) << "d=" << d;

    // Bit-exact behavior: density and sampling agree to the last bit
    // (the Cholesky factor travels verbatim, no re-factorization).
    Vec x(d, 0.25);
    EXPECT_EQ(g.LogPdf(x), decoded->LogPdf(x));
    Rng s1(99), s2(99);
    EXPECT_EQ(g.Sample(&s1), decoded->Sample(&s2));
  }
}

TEST(ModelCodecTest, ODistributionRoundTripIsByteIdentical) {
  Rng rng(12);
  ODistribution o(0.37, RandomGmm(&rng, 3, 2), RandomGmm(&rng, 3, 4));
  ByteWriter w1;
  artifact::EncodeODistribution(o, &w1);
  ByteReader r(w1.bytes());
  auto decoded = artifact::DecodeODistribution(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.Finish().ok());

  ByteWriter w2;
  artifact::EncodeODistribution(decoded.value(), &w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());

  EXPECT_EQ(o.pi(), decoded->pi());
  Vec x(3, 0.5);
  EXPECT_EQ(o.LogPdf(x), decoded->LogPdf(x));
  EXPECT_EQ(o.PosteriorMatch(x), decoded->PosteriorMatch(x));
  Rng s1(5), s2(5);
  auto a = o.Sample(&s1);
  auto b = decoded->Sample(&s2);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.from_match, b.from_match);
}

TEST(ModelCodecTest, GmmWeightsSurviveVerbatim) {
  // Construction normalizes weights; a decode must NOT renormalize them
  // again (bit drift). Encode twice through a decode cycle and compare.
  Rng rng(13);
  Gmm gmm = RandomGmm(&rng, 2, 3);
  ByteWriter w1;
  artifact::EncodeGmm(gmm, &w1);
  ByteReader r1(w1.bytes());
  auto once = artifact::DecodeGmm(&r1);
  ASSERT_TRUE(once.ok());
  ByteWriter w2;
  artifact::EncodeGmm(once.value(), &w2);
  ByteReader r2(w2.bytes());
  auto twice = artifact::DecodeGmm(&r2);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(once->weights(), twice->weights());
  EXPECT_EQ(w1.bytes(), w2.bytes());
}

TransformerConfig SmallTransformerConfig(int vocab) {
  TransformerConfig cfg;
  cfg.vocab_size = vocab;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_dim = 12;
  cfg.max_len = 16;
  return cfg;
}

TEST(ModelCodecTest, TransformerRoundTripGeneratesIdentically) {
  Rng init(21);
  TransformerSeq2Seq model(SmallTransformerConfig(30), &init);
  ByteWriter w1;
  artifact::EncodeTransformer(model, &w1);
  ByteReader r(w1.bytes());
  auto decoded = artifact::DecodeTransformer(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.Finish().ok());

  ByteWriter w2;
  artifact::EncodeTransformer(*decoded.value(), &w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());

  std::vector<int> src = {1, 5, 9, 12, 2};
  Rng g1(77), g2(77);
  EXPECT_EQ(model.Generate(src, &g1, 0.8f),
            decoded.value()->Generate(src, &g2, 0.8f));
}

TEST(ModelCodecTest, TransformerRejectsInvalidConfigWithoutAborting) {
  // d_model = 9 not divisible by num_heads = 2: the constructor would
  // SERD_CHECK-abort on this; the decoder must catch it first.
  ByteWriter w;
  w.U32(30);  // vocab_size
  w.U32(9);   // d_model
  w.U32(2);   // num_heads
  w.U32(1);   // num_layers
  w.U32(12);  // ffn_dim
  w.U32(16);  // max_len
  w.F32(0.1f);
  ByteReader r(w.bytes());
  auto decoded = artifact::DecodeTransformer(&r);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("num_heads"), std::string::npos);
}

TEST(ModelCodecTest, EntityGanRoundTripScoresIdentically) {
  GanConfig cfg;
  cfg.latent_dim = 4;
  cfg.hidden_dim = 8;
  cfg.seed = 31;
  EntityGan gan(6, cfg);
  gan.MarkTrained();

  ByteWriter w1;
  artifact::EncodeEntityGan(gan, &w1);
  ByteReader r(w1.bytes());
  auto decoded = artifact::DecodeEntityGan(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.Finish().ok());

  ByteWriter w2;
  artifact::EncodeEntityGan(*decoded.value(), &w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());

  EXPECT_TRUE(decoded.value()->trained());
  EXPECT_EQ(decoded.value()->feature_dim(), 6u);
  std::vector<float> f = {0.1f, 0.9f, 0.4f, 0.3f, 0.7f, 0.2f};
  EXPECT_EQ(gan.DiscriminatorScore(f), decoded.value()->DiscriminatorScore(f));
  Rng g1(3), g2(3);
  EXPECT_EQ(gan.GenerateFeatures(&g1), decoded.value()->GenerateFeatures(&g2));
}

TEST(ModelCodecTest, DecodersSurviveRandomBytes) {
  // Decoders fed arbitrary bytes must return a Status — never crash,
  // never allocate unboundedly. 64 seeds x 4 decoders.
  for (uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(seed * 2654435761ull + 1);
    std::string junk(1 + rng.UniformInt(200), '\0');
    for (char& c : junk) c = static_cast<char>(rng.UniformInt(256));

    {
      ByteReader r(junk);
      auto g = artifact::DecodeGaussian(&r);
      if (g.ok()) {
        EXPECT_GE(g->dimension(), 1u);
      }
    }
    {
      ByteReader r(junk);
      auto o = artifact::DecodeODistribution(&r);
      (void)o.ok();
    }
    {
      ByteReader r(junk);
      auto t = artifact::DecodeTransformer(&r);
      (void)t.ok();
    }
    {
      ByteReader r(junk);
      auto gan = artifact::DecodeEntityGan(&r);
      (void)gan.ok();
    }
  }
}

// ------------------------------------------------- synthesizer warm start

SerdOptions SmallPipelineOptions(int threads) {
  SerdOptions opts;
  opts.seed = 77;
  opts.threads = threads;
  opts.observability = true;
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
  opts.max_reject_retries = 2;
  opts.max_label_pairs = 20000;
  return opts;
}

struct PipelineInputs {
  ERDataset real;
  std::vector<std::vector<std::string>> corpora;
  Table background;
};

PipelineInputs MakeInputs(DatasetKind kind) {
  PipelineInputs in;
  in.real = datagen::Generate(kind, {.seed = 3, .scale = 0.02});
  size_t idx = 0;
  for (const auto& col : in.real.schema().columns()) {
    if (col.type != ColumnType::kText) continue;
    in.corpora.push_back(
        datagen::BackgroundCorpus(kind, col.name, 60, 100 + idx++));
  }
  in.background = datagen::BackgroundEntities(kind, 50, 11);
  return in;
}

void ExpectSameDataset(const ERDataset& a, const ERDataset& b) {
  ASSERT_EQ(a.a.size(), b.a.size());
  ASSERT_EQ(a.b.size(), b.b.size());
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_TRUE(a.matches[i] == b.matches[i]) << "match " << i;
  }
  for (size_t i = 0; i < a.a.size(); ++i) {
    EXPECT_EQ(a.a.row(i).values, b.a.row(i).values) << "A row " << i;
  }
  for (size_t i = 0; i < a.b.size(); ++i) {
    EXPECT_EQ(a.b.row(i).values, b.b.row(i).values) << "B row " << i;
  }
}

TEST(WarmStartTest, LoadedModelsSynthesizeBitIdentically) {
  const std::string dir = MakeTempDir("warm");
  PipelineInputs in = MakeInputs(DatasetKind::kDblpAcm);

  // Cold run: train, auto-save, synthesize.
  SerdOptions cold_opts = SmallPipelineOptions(1);
  cold_opts.model_dir = dir;
  cold_opts.artifact_mode = SerdOptions::ArtifactMode::kSave;
  SerdSynthesizer cold(in.real, cold_opts);
  ASSERT_TRUE(cold.Fit(in.corpora, in.background).ok());
  EXPECT_FALSE(cold.report().warm_started);
  auto cold_syn = cold.Synthesize();
  ASSERT_TRUE(cold_syn.ok()) << cold_syn.status().ToString();
  ASSERT_TRUE(std::filesystem::exists(
      dir + "/" + SerdSynthesizer::kModelFileName));

  // Training happened: DP-SGD step counters are present.
  auto cold_snapshot = cold.metrics()->TakeSnapshot();
  EXPECT_GT(cold_snapshot.counters.count("seq2seq.steps"), 0u);
  EXPECT_EQ(cold_snapshot.counters.count("artifact.save_ok"), 1u);

  // Warm runs at two thread counts: Fit() must skip training entirely and
  // Synthesize() must reproduce the cold dataset bit-for-bit.
  for (int threads : {1, 4}) {
    SerdOptions warm_opts = SmallPipelineOptions(threads);
    warm_opts.model_dir = dir;
    warm_opts.artifact_mode = SerdOptions::ArtifactMode::kLoad;
    SerdSynthesizer warm(in.real, warm_opts);
    Status fit = warm.Fit(in.corpora, in.background);
    ASSERT_TRUE(fit.ok()) << fit.ToString();
    EXPECT_TRUE(warm.report().warm_started);
    EXPECT_EQ(warm.report().mean_bank_epsilon,
              cold.report().mean_bank_epsilon);
    EXPECT_EQ(warm.report().m_components, cold.report().m_components);
    EXPECT_EQ(warm.report().n_components, cold.report().n_components);

    auto warm_syn = warm.Synthesize();
    ASSERT_TRUE(warm_syn.ok()) << warm_syn.status().ToString();
    ExpectSameDataset(cold_syn.value(), warm_syn.value());

    // Manifest counters prove the offline phase was skipped: the load
    // counter fired and no training step counter ever did.
    auto snapshot = warm.metrics()->TakeSnapshot();
    EXPECT_EQ(snapshot.counters.at("artifact.load_ok"), 1u);
    EXPECT_EQ(snapshot.counters.count("seq2seq.steps"), 0u);
    EXPECT_EQ(snapshot.counters.count("gan.steps"), 0u);
    std::string manifest = warm.RunManifestJson().Dump();
    EXPECT_NE(manifest.find("\"warm_started\": true"), std::string::npos);
  }
}

TEST(WarmStartTest, SaveLoadSaveIsByteIdentical) {
  const std::string dir1 = MakeTempDir("sls1");
  const std::string dir2 = MakeTempDir("sls2");
  PipelineInputs in = MakeInputs(DatasetKind::kDblpAcm);

  SerdOptions opts = SmallPipelineOptions(1);
  SerdSynthesizer synth(in.real, opts);
  ASSERT_TRUE(synth.Fit(in.corpora, in.background).ok());
  ASSERT_TRUE(synth.SaveModels(dir1).ok());

  SerdSynthesizer reloaded(in.real, opts);
  ASSERT_TRUE(reloaded.LoadModels(dir1).ok());
  ASSERT_TRUE(reloaded.SaveModels(dir2).ok());

  auto read_file = [](const std::string& path) {
    std::string bytes;
    FILE* f = fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return bytes;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
    fclose(f);
    return bytes;
  };
  std::string first = read_file(dir1 + "/" + SerdSynthesizer::kModelFileName);
  std::string second = read_file(dir2 + "/" + SerdSynthesizer::kModelFileName);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

/// Every bank's per-bucket keep counts, column by column.
std::vector<std::vector<std::pair<int, int>>> KeepCounts(
    const SerdSynthesizer& synth) {
  std::vector<std::vector<std::pair<int, int>>> out;
  for (size_t c = 0; c < synth.spec().schema().num_columns(); ++c) {
    const StringSynthesisBank* bank = synth.string_bank(c);
    if (bank == nullptr) continue;
    out.emplace_back();
    for (const KeepCount& k : bank->keep_counts()) {
      out.back().emplace_back(k.decoded, k.kept);
    }
  }
  return out;
}

TEST(WarmStartTest, QuantizedArtifactLoadsInFp32Run) {
  // Version skew from builds that could decode at int8: their artifacts
  // carry a "quant" section (the loader never opens it) and may tag each
  // keep measurement 2. Such an artifact loads with the same keep counts
  // and releases the same bytes as the one it was rewritten from.
  const std::string dir = MakeTempDir("retired");
  const std::string skew_dir = MakeTempDir("retired_skew");
  PipelineInputs in = MakeInputs(DatasetKind::kDblpAcm);
  SerdOptions opts = SmallPipelineOptions(1);
  {
    SerdSynthesizer synth(in.real, opts);
    ASSERT_TRUE(synth.Fit(in.corpora, in.background).ok());
    ASSERT_TRUE(synth.SaveModels(dir).ok());
  }

  auto reader = ArtifactReader::Open(dir + "/" +
                                     SerdSynthesizer::kModelFileName);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_FALSE(reader->Has("quant"));
  ArtifactWriter writer;
  int retagged = 0;
  for (const auto& info : reader->sections()) {
    auto section = reader->Section(info.name);
    ASSERT_TRUE(section.ok());
    ByteReader& r = section.value();
    if (info.name == "gate") {
      ByteWriter* quant = writer.AddSection("quant");
      Rng rng(5);
      for (int i = 0; i < 97; ++i) {
        quant->U8(static_cast<uint8_t>(rng.UniformInt(256)));
      }
      ByteWriter* gate = writer.AddSection("gate");
      const uint32_t columns = r.U32();
      gate->U32(columns);
      for (uint32_t c = 0; c < columns; ++c) {
        const bool present = r.Bool();
        gate->Bool(present);
        if (!present) continue;
        EXPECT_EQ(r.U8(), 0);
        gate->U8(2);
        ++retagged;
        const uint32_t buckets = r.U32();
        gate->U32(buckets);
        for (uint32_t b = 0; b < buckets; ++b) {
          gate->I32(r.I32());
          gate->I32(r.I32());
        }
      }
      ASSERT_TRUE(r.Finish().ok());
      continue;
    }
    ByteWriter* w = writer.AddSection(info.name);
    while (r.remaining() > 0) w->U8(r.U8());
  }
  ASSERT_GT(retagged, 0);
  ASSERT_TRUE(
      writer.WriteFile(skew_dir + "/" + SerdSynthesizer::kModelFileName).ok());

  SerdSynthesizer fresh(in.real, opts);
  ASSERT_TRUE(fresh.LoadModels(dir).ok());
  SerdSynthesizer skewed(in.real, opts);
  Status loaded = skewed.LoadModels(skew_dir);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_FALSE(KeepCounts(fresh).empty());
  EXPECT_EQ(KeepCounts(skewed), KeepCounts(fresh));
  for (size_t c = 0; c < in.real.schema().num_columns(); ++c) {
    const StringSynthesisBank* bank = fresh.string_bank(c);
    if (bank == nullptr) continue;
    for (size_t b = 0; b < bank->models().size(); ++b) {
      EXPECT_EQ(skewed.string_bank(c)->BucketDecodes(static_cast<int>(b)),
                bank->BucketDecodes(static_cast<int>(b)));
    }
  }
  auto want = fresh.Synthesize();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto got = skewed.Synthesize();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameDataset(want.value(), got.value());
}

TEST(WarmStartTest, SaveBeforeFitIsFailedPrecondition) {
  PipelineInputs in = MakeInputs(DatasetKind::kDblpAcm);
  SerdSynthesizer synth(in.real, SmallPipelineOptions(1));
  Status s = synth.SaveModels(MakeTempDir("nofit"));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(WarmStartTest, LoadFromMissingDirectoryIsIOError) {
  PipelineInputs in = MakeInputs(DatasetKind::kDblpAcm);
  SerdSynthesizer synth(in.real, SmallPipelineOptions(1));
  Status s = synth.LoadModels("/nonexistent/serd/models");
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  // The failure left no partial state behind.
  EXPECT_FALSE(synth.Synthesize().ok());
}

TEST(WarmStartTest, SchemaMismatchIsRejected) {
  // An artifact trained for DBLP-ACM must not load into a synthesizer for
  // the restaurant schema.
  const std::string dir = MakeTempDir("schema");
  PipelineInputs dblp = MakeInputs(DatasetKind::kDblpAcm);
  SerdSynthesizer trained(dblp.real, SmallPipelineOptions(1));
  ASSERT_TRUE(trained.Fit(dblp.corpora, dblp.background).ok());
  ASSERT_TRUE(trained.SaveModels(dir).ok());

  PipelineInputs rest = MakeInputs(DatasetKind::kRestaurant);
  SerdSynthesizer other(rest.real, SmallPipelineOptions(1));
  Status s = other.LoadModels(dir);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("schema"), std::string::npos) << s.ToString();
}

class WarmStartFaultInjection : public ::testing::Test {
 protected:
  // One trained artifact shared by every fault case (training is the
  // expensive part; corruption tests only mutate bytes).
  static void SetUpTestSuite() {
    dir_ = new std::string(MakeTempDir("faults"));
    inputs_ = new PipelineInputs(MakeInputs(DatasetKind::kDblpAcm));
    SerdSynthesizer synth(inputs_->real, SmallPipelineOptions(1));
    ASSERT_TRUE(synth.Fit(inputs_->corpora, inputs_->background).ok());
    ASSERT_TRUE(synth.SaveModels(*dir_).ok());

    std::string path = *dir_ + "/" + SerdSynthesizer::kModelFileName;
    FILE* f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    image_ = new std::string();
    while ((n = fread(buf, 1, sizeof buf, f)) > 0) image_->append(buf, n);
    fclose(f);
  }

  static void TearDownTestSuite() {
    delete dir_;
    delete inputs_;
    delete image_;
    dir_ = nullptr;
    inputs_ = nullptr;
    image_ = nullptr;
  }

  // Writes `bytes` as the artifact of a scratch dir and attempts a load.
  static Status TryLoad(const std::string& bytes, const char* tag) {
    std::string dir = MakeTempDir(tag);
    std::string path = dir + "/" + SerdSynthesizer::kModelFileName;
    FILE* f = fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    fwrite(bytes.data(), 1, bytes.size(), f);
    fclose(f);
    SerdSynthesizer synth(inputs_->real, SmallPipelineOptions(1));
    return synth.LoadModels(dir);
  }

  static std::string* dir_;
  static PipelineInputs* inputs_;
  static std::string* image_;
};

std::string* WarmStartFaultInjection::dir_ = nullptr;
PipelineInputs* WarmStartFaultInjection::inputs_ = nullptr;
std::string* WarmStartFaultInjection::image_ = nullptr;

TEST_F(WarmStartFaultInjection, TruncationAtEverySectionBoundary) {
  auto reader = ArtifactReader::FromBytes(*image_);
  ASSERT_TRUE(reader.ok());
  std::vector<size_t> cuts = {0, 4, 8, 12, reader->payload_start() - 1,
                              reader->payload_start()};
  for (const auto& info : reader->sections()) {
    cuts.push_back(reader->payload_start() + info.offset);
    cuts.push_back(reader->payload_start() + info.offset + info.size / 2);
    cuts.push_back(reader->payload_start() + info.offset + info.size - 1);
  }
  for (size_t cut : cuts) {
    ASSERT_LT(cut, image_->size());
    Status s = TryLoad(image_->substr(0, cut), "trunc");
    EXPECT_FALSE(s.ok()) << "cut=" << cut;
    EXPECT_FALSE(s.message().empty()) << "cut=" << cut;
  }
}

TEST_F(WarmStartFaultInjection, PayloadByteFlipInEverySectionIsCaught) {
  auto reader = ArtifactReader::FromBytes(*image_);
  ASSERT_TRUE(reader.ok());
  for (const auto& info : reader->sections()) {
    std::string corrupted = *image_;
    size_t target = reader->payload_start() + info.offset + info.size / 2;
    corrupted[target] = static_cast<char>(corrupted[target] ^ 0x01);
    Status s = TryLoad(corrupted, "flip");
    ASSERT_FALSE(s.ok()) << "section " << info.name;
    EXPECT_NE(s.message().find("CRC"), std::string::npos)
        << "section " << info.name << ": " << s.ToString();
  }
}

/// `image` with the payload of section `name` replaced by `payload` and
/// every checksum recomputed, so the bytes reach the section's decoder.
std::string WithSectionPayload(const std::string& image,
                               const std::string& name,
                               const std::string& payload) {
  auto reader = ArtifactReader::FromBytes(image);
  EXPECT_TRUE(reader.ok());
  if (!reader.ok()) return image;
  artifact::ArtifactWriter writer;
  for (const auto& info : reader->sections()) {
    const std::string bytes =
        info.name == name
            ? payload
            : image.substr(reader->payload_start() + info.offset, info.size);
    ByteWriter* w = writer.AddSection(info.name);
    for (char c : bytes) w->U8(static_cast<uint8_t>(c));
  }
  return writer.Assemble();
}

TEST_F(WarmStartFaultInjection, GateSectionMutationsLoadAsStatus) {
  // The keep measurements decide which buckets decode, so corrupt gate
  // bytes behind a valid CRC must come back as a Status, never an abort.
  auto reader = ArtifactReader::FromBytes(*image_);
  ASSERT_TRUE(reader.ok());
  std::string gate;
  for (const auto& info : reader->sections()) {
    if (info.name == "gate") {
      gate = image_->substr(reader->payload_start() + info.offset, info.size);
    }
  }
  ASSERT_FALSE(gate.empty());
  ASSERT_TRUE(TryLoad(WithSectionPayload(*image_, "gate", gate), "gate").ok());

  for (size_t cut = 0; cut < gate.size(); ++cut) {
    Status s = TryLoad(WithSectionPayload(*image_, "gate", gate.substr(0, cut)),
                       "gate_cut");
    EXPECT_FALSE(s.ok()) << "cut=" << cut;
    EXPECT_FALSE(s.message().empty()) << "cut=" << cut;
  }
  for (uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(seed * 2654435761ull + 3);
    std::string mutated = gate;
    for (int flips = 1 + static_cast<int>(rng.UniformInt(3)); flips > 0;
         --flips) {
      mutated[rng.UniformInt(mutated.size())] =
          static_cast<char>(rng.UniformInt(256));
    }
    Status s = TryLoad(WithSectionPayload(*image_, "gate", mutated),
                       "gate_flip");
    if (!s.ok()) {
      EXPECT_FALSE(s.message().empty()) << "seed " << seed;
    }
  }

  // Gate payloads with every bank unmeasured, the first one tagged `tag`
  // and given `buckets` buckets of `decoded`/`kept`.
  auto gate_payload = [&](uint8_t tag, int buckets, int decoded, int kept) {
    ByteWriter w;
    w.U32(static_cast<uint32_t>(inputs_->real.schema().num_columns()));
    bool first_bank = true;
    for (const auto& col : inputs_->real.schema().columns()) {
      const bool text = col.type == ColumnType::kText;
      w.Bool(text);
      if (!text) continue;
      w.U8(first_bank ? tag : 0);
      w.U32(first_bank ? buckets : 0);
      for (int b = 0; first_bank && b < buckets; ++b) {
        w.I32(decoded);
        w.I32(kept);
      }
      first_bank = false;
    }
    return w.bytes();
  };

  // A precision tag no writer ever wrote is refused.
  Status s = TryLoad(WithSectionPayload(*image_, "gate",
                                        gate_payload(3, 0, 0, 0)),
                     "gate_tag3");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("precision tag 3"), std::string::npos)
      << s.ToString();

  // A bucket that kept more candidates than it decoded is refused.
  s = TryLoad(WithSectionPayload(*image_, "gate", gate_payload(0, 4, 66, 67)),
              "gate_kept");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("kept <= decoded"), std::string::npos)
      << s.ToString();
}

TEST_F(WarmStartFaultInjection, VersionSkewIsFailedPrecondition) {
  std::string skewed = *image_;
  skewed[8] = static_cast<char>(artifact::kArtifactFormatVersion + 1);
  Status s = TryLoad(skewed, "version");
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(WarmStartFaultInjection, HeaderByteFlipIsCaught) {
  std::string corrupted = *image_;
  corrupted[13] = static_cast<char>(corrupted[13] ^ 0x40);  // section count
  Status s = TryLoad(corrupted, "header");
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace serd
