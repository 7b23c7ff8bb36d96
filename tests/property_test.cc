// Cross-module property tests: invariants that must hold across all four
// dataset analogs and across randomized inputs, complementing the
// per-module unit tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <thread>

#include "core/cached_sim.h"
#include "core/serd.h"
#include "data/dataset_io.h"
#include "datagen/generators.h"
#include "gmm/o_distribution.h"
#include "matcher/features.h"
#include "obs/json.h"
#include "seq2seq/transformer.h"
#include "text/edit_distance.h"
#include "text/qgram.h"
#include "text/token.h"

namespace serd {
namespace {

using datagen::DatasetKind;

const DatasetKind kAllKinds[] = {
    DatasetKind::kDblpAcm, DatasetKind::kRestaurant,
    DatasetKind::kWalmartAmazon, DatasetKind::kItunesAmazon};

class DatasetSweep : public testing::TestWithParam<DatasetKind> {
 protected:
  void SetUp() override {
    ds_ = datagen::Generate(GetParam(), {.seed = 77, .scale = 0.03});
    spec_ = SimilaritySpec::FromTables(ds_.schema(), {&ds_.a, &ds_.b});
  }
  ERDataset ds_;
  SimilaritySpec spec_;
};

TEST_P(DatasetSweep, ColumnSimilarityIsSymmetric) {
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const Entity& a = ds_.a.row(rng.UniformInt(ds_.a.size()));
    const Entity& b = ds_.b.row(rng.UniformInt(ds_.b.size()));
    for (size_t c = 0; c < ds_.schema().num_columns(); ++c) {
      EXPECT_NEAR(spec_.ColumnSimilarity(c, a.values[c], b.values[c]),
                  spec_.ColumnSimilarity(c, b.values[c], a.values[c]),
                  1e-12);
    }
  }
}

TEST_P(DatasetSweep, SelfSimilarityIsOne) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const Entity& a = ds_.a.row(rng.UniformInt(ds_.a.size()));
    Vec x = spec_.SimilarityVector(a, a);
    for (double v : x) EXPECT_NEAR(v, 1.0, 1e-12);
  }
}

TEST_P(DatasetSweep, SimilarityVectorsInUnitBox) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const Entity& a = ds_.a.row(rng.UniformInt(ds_.a.size()));
    const Entity& b = ds_.b.row(rng.UniformInt(ds_.b.size()));
    for (double v : spec_.SimilarityVector(a, b)) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST_P(DatasetSweep, TextColumnSimilarityIsQgramJaccardSim) {
  // The string banks measure text columns with QgramJaccardSim instead of
  // ColumnSimilarity; the two must agree bit for bit, empty values too.
  Rng rng(11);
  const QgramJaccardSim qgram;
  for (size_t c = 0; c < ds_.schema().num_columns(); ++c) {
    if (ds_.schema().column(c).type != ColumnType::kText) continue;
    for (int trial = 0; trial < 30; ++trial) {
      const std::string& a = ds_.a.row(rng.UniformInt(ds_.a.size())).values[c];
      const std::string& b = ds_.b.row(rng.UniformInt(ds_.b.size())).values[c];
      for (const auto& [x, y] : {std::pair{a, b}, std::pair{a, std::string()},
                                 std::pair{std::string(), std::string()}}) {
        EXPECT_EQ(spec_.ColumnSimilarity(c, x, y), qgram(x, y));
      }
    }
  }
}

TEST_P(DatasetSweep, CachedSimilarityAgreesWithDirect) {
  CachedSimilarity cached(spec_);
  Rng rng(4);
  for (int trial = 0; trial < 25; ++trial) {
    const Entity& a = ds_.a.row(rng.UniformInt(ds_.a.size()));
    const Entity& b = ds_.b.row(rng.UniformInt(ds_.b.size()));
    Vec direct = spec_.SimilarityVector(a, b);
    Vec via = cached.SimilarityVector(cached.MakeDigest(a),
                                      cached.MakeDigest(b));
    for (size_t c = 0; c < direct.size(); ++c) {
      EXPECT_NEAR(direct[c], via[c], 1e-12);
    }
  }
}

TEST_P(DatasetSweep, FeatureExtractorBoundedAndSymmetricDiagonal) {
  FeatureExtractor fx(spec_);
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const Entity& a = ds_.a.row(rng.UniformInt(ds_.a.size()));
    const Entity& b = ds_.b.row(rng.UniformInt(ds_.b.size()));
    auto f = fx.Extract(a, b);
    ASSERT_EQ(f.size(), fx.num_features());
    for (double v : f) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0 + 1e-9);
    }
  }
}

TEST_P(DatasetSweep, DatasetIoRoundTripsGeneratedData) {
  std::string dir = testing::TempDir() + "/serd_prop_io_" +
                    datagen::DatasetKindName(GetParam());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDataset(ds_, dir).ok());
  auto loaded = LoadDataset(dir, ds_.name);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->a.size(), ds_.a.size());
  ASSERT_EQ(loaded->b.size(), ds_.b.size());
  ASSERT_EQ(loaded->matches.size(), ds_.matches.size());
  EXPECT_EQ(loaded->self_join, ds_.self_join);
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    size_t i = rng.UniformInt(ds_.a.size());
    EXPECT_EQ(loaded->a.row(i).values, ds_.a.row(i).values);
  }
  // Matches map to the same id pairs.
  for (size_t m = 0; m < ds_.matches.size(); ++m) {
    EXPECT_EQ(loaded->a.row(loaded->matches[m].a_idx).id,
              ds_.a.row(ds_.matches[m].a_idx).id);
    EXPECT_EQ(loaded->b.row(loaded->matches[m].b_idx).id,
              ds_.b.row(ds_.matches[m].b_idx).id);
  }
}

TEST_P(DatasetSweep, LabeledPairsRespectGroundTruth) {
  Rng rng(7);
  auto pairs = BuildLabeledPairs(ds_, 6.0, &rng);
  auto match_set = ds_.MatchSet();
  EXPECT_EQ(pairs.NumMatches(), ds_.matches.size());
  for (const auto& p : pairs.pairs) {
    EXPECT_EQ(p.match, match_set.count(ds_.PairKey(p.a_idx, p.b_idx)) > 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetSweep,
                         testing::ValuesIn(kAllKinds));

// ------------------------------------------------------- string measures

class StringMeasureSweep : public testing::TestWithParam<uint64_t> {};

TEST_P(StringMeasureSweep, MeasuresAgreeOnBoundsAndSymmetry) {
  Rng rng(GetParam());
  auto corpus = datagen::BackgroundCorpus(DatasetKind::kDblpAcm, "title",
                                          20, GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const auto& a = corpus[rng.UniformInt(corpus.size())];
    const auto& b = corpus[rng.UniformInt(corpus.size())];
    using MeasureFn = double (*)(std::string_view, std::string_view);
    const MeasureFn measures[] = {
        [](std::string_view x, std::string_view y) {
          return QgramJaccard(x, y, 3);
        },
        [](std::string_view x, std::string_view y) {
          return TokenJaccard(x, y);
        },
    };
    for (auto measure : measures) {
      double ab = measure(a, b);
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0);
      EXPECT_NEAR(ab, measure(b, a), 1e-12);
    }
    EXPECT_NEAR(MongeElkan(a, b), MongeElkan(b, a), 1e-12);
    EXPECT_EQ(Levenshtein(a, b), Levenshtein(b, a));
    // Identity of indiscernibles (for these measures' score of 1 / 0).
    EXPECT_DOUBLE_EQ(QgramJaccard(a, a), 1.0);
    EXPECT_EQ(Levenshtein(a, a), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StringMeasureSweep,
                         testing::Values(11u, 22u, 33u));

TEST(StringMeasurePropertyTest, NormalizedEditBoundsQgram) {
  // One char edit changes at most q=3 grams: a single typo keeps qgram
  // jaccard high. Sanity-check the relationship on perturbed strings.
  Rng rng(44);
  auto corpus = datagen::BackgroundCorpus(DatasetKind::kRestaurant, "name",
                                          30, 9);
  for (const auto& s : corpus) {
    if (s.size() < 16) continue;  // one typo hits <= 3 of >= 14 grams
    std::string t = s;
    t[3] = t[3] == 'x' ? 'y' : 'x';
    EXPECT_EQ(Levenshtein(s, t), s[3] == t[3] ? 0u : 1u);
    // A substitution alters at most 3 grams and adds at most 3, so
    // jaccard >= (n-3)/(n+3) with n >= 14 grams -> >= 0.64.
    EXPECT_GT(QgramJaccard(s, t), 0.6) << s;
  }
}

// ---------------------------------------------------------- distributions

TEST(PosteriorPropertyTest, PosteriorMonotoneAlongMixtureAxis) {
  // Moving a point from the N-cluster toward the M-cluster must increase
  // the match posterior monotonically.
  Matrix cov(2, 2);
  cov(0, 0) = cov(1, 1) = 0.02;
  Gmm m({1.0}, {MultivariateGaussian({0.9, 0.9}, cov)});
  Gmm n({1.0}, {MultivariateGaussian({0.1, 0.1}, cov)});
  ODistribution o(0.3, m, n);
  double prev = -1.0;
  for (double t = 0.0; t <= 1.0; t += 0.05) {
    double p = o.PosteriorMatch({0.1 + 0.8 * t, 0.1 + 0.8 * t});
    EXPECT_GE(p, prev - 1e-9);
    prev = p;
  }
}

// ------------------------------------------------------------- JSON fuzz

/// Generates a random JSON document, mixing every value type, with
/// container nesting bounded by `depth`.
obs::Json RandomJson(Rng* rng, int depth) {
  const int kind = static_cast<int>(rng->UniformInt(depth > 0 ? 6 : 4));
  switch (kind) {
    case 0: return obs::Json();
    case 1: return obs::Json::Bool(rng->Bernoulli(0.5));
    case 2: {
      // Mix integral values (the common counter case) with full doubles.
      if (rng->Bernoulli(0.5)) {
        return obs::Json::Number(
            static_cast<double>(rng->UniformInt(-1000, 1000)));
      }
      return obs::Json::Number(rng->Uniform(-1e6, 1e6));
    }
    case 3: {
      std::string s;
      const size_t len = rng->UniformInt(12);
      for (size_t i = 0; i < len; ++i) {
        // Printable ASCII plus the escape-worthy characters.
        const char alphabet[] = "abc XYZ09\"\\\n\r\t_:{}[],";
        s.push_back(alphabet[rng->UniformInt(sizeof alphabet - 1)]);
      }
      return obs::Json::Str(s);
    }
    case 4: {
      obs::Json arr = obs::Json::Array();
      const size_t n = rng->UniformInt(4);
      for (size_t i = 0; i < n; ++i) {
        arr.Append(RandomJson(rng, depth - 1));
      }
      return arr;
    }
    default: {
      obs::Json obj = obs::Json::Object();
      const size_t n = rng->UniformInt(4);
      for (size_t i = 0; i < n; ++i) {
        std::string key = "k";
        key += std::to_string(i);
        obj.Set(key, RandomJson(rng, depth - 1));
      }
      return obj;
    }
  }
}

class JsonFuzzSweep : public testing::TestWithParam<uint64_t> {};

TEST_P(JsonFuzzSweep, DumpParseDumpIsAFixpoint) {
  // parse(dump(x)) must succeed and dump to the same text: one round trip
  // canonicalizes, after which the representation is stable.
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    obs::Json doc = RandomJson(&rng, 4);
    std::string text = doc.Dump();
    auto parsed = obs::Json::Parse(text);
    ASSERT_TRUE(parsed.ok())
        << parsed.status().ToString() << "\ndocument: " << text;
    EXPECT_EQ(parsed->Dump(), text);
  }
}

TEST_P(JsonFuzzSweep, MutatedDocumentsNeverCrashTheParser) {
  // Valid documents with random byte mutations and truncations: Parse may
  // accept or reject, but must always return (no crash, no hang), and an
  // accepted document must re-dump parseably.
  Rng rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 60; ++trial) {
    std::string text = RandomJson(&rng, 3).Dump();
    const int mutations = 1 + static_cast<int>(rng.UniformInt(4));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const size_t pos = rng.UniformInt(text.size());
      switch (rng.UniformInt(3)) {
        case 0: text[pos] = static_cast<char>(rng.UniformInt(256)); break;
        case 1: text.erase(pos, 1); break;
        default: text.resize(pos); break;  // truncate
      }
    }
    auto parsed = obs::Json::Parse(text);
    if (parsed.ok()) {
      auto again = obs::Json::Parse(parsed->Dump());
      EXPECT_TRUE(again.ok()) << "re-parse of accepted mutant failed";
    } else {
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

TEST_P(JsonFuzzSweep, RandomBytesNeverCrashTheParser) {
  Rng rng(GetParam() * 97 + 13);
  for (int trial = 0; trial < 80; ++trial) {
    std::string junk(rng.UniformInt(120), '\0');
    for (char& c : junk) c = static_cast<char>(rng.UniformInt(256));
    auto parsed = obs::Json::Parse(junk);
    (void)parsed.ok();  // either outcome is fine; returning at all is the test
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzzSweep,
                         testing::Values(101u, 202u, 303u));

TEST(JsonParseTest, DeepNestingIsRejectedNotACrash) {
  // 100k unclosed '[' used to exhaust the parser's call stack; the depth
  // cap must turn it into an InvalidArgument well before that.
  for (const char open : {'[', '{'}) {
    std::string bomb(100000, open);
    if (open == '{') {
      // Objects need a key to recurse: "{"k":{"k":...
      bomb.clear();
      for (int i = 0; i < 5000; ++i) bomb += "{\"k\":";
    }
    auto parsed = obs::Json::Parse(bomb);
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("depth"), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(JsonParseTest, NestingAtTheCapStillParses) {
  // 250 levels is under the 256 cap: must parse and round-trip.
  std::string deep(250, '[');
  deep += std::string(250, ']');
  auto parsed = obs::Json::Parse(deep);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

// ----------------------------------------------- KV-cached decode fuzzing

/// Draws a random-but-valid transformer shape: d_model from a menu, a head
/// count that divides it, and a max_len small enough that prompts can cross
/// the clamp boundary inside the sweep.
TransformerConfig RandomDecodeConfig(Rng* rng, int vocab_size) {
  constexpr int kDModel[] = {8, 16, 24, 32};
  constexpr int kHeads[] = {1, 2, 4};
  constexpr int kFfn[] = {16, 32, 64};
  constexpr int kMaxLen[] = {8, 12, 16, 32};
  TransformerConfig cfg;
  cfg.vocab_size = vocab_size;
  cfg.d_model = kDModel[rng->UniformInt(4)];
  cfg.num_heads = kHeads[rng->UniformInt(3)];
  cfg.num_layers = 1 + static_cast<int>(rng->UniformInt(2));
  cfg.ffn_dim = kFfn[rng->UniformInt(3)];
  cfg.max_len = kMaxLen[rng->UniformInt(4)];
  cfg.dropout = 0.0f;
  return cfg;
}

std::vector<int> RandomTokenIds(Rng* rng, int vocab_size, int len) {
  std::vector<int> ids(len);
  for (int& id : ids) id = static_cast<int>(rng->UniformInt(vocab_size));
  return ids;
}

class KvCacheFuzzSweep : public testing::TestWithParam<uint64_t> {};

TEST_P(KvCacheFuzzSweep, CachedLogitsMatchFullRedecode) {
  Rng meta(GetParam());
  const int vocab_size = 8 + static_cast<int>(meta.UniformInt(13));
  TransformerConfig cfg = RandomDecodeConfig(&meta, vocab_size);
  Rng init(GetParam() * 977 + 5);
  TransformerSeq2Seq model(cfg, &init);

  // Source lengths sweep across the encoder's max_len clamp: up to
  // max_len + 6 tokens go in, the encoder keeps at most max_len.
  const int src_len = 1 + static_cast<int>(meta.UniformInt(cfg.max_len + 6));
  auto memory = model.EncodeMemory(RandomTokenIds(&meta, vocab_size, src_len));
  ASSERT_LE(memory->mem_len, cfg.max_len);

  // Decode prefixes include the boundary case: exactly max_len steps.
  const int steps = (GetParam() % 3 == 0)
                        ? cfg.max_len
                        : 1 + static_cast<int>(meta.UniformInt(cfg.max_len));
  IncrementalDecoder dec(&model, memory);
  std::vector<int> prefix;
  for (int t = 0; t < steps; ++t) {
    prefix.push_back(static_cast<int>(meta.UniformInt(vocab_size)));
    const float* cached = dec.Step(prefix.back());
    std::vector<float> full = model.NextLogitsFull(prefix, memory);
    ASSERT_EQ(full.size(), static_cast<size_t>(vocab_size));
    for (int v = 0; v < vocab_size; ++v) {
      ASSERT_NEAR(cached[v], full[v], 1e-4f)
          << "step " << t << " vocab " << v << " d=" << cfg.d_model << " h="
          << cfg.num_heads << " L=" << cfg.num_layers << " T=" << cfg.max_len;
    }
  }
}

TEST_P(KvCacheFuzzSweep, CachedSamplingMatchesReferenceGenerate) {
  Rng meta(GetParam() * 31 + 7);
  const int vocab_size = 8 + static_cast<int>(meta.UniformInt(13));
  TransformerConfig cfg = RandomDecodeConfig(&meta, vocab_size);
  Rng init(GetParam() * 613 + 11);
  TransformerSeq2Seq model(cfg, &init);

  const int src_len = 1 + static_cast<int>(meta.UniformInt(cfg.max_len + 6));
  auto src_ids = RandomTokenIds(&meta, vocab_size, src_len);

  // Same seed, both decode paths: the sampled token streams must match
  // exactly, or the cache would silently change synthesized datasets.
  Rng g_ref(GetParam() + 1), g_cached(GetParam() + 1);
  std::vector<int> ref = model.Generate(src_ids, &g_ref);
  std::vector<std::vector<int>> got;
  model.GenerateBatch(model.EncodeMemory(src_ids), 1, &g_cached, 1.0f,
                      [&](int, const std::vector<int>& out_ids) {
                        got.push_back(out_ids);
                        return true;
                      });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvCacheFuzzSweep,
                         testing::Range<uint64_t>(0, 24));

TEST(JsdPropertyTest, SymmetricUnderSwap) {
  Matrix cov(2, 2);
  cov(0, 0) = cov(1, 1) = 0.02;
  Gmm m({1.0}, {MultivariateGaussian({0.8, 0.8}, cov)});
  Gmm n({1.0}, {MultivariateGaussian({0.2, 0.2}, cov)});
  ODistribution p(0.3, m, n);
  ODistribution q(0.5, n, m);
  // JSD is symmetric in its arguments (up to MC noise; same seed pairs
  // the sample streams differently, so allow a tolerance).
  double pq = EstimateJsd(p, q, 4000, 5);
  double qp = EstimateJsd(q, p, 4000, 5);
  EXPECT_NEAR(pq, qp, 0.05);
}

// ------------------------------------------------ RunOptions fuzz (core)

/// One fitted model set, loaded into two synthesizers that differ only in
/// thread count; every fuzz case runs small jobs on them under random
/// RunOptions and checks the run contracts.
class RunOptionsFuzz : public testing::TestWithParam<uint64_t> {
 protected:
  static void SetUpTestSuite() {
    const DatasetKind kind = DatasetKind::kDblpAcm;
    real_ = new ERDataset(datagen::Generate(kind, {.seed = 3, .scale = 0.02}));
    std::vector<std::vector<std::string>> corpora;
    size_t idx = 0;
    for (const auto& col : real_->schema().columns()) {
      if (col.type != ColumnType::kText) continue;
      corpora.push_back(
          datagen::BackgroundCorpus(kind, col.name, 60, 100 + idx++));
    }
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
    opts.max_reject_retries = 2;
    opts.target_a = 24;
    opts.target_b = 24;
    opts.observability = true;
    opts.threads = 1;
    opts.model_dir = testing::TempDir() + "/serd_run_options_fuzz";
    opts.artifact_mode = SerdOptions::ArtifactMode::kSave;
    serial_ = new SerdSynthesizer(*real_, opts);
    SERD_CHECK(serial_->Fit(corpora,
                            datagen::BackgroundEntities(kind, 50, 11))
                   .ok());
    opts.threads = 3;
    opts.artifact_mode = SerdOptions::ArtifactMode::kLoad;
    parallel_ = new SerdSynthesizer(*real_, opts);
    SERD_CHECK(parallel_->Fit({}, Table()).ok());
  }
  static void TearDownTestSuite() {
    delete parallel_;
    delete serial_;
    delete real_;
  }

  static ERDataset* real_;
  static SerdSynthesizer* serial_;
  static SerdSynthesizer* parallel_;
};

ERDataset* RunOptionsFuzz::real_ = nullptr;
SerdSynthesizer* RunOptionsFuzz::serial_ = nullptr;
SerdSynthesizer* RunOptionsFuzz::parallel_ = nullptr;

std::string ReleaseBytes(const ERDataset& data) {
  std::string out;
  for (const Table* t : {&data.a, &data.b}) {
    for (const Entity& e : t->rows()) {
      out += e.id;
      for (const auto& v : e.values) out += "\x1f" + v;
      out += "\x1e";
    }
    out += "\x1d";
  }
  for (const auto& m : data.matches) {
    out += std::to_string(m.a_idx) + "," + std::to_string(m.b_idx) + ";";
  }
  return out;
}

/// The manifest's counters, by name (0 when absent).
std::map<std::string, double> ManifestCounters(const SerdSynthesizer& s) {
  const obs::Json manifest = s.RunManifestJson();
  std::map<std::string, double> out;
  for (const auto& [name, value] :
       manifest.at("metrics").at("counters").members()) {
    out[name] = value.AsNumber();
  }
  return out;
}

TEST_P(RunOptionsFuzz, RunContractsHoldUnderRandomOptions) {
  Rng rng(0xf022ULL + GetParam());
  RunOptions run;
  run.seed = rng.Next() & ((uint64_t{1} << 48) - 1);
  run.enable_rejection = rng.Bernoulli(0.7);
  const SerdOptions::BlockingMode modes[] = {
      SerdOptions::BlockingMode::kOff, SerdOptions::BlockingMode::kQgram,
      SerdOptions::BlockingMode::kAuto};
  run.blocking = modes[rng.UniformInt(3)];
  SCOPED_TRACE("seed " + std::to_string(run.seed) + " rejection " +
               std::to_string(run.enable_rejection) + " blocking " +
               BlockingModeName(run.blocking));

  // Report == manifest: the run's report fields equal the deltas of the
  // manifest's counters over the run.
  const auto before = ManifestCounters(*serial_);
  SerdReport report;
  auto out = serial_->Synthesize(run, &report);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const std::string bytes = ReleaseBytes(*out);
  auto after = ManifestCounters(*serial_);
  for (auto& [name, value] : after) {
    value -= before.count(name) ? before.at(name) : 0.0;
  }
  EXPECT_EQ(after["s2.accepted"], report.accepted_entities);
  EXPECT_EQ(after["s2.rejected_discriminator"],
            report.rejected_by_discriminator);
  EXPECT_EQ(after["s2.rejected_distribution"],
            report.rejected_by_distribution);
  EXPECT_EQ(after["s2.forced_accepts_discriminator"],
            report.forced_accepts_discriminator);
  EXPECT_EQ(after["s2.forced_accepts_distribution"],
            report.forced_accepts_distribution);
  EXPECT_EQ(after["s2.tracked_pairs_pos"], report.tracked_pairs_pos);
  EXPECT_EQ(after["s2.tracked_pairs_neg"], report.tracked_pairs_neg);
  EXPECT_EQ(after["s2.jsd_evaluations"], report.jsd_evaluations);
  EXPECT_EQ(after["s2.decode_steps"], report.decode_steps);
  EXPECT_EQ(after["s2.encoder_cache_hits"] + after["s2.encoder_cache_misses"],
            report.encoder_cache_hits + report.encoder_cache_misses);
  EXPECT_EQ(after["s3.scanned_pairs"], report.s3_scanned_pairs);
  EXPECT_EQ(after["s3.scored_pairs"], report.s3_scored_pairs);
  EXPECT_EQ(after["s3.candidates"], report.s3_candidate_pairs);
  EXPECT_EQ(after["s3.posterior_matches"], report.s3_posterior_matches);
  EXPECT_EQ(report.forced_accepts, report.forced_accepts_discriminator +
                                       report.forced_accepts_distribution);
  EXPECT_EQ(report.s3_pruned_pairs,
            report.s3_total_pairs - report.s3_candidate_pairs);
  if (!run.enable_rejection) {
    EXPECT_EQ(report.rejected_by_discriminator +
                  report.rejected_by_distribution,
              0);
  }

  // Thread-count invariance: the same options at 3 threads.
  SerdReport parallel_report;
  auto parallel_out = parallel_->Synthesize(run, &parallel_report);
  ASSERT_TRUE(parallel_out.ok());
  EXPECT_EQ(ReleaseBytes(*parallel_out), bytes);
  EXPECT_EQ(parallel_report.decode_steps, report.decode_steps);
  EXPECT_EQ(parallel_report.s3_scored_pairs, report.s3_scored_pairs);

  // Blocked matches are a subset of the exact ones, over identical
  // entities.
  RunOptions exact = run, blocked = run;
  exact.blocking = SerdOptions::BlockingMode::kOff;
  blocked.blocking = SerdOptions::BlockingMode::kQgram;
  auto exact_out = serial_->Synthesize(exact, nullptr);
  auto blocked_out = serial_->Synthesize(blocked, nullptr);
  ASSERT_TRUE(exact_out.ok() && blocked_out.ok());
  ERDataset exact_entities = *exact_out, blocked_entities = *blocked_out;
  exact_entities.matches.clear();
  blocked_entities.matches.clear();
  EXPECT_EQ(ReleaseBytes(exact_entities), ReleaseBytes(blocked_entities));
  std::set<std::pair<size_t, size_t>> exact_matches;
  for (const auto& m : exact_out->matches) {
    exact_matches.insert({m.a_idx, m.b_idx});
  }
  for (const auto& m : blocked_out->matches) {
    EXPECT_TRUE(exact_matches.count({m.a_idx, m.b_idx}))
        << "blocked-only match " << m.a_idx << "," << m.b_idx;
  }

  // Cancel mid-run, then rerun: the same bytes as the uncancelled run.
  CancelToken token;
  RunOptions cancelled = run;
  cancelled.cancel = &token;
  obs::Counter* accepted = serial_->metrics()->counter("s2.accepted");
  const uint64_t trip_at = accepted->value() + 1 + rng.UniformInt(16);
  std::atomic<bool> finished{false};
  std::thread watcher([&] {
    while (!finished.load() && accepted->value() < trip_at) {
      std::this_thread::yield();
    }
    token.Cancel(Status::Cancelled("fuzz cancel"));
  });
  auto aborted = serial_->Synthesize(cancelled, nullptr);
  finished.store(true);
  watcher.join();
  if (aborted.ok()) {
    EXPECT_EQ(ReleaseBytes(*aborted), bytes);  // finished before the trip
  } else {
    EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled);
  }
  auto rerun = serial_->Synthesize(run, nullptr);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(ReleaseBytes(*rerun), bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunOptionsFuzz,
                         testing::Range<uint64_t>(0, 4));

/// Fit-time options drawn at random, each field valid 19 times in 20: every
/// draw either fits and synthesizes, or Fit() returns InvalidArgument, as
/// an independent reading of the fields predicts.
class SerdOptionsFuzz : public testing::TestWithParam<uint64_t> {
 protected:
  static void SetUpTestSuite() {
    const DatasetKind kind = DatasetKind::kRestaurant;
    real_ = new ERDataset(datagen::Generate(kind, {.seed = 5, .scale = 0.02}));
    corpora_ = new std::vector<std::vector<std::string>>();
    size_t idx = 0;
    for (const auto& col : real_->schema().columns()) {
      if (col.type != ColumnType::kText) continue;
      corpora_->push_back(
          datagen::BackgroundCorpus(kind, col.name, 40, 300 + idx++));
    }
    background_ = new Table(datagen::BackgroundEntities(kind, 30, 17));
  }
  static void TearDownTestSuite() {
    delete background_;
    delete corpora_;
    delete real_;
  }

  static ERDataset* real_;
  static std::vector<std::vector<std::string>>* corpora_;
  static Table* background_;
};

ERDataset* SerdOptionsFuzz::real_ = nullptr;
std::vector<std::vector<std::string>>* SerdOptionsFuzz::corpora_ = nullptr;
Table* SerdOptionsFuzz::background_ = nullptr;

TEST_P(SerdOptionsFuzz, EveryDrawFitsOrIsInvalidArgument) {
  Rng rng((GetParam() + 1) * 0x9e3779b97f4a7c15ULL);
  bool valid = true;
  // One value from `good` 19 times in 20, else one from `bad`.
  auto draw = [&](std::vector<double> good, std::vector<double> bad) {
    if (rng.Bernoulli(0.95)) return good[rng.UniformInt(good.size())];
    valid = false;
    return bad[rng.UniformInt(bad.size())];
  };
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  SerdOptions opts;
  opts.seed = 100 + GetParam();
  opts.threads = 1;
  opts.target_a = 16;
  opts.target_b = 16;
  opts.jsd_samples = 32;
  opts.gan.epochs = 2;
  opts.string_bank.transformer.d_model = 16;
  opts.string_bank.transformer.num_heads = 2;
  opts.string_bank.transformer.ffn_dim = 24;
  opts.string_bank.transformer.max_len = 32;
  opts.string_bank.max_pairs_per_bucket = 12;
  opts.string_bank.random_pair_samples = 80;
  StringBankOptions& bank = opts.string_bank;
  bank.train.dp.enabled = rng.Bernoulli(0.7);
  bank.train.epochs = static_cast<int>(draw({0, 1, 2}, {-1, -5}));
  bank.train.batch_size = static_cast<int>(draw({1, 4, 16}, {0, -2}));
  bank.train.dp.clip_norm = draw({0.5, 1.0, 4.0}, {0.0, -1.0, nan, inf});
  bank.train.dp.noise_multiplier =
      draw({0.0, 0.5, 1.0, 3.0}, {-0.5, nan, inf});
  bank.train.learning_rate =
      static_cast<float>(draw({1e-3, 2e-3, 5e-3}, {0.0, -1e-3, nan, inf}));
  bank.num_candidates = static_cast<int>(draw({1, 2, 3}, {0, -1}));
  bank.num_buckets = static_cast<int>(draw({1, 2, 4}, {0, -3}));
  bank.temperature =
      static_cast<float>(draw({0.5, 0.9, 1.5}, {0.0, -1.0, nan, inf}));
  SCOPED_TRACE("epochs " + std::to_string(bank.train.epochs) + " lot " +
               std::to_string(bank.train.batch_size) + " clip " +
               std::to_string(bank.train.dp.clip_norm) + " sigma " +
               std::to_string(bank.train.dp.noise_multiplier) + " lr " +
               std::to_string(bank.train.learning_rate) + " candidates " +
               std::to_string(bank.num_candidates) + " buckets " +
               std::to_string(bank.num_buckets) + " temperature " +
               std::to_string(bank.temperature));

  SerdSynthesizer synth(*real_, opts);
  Status fit = synth.Fit(*corpora_, *background_);
  EXPECT_EQ(ValidateSerdOptions(opts).code(), fit.code());
  if (!valid) {
    EXPECT_EQ(fit.code(), StatusCode::kInvalidArgument) << fit.ToString();
    return;
  }
  ASSERT_TRUE(fit.ok()) << fit.ToString();
  auto out = synth.Synthesize(synth.DefaultRunOptions(), nullptr);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->a.size(), 16u);
  EXPECT_EQ(out->b.size(), 16u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdOptionsFuzz,
                         testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace serd
