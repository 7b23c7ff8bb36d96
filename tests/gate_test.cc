// The string banks' decode gate (DESIGN.md §2): Fit() measures how often
// each trained bucket's decodes pass the keep test, and only buckets that
// keep a decode in at least half of their calls decode at synthesis.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "artifact/artifact_file.h"
#include "artifact/model_codec.h"
#include "core/serd.h"
#include "datagen/generators.h"
#include "eval/metrics.h"
#include "matcher/random_forest.h"
#include "serve/server.h"
#include "text/qgram.h"

namespace serd {
namespace {

using datagen::DatasetKind;

struct PipelineInputs {
  ERDataset real;
  std::vector<std::vector<std::string>> corpora;
  Table background;
};

/// dblp-acm@0.02 with the corpus and background sizes serd_cli uses.
PipelineInputs MakeInputs() {
  PipelineInputs in;
  in.real =
      datagen::Generate(DatasetKind::kDblpAcm, {.seed = 7, .scale = 0.02});
  size_t idx = 0;
  for (const auto& col : in.real.schema().columns()) {
    if (col.type != ColumnType::kText) continue;
    in.corpora.push_back(datagen::BackgroundCorpus(
        DatasetKind::kDblpAcm, col.name, 120, 217 + idx++));
  }
  in.background = datagen::BackgroundEntities(DatasetKind::kDblpAcm, 100, 50);
  return in;
}

/// Banks trained without noise long enough that some buckets' decodes pass
/// the keep test: 3 of the 10 gates open (ROADMAP item 3: the DP noise is
/// what keeps the default banks from writing text).
SerdOptions OpenGateOptions(int threads) {
  SerdOptions opts = serve::DefaultJobOptions();
  opts.seed = 31;
  opts.threads = threads;
  opts.string_bank.train.dp.enabled = false;
  opts.string_bank.train.epochs = 20;
  opts.string_bank.max_pairs_per_bucket = 32;
  opts.gan.epochs = 4;
  return opts;
}

std::string MakeTempDir(const std::string& tag) {
  std::string dir = testing::TempDir() + "/serd_gate_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
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

TEST(DecodeGateTest, DefaultBanksStayClosedAndDecodeNothing) {
  PipelineInputs in = MakeInputs();
  SerdOptions opts = serve::DefaultJobOptions();
  opts.seed = 7;
  opts.threads = 2;
  SerdSynthesizer synth(in.real, opts);
  ASSERT_TRUE(synth.Fit(in.corpora, in.background).ok());

  size_t trained = 0;
  for (size_t c = 0; c < in.real.schema().num_columns(); ++c) {
    const StringSynthesisBank* bank = synth.string_bank(c);
    if (bank == nullptr) continue;
    ASSERT_EQ(bank->keep_counts().size(), bank->models().size());
    for (size_t b = 0; b < bank->models().size(); ++b) {
      const KeepCount& k = bank->keep_counts()[b];
      if (bank->models()[b] == nullptr) {
        EXPECT_EQ(k.decoded, 0);
        continue;
      }
      ++trained;
      EXPECT_GE(k.decoded, 64) << "column " << c << " bucket " << b;
      EXPECT_FALSE(bank->BucketDecodes(static_cast<int>(b)))
          << "column " << c << " bucket " << b << " kept " << k.kept << "/"
          << k.decoded;
    }
  }
  EXPECT_GT(trained, 0u);

  SerdReport report;
  auto syn = synth.Synthesize(synth.DefaultRunOptions(), &report);
  ASSERT_TRUE(syn.ok()) << syn.status().ToString();
  EXPECT_EQ(report.decode_steps, 0);
  EXPECT_EQ(report.encoder_cache_misses, 0);
}

TEST(DecodeGateTest, MeasurementLeavesWeightsAndEpsilonUntouched) {
  // Fit's banks equal banks trained outside Fit with Fit's seeds: the keep
  // measurement changes no weight and spends no privacy budget.
  PipelineInputs in = MakeInputs();
  SerdOptions opts = serve::DefaultJobOptions();
  opts.seed = 7;
  opts.threads = 2;
  SerdSynthesizer synth(in.real, opts);
  ASSERT_TRUE(synth.Fit(in.corpora, in.background).ok());

  double epsilon_sum = 0.0;
  int epsilon_banks = 0;
  size_t corpus = 0;
  for (size_t c = 0; c < in.real.schema().num_columns(); ++c) {
    const StringSynthesisBank* fitted = synth.string_bank(c);
    if (fitted == nullptr) continue;
    StringBankOptions bank_opts = opts.string_bank;
    bank_opts.train.seed = opts.seed + 7919ULL * (c + 1);
    StringSynthesisBank bank(bank_opts, QgramJaccardSim{});
    Rng rng(opts.seed + 104729ULL * (c + 1));
    ASSERT_TRUE(bank.Train(in.corpora[corpus++], &rng).ok());
    EXPECT_TRUE(bank.keep_counts().empty());
    EXPECT_EQ(bank.stats().mean_epsilon, fitted->stats().mean_epsilon);
    ASSERT_EQ(bank.models().size(), fitted->models().size());
    for (size_t b = 0; b < bank.models().size(); ++b) {
      ASSERT_EQ(bank.models()[b] == nullptr, fitted->models()[b] == nullptr);
      if (bank.models()[b] == nullptr) continue;
      artifact::ByteWriter outside, inside;
      artifact::EncodeTransformer(*bank.models()[b], &outside);
      artifact::EncodeTransformer(*fitted->models()[b], &inside);
      EXPECT_EQ(outside.bytes(), inside.bytes())
          << "column " << c << " bucket " << b;
    }
    epsilon_sum += bank.stats().mean_epsilon;
    ++epsilon_banks;
  }
  ASSERT_GT(epsilon_banks, 0);
  EXPECT_GT(synth.report().mean_bank_epsilon, 0.0);
  EXPECT_EQ(synth.report().mean_bank_epsilon, epsilon_sum / epsilon_banks);
}

TEST(DecodeGateTest, OpenGatesDecodeThroughBothRoutesIdentically) {
  PipelineInputs in = MakeInputs();
  const std::string dir = MakeTempDir("open");

  // Cold at one thread (the measurement's pool has no worker), saved.
  SerdOptions opts = OpenGateOptions(1);
  opts.model_dir = dir;
  opts.artifact_mode = SerdOptions::ArtifactMode::kSave;
  SerdSynthesizer cold(in.real, opts);
  ASSERT_TRUE(cold.Fit(in.corpora, in.background).ok());
  int decoding = 0;
  for (size_t c = 0; c < in.real.schema().num_columns(); ++c) {
    const StringSynthesisBank* bank = cold.string_bank(c);
    if (bank == nullptr) continue;
    for (size_t b = 0; b < bank->models().size(); ++b) {
      decoding += bank->BucketDecodes(static_cast<int>(b)) ? 1 : 0;
    }
  }
  EXPECT_GT(decoding, 0) << "no bucket of the noise-free bank decodes";
  SerdReport cold_report;
  auto cold_syn = cold.Synthesize(cold.DefaultRunOptions(), &cold_report);
  ASSERT_TRUE(cold_syn.ok()) << cold_syn.status().ToString();
  EXPECT_GT(cold_report.decode_steps, 0);

  // The reference route, on a pool of one worker, measures the same
  // counts and releases the same bytes from its own training.
  SerdOptions ref_opts = OpenGateOptions(2);
  ref_opts.string_bank.incremental_decode = false;
  SerdSynthesizer ref(in.real, ref_opts);
  ASSERT_TRUE(ref.Fit(in.corpora, in.background).ok());
  EXPECT_EQ(KeepCounts(ref), KeepCounts(cold));
  SerdReport ref_report;
  auto ref_syn = ref.Synthesize(ref.DefaultRunOptions(), &ref_report);
  ASSERT_TRUE(ref_syn.ok()) << ref_syn.status().ToString();
  ExpectSameDataset(*cold_syn, *ref_syn);
  EXPECT_EQ(ref_report.decode_steps, cold_report.decode_steps);

  // Three pool workers measure the same counts and release the same
  // bytes, cold and warm.
  SerdSynthesizer four(in.real, OpenGateOptions(4));
  ASSERT_TRUE(four.Fit(in.corpora, in.background).ok());
  EXPECT_EQ(KeepCounts(four), KeepCounts(cold));
  auto four_syn = four.Synthesize(four.DefaultRunOptions(), nullptr);
  ASSERT_TRUE(four_syn.ok());
  ExpectSameDataset(*cold_syn, *four_syn);

  SerdOptions warm_opts = OpenGateOptions(4);
  warm_opts.model_dir = dir;
  warm_opts.artifact_mode = SerdOptions::ArtifactMode::kLoad;
  SerdSynthesizer warm(in.real, warm_opts);
  ASSERT_TRUE(warm.Fit({}, Table()).ok());
  EXPECT_EQ(KeepCounts(warm), KeepCounts(cold));
  auto warm_syn = warm.Synthesize(warm.DefaultRunOptions(), nullptr);
  ASSERT_TRUE(warm_syn.ok());
  ExpectSameDataset(*cold_syn, *warm_syn);
}

TEST(DecodeGateTest, DecodedReleaseTrainsAMatcher) {
  // A release whose text the open buckets decode is still one a matcher
  // learns from: a RandomForest trained on it reaches F1 > 0.3 on the
  // real test split.
  auto real =
      datagen::Generate(DatasetKind::kDblpAcm, {.seed = 3, .scale = 0.04});
  std::vector<std::vector<std::string>> corpora;
  size_t idx = 0;
  for (const auto& col : real.schema().columns()) {
    if (col.type != ColumnType::kText) continue;
    corpora.push_back(datagen::BackgroundCorpus(DatasetKind::kDblpAcm,
                                                col.name, 60, 100 + idx++));
  }
  Table background =
      datagen::BackgroundEntities(DatasetKind::kDblpAcm, 50, 11);

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
  SerdSynthesizer synth(real, opts);
  ASSERT_TRUE(synth.Fit(corpora, background).ok());
  auto syn = synth.Synthesize();
  ASSERT_TRUE(syn.ok()) << syn.status().ToString();
  EXPECT_GT(synth.report().decode_steps, 0);

  auto spec = SimilaritySpec::FromTables(real.schema(), {&real.a, &real.b});
  FeatureExtractor fx(spec);
  Rng rng(7);
  auto real_pairs = BuildLabeledPairs(real, 6.0, &rng);
  LabeledPairSet real_train, real_test;
  SplitPairs(real_pairs, 0.4, &rng, &real_train, &real_test);
  auto syn_pairs = synth.LabelPairs(*syn, 6.0, &rng);
  RandomForest matcher;
  auto prf = TrainAndEvaluate(&matcher, fx, *syn, syn_pairs, fx, real,
                              real_test);
  EXPECT_GT(prf.f1, 0.3);
}

/// The artifact at `dir` rewritten without its "gate" section, as an
/// artifact written before the gate existed.
void StripGateSection(const std::string& dir) {
  const std::string path = dir + "/" + SerdSynthesizer::kModelFileName;
  auto reader = artifact::ArtifactReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_TRUE(reader->Has("gate"));
  artifact::ArtifactWriter writer;
  for (const auto& info : reader->sections()) {
    if (info.name == "gate") continue;
    auto section = reader->Section(info.name);
    ASSERT_TRUE(section.ok());
    artifact::ByteWriter* w = writer.AddSection(info.name);
    while (section->remaining() > 0) w->U8(section->U8());
  }
  ASSERT_TRUE(writer.WriteFile(path).ok());
}

TEST(DecodeGateTest, ArtifactWithoutGateDecodesEveryTrainedBucket) {
  PipelineInputs in = MakeInputs();
  const std::string dir = MakeTempDir("ungated");
  SerdOptions opts = serve::DefaultJobOptions();
  opts.seed = 7;
  opts.threads = 2;
  opts.model_dir = dir;
  opts.artifact_mode = SerdOptions::ArtifactMode::kSave;
  SerdSynthesizer gated(in.real, opts);
  ASSERT_TRUE(gated.Fit(in.corpora, in.background).ok());
  StripGateSection(dir);

  opts.artifact_mode = SerdOptions::ArtifactMode::kLoad;
  SerdSynthesizer ungated(in.real, opts);
  ASSERT_TRUE(ungated.Fit({}, Table()).ok());
  for (size_t c = 0; c < in.real.schema().num_columns(); ++c) {
    const StringSynthesisBank* bank = ungated.string_bank(c);
    if (bank == nullptr) continue;
    EXPECT_TRUE(bank->keep_counts().empty());
    for (size_t b = 0; b < bank->models().size(); ++b) {
      EXPECT_EQ(bank->BucketDecodes(static_cast<int>(b)),
                bank->models()[b] != nullptr);
    }
  }
  SerdReport report;
  ASSERT_TRUE(ungated.Synthesize(ungated.DefaultRunOptions(), &report).ok());
  EXPECT_GT(report.decode_steps, 0);

  // Re-saved, it stays unmeasured: save -> load -> save is byte-identical.
  const std::string dir2 = MakeTempDir("ungated2");
  const std::string dir3 = MakeTempDir("ungated3");
  ASSERT_TRUE(ungated.SaveModels(dir2).ok());
  SerdSynthesizer reloaded(in.real, opts);
  ASSERT_TRUE(reloaded.LoadModels(dir2).ok());
  ASSERT_TRUE(reloaded.SaveModels(dir3).ok());
  auto read = [](const std::string& d) {
    std::ifstream f(d + "/" + SerdSynthesizer::kModelFileName,
                    std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), {});
  };
  EXPECT_FALSE(read(dir2).empty());
  EXPECT_EQ(read(dir2), read(dir3));
  for (size_t c = 0; c < in.real.schema().num_columns(); ++c) {
    const StringSynthesisBank* bank = reloaded.string_bank(c);
    if (bank != nullptr) {
      EXPECT_TRUE(bank->keep_counts().empty());
    }
  }
}

}  // namespace
}  // namespace serd
