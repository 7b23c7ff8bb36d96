#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <set>

#include "core/serd.h"
#include "datagen/generators.h"
#include "text/qgram.h"

namespace serd {
namespace {

using datagen::DatasetKind;

/// CPU-fast options used across core tests (documented defaults live in
/// SerdOptions; tests shrink model/corpus sizes aggressively).
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
  opts.max_label_pairs = 20000;
  return opts;
}

struct Fixture {
  ERDataset real;
  std::vector<std::vector<std::string>> corpora;
  Table background;
};

Fixture MakeFixture(DatasetKind kind = DatasetKind::kDblpAcm,
                    double scale = 0.02) {
  Fixture f;
  f.real = datagen::Generate(kind, {.seed = 3, .scale = scale});
  size_t text_cols = 0;
  for (const auto& col : f.real.schema().columns()) {
    if (col.type == ColumnType::kText) ++text_cols;
  }
  size_t idx = 0;
  for (const auto& col : f.real.schema().columns()) {
    if (col.type != ColumnType::kText) continue;
    f.corpora.push_back(
        datagen::BackgroundCorpus(kind, col.name, 60, 100 + idx++));
  }
  f.background = datagen::BackgroundEntities(kind, 50, 11);
  return f;
}

// -------------------------------------------------------- CachedSimilarity

TEST(CachedSimilarityTest, MatchesSpecExactly) {
  auto f = MakeFixture();
  auto spec = SimilaritySpec::FromTables(f.real.schema(),
                                         {&f.real.a, &f.real.b});
  CachedSimilarity cached(spec);
  for (size_t i = 0; i < std::min<size_t>(f.real.a.size(), 10); ++i) {
    for (size_t j = 0; j < std::min<size_t>(f.real.b.size(), 10); ++j) {
      Vec direct = spec.SimilarityVector(f.real.a.row(i), f.real.b.row(j));
      Vec via_digest = cached.SimilarityVector(
          cached.MakeDigest(f.real.a.row(i)),
          cached.MakeDigest(f.real.b.row(j)));
      ASSERT_EQ(direct.size(), via_digest.size());
      for (size_t c = 0; c < direct.size(); ++c) {
        EXPECT_NEAR(direct[c], via_digest[c], 1e-12);
      }
    }
  }
}

TEST(CachedSimilarityTest, HashedGramsMatchStringSetReference) {
  // The hashed-profile digests must reproduce the string-set similarity
  // vector bitwise on real corpus rows: per text/categorical column the
  // reference is JaccardOfSortedSets over QgramSet, with the same
  // empty-value rules.
  auto f = MakeFixture();
  auto spec = SimilaritySpec::FromTables(f.real.schema(),
                                         {&f.real.a, &f.real.b});
  CachedSimilarity cached(spec);
  const Schema& schema = f.real.schema();
  auto string_set_sim = [&](const Entity& a, const Entity& b, size_t c) {
    const std::string& va = a.values[c];
    const std::string& vb = b.values[c];
    if (va.empty() && vb.empty()) return 1.0;
    if (va.empty() || vb.empty()) return 0.0;
    return JaccardOfSortedSets(QgramSet(va, 3), QgramSet(vb, 3));
  };
  for (size_t i = 0; i < std::min<size_t>(f.real.a.size(), 15); ++i) {
    for (size_t j = 0; j < std::min<size_t>(f.real.b.size(), 15); ++j) {
      const Entity& ea = f.real.a.row(i);
      const Entity& eb = f.real.b.row(j);
      Vec hashed = cached.SimilarityVector(cached.MakeDigest(ea),
                                           cached.MakeDigest(eb));
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        ColumnType type = schema.column(c).type;
        if (type != ColumnType::kText && type != ColumnType::kCategorical) {
          continue;
        }
        EXPECT_DOUBLE_EQ(hashed[c], string_set_sim(ea, eb, c))
            << "row (" << i << ", " << j << ") column " << c;
      }
    }
  }
}

// --------------------------------------------------------------- Fit errors

TEST(SerdFitTest, RejectsWrongCorpusCount) {
  auto f = MakeFixture();
  SerdSynthesizer synth(f.real, FastOptions());
  // DBLP-ACM has 2 text columns; give only one corpus.
  auto status = synth.Fit({f.corpora[0]}, f.background);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SerdFitTest, RejectsEmptyBackgroundEntities) {
  auto f = MakeFixture();
  SerdSynthesizer synth(f.real, FastOptions());
  Table empty(f.real.schema());
  EXPECT_FALSE(synth.Fit(f.corpora, empty).ok());
}

TEST(SerdFitTest, RejectsSchemaMismatch) {
  auto f = MakeFixture();
  SerdSynthesizer synth(f.real, FastOptions());
  Table other(Schema({{"x", ColumnType::kText}}));
  Entity e;
  e.id = "1";
  e.values = {"v"};
  other.Append(e);
  EXPECT_FALSE(synth.Fit(f.corpora, other).ok());
}

TEST(SerdFitTest, RejectsBadStringBankOptionsBeforeAnyWork) {
  // Values that used to abort on the string bank's CHECKs, or would
  // decode with a meaningless temperature, come back from Fit() as
  // InvalidArgument naming the option. The check runs before any artifact
  // load: the kLoad directory does not exist, so an IOError would mean
  // the load ran first.
  auto f = MakeFixture();
  struct Case {
    std::string field;
    std::function<void(StringBankOptions*)> apply;
  };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<Case> cases = {
      {"num_candidates", [](StringBankOptions* o) { o->num_candidates = 0; }},
      {"num_candidates", [](StringBankOptions* o) { o->num_candidates = -1; }},
      {"num_buckets", [](StringBankOptions* o) { o->num_buckets = 0; }},
      {"num_buckets", [](StringBankOptions* o) { o->num_buckets = -3; }},
      {"temperature", [](StringBankOptions* o) { o->temperature = 0.0f; }},
      {"temperature", [](StringBankOptions* o) { o->temperature = -1.0f; }},
      {"temperature", [nan](StringBankOptions* o) { o->temperature = nan; }},
      {"temperature", [inf](StringBankOptions* o) { o->temperature = inf; }},
  };
  for (const Case& c : cases) {
    for (bool load : {false, true}) {
      SCOPED_TRACE(c.field + (load ? " (load)" : " (train)"));
      SerdOptions opts = FastOptions();
      c.apply(&opts.string_bank);
      if (load) {
        opts.model_dir = testing::TempDir() + "/serd_no_such_models";
        opts.artifact_mode = SerdOptions::ArtifactMode::kLoad;
      }
      SerdSynthesizer synth(f.real, opts);
      Status status = synth.Fit(f.corpora, f.background);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << status.ToString();
      EXPECT_NE(status.message().find(c.field), std::string::npos)
          << status.ToString();
      EXPECT_FALSE(synth.Synthesize().ok());
    }
  }
}

TEST(SerdFitTest, SynthesizeBeforeFitFails) {
  auto f = MakeFixture();
  SerdSynthesizer synth(f.real, FastOptions());
  EXPECT_FALSE(synth.Synthesize().ok());
}

// ------------------------------------------------------------ end-to-end

class SerdPipelineTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new Fixture(MakeFixture());
    SerdOptions opts = FastOptions();
    opts.target_a = 30;
    opts.target_b = 30;
    synth_ = new SerdSynthesizer(fixture_->real, opts);
    ASSERT_TRUE(synth_->Fit(fixture_->corpora, fixture_->background).ok());
    auto result = synth_->Synthesize();
    ASSERT_TRUE(result.ok());
    syn_ = new ERDataset(std::move(result).value());
  }
  static void TearDownTestSuite() {
    delete syn_;
    delete synth_;
    delete fixture_;
    syn_ = nullptr;
    synth_ = nullptr;
    fixture_ = nullptr;
  }

  static Fixture* fixture_;
  static SerdSynthesizer* synth_;
  static ERDataset* syn_;
};

Fixture* SerdPipelineTest::fixture_ = nullptr;
SerdSynthesizer* SerdPipelineTest::synth_ = nullptr;
ERDataset* SerdPipelineTest::syn_ = nullptr;

TEST_F(SerdPipelineTest, ReachesTargetSizes) {
  EXPECT_EQ(syn_->a.size(), 30u);
  EXPECT_EQ(syn_->b.size(), 30u);
}

TEST_F(SerdPipelineTest, LearnedDistributionsHaveComponents) {
  EXPECT_GE(synth_->report().m_components, 1);
  EXPECT_GE(synth_->report().n_components, 1);
}

TEST_F(SerdPipelineTest, ORealPosteriorSeparates) {
  const auto& o = synth_->o_real();
  size_t d = synth_->spec().dimension();
  Vec high(d, 0.95), low(d, 0.05);
  EXPECT_GT(o.PosteriorMatch(high), o.PosteriorMatch(low));
}

TEST_F(SerdPipelineTest, MatchIndicesValid) {
  for (const auto& m : syn_->matches) {
    EXPECT_LT(m.a_idx, syn_->a.size());
    EXPECT_LT(m.b_idx, syn_->b.size());
  }
}

TEST_F(SerdPipelineTest, EntityIdsUnique) {
  std::set<std::string> ids;
  for (const auto& r : syn_->a.rows()) EXPECT_TRUE(ids.insert(r.id).second);
  for (const auto& r : syn_->b.rows()) EXPECT_TRUE(ids.insert(r.id).second);
}

TEST_F(SerdPipelineTest, ValuesNonEmpty) {
  size_t non_empty = 0, total = 0;
  for (const Table* t : {&syn_->a, &syn_->b}) {
    for (const auto& r : t->rows()) {
      for (const auto& v : r.values) {
        ++total;
        non_empty += !v.empty();
      }
    }
  }
  EXPECT_GT(non_empty, total * 9 / 10);
}

TEST_F(SerdPipelineTest, NoVerbatimEntityCopies) {
  std::set<std::vector<std::string>> real_rows;
  for (const Table* t : {&fixture_->real.a, &fixture_->real.b}) {
    for (const auto& r : t->rows()) real_rows.insert(r.values);
  }
  size_t copies = 0;
  for (const Table* t : {&syn_->a, &syn_->b}) {
    for (const auto& r : t->rows()) copies += real_rows.count(r.values);
  }
  EXPECT_EQ(copies, 0u);
}

TEST_F(SerdPipelineTest, NumericValuesStayInRealRange) {
  const auto& spec = synth_->spec();
  auto year = syn_->schema().ColumnIndex("year");
  ASSERT_TRUE(year.ok());
  size_t c = year.value();
  for (const auto& r : syn_->a.rows()) {
    double v;
    ASSERT_TRUE(spec.ParseValue(c, r.values[c], &v)) << r.values[c];
    EXPECT_GE(v, spec.stats()[c].min_value);
    EXPECT_LE(v, spec.stats()[c].max_value);
  }
}

TEST_F(SerdPipelineTest, CategoricalValuesFromDomain) {
  const auto& spec = synth_->spec();
  auto venue = syn_->schema().ColumnIndex("venue");
  ASSERT_TRUE(venue.ok());
  size_t c = venue.value();
  std::set<std::string> domain(spec.stats()[c].domain.begin(),
                               spec.stats()[c].domain.end());
  for (const auto& r : syn_->b.rows()) {
    EXPECT_TRUE(domain.count(r.values[c])) << r.values[c];
  }
}

TEST_F(SerdPipelineTest, ReportAccounting) {
  const auto& rep = synth_->report();
  EXPECT_GT(rep.offline_seconds, 0.0);
  EXPECT_GT(rep.online_seconds, 0.0);
  EXPECT_GE(rep.accepted_entities, 60);
  EXPECT_GE(rep.rejected_by_discriminator, 0);
  EXPECT_GE(rep.rejected_by_distribution, 0);
}

TEST_F(SerdPipelineTest, LabelPairsProducesBothClasses) {
  Rng rng(5);
  auto pairs = synth_->LabelPairs(*syn_, 3.0, &rng);
  EXPECT_GT(pairs.pairs.size(), 0u);
  size_t pos = pairs.NumMatches();
  EXPECT_GT(pos, 0u);
  EXPECT_GT(pairs.pairs.size(), pos);
}

// ----------------------------------------------------------- SERD- variant

TEST(SerdMinusTest, NoRejectionStatsWhenDisabled) {
  auto f = MakeFixture();
  SerdOptions opts = FastOptions();
  opts.enable_rejection = false;
  opts.target_a = 20;
  opts.target_b = 20;
  SerdSynthesizer synth(f.real, opts);
  ASSERT_TRUE(synth.Fit(f.corpora, f.background).ok());
  auto result = synth.Synthesize();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(synth.report().rejected_by_discriminator, 0);
  EXPECT_EQ(synth.report().rejected_by_distribution, 0);
  EXPECT_EQ(result->a.size(), 20u);
}

TEST(SerdDeterminismTest, SameSeedSameOutput) {
  auto f = MakeFixture();
  SerdOptions opts = FastOptions();
  opts.target_a = 12;
  opts.target_b = 12;
  auto run = [&]() {
    SerdSynthesizer synth(f.real, opts);
    SERD_CHECK(synth.Fit(f.corpora, f.background).ok());
    return std::move(synth.Synthesize()).value();
  };
  ERDataset s1 = run();
  ERDataset s2 = run();
  ASSERT_EQ(s1.a.size(), s2.a.size());
  for (size_t i = 0; i < s1.a.size(); ++i) {
    EXPECT_EQ(s1.a.row(i).values, s2.a.row(i).values);
  }
  EXPECT_EQ(s1.matches.size(), s2.matches.size());
}

// ------------------------------------------- rejection-loop bookkeeping

TEST(SerdForcedAcceptTest, ForcedAcceptsAreCountedAndTracked) {
  // beta = 1.0 makes the discriminator reject every candidate (scores are
  // sigmoid outputs, strictly below 1), so every post-bootstrap entity is
  // a forced accept after max_reject_retries attempts. The old code
  // skipped the O_syn bookkeeping on this path entirely: forced entities
  // were appended but their induced pairs never entered the tracker, so
  // tracked pairs stayed at the bootstrap level and the Eq. 10 test ran
  // against a stale O_syn.
  auto f = MakeFixture();
  SerdOptions opts = FastOptions();
  opts.beta = 1.0;
  opts.max_reject_retries = 2;
  opts.target_a = 16;
  opts.target_b = 16;
  SerdSynthesizer synth(f.real, opts);
  ASSERT_TRUE(synth.Fit(f.corpora, f.background).ok());
  auto result = synth.Synthesize();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const auto& rep = synth.report();
  // Forcing must not shrink the dataset.
  EXPECT_EQ(result->a.size(), 16u);
  EXPECT_EQ(result->b.size(), 16u);
  EXPECT_FALSE(rep.guard_exhausted);

  // Every forced accept is attributed to the discriminator cause here.
  EXPECT_GT(rep.forced_accepts_discriminator, 0);
  EXPECT_EQ(rep.forced_accepts,
            rep.forced_accepts_discriminator + rep.forced_accepts_distribution);
  // Non-last attempts were counted as ordinary discriminator rejections.
  EXPECT_GT(rep.rejected_by_discriminator, 0);

  // The headline fix: forced accepts flow through the same delta-compute/
  // commit path, so their induced pairs are tracked in O_syn.
  EXPECT_GT(rep.tracked_pairs_pos + rep.tracked_pairs_neg, 0);
}

TEST(SerdGuardExhaustionTest, UndersizedRunIsReportedNotSilent) {
  auto f = MakeFixture();
  SerdOptions opts = FastOptions();
  opts.target_a = 20;
  opts.target_b = 20;
  opts.max_loop_iterations = 6;  // far below 40 entities' worth of turns
  SerdSynthesizer synth(f.real, opts);
  ASSERT_TRUE(synth.Fit(f.corpora, f.background).ok());
  auto result = synth.Synthesize();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const auto& rep = synth.report();
  EXPECT_TRUE(rep.guard_exhausted);
  // The shortfall fields reconcile exactly with the returned sizes.
  EXPECT_EQ(result->a.size() + rep.shortfall_a, 20u);
  EXPECT_EQ(result->b.size() + rep.shortfall_b, 20u);
  EXPECT_GT(rep.shortfall_a + rep.shortfall_b, 0u);

  // An ample cap does not trip the guard (same configuration otherwise).
  opts.max_loop_iterations = 0;  // automatic bound
  SerdSynthesizer ok_synth(f.real, opts);
  ASSERT_TRUE(ok_synth.Fit(f.corpora, f.background).ok());
  auto full = ok_synth.Synthesize();
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(ok_synth.report().guard_exhausted);
  EXPECT_EQ(full->a.size(), 20u);
  EXPECT_EQ(full->b.size(), 20u);
}

TEST(SerdTargetSizesTest, CustomTargetsHonored) {
  auto f = MakeFixture();
  SerdOptions opts = FastOptions();
  opts.target_a = 9;
  opts.target_b = 17;
  SerdSynthesizer synth(f.real, opts);
  ASSERT_TRUE(synth.Fit(f.corpora, f.background).ok());
  auto result = synth.Synthesize();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->a.size(), 9u);
  EXPECT_EQ(result->b.size(), 17u);
}

}  // namespace
}  // namespace serd
