#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/serd.h"
#include "datagen/generators.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace serd {
namespace {

using datagen::DatasetKind;
using obs::Json;
using obs::MetricsRegistry;

// ---------------------------------------------------------------- metrics

TEST(CounterTest, AddValueReset) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, LastWriteWins) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
  g.Reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  // Buckets: (-inf, 1], (1, 2], (2, 3], overflow (3, inf).
  obs::Histogram h({1.0, 2.0, 3.0}, /*timing=*/false);
  h.Record(0.5);   // bucket 0
  h.Record(1.0);   // bucket 0 (inclusive upper bound)
  h.Record(1.001); // bucket 1
  h.Record(3.0);   // bucket 2
  h.Record(99.0);  // overflow
  auto counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 3.0 + 99.0);
  EXPECT_DOUBLE_EQ(h.Mean(), h.sum() / 5.0);
  EXPECT_FALSE(h.timing());

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  for (uint64_t c : h.BucketCounts()) EXPECT_EQ(c, 0u);
}

TEST(HistogramTest, LinearBoundsSpanTheRange) {
  // Bounds are the upper edges of n equal-width buckets over [lo, hi]:
  // {lo + w, lo + 2w, ..., hi}.
  auto bounds = obs::LinearBounds(0.0, 8.0, 8);
  ASSERT_EQ(bounds.size(), 8u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1.0);
  EXPECT_DOUBLE_EQ(bounds.back(), 8.0);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
  // Latency bounds are strictly increasing and cover sub-ms to tens of
  // seconds.
  auto lat = obs::LatencyBounds();
  ASSERT_GE(lat.size(), 4u);
  EXPECT_LT(lat.front(), 1e-3);
  EXPECT_GT(lat.back(), 10.0);
  for (size_t i = 1; i < lat.size(); ++i) EXPECT_GT(lat[i], lat[i - 1]);
}

TEST(RegistryTest, LookupsReturnStablePointersAndSnapshotIsSorted) {
  MetricsRegistry reg;
  obs::Counter* c = reg.counter("z.events");
  EXPECT_EQ(reg.counter("z.events"), c);
  c->Add(7);
  reg.gauge("a.gauge")->Set(2.5);
  obs::Histogram* h = reg.histogram("m.hist", obs::LinearBounds(0, 1, 4));
  // Second lookup ignores the (different) bounds and returns the original.
  EXPECT_EQ(reg.histogram("m.hist", obs::LinearBounds(0, 9, 2)), h);
  h->Record(0.3);
  obs::Histogram* t = reg.timer("span.seconds");
  EXPECT_TRUE(t->timing());
  t->Record(0.01);

  auto snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("z.events"), 7u);
  EXPECT_EQ(snap.gauges.at("a.gauge"), 2.5);
  EXPECT_EQ(snap.histograms.at("m.hist").count, 1u);
  EXPECT_FALSE(snap.histograms.at("m.hist").timing);
  EXPECT_TRUE(snap.histograms.at("span.seconds").timing);

  // Reset zeroes values but keeps the names and layouts alive.
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  auto snap2 = reg.TakeSnapshot();
  EXPECT_EQ(snap2.counters.at("z.events"), 0u);
  EXPECT_EQ(snap2.histograms.at("m.hist").count, 0u);
  EXPECT_EQ(snap2.histograms.at("m.hist").bounds.size(),
            snap.histograms.at("m.hist").bounds.size());
}

TEST(RegistryTest, NullSafeHelpersAreNoOpsOnNullRegistry) {
  obs::Counter* c = obs::GetCounter(nullptr, "x");
  obs::Gauge* g = obs::GetGauge(nullptr, "x");
  obs::Histogram* h = obs::GetHistogram(nullptr, "x", {1.0});
  EXPECT_EQ(c, nullptr);
  EXPECT_EQ(g, nullptr);
  EXPECT_EQ(h, nullptr);
  EXPECT_EQ(obs::GetTimer(nullptr, "x"), nullptr);
  // None of these may crash.
  obs::Inc(c);
  obs::Set(g, 1.0);
  obs::Observe(h, 1.0);
}

TEST(TraceSpanTest, RecordsTimerAndCallCounter) {
  MetricsRegistry reg;
  {
    obs::TraceSpan span(&reg, "stage.x");
  }
  {
    obs::TraceSpan span(&reg, "stage.x");
    double secs = span.Stop();
    EXPECT_GE(secs, 0.0);
    // Stop() ended the span; the destructor must not double-record.
  }
  auto snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("stage.x.calls"), 2u);
  EXPECT_EQ(snap.histograms.at("stage.x").count, 2u);
  EXPECT_TRUE(snap.histograms.at("stage.x").timing);
}

TEST(TraceSpanTest, NullRegistrySpanIsInert) {
  obs::TraceSpan span(nullptr, "stage.y");
  EXPECT_EQ(span.Stop(), 0.0);
}

TEST(ShardedTallyTest, FoldSumsSlotsInShardOrder) {
  obs::ShardedTally<long> tally(4);
  tally.slot(2) += 10;
  tally.slot(0) += 1;
  tally.slot(3) += 100;
  EXPECT_EQ(tally.Fold(), 111);
}

// ------------------------------------------------------------------- json

TEST(JsonTest, DumpParseRoundTrip) {
  Json root = Json::Object();
  root.Set("name", "dblp-acm");
  root.Set("count", uint64_t{42});
  root.Set("pi", 0.25);
  root.Set("enabled", true);
  root.Set("escapes", std::string("a\"b\\c\n\td"));
  Json arr = Json::Array();
  arr.Append(1.0);
  arr.Append(2.5);
  root.Set("values", std::move(arr));
  Json inner = Json::Object();
  inner.Set("neg", -3);
  root.Set("nested", std::move(inner));

  std::string text = root.Dump();
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& p = parsed.value();
  EXPECT_EQ(p.at("name").AsString(), "dblp-acm");
  EXPECT_EQ(p.at("count").AsNumber(), 42.0);
  EXPECT_EQ(p.at("pi").AsNumber(), 0.25);
  EXPECT_TRUE(p.at("enabled").AsBool());
  EXPECT_EQ(p.at("escapes").AsString(), "a\"b\\c\n\td");
  ASSERT_EQ(p.at("values").size(), 2u);
  EXPECT_EQ(p.at("values").item(1).AsNumber(), 2.5);
  EXPECT_EQ(p.at("nested").at("neg").AsNumber(), -3.0);
  // Reserializing the parse yields the same bytes (stable formatting).
  EXPECT_EQ(p.Dump(), text);
}

TEST(JsonTest, ObjectsPreserveInsertionOrder) {
  Json j = Json::Object();
  j.Set("zebra", 1);
  j.Set("alpha", 2);
  ASSERT_EQ(j.members().size(), 2u);
  EXPECT_EQ(j.members()[0].first, "zebra");
  EXPECT_EQ(j.members()[1].first, "alpha");
  // Re-setting an existing key replaces in place, preserving position.
  j.Set("zebra", 9);
  EXPECT_EQ(j.members()[0].first, "zebra");
  EXPECT_EQ(j.at("zebra").AsNumber(), 9.0);
  EXPECT_EQ(j.size(), 2u);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("{}extra").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_TRUE(Json::Parse("null").ok());
  EXPECT_TRUE(Json::Parse("  [1, 2, 3]  ").ok());
}

TEST(JsonTest, ParseRejectsNumbersJsonDoesNotHave) {
  // strtod takes all of these; JSON has no infinities, NaNs or hex, and
  // an overflowing exponent must not turn into inf.
  for (const char* text : {"-nan", "-inf", "-infinity", "1e400", "-1e400",
                           "0x10", "-0x1p3", "[1, -nan]",
                           "{\"scale\": 1e400}"}) {
    EXPECT_FALSE(Json::Parse(text).ok()) << text;
  }
  auto tiny = Json::Parse("1e-400");  // underflows to 0: finite, accepted
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny->AsNumber(), 0.0);
  auto big = Json::Parse("-1.5e300");
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->AsNumber(), -1.5e300);
}

TEST(ManifestTest, SnapshotToJsonCarriesAllSections) {
  MetricsRegistry reg;
  reg.counter("c.one")->Add(3);
  reg.gauge("g.pi")->Set(0.5);
  reg.histogram("h.vals", obs::LinearBounds(0, 2, 2))->Record(1.5);
  Json j = obs::SnapshotToJson(reg.TakeSnapshot());
  EXPECT_EQ(j.at("counters").at("c.one").AsNumber(), 3.0);
  EXPECT_EQ(j.at("gauges").at("g.pi").AsNumber(), 0.5);
  const Json& h = j.at("histograms").at("h.vals");
  EXPECT_EQ(h.at("count").AsNumber(), 1.0);
  EXPECT_EQ(h.at("sum").AsNumber(), 1.5);
  EXPECT_FALSE(h.at("timing").AsBool());
  ASSERT_EQ(h.at("bounds").size(), 2u);
  ASSERT_EQ(h.at("counts").size(), 3u);  // 2 finite buckets + overflow
  EXPECT_EQ(h.at("counts").item(1).AsNumber(), 1.0);
}

TEST(ManifestTest, WriteReadTextFileRoundTrip) {
  const std::string path = "obs_test_roundtrip.json";
  const std::string content = "{\n  \"k\": 1\n}\n";
  ASSERT_TRUE(obs::WriteTextFile(path, content).ok());
  auto read = obs::ReadTextFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), content);
  std::remove(path.c_str());
}

// ----------------------------------------- pipeline-level observability

SerdOptions SmallObsOptions(int threads) {
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

struct ObsRun {
  MetricsRegistry::Snapshot snapshot;
  std::string manifest;  ///< RunManifestJson().Dump()
  SerdReport report;
  ERDataset dataset;
};

ObsRun RunObservedPipeline(int threads) {
  const DatasetKind kind = DatasetKind::kDblpAcm;
  ERDataset real = datagen::Generate(kind, {.seed = 3, .scale = 0.02});
  std::vector<std::vector<std::string>> corpora;
  size_t idx = 0;
  for (const auto& col : real.schema().columns()) {
    if (col.type != ColumnType::kText) continue;
    corpora.push_back(
        datagen::BackgroundCorpus(kind, col.name, 60, 100 + idx++));
  }
  Table background = datagen::BackgroundEntities(kind, 50, 11);

  SerdSynthesizer synth(real, SmallObsOptions(threads));
  Status fit = synth.Fit(corpora, background);
  EXPECT_TRUE(fit.ok()) << fit.ToString();
  auto syn = synth.Synthesize();
  EXPECT_TRUE(syn.ok()) << syn.status().ToString();

  ObsRun run;
  EXPECT_NE(synth.metrics(), nullptr);
  run.snapshot = synth.metrics()->TakeSnapshot();
  run.manifest = synth.RunManifestJson().Dump();
  run.report = synth.report();
  run.dataset = std::move(syn).value();
  return run;
}

/// Wall-clock metrics the determinism comparison must skip: timing
/// histograms (flagged), the span call counters paired with them, and the
/// seconds/speedup gauges.
bool IsTimingName(const std::string& name) {
  return name.find("seconds") != std::string::npos ||
         name.find("speedup") != std::string::npos;
}

TEST(ObsPipelineTest, SnapshotIsIdenticalAcrossThreadCounts) {
  ObsRun serial = RunObservedPipeline(1);
  ObsRun parallel = RunObservedPipeline(4);

  // The synthesized bytes are identical (the runtime contract holds with
  // observability enabled)...
  for (auto [s, p] : {std::pair{&serial.dataset.a, &parallel.dataset.a},
                      std::pair{&serial.dataset.b, &parallel.dataset.b}}) {
    ASSERT_EQ(s->size(), p->size());
    for (size_t i = 0; i < s->size(); ++i) {
      EXPECT_EQ(s->row(i).id, p->row(i).id);
      EXPECT_EQ(s->row(i).values, p->row(i).values);
    }
  }
  ASSERT_EQ(serial.dataset.matches.size(), parallel.dataset.matches.size());
  for (size_t k = 0; k < serial.dataset.matches.size(); ++k) {
    EXPECT_EQ(serial.dataset.matches[k].a_idx,
              parallel.dataset.matches[k].a_idx);
    EXPECT_EQ(serial.dataset.matches[k].b_idx,
              parallel.dataset.matches[k].b_idx);
  }

  // ...and so is every non-timing metric.
  EXPECT_EQ(serial.snapshot.counters, parallel.snapshot.counters);

  ASSERT_EQ(serial.snapshot.gauges.size(), parallel.snapshot.gauges.size());
  for (const auto& [name, value] : serial.snapshot.gauges) {
    if (IsTimingName(name)) continue;
    ASSERT_TRUE(parallel.snapshot.gauges.count(name)) << name;
    EXPECT_EQ(value, parallel.snapshot.gauges.at(name)) << name;
  }

  ASSERT_EQ(serial.snapshot.histograms.size(),
            parallel.snapshot.histograms.size());
  for (const auto& [name, cell] : serial.snapshot.histograms) {
    ASSERT_TRUE(parallel.snapshot.histograms.count(name)) << name;
    const auto& other = parallel.snapshot.histograms.at(name);
    EXPECT_EQ(cell.timing, other.timing) << name;
    if (cell.timing) continue;  // wall-clock values, exempt by contract
    EXPECT_EQ(cell.bounds, other.bounds) << name;
    EXPECT_EQ(cell.counts, other.counts) << name;
    EXPECT_EQ(cell.count, other.count) << name;
    EXPECT_EQ(cell.sum, other.sum) << name;
  }
}

TEST(ObsPipelineTest, ManifestRoundTripsAndMatchesReport) {
  ObsRun run = RunObservedPipeline(1);

  auto parsed = Json::Parse(run.manifest);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& m = parsed.value();

  // Options block reflects the run configuration.
  EXPECT_EQ(m.at("options").at("seed").AsNumber(), 77.0);
  EXPECT_TRUE(m.at("options").at("observability").AsBool());

  // Report block mirrors SerdReport.
  const Json& rep = m.at("report");
  EXPECT_EQ(rep.at("accepted_entities").AsNumber(),
            run.report.accepted_entities);
  EXPECT_EQ(rep.at("forced_accepts").AsNumber(), run.report.forced_accepts);
  EXPECT_EQ(rep.at("jsd_evaluations").AsNumber(), run.report.jsd_evaluations);
  EXPECT_FALSE(rep.at("guard_exhausted").AsBool());

  // Metrics counters agree with the report's bookkeeping.
  const Json& counters = m.at("metrics").at("counters");
  EXPECT_EQ(counters.at("s2.accepted").AsNumber(),
            run.report.accepted_entities);
  EXPECT_EQ(counters.at("s2.rejected_discriminator").AsNumber(),
            run.report.rejected_by_discriminator);
  EXPECT_EQ(counters.at("s2.rejected_distribution").AsNumber(),
            run.report.rejected_by_distribution);
  EXPECT_EQ(counters.at("s2.forced_accepts_discriminator").AsNumber(),
            run.report.forced_accepts_discriminator);
  EXPECT_EQ(counters.at("s2.forced_accepts_distribution").AsNumber(),
            run.report.forced_accepts_distribution);
  EXPECT_EQ(counters.at("s2.jsd_evaluations").AsNumber(),
            run.report.jsd_evaluations);
  EXPECT_EQ(counters.at("s2.tracked_pairs_pos").AsNumber(),
            run.report.tracked_pairs_pos);
  EXPECT_EQ(counters.at("s2.tracked_pairs_neg").AsNumber(),
            run.report.tracked_pairs_neg);

  // Forced accepts split by cause and sum to the total.
  EXPECT_EQ(run.report.forced_accepts_discriminator +
                run.report.forced_accepts_distribution,
            run.report.forced_accepts);

  // The online JSD tracker ran: one estimate per distribution-rejection
  // decision plus the final report estimate.
  EXPECT_GT(run.report.jsd_evaluations, 0);
}

}  // namespace
}  // namespace serd
