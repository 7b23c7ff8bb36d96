// Reproduces paper Exp-5 (Table IV): efficiency evaluation. Offline time
// is the transformer-bank + GAN training; online time is the S2/S3
// synthesis loop. Run at bench scale; the paper's absolute numbers (hours
// on a MacBook at full scale with d_model=256 transformers) differ, but
// the shape must hold: offline >> online, offline grows with the number of
// textual columns, online grows with the number of entities.
//
// Besides the console tables, the run writes BENCH_exp5.json: one row per
// measurement (name, wall_seconds, threads, dataset, scale), including
// 1-thread vs 8-thread rows for the S1 distribution fit and the S3
// labeling pass on DBLP-ACM at scale 0.04, and the combined S1+S3
// speedup actually achieved on this machine.
#include <cstdio>
#include <fstream>
#include <memory>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "core/cached_sim.h"
#include "core/distribution.h"
#include "runtime/thread_pool.h"

namespace serd::bench {
namespace {

struct JsonRow {
  std::string name;
  double wall_seconds = 0.0;
  int threads = 1;
  std::string dataset;
  double scale = 0.0;
};

void WriteJson(const std::vector<JsonRow>& rows, const char* path) {
  std::ofstream out(path);
  out << "{\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"wall_seconds\": %.6f, "
                  "\"threads\": %d, \"dataset\": \"%s\", \"scale\": %.4f}%s\n",
                  r.name.c_str(), r.wall_seconds, r.threads,
                  r.dataset.c_str(), r.scale, i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

struct StageSeconds {
  double s1 = 0.0;  ///< pair sample + similarity vectors + GMM AIC fits
  double s3 = 0.0;  ///< posterior labeling over the cross product
};

/// Times S1 (FitODistribution) and S3 (LabelCrossPairs, the exact scan
/// of the real cross product) with `threads` total executors: the
/// functions the synthesizer calls. The labeled output is identical for
/// any value of `threads`; only wall time changes.
StageSeconds MeasureS1S3(const ERDataset& real, int threads) {
  std::unique_ptr<runtime::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<runtime::ThreadPool>(threads - 1);
  }
  auto spec = SimilaritySpec::FromTables(real.schema(), {&real.a, &real.b});
  StageSeconds out;

  WallTimer t1;
  GmmFitOptions gopts;
  gopts.pool = pool.get();
  auto o = FitODistribution(real, spec, gopts, /*seed=*/17);
  SERD_CHECK(o.ok());
  out.s1 = t1.Seconds();

  CachedSimilarity cached(spec);
  std::vector<CachedSimilarity::Digest> da, db;
  for (const auto& r : real.a.rows()) da.push_back(cached.MakeDigest(r));
  for (const auto& r : real.b.rows()) db.push_back(cached.MakeDigest(r));

  WallTimer t3;
  CrossPairLabels labels = LabelCrossPairs(
      *o, cached, da, db, /*known=*/{}, BlockingMode::kOff,
      /*label_cap=*/0, /*seed=*/17, pool.get(), /*metrics=*/nullptr);
  out.s3 = t3.Seconds();

  std::printf("  threads=%d: S1 %.3fs S3 %.3fs (%zu pairs, %zu matches)\n",
              threads, out.s1, out.s3, labels.total_pairs,
              labels.matches.size());
  return out;
}

void Run() {
  std::vector<JsonRow> rows;

  PrintHeader("Exp-5 (Table IV): efficiency evaluation (bench scale)");
  std::printf("%-16s | %9s | %9s | %8s | %10s | %6s\n", "Dataset",
              "Offline(s)", "Online(s)", "TextCols", "|A|+|B| syn",
              "rej/acc");
  PrintRule(85);

  for (DatasetKind kind : kAllKinds) {
    Pipeline p = RunPipeline(kind);
    WritePipelineManifest(p, "exp5");
    int text_cols = 0;
    for (const auto& col : p.real.schema().columns()) {
      text_cols += col.type == ColumnType::kText;
    }
    int rejected = p.serd_report.rejected_by_discriminator +
                   p.serd_report.rejected_by_distribution;
    std::printf("%-16s | %9.2f | %9.2f | %8d | %10zu | %3d/%-3d\n",
                p.real.name.c_str(), p.serd_report.offline_seconds,
                p.serd_report.online_seconds, text_cols,
                p.serd.a.size() + p.serd.b.size(), rejected,
                p.serd_report.accepted_entities);
    rows.push_back({"offline_" + p.real.name, p.serd_report.offline_seconds,
                    p.serd_report.threads_used, p.real.name,
                    BenchScale(kind)});
    rows.push_back({"online_" + p.real.name, p.serd_report.online_seconds,
                    p.serd_report.threads_used, p.real.name,
                    BenchScale(kind)});
  }
  PrintRule(85);
  std::printf(
      "Paper reference (Table IV, full scale): offline 3.5-9.8 hours,\n"
      "online 1.6-79 minutes. At bench scale the transformers are tiny\n"
      "(DESIGN.md), so offline shrinks far more than online does; the\n"
      "shape preserved here is online time ~ #synthesized entities (next\n"
      "sweep) and offline time ~ text-column training volume.\n");

  // Online-time scaling sweep on one dataset (entities vs seconds).
  std::printf("\nOnline-time scaling (DBLP-ACM, target sizes sweep):\n");
  for (size_t target : {20u, 40u, 80u}) {
    auto real = datagen::Generate(DatasetKind::kDblpAcm,
                                  {.seed = 9, .scale = 0.04});
    SerdOptions opts = BenchSerdOptions(9);
    opts.target_a = target;
    opts.target_b = target;
    std::vector<std::vector<std::string>> corpora;
    size_t i = 0;
    for (const auto& col : real.schema().columns()) {
      if (col.type != ColumnType::kText) continue;
      corpora.push_back(datagen::BackgroundCorpus(DatasetKind::kDblpAcm,
                                                  col.name, 120, 71 + i++));
    }
    auto background =
        datagen::BackgroundEntities(DatasetKind::kDblpAcm, 100, 73);
    SerdSynthesizer synth(real, opts);
    SERD_CHECK(synth.Fit(corpora, background).ok());
    (void)synth.Synthesize();
    std::printf("  %3zu + %3zu entities -> online %.2f s\n", target, target,
                synth.report().online_seconds);
    rows.push_back({"online_sweep_" + std::to_string(target),
                    synth.report().online_seconds,
                    synth.report().threads_used, real.name, 0.04});
  }

  // Thread scaling of the parallel hot paths (S1 distribution fit + S3
  // labeling) on DBLP-ACM at scale 0.04. The speedup row records what this
  // machine actually achieved; on a single-core host it is ~1.0.
  std::printf("\nThread scaling, S1+S3 on DBLP-ACM at scale 0.04:\n");
  auto real = datagen::Generate(DatasetKind::kDblpAcm,
                                {.seed = 9, .scale = 0.04});
  StageSeconds serial = MeasureS1S3(real, 1);
  StageSeconds threaded = MeasureS1S3(real, 8);
  double speedup = (threaded.s1 + threaded.s3) > 0.0
                       ? (serial.s1 + serial.s3) /
                             (threaded.s1 + threaded.s3)
                       : 1.0;
  std::printf("  S1+S3 speedup at 8 threads: %.2fx\n", speedup);
  rows.push_back({"s1_distribution_fit", serial.s1, 1, real.name, 0.04});
  rows.push_back({"s1_distribution_fit", threaded.s1, 8, real.name, 0.04});
  rows.push_back({"s3_labeling", serial.s3, 1, real.name, 0.04});
  rows.push_back({"s3_labeling", threaded.s3, 8, real.name, 0.04});
  rows.push_back(
      {"s1_plus_s3_speedup_at_8_threads", speedup, 8, real.name, 0.04});

  WriteJson(rows, "BENCH_exp5.json");
  std::printf("\nwrote BENCH_exp5.json (%zu rows)\n", rows.size());
}

}  // namespace
}  // namespace serd::bench

int main() {
  serd::bench::Run();
  return 0;
}
