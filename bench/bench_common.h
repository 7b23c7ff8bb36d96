#ifndef SERD_BENCH_BENCH_COMMON_H_
#define SERD_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/serd.h"
#include "datagen/generators.h"
#include "embench/embench.h"
#include "obs/manifest.h"
#include "serve/scheduler.h"

namespace serd::bench {

using datagen::DatasetKind;

/// "release" when asserts are compiled out, "debug" otherwise — the value
/// bench reports should stamp next to their numbers (google-benchmark
/// emits the same fact as "library_build_type" in its JSON context).
inline const char* BenchBuildType() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

/// Provenance guard for every bench entry point: numbers from an
/// assert-enabled (non-NDEBUG) build measure the asserts, not the
/// library, and must never end up in a BENCH_*.json that tooling
/// compares against release rows. Debug builds refuse to run unless
/// SERD_BENCH_ALLOW_DEBUG is set in the environment, and even then the
/// run is loudly tagged on stderr. Use scripts/bench.sh to configure and
/// run a Release bench build.
inline void RequireReleaseBuild(const char* bench_name) {
#ifndef NDEBUG
  const char* allow = std::getenv("SERD_BENCH_ALLOW_DEBUG");
  if (allow == nullptr || std::string(allow).empty()) {
    std::fprintf(stderr,
                 "%s: refusing to benchmark a debug (assert-enabled) build; "
                 "numbers would not be comparable to release rows.\n"
                 "Use scripts/bench.sh, or set SERD_BENCH_ALLOW_DEBUG=1 to "
                 "override for a smoke run.\n",
                 bench_name);
    std::exit(2);
  }
  std::fprintf(stderr,
               "%s: WARNING: benchmarking a DEBUG build "
               "(SERD_BENCH_ALLOW_DEBUG set); do not record these numbers.\n",
               bench_name);
#else
  (void)bench_name;
#endif
}

inline const DatasetKind kAllKinds[] = {
    DatasetKind::kDblpAcm, DatasetKind::kRestaurant,
    DatasetKind::kWalmartAmazon, DatasetKind::kItunesAmazon};

/// Per-dataset scale factors for the experiment harnesses. They shrink
/// the paper's Table II sizes so a full multi-dataset experiment runs in
/// CPU-minutes; the relative shapes (who wins, by how much) are what the
/// harness validates (EXPERIMENTS.md).
inline double BenchScale(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kDblpAcm:
      return 0.04;
    case DatasetKind::kRestaurant:
      return 0.2;
    case DatasetKind::kWalmartAmazon:
      return 0.015;
    case DatasetKind::kItunesAmazon:
      return 0.008;
  }
  return 0.05;
}

/// Shared CPU-scale SERD options for the benches (paper defaults for the
/// algorithmic knobs: alpha = 1, beta = 0.6; model sizes per DESIGN.md).
inline SerdOptions BenchSerdOptions(uint64_t seed) {
  SerdOptions opts;
  opts.seed = seed;
  opts.string_bank.num_buckets = 5;
  opts.string_bank.num_candidates = 3;
  opts.string_bank.transformer.d_model = 24;
  opts.string_bank.transformer.num_heads = 2;
  opts.string_bank.transformer.num_layers = 1;
  opts.string_bank.transformer.ffn_dim = 48;
  opts.string_bank.transformer.max_len = 48;
  opts.string_bank.train.epochs = 2;
  opts.string_bank.train.batch_size = 16;
  opts.string_bank.max_pairs_per_bucket = 40;
  opts.string_bank.random_pair_samples = 600;
  opts.gan.epochs = 10;
  opts.jsd_samples = 96;
  opts.rejection_partner_sample = 16;
  opts.max_reject_retries = 2;
  opts.max_label_pairs = 150000;
  // The experiment harnesses always emit run manifests; the recording
  // overhead is far below bench noise (see bench_micro's obs rows).
  opts.observability = true;
  return opts;
}

/// Everything one experiment needs about one dataset: the real analog,
/// the three synthesized variants, and the fitted synthesizer (kept for
/// its spec / O_real / GAN).
struct Pipeline {
  ERDataset real;
  ERDataset serd;
  ERDataset serd_minus;
  ERDataset embench;
  SerdReport serd_report;
  SerdReport serd_minus_report;
  /// Run manifest of the SERD synthesis, captured before the SERD- rerun
  /// resets the online statistics.
  obs::Json serd_manifest;
  std::unique_ptr<SerdSynthesizer> synth;
};

/// Generates the dataset analog, fits SERD once, and synthesizes all
/// three variants (SERD, SERD-, EMBench). SERD- reuses SERD's offline
/// models — their offline phase is identical by construction.
inline Pipeline RunPipeline(DatasetKind kind, uint64_t seed = 42,
                            double scale_override = 0.0) {
  // Every experiment harness funnels through here, so the provenance
  // guard fires even in a bench main that forgot to call it (once per
  // process, not once per dataset).
  static const bool build_checked = (RequireReleaseBuild("serd_bench"), true);
  (void)build_checked;
  Pipeline p;
  double scale = scale_override > 0.0 ? scale_override : BenchScale(kind);
  p.real = datagen::Generate(kind, {.seed = seed, .scale = scale});

  const datagen::Background background =
      datagen::StandardBackground(kind, seed);
  p.synth = std::make_unique<SerdSynthesizer>(p.real, BenchSerdOptions(seed));
  auto fit = p.synth->Fit(background.corpora, background.entities);
  SERD_CHECK(fit.ok()) << fit.ToString();

  p.serd = std::move(p.synth->Synthesize()).value();
  p.serd_report = p.synth->report();
  p.serd_manifest = p.synth->RunManifestJson();

  RunOptions minus = p.synth->DefaultRunOptions();
  minus.enable_rejection = false;
  p.serd_minus =
      std::move(p.synth->Synthesize(minus, &p.serd_minus_report)).value();

  p.embench = SynthesizeEmbench(p.real, {.seed = seed * 13 + 5});
  return p;
}

/// Writes the pipeline's SERD-run manifest to
/// BENCH_<bench>_<dataset>.manifest.json in the working directory.
inline void WritePipelineManifest(const Pipeline& p,
                                  const std::string& bench) {
  std::string path =
      "BENCH_" + bench + "_" + p.real.name + ".manifest.json";
  Status wrote = obs::WriteTextFile(path, p.serd_manifest.Dump());
  SERD_CHECK(wrote.ok()) << wrote.ToString();
  std::printf("wrote %s\n", path.c_str());
}

/// One method's random stream in an experiment, keyed by the bench seed
/// and the method's name as served jobs are keyed by their seed key: a
/// method's draws never depend on how many another method consumed.
inline Rng MethodRng(uint64_t bench_seed, const std::string& method) {
  return Rng(serve::JobScheduler::DeriveJobSeed(bench_seed, method));
}

inline void PrintRule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void PrintHeader(const std::string& title) {
  PrintRule();
  std::printf("%s\n", title.c_str());
  PrintRule();
}

}  // namespace serd::bench

#endif  // SERD_BENCH_BENCH_COMMON_H_
