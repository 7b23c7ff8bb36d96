// Command-line front end: synthesize a privacy-preserving surrogate for
// one of the built-in dataset analogs and write it to disk in the
// SaveDataset release layout.
//
//   serd_cli --dataset dblp-acm|restaurant|walmart-amazon|itunes-amazon
//            [--scale 0.04]  (positive and finite, else exit 2)
//            [--seed 42] [--out DIR] [--no-rejection]
//            [--alpha 1.0] [--beta 0.6] [--buckets 10] [--candidates 10]
//            [--threads N]   (0 = all hardware threads; output is
//                             bit-identical for any N)
//            [--manifest FILE.json]  (enables observability; writes the
//                                     run manifest: options, report,
//                                     metrics snapshot)
//            [--save-models DIR]  (train, then write the model artifact to
//                                  DIR/serd_models.bin)
//            [--load-models DIR]  (warm start: restore the offline models
//                                  from DIR and skip training; fails if
//                                  the artifact is missing or invalid)
//            [--reference-decode]  (decode candidates with the full
//                                   re-decode reference path instead of
//                                   the KV cache; slower, bit-identical
//                                   output — used to audit the cache)
//            [--blocking off|qgram|auto]  (S3 pair enumeration: exact
//                                   O(|A|*|B|) scan, q-gram inverted-index
//                                   candidates only, or auto-switch by
//                                   pair count; default auto)
//            [--label-cap N]  (max cross pairs labeled in S3; 0 = all.
//                              Overrides the 250k default — use 0 with
//                              --blocking qgram for full-size runs)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/serd.h"
#include "data/dataset_io.h"
#include "datagen/generators.h"
#include "obs/manifest.h"
#include "serve/server.h"

using namespace serd;
using datagen::DatasetKind;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --dataset dblp-acm|restaurant|walmart-amazon|itunes-amazon\n"
      "          [--scale S] [--seed N] [--out DIR] [--no-rejection]\n"
      "          [--alpha A] [--beta B] [--buckets K] [--candidates C]\n"
      "          [--threads N] [--manifest FILE.json]\n"
      "          [--save-models DIR] [--load-models DIR]\n"
      "          [--reference-decode]\n"
      "          [--blocking off|qgram|auto]\n"
      "          [--label-cap N]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  DatasetKind kind = DatasetKind::kDblpAcm;
  bool kind_set = false;
  double scale = 0.04;
  uint64_t seed = 42;
  std::string out_dir;
  std::string manifest_path;
  // The same base options the serving front end uses per job, so a CLI
  // run and a served job with equal (dataset, scale, seed) are
  // byte-identical (the CI smoke stage diffs them).
  SerdOptions options = serve::DefaultJobOptions();

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--dataset") {
      if (!datagen::ParseDatasetKind(next("--dataset"), &kind)) {
        return Usage(argv[0]);
      }
      kind_set = true;
    } else if (arg == "--scale") {
      scale = std::atof(next("--scale"));
      if (!std::isfinite(scale) || scale <= 0.0) {
        std::fprintf(stderr, "--scale takes a positive finite number\n");
        return 2;
      }
    } else if (arg == "--seed") {
      seed = static_cast<uint64_t>(std::atoll(next("--seed")));
    } else if (arg == "--out") {
      out_dir = next("--out");
    } else if (arg == "--no-rejection") {
      options.enable_rejection = false;
    } else if (arg == "--alpha") {
      options.alpha = std::atof(next("--alpha"));
    } else if (arg == "--beta") {
      options.beta = std::atof(next("--beta"));
    } else if (arg == "--buckets") {
      options.string_bank.num_buckets = std::atoi(next("--buckets"));
    } else if (arg == "--candidates") {
      options.string_bank.num_candidates = std::atoi(next("--candidates"));
    } else if (arg == "--threads") {
      options.threads = std::atoi(next("--threads"));
    } else if (arg == "--manifest") {
      manifest_path = next("--manifest");
      options.observability = true;
    } else if (arg == "--save-models") {
      options.model_dir = next("--save-models");
      options.artifact_mode = SerdOptions::ArtifactMode::kSave;
    } else if (arg == "--load-models") {
      options.model_dir = next("--load-models");
      options.artifact_mode = SerdOptions::ArtifactMode::kLoad;
    } else if (arg == "--reference-decode") {
      options.string_bank.incremental_decode = false;
    } else if (arg == "--blocking") {
      if (!ParseBlockingMode(next("--blocking"), &options.blocking)) {
        std::fprintf(stderr, "--blocking takes off|qgram|auto\n");
        return 2;
      }
    } else if (arg == "--label-cap") {
      options.max_label_pairs =
          static_cast<size_t>(std::atoll(next("--label-cap")));
    } else {
      return Usage(argv[0]);
    }
  }
  if (!kind_set) return Usage(argv[0]);
  options.seed = seed;
  // A bad option fails like Fit() would fail on it, before --load-models
  // could report it as an artifact failure.
  if (Status valid = ValidateSerdOptions(options); !valid.ok()) {
    std::fprintf(stderr, "Fit failed: %s\n", valid.ToString().c_str());
    return 1;
  }

  ERDataset real = datagen::Generate(kind, {.seed = seed, .scale = scale});
  std::printf("real %s: |A|=%zu |B|=%zu matches=%zu\n", real.name.c_str(),
              real.a.size(), real.b.size(), real.matches.size());

  const datagen::Background background =
      datagen::StandardBackground(kind, seed);
  SerdSynthesizer synth(real, options);
  Status fit = synth.Fit(background.corpora, background.entities);
  if (!fit.ok()) {
    if (options.artifact_mode == SerdOptions::ArtifactMode::kLoad) {
      // One actionable line: the path the user gave, the failure class
      // (io / crc / format / schema / version / ...), and the detail.
      // The exit code is distinct per class so scripts can branch on
      // "wrong path" vs "corrupt artifact" without parsing stderr.
      std::fprintf(stderr,
                   "serd_cli: cannot load model artifact from '%s' "
                   "(cause: %s): %s\n",
                   options.model_dir.c_str(), ArtifactLoadFailureCause(fit),
                   fit.message().c_str());
      return ArtifactLoadExitCode(fit);
    }
    std::fprintf(stderr, "Fit failed: %s\n", fit.ToString().c_str());
    return 1;
  }
  if (synth.report().warm_started) {
    std::printf("warm start: offline models restored from %s in %.3fs\n",
                options.model_dir.c_str(), synth.report().offline_seconds);
  }
  auto result = synth.Synthesize();
  if (!result.ok()) {
    std::fprintf(stderr, "Synthesize failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  const auto& report = synth.report();
  std::printf(
      "synthesized: |A|=%zu |B|=%zu matches=%zu\n"
      "offline %.2fs online %.2fs rejected(disc)=%d rejected(dist)=%d "
      "forced=%d\nmean transformer epsilon %.2f (delta=1e-5)\n"
      "threads=%d parallel speedup %.2fx\n",
      result->a.size(), result->b.size(), result->matches.size(),
      report.offline_seconds, report.online_seconds,
      report.rejected_by_discriminator, report.rejected_by_distribution,
      report.forced_accepts, report.mean_bank_epsilon, report.threads_used,
      report.parallel_speedup);
  std::printf(
      "S3: blocking=%s scored %ld of %ld pairs (%ld candidates, %ld pruned, "
      "recall~%.4f)\n",
      report.s3_blocked ? "qgram" : "off", report.s3_scored_pairs,
      report.s3_total_pairs, report.s3_candidate_pairs,
      report.s3_pruned_pairs, report.s3_block_recall);

  auto jsd = synth.EvaluateSyntheticJsd(result.value());
  if (jsd.ok()) std::printf("JSD(O_real, O_syn) = %.4f\n", jsd.value());

  if (!manifest_path.empty()) {
    Status wrote = obs::WriteTextFile(manifest_path,
                                      synth.RunManifestJson().Dump());
    if (!wrote.ok()) {
      std::fprintf(stderr, "manifest write failed: %s\n",
                   wrote.ToString().c_str());
      return 1;
    }
    std::printf("wrote manifest to %s\n", manifest_path.c_str());
  }

  if (!out_dir.empty()) {
    Status save = SaveDataset(result.value(), out_dir);
    if (!save.ok()) {
      std::fprintf(stderr, "Save failed: %s\n", save.ToString().c_str());
      return 1;
    }
    std::printf("wrote release to %s\n", out_dir.c_str());
  }
  return 0;
}
