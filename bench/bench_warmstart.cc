// Warm-start benchmark: quantifies what the model-artifact store buys.
// The first run trains the offline models (transformer banks + GAN + S1
// GMMs) and saves them; the second run restores them from the artifact.
// Offline wall-clock collapses from training time to artifact-load time
// (milliseconds), while the synthesized dataset stays bit-identical —
// which is what makes the artifact path safe to use for the experiment
// harnesses' repeated runs.
//
// Writes BENCH_warmstart.json: per dataset, an offline_cold row, an
// offline_warm row, the speedup, and whether the warm dataset was
// bit-identical to the cold one.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace serd::bench {
namespace {

struct WarmRow {
  std::string dataset;
  double offline_cold_seconds = 0.0;
  double offline_warm_seconds = 0.0;
  double artifact_bytes = 0.0;
  bool identical = false;
};

void WriteJson(const std::vector<WarmRow>& rows, const char* path) {
  std::ofstream out(path);
  out << "{\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    double speedup = r.offline_warm_seconds > 0.0
                         ? r.offline_cold_seconds / r.offline_warm_seconds
                         : 0.0;
    char buf[360];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"warmstart_%s\", \"offline_cold_seconds\": %.6f, "
        "\"offline_warm_seconds\": %.6f, \"offline_speedup\": %.1f, "
        "\"artifact_bytes\": %.0f, \"bit_identical\": %s}%s\n",
        r.dataset.c_str(), r.offline_cold_seconds, r.offline_warm_seconds,
        speedup, r.artifact_bytes, r.identical ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

bool SameDataset(const ERDataset& a, const ERDataset& b) {
  if (a.a.size() != b.a.size() || a.b.size() != b.b.size() ||
      a.matches.size() != b.matches.size()) {
    return false;
  }
  for (size_t i = 0; i < a.matches.size(); ++i) {
    if (!(a.matches[i] == b.matches[i])) return false;
  }
  for (size_t i = 0; i < a.a.size(); ++i) {
    if (a.a.row(i).values != b.a.row(i).values) return false;
  }
  for (size_t i = 0; i < a.b.size(); ++i) {
    if (a.b.row(i).values != b.b.row(i).values) return false;
  }
  return true;
}

void Run() {
  PrintHeader("Warm start: artifact store vs offline retraining");
  std::printf("%-16s | %12s | %12s | %8s | %9s | %s\n", "Dataset",
              "Cold off.(s)", "Warm off.(s)", "Speedup", "Artifact",
              "Identical");
  PrintRule(85);

  const std::string model_root =
      (std::filesystem::temp_directory_path() / "serd_bench_warmstart")
          .string();
  std::filesystem::remove_all(model_root);

  std::vector<WarmRow> rows;
  for (DatasetKind kind : kAllKinds) {
    const uint64_t seed = 42;
    auto real =
        datagen::Generate(kind, {.seed = seed, .scale = BenchScale(kind)});
    const datagen::Background background =
        datagen::StandardBackground(kind, seed);
    const std::string model_dir = model_root + "/" + real.name;

    // Cold: train and save.
    SerdOptions cold_opts = BenchSerdOptions(seed);
    cold_opts.model_dir = model_dir;
    cold_opts.artifact_mode = SerdOptions::ArtifactMode::kSave;
    SerdSynthesizer cold(real, cold_opts);
    auto cold_fit = cold.Fit(background.corpora, background.entities);
    SERD_CHECK(cold_fit.ok()) << cold_fit.ToString();
    auto cold_syn = cold.Synthesize();
    SERD_CHECK(cold_syn.ok()) << cold_syn.status().ToString();

    // Warm: restore and re-synthesize.
    SerdOptions warm_opts = BenchSerdOptions(seed);
    warm_opts.model_dir = model_dir;
    warm_opts.artifact_mode = SerdOptions::ArtifactMode::kLoad;
    SerdSynthesizer warm(real, warm_opts);
    auto warm_fit = warm.Fit(background.corpora, background.entities);
    SERD_CHECK(warm_fit.ok()) << warm_fit.ToString();
    SERD_CHECK(warm.report().warm_started);
    auto warm_syn = warm.Synthesize();
    SERD_CHECK(warm_syn.ok()) << warm_syn.status().ToString();

    WarmRow row;
    row.dataset = real.name;
    row.offline_cold_seconds = cold.report().offline_seconds;
    row.offline_warm_seconds = warm.report().offline_seconds;
    std::error_code ec;
    auto bytes = std::filesystem::file_size(
        model_dir + "/" + SerdSynthesizer::kModelFileName, ec);
    row.artifact_bytes = ec ? 0.0 : static_cast<double>(bytes);
    row.identical = SameDataset(cold_syn.value(), warm_syn.value());

    double speedup = row.offline_warm_seconds > 0.0
                         ? row.offline_cold_seconds / row.offline_warm_seconds
                         : 0.0;
    std::printf("%-16s | %12.3f | %12.4f | %7.0fx | %7.0fKB | %s\n",
                row.dataset.c_str(), row.offline_cold_seconds,
                row.offline_warm_seconds, speedup,
                row.artifact_bytes / 1024.0, row.identical ? "yes" : "NO");
    SERD_CHECK(row.identical)
        << "warm-start synthesis diverged on " << row.dataset;
    rows.push_back(row);
  }
  PrintRule(85);
  std::printf(
      "The warm column is pure artifact I/O + validation: the offline\n"
      "phase (DP transformer training, GAN training, S1 GMM fits) is\n"
      "skipped entirely, and the recorded DP epsilon is carried over\n"
      "rather than re-spent.\n");

  WriteJson(rows, "BENCH_warmstart.json");
  std::printf("\nwrote BENCH_warmstart.json (%zu rows)\n", rows.size());
  std::filesystem::remove_all(model_root);
}

}  // namespace
}  // namespace serd::bench

int main() {
  serd::bench::Run();
  return 0;
}
