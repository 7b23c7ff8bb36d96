// Ablation bench (DESIGN.md): the effect of entity rejection (paper
// Section V) on the synthesized distribution, plus sweeps over the
// rejection knobs alpha (Eq. 10 slack) and beta (discriminator threshold).
// Shape to validate: rejection lowers JSD(O_real, O_syn); stricter beta
// rejects more entities; larger alpha rejects fewer. The on/off row runs
// one fitted synthesizer over paired run seeds, since a single run per
// side is within the seed-to-seed spread.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace serd::bench {
namespace {

struct RunStats {
  double jsd;  ///< post-hoc JSD(O_real, O_syn) fitted on the final dataset
  int rej_disc;
  int rej_dist;
  double online_s;
};

/// One run of a fitted synthesizer, with its post-hoc JSD.
RunStats RunOnce(const SerdSynthesizer& synth, const RunOptions& run) {
  SerdReport report;
  auto result = synth.Synthesize(run, &report);
  SERD_CHECK(result.ok());
  auto jsd = synth.EvaluateSyntheticJsd(result.value());
  return {jsd.ok() ? jsd.value() : -1.0, report.rejected_by_discriminator,
          report.rejected_by_distribution, report.online_seconds};
}

RunStats RunWith(const ERDataset& real,
                 const std::vector<std::vector<std::string>>& corpora,
                 const Table& background, SerdOptions opts) {
  SerdSynthesizer synth(real, opts);
  SERD_CHECK(synth.Fit(corpora, background).ok());
  return RunOnce(synth, synth.DefaultRunOptions());
}

struct MeanSe {
  double mean = 0.0;
  double se = 0.0;  ///< standard error of the mean
};

MeanSe Summarize(const std::vector<double>& v) {
  MeanSe out;
  for (double x : v) out.mean += x;
  out.mean /= static_cast<double>(v.size());
  double ss = 0.0;
  for (double x : v) ss += (x - out.mean) * (x - out.mean);
  out.se = std::sqrt(ss / static_cast<double>(v.size() - 1) /
                     static_cast<double>(v.size()));
  return out;
}

void Run() {
  PrintHeader("Ablation: entity rejection (paper Section V)");

  auto real = datagen::Generate(DatasetKind::kDblpAcm,
                                {.seed = 11, .scale = 0.04});
  std::vector<std::vector<std::string>> corpora;
  size_t i = 0;
  for (const auto& col : real.schema().columns()) {
    if (col.type != ColumnType::kText) continue;
    corpora.push_back(datagen::BackgroundCorpus(DatasetKind::kDblpAcm,
                                                col.name, 120, 81 + i++));
  }
  auto background =
      datagen::BackgroundEntities(DatasetKind::kDblpAcm, 100, 83);

  SerdOptions base = BenchSerdOptions(11);
  base.target_a = 60;
  base.target_b = 60;

  {
    // One fit, then each run seed synthesizes with rejection on (SERD)
    // and off (SERD-).
    constexpr uint64_t kFirstSeed = 1001;
    constexpr int kSeeds = 12;
    std::printf("\n--- Rejection on/off over run seeds %llu-%llu, one fit "
                "(post-hoc JSD(O_real, O_syn); lower = better)\n",
                static_cast<unsigned long long>(kFirstSeed),
                static_cast<unsigned long long>(kFirstSeed + kSeeds - 1));
    std::printf("%-6s | %10s %9s %9s | %10s %9s %9s | %10s\n", "seed",
                "SERD JSD", "rej_disc", "rej_dist", "SERD- JSD", "rej_disc",
                "rej_dist", "difference");
    PrintRule(90);
    SerdSynthesizer synth(real, base);
    SERD_CHECK(synth.Fit(corpora, background).ok());
    std::vector<double> on_jsd, off_jsd, diff, on_s, off_s;
    for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
      RunOptions run = synth.DefaultRunOptions();
      run.seed = seed;
      const RunStats on = RunOnce(synth, run);
      run.enable_rejection = false;
      const RunStats off = RunOnce(synth, run);
      on_jsd.push_back(on.jsd);
      off_jsd.push_back(off.jsd);
      diff.push_back(on.jsd - off.jsd);
      on_s.push_back(on.online_s);
      off_s.push_back(off.online_s);
      std::printf("%-6llu | %10.5f %9d %9d | %10.5f %9d %9d | %+10.5f\n",
                  static_cast<unsigned long long>(seed), on.jsd, on.rej_disc,
                  on.rej_dist, off.jsd, off.rej_disc, off.rej_dist,
                  on.jsd - off.jsd);
    }
    PrintRule(90);
    const MeanSe on = Summarize(on_jsd), off = Summarize(off_jsd);
    const MeanSe d = Summarize(diff);
    std::printf("SERD  (rejection on)  JSD %.4f +/- %.4f SE   online %.3f s\n",
                on.mean, on.se, Summarize(on_s).mean);
    std::printf("SERD- (rejection off) JSD %.4f +/- %.4f SE   online %.3f s\n",
                off.mean, off.se, Summarize(off_s).mean);
    std::printf("paired difference (on - off) %+.4f +/- %.4f SE\n", d.mean,
                d.se);
  }

  std::printf("\n--- alpha sweep (Eq. 10 slack; alpha=1 is the paper "
              "default, larger accepts more)\n");
  std::printf("%-8s | %10s | %9s\n", "alpha", "JSD", "rej_dist");
  PrintRule(40);
  for (double alpha : {0.9, 1.0, 1.5, 3.0, 1e9}) {
    SerdOptions opts = base;
    opts.alpha = alpha;
    RunStats s = RunWith(real, corpora, background, opts);
    std::printf("%-8.1f | %10.5f | %9d\n", alpha, s.jsd, s.rej_dist);
  }

  std::printf("\n--- beta sweep (discriminator threshold; beta=0.6 is the "
              "paper default, higher rejects more)\n");
  std::printf("%-8s | %9s | %10s\n", "beta", "rej_disc", "JSD");
  PrintRule(40);
  for (double beta : {0.0, 0.3, 0.6, 0.8}) {
    SerdOptions opts = base;
    opts.beta = beta;
    RunStats s = RunWith(real, corpora, background, opts);
    std::printf("%-8.1f | %9d | %10.5f\n", beta, s.rej_disc, s.jsd);
  }
}

}  // namespace
}  // namespace serd::bench

int main() {
  serd::bench::Run();
  return 0;
}
