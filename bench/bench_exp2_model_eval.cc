// Reproduces paper Exp-2 (Figures 6 and 7): matchers trained on real vs
// synthesized data, evaluated on the same real test set.
//   Figure 6: Magellan-style model (random forest).
//   Figure 7: Deepmatcher-style model (neural matcher).
// Shape to reproduce: SERD lands close to Real (paper: F1 gap < 6 points
// on average), while SERD- and EMBench fall far behind (paper: tens of
// points).
#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "eval/metrics.h"
#include "matcher/neural_matcher.h"
#include "matcher/random_forest.h"

namespace serd::bench {
namespace {

struct VariantResult {
  PrfMetrics rf;
  PrfMetrics nn;
};

VariantResult TrainOn(const ERDataset& train_data,
                      const LabeledPairSet& train_pairs,
                      const ERDataset& test_data,
                      const LabeledPairSet& test_pairs,
                      const SimilaritySpec& real_spec) {
  // Train-side features use the training dataset's own statistics (its
  // value ranges differ from the real data); test-side features use the
  // real spec.
  auto train_spec = SimilaritySpec::FromTables(
      train_data.schema(), {&train_data.a, &train_data.b});
  FeatureExtractor train_fx(train_spec);
  FeatureExtractor test_fx(real_spec);

  VariantResult out;
  RandomForest rf;
  out.rf = TrainAndEvaluate(&rf, train_fx, train_data, train_pairs, test_fx,
                            test_data, test_pairs);
  NeuralMatcher::Options nn_opts;
  nn_opts.epochs = 60;
  NeuralMatcher nn(nn_opts);
  out.nn = TrainAndEvaluate(&nn, train_fx, train_data, train_pairs, test_fx,
                            test_data, test_pairs);
  return out;
}

void Run() {
  PrintHeader(
      "Exp-2 (Figures 6 & 7): matcher performance, trained on Real / SERD / "
      "SERD- / EMBench, tested on the real test set");

  struct Row {
    std::string dataset;
    const char* variant;
    PrfMetrics rf;
    PrfMetrics nn;
  };
  std::vector<Row> rows;

  for (DatasetKind kind : kAllKinds) {
    Pipeline p = RunPipeline(kind);
    WritePipelineManifest(p, "exp2");
    // Each method samples its pairs from its own stream.
    constexpr uint64_t kSeed = 23;

    Rng real_rng = MethodRng(kSeed, "Real");
    auto real_pairs = BuildLabeledPairs(p.real, 20.0, &real_rng);
    LabeledPairSet real_train, real_test;
    SplitPairs(real_pairs, 0.4, &real_rng, &real_train, &real_test);

    const auto& spec = p.synth->spec();

    auto r_real = TrainOn(p.real, real_train, p.real, real_test, spec);
    rows.push_back({p.real.name, "Real", r_real.rf, r_real.nn});

    Rng serd_rng = MethodRng(kSeed, "SERD");
    auto serd_pairs = p.synth->LabelPairs(p.serd, 20.0, &serd_rng);
    auto r = TrainOn(p.serd, serd_pairs, p.real, real_test, spec);
    rows.push_back({p.real.name, "SERD", r.rf, r.nn});

    Rng minus_rng = MethodRng(kSeed, "SERD-");
    auto minus_pairs = p.synth->LabelPairs(p.serd_minus, 20.0, &minus_rng);
    r = TrainOn(p.serd_minus, minus_pairs, p.real, real_test, spec);
    rows.push_back({p.real.name, "SERD-", r.rf, r.nn});

    Rng em_rng = MethodRng(kSeed, "EMBench");
    auto em_pairs = BuildLabeledPairs(p.embench, 20.0, &em_rng);
    r = TrainOn(p.embench, em_pairs, p.real, real_test, spec);
    rows.push_back({p.real.name, "EMBench", r.rf, r.nn});
  }

  auto print_grid = [&](const char* title, auto metric_of) {
    std::printf("\n--- %s\n", title);
    std::printf("%-16s | %-8s | %9s %9s %9s | %9s\n", "Dataset", "Trained on",
                "Precision", "Recall", "F1", "dF1 vs Real");
    PrintRule(90);
    double real_f1 = 0.0;
    for (const auto& row : rows) {
      const PrfMetrics& m = metric_of(row);
      if (std::string(row.variant) == "Real") real_f1 = m.f1;
      std::printf("%-16s | %-8s | %9.4f %9.4f %9.4f | %+8.2f%%\n",
                  row.dataset.c_str(), row.variant, m.precision, m.recall,
                  m.f1, 100.0 * (m.f1 - real_f1));
    }
  };

  print_grid("Figure 6: Magellan model (random forest)",
             [](const Row& r) -> const PrfMetrics& { return r.rf; });
  print_grid("Figure 7: Deepmatcher model (neural matcher)",
             [](const Row& r) -> const PrfMetrics& { return r.nn; });

  // Aggregate shape summary (paper: SERD avg dF1 ~4%, SERD- ~39%,
  // EMBench ~31%).
  std::printf("\n--- Average |F1 - Real F1| per variant\n");
  for (const char* variant : {"SERD", "SERD-", "EMBench"}) {
    double rf_gap = 0, nn_gap = 0;
    int n = 0;
    double rf_real = 0, nn_real = 0;
    for (const auto& row : rows) {
      if (std::string(row.variant) == "Real") {
        rf_real = row.rf.f1;
        nn_real = row.nn.f1;
      } else if (std::string(row.variant) == variant) {
        rf_gap += std::fabs(row.rf.f1 - rf_real);
        nn_gap += std::fabs(row.nn.f1 - nn_real);
        ++n;
      }
    }
    std::printf("  %-8s: Magellan %5.2f%%   Deepmatcher %5.2f%%\n", variant,
                100 * rf_gap / n, 100 * nn_gap / n);
  }
}

}  // namespace
}  // namespace serd::bench

int main() {
  serd::bench::Run();
  return 0;
}
