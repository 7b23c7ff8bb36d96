// Reproduces paper Exp-3 (Figures 8 and 9): data evaluation. A matcher
// M_real trained on E_real is tested on T_real (real test pairs) vs T_syn
// (same-size pair sample from each synthesized dataset). If the
// synthesized data has the real data's characteristics, performance on
// T_syn tracks performance on T_real.
// Shape to reproduce: small gaps for SERD (paper: F1 diff ~3-5 points),
// much larger for SERD- (~16) and EMBench (~22).
#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "eval/metrics.h"
#include "matcher/neural_matcher.h"
#include "matcher/random_forest.h"

namespace serd::bench {
namespace {

/// Builds a synthetic test pair set of roughly the same size/positive rate
/// as `reference` from `syn`.
LabeledPairSet SampleSynTest(const LabeledPairSet& syn_pairs,
                             const LabeledPairSet& reference, Rng* rng) {
  std::vector<LabeledPair> pos, neg;
  for (const auto& p : syn_pairs.pairs) (p.match ? pos : neg).push_back(p);
  rng->Shuffle(&pos);
  rng->Shuffle(&neg);
  LabeledPairSet out;
  size_t want_pos = std::min(reference.NumMatches(), pos.size());
  size_t want_neg =
      std::min(reference.pairs.size() - reference.NumMatches(), neg.size());
  out.pairs.assign(pos.begin(), pos.begin() + want_pos);
  out.pairs.insert(out.pairs.end(), neg.begin(), neg.begin() + want_neg);
  return out;
}

void Run() {
  PrintHeader(
      "Exp-3 (Figures 8 & 9): M_real tested on T_real vs T_syn of each "
      "synthesis method");

  struct Row {
    std::string dataset;
    const char* test_set;
    PrfMetrics rf;
    PrfMetrics nn;
  };
  std::vector<Row> rows;

  for (DatasetKind kind : kAllKinds) {
    Pipeline p = RunPipeline(kind);
    WritePipelineManifest(p, "exp3");
    // Each method samples its pairs from its own stream.
    constexpr uint64_t kSeed = 29;
    const auto& spec = p.synth->spec();
    FeatureExtractor fx(spec);

    Rng real_rng = MethodRng(kSeed, "Real");
    auto real_pairs = BuildLabeledPairs(p.real, 20.0, &real_rng);
    LabeledPairSet real_train, real_test;
    SplitPairs(real_pairs, 0.4, &real_rng, &real_train, &real_test);

    // Train M_real once per model family.
    std::vector<std::vector<double>> x;
    std::vector<int> y;
    fx.ExtractAll(p.real, real_train, &x, &y);
    RandomForest rf;
    rf.Train(x, y);
    NeuralMatcher::Options nn_opts;
    nn_opts.epochs = 60;
    NeuralMatcher nn(nn_opts);
    nn.Train(x, y);

    auto evaluate = [&](const ERDataset& data, const LabeledPairSet& pairs,
                        const char* label) {
      // Feature extraction against each test set uses that dataset's own
      // value ranges, as a user of the released dataset would.
      auto data_spec =
          SimilaritySpec::FromTables(data.schema(), {&data.a, &data.b});
      FeatureExtractor data_fx(data_spec);
      rows.push_back({p.real.name, label,
                      EvaluateMatcher(rf, data_fx, data, pairs),
                      EvaluateMatcher(nn, data_fx, data, pairs)});
    };

    evaluate(p.real, real_test, "T_real");
    Rng serd_rng = MethodRng(kSeed, "SERD");
    auto serd_pairs = p.synth->LabelPairs(p.serd, 20.0, &serd_rng);
    evaluate(p.serd, SampleSynTest(serd_pairs, real_test, &serd_rng), "SERD");
    Rng minus_rng = MethodRng(kSeed, "SERD-");
    auto minus_pairs = p.synth->LabelPairs(p.serd_minus, 20.0, &minus_rng);
    evaluate(p.serd_minus, SampleSynTest(minus_pairs, real_test, &minus_rng),
             "SERD-");
    Rng em_rng = MethodRng(kSeed, "EMBench");
    auto em_pairs = BuildLabeledPairs(p.embench, 20.0, &em_rng);
    evaluate(p.embench, SampleSynTest(em_pairs, real_test, &em_rng),
             "EMBench");
  }

  auto print_grid = [&](const char* title, auto metric_of) {
    std::printf("\n--- %s\n", title);
    std::printf("%-16s | %-7s | %9s %9s %9s | %9s\n", "Dataset", "Test set",
                "Precision", "Recall", "F1", "dF1 vs T_real");
    PrintRule(90);
    double real_f1 = 0.0;
    for (const auto& row : rows) {
      const PrfMetrics& m = metric_of(row);
      if (std::string(row.test_set) == "T_real") real_f1 = m.f1;
      std::printf("%-16s | %-7s | %9.4f %9.4f %9.4f | %+8.2f%%\n",
                  row.dataset.c_str(), row.test_set, m.precision, m.recall,
                  m.f1, 100.0 * (m.f1 - real_f1));
    }
  };

  print_grid("Figure 8: Magellan model (random forest)",
             [](const Row& r) -> const PrfMetrics& { return r.rf; });
  print_grid("Figure 9: Deepmatcher model (neural matcher)",
             [](const Row& r) -> const PrfMetrics& { return r.nn; });

  std::printf("\n--- Average |F1(T_syn) - F1(T_real)| per variant\n");
  for (const char* variant : {"SERD", "SERD-", "EMBench"}) {
    double rf_gap = 0, nn_gap = 0;
    int n = 0;
    double rf_real = 0, nn_real = 0;
    for (const auto& row : rows) {
      if (std::string(row.test_set) == "T_real") {
        rf_real = row.rf.f1;
        nn_real = row.nn.f1;
      } else if (std::string(row.test_set) == variant) {
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
