// Scenario: an electronics retailer (Walmart-Amazon style catalogs, mixed
// text / categorical / numeric schema with heavily skewed table sizes)
// synthesizes a surrogate catalog-matching dataset. Demonstrates:
//   - custom target sizes (n_a, n_b) different from the real tables,
//   - the SERD- ablation (rejection off) and what it does to the
//     synthesized distribution,
//   - inspecting the learned M-/N-distributions.
#include <cstdio>

#include "core/serd.h"
#include "datagen/generators.h"

using namespace serd;
using datagen::DatasetKind;

int main() {
  ERDataset real = datagen::Generate(DatasetKind::kWalmartAmazon,
                                     {.seed = 8, .scale = 0.015});
  std::printf("Catalogs: |A|=%zu (retailer) |B|=%zu (marketplace) "
              "matches=%zu\n",
              real.a.size(), real.b.size(), real.matches.size());

  std::vector<std::vector<std::string>> corpora = {
      datagen::BackgroundCorpus(DatasetKind::kWalmartAmazon, "modelno", 120,
                                41),
      datagen::BackgroundCorpus(DatasetKind::kWalmartAmazon, "title", 120,
                                42),
      datagen::BackgroundCorpus(DatasetKind::kWalmartAmazon, "descr", 120,
                                43),
  };
  Table background =
      datagen::BackgroundEntities(DatasetKind::kWalmartAmazon, 100, 44);

  SerdOptions options;
  options.seed = 51;
  options.string_bank.num_buckets = 5;
  options.string_bank.train.epochs = 2;
  options.string_bank.random_pair_samples = 400;
  options.gan.epochs = 8;
  // Release a smaller surrogate than the real catalogs.
  options.target_a = 40;
  options.target_b = 120;

  SerdSynthesizer synthesizer(real, options);
  SERD_CHECK(synthesizer.Fit(corpora, background).ok());

  // Learned distribution summary (S1).
  std::printf("\nLearned O-distribution: pi=%.4f, M-components=%d, "
              "N-components=%d\n",
              synthesizer.o_real().pi(), synthesizer.report().m_components,
              synthesizer.report().n_components);

  ERDataset with_rejection = std::move(synthesizer.Synthesize()).value();
  auto report_on = synthesizer.report();

  RunOptions no_rejection = synthesizer.DefaultRunOptions();
  no_rejection.enable_rejection = false;
  ERDataset without_rejection =
      std::move(synthesizer.Synthesize(no_rejection, nullptr)).value();

  std::printf("\nSERD  (rejection on):  |A|=%zu |B|=%zu matches=%zu, "
              "rejected disc=%d dist=%d, JSD=%.4f\n",
              with_rejection.a.size(), with_rejection.b.size(),
              with_rejection.matches.size(),
              report_on.rejected_by_discriminator,
              report_on.rejected_by_distribution, report_on.jsd_real_vs_syn);
  std::printf("SERD- (rejection off): |A|=%zu |B|=%zu matches=%zu\n",
              without_rejection.a.size(), without_rejection.b.size(),
              without_rejection.matches.size());

  std::printf("\nSample released products:\n");
  for (size_t i = 0; i < std::min<size_t>(3, with_rejection.b.size()); ++i) {
    const Entity& e = with_rejection.b.row(i);
    std::printf("  %s | %s | %s | %s | $%s\n", e.values[0].c_str(),
                e.values[1].c_str(), e.values[2].c_str(),
                e.values[3].c_str(), e.values[4].c_str());
  }
  return 0;
}
