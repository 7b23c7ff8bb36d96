// Reproduces paper Table I: examples of synthesized strings. For each of
// the paper's five (domain, column) rows we train the bucketed transformer
// bank on the domain's background corpus, gate it the way Fit() does (each
// trained bucket's keep rate, measured on held-out background strings),
// feed it the paper's input string and target similarity, and report the
// synthesized string s', the achieved similarity sim' =
// 3_gram_jaccard(s, s'), where s' came from (a kept decode, a refined
// decode, or the hill-climb fallback), and the bank's per-bucket keep
// rates (kept/decoded candidates, '*' where the bucket decodes).
#include <cstdio>

#include "bench/bench_common.h"
#include "seq2seq/model_bank.h"
#include "text/qgram.h"

namespace serd::bench {
namespace {

struct Row {
  DatasetKind kind;
  const char* domain;
  const char* column;
  const char* input;
  double sim;
};

void Run() {
  // The paper's Table I inputs (input string s, target sim).
  const Row rows[] = {
      {DatasetKind::kDblpAcm, "authors (DBLP-ACM)", "authors",
       "Jennifer Bernstein, Meikel Stonebraker, Guojing Lin", 0.55},
      {DatasetKind::kRestaurant, "name (Restaurant)", "name",
       "Forest Family Restaurant", 0.73},
      {DatasetKind::kRestaurant, "address (Restaurant)", "address",
       "6th street around broadway", 0.4},
      {DatasetKind::kWalmartAmazon, "title (Walmart-Amazon)", "title",
       "Asus 15.6 Laptop Intel Atom 2gb Memory 32gb Flash", 0.13},
      {DatasetKind::kItunesAmazon, "Song_Name (iTunes-Amazon)", "song_name",
       "I'll Be Home For The Holiday", 0.09},
  };

  PrintHeader("Table I: examples of synthesized strings");
  std::printf("%-26s | %-52s | %5s | %-48s | %5s | %-8s | %s\n", "domain",
              "input s", "sim", "output s'", "sim'", "s' from",
              "keep rate per bucket");
  PrintRule(190);

  SerdOptions base = BenchSerdOptions(7);
  int idx = 0;
  for (const Row& row : rows) {
    StringBankOptions opts = base.string_bank;
    opts.train.seed = 100 + idx;
    auto sim_fn = [](const std::string& a, const std::string& b) {
      return QgramJaccard(a, b);
    };
    obs::MetricsRegistry metrics;
    opts.metrics = &metrics;
    StringSynthesisBank bank(opts, sim_fn);
    auto corpus =
        datagen::BackgroundCorpus(row.kind, row.column, 150, 555 + idx);
    Rng rng(999 + idx);
    auto status = bank.Train(corpus, &rng);
    SERD_CHECK(status.ok()) << status.ToString();
    // Fit() measures on background entity values; here a held-out corpus
    // draw plays that part (22 sources x 3 candidates = 66 decodes).
    bank.MeasureKeepCounts(
        datagen::BackgroundCorpus(row.kind, row.column, 22, 777 + idx),
        4242 + idx, nullptr);

    Rng synth_rng(333 + idx);
    std::string out = bank.Synthesize(row.input, row.sim, &synth_rng);
    auto count = [&](const char* name) {
      return metrics.counter(name)->value();
    };
    const char* from = count("s2.bank_fallback_calls") > 0 ||
                               count("s2.bank_empty_decode_calls") > 0
                           ? "fallback"
                       : count("s2.bank_refined_calls") > 0 ? "refined"
                                                            : "decode";
    std::string rates;
    for (size_t b = 0; b < bank.keep_counts().size(); ++b) {
      const KeepCount& k = bank.keep_counts()[b];
      if (b > 0) rates += ' ';
      if (bank.models()[b] == nullptr) {
        rates += '-';
        continue;
      }
      rates += std::to_string(k.kept);
      rates += '/';
      rates += std::to_string(k.decoded);
      if (bank.BucketDecodes(static_cast<int>(b))) rates += '*';
    }
    std::printf("%-26s | %-52s | %5.2f | %-48s | %5.2f | %-8s | %s\n",
                row.domain, row.input, row.sim, out.c_str(),
                QgramJaccard(row.input, out), from, rates.c_str());
    ++idx;
  }
  PrintRule(190);
  std::printf(
      "Paper shape check: sim' should track sim within a few points on\n"
      "every row, and the outputs should read as plausible domain strings\n"
      "(author lists, restaurant names, product titles, song names).\n"
      "'s' from' says which mechanism wrote s': a kept transformer decode,\n"
      "a refined decode (the hill climb nudged it), or the hill-climb\n"
      "fallback (no bucket decodes, or no decode passed the keep test).\n");
}

}  // namespace
}  // namespace serd::bench

int main() {
  serd::bench::Run();
  return 0;
}
