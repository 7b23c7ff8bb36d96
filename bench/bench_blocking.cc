// Blocking benchmark: S3's labeler (LabelCrossPairs) on the Table II
// dataset analogs at scale 1.0, as the exact O(|A|*|B|) scan and through
// the q-gram candidates.
//
// The bench runs S3's labeling rule on E_real itself: it fits O_real with
// S1's fit (FitODistribution, seed 42), labels the real A x B cross space
// both ways, and compares wall-clock, pairs scored and the match lists
// with each other and with |M_real|. No synthesis is in the loop, so the
// labeled pairs against |M_real| measure the rule alone. A self-join
// (Restaurant: one table against itself) passes its diagonal (i, i) as
// known, since it is not a pair of E_real (ERDataset::NumTotalPairs), and
// counts a labeled (i, j) and (j, i) as one unordered pair.
//
// Writes BENCH_blocking.json: per dataset, |M_real|, the labeled pairs
// split into those in M_real and the rest, exact/blocked wall-clock,
// pairs scored on each side, the scored-pairs reduction, recall (blocked
// matches / exact matches; precision is 1.0 by construction because both
// sides score with the same posterior), and whether the match lists
// agree exactly.
//
// Flags:
//   --datasets a,b,c   subset of dblp-acm,restaurant,walmart-amazon,
//                      itunes-amazon (default: all four + stress tier)
//   --no-stress        skip the 10x stress tier (dblp-acm at scale 3.16)
//   --exact-all        run the exact scan even above the pair gate
//                      (itunes-amazon at scale 1.0 is ~386M pairs)
//   --rarity           print the exact matches' best-column Jaccard
//                      floor, which the candidate rule's tau must stay
//                      under for recall 1.0
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "block/qgram_index.h"
#include "core/cached_sim.h"
#include "core/distribution.h"
#include "data/er_dataset.h"
#include "data/similarity.h"
#include "obs/metrics.h"
#include "text/qgram.h"

namespace serd::bench {
namespace {

/// Exact scans above this many pairs are skipped unless --exact-all:
/// covers dblp-acm (6.0M), restaurant (0.7M), walmart-amazon (56M) and
/// the stress tier, while itunes-amazon (386M) reports blocked-only.
constexpr size_t kExactPairGate = 80'000'000;

/// Seed of S1's pair sample and of the labeler's recall estimate.
constexpr uint64_t kSeed = 42;

struct Fitted {
  ERDataset real;
  SimilaritySpec spec;
  ODistribution o;
  std::unique_ptr<CachedSimilarity> sim;
  std::vector<CachedSimilarity::Digest> a_digests, b_digests;
};

Fitted FitDataset(DatasetKind kind, double scale) {
  Fitted f;
  f.real = datagen::Generate(kind, {.seed = kSeed, .scale = scale});
  f.spec = SimilaritySpec::FromTables(f.real.schema(), {&f.real.a, &f.real.b});
  auto o = FitODistribution(f.real, f.spec, GmmFitOptions(), kSeed);
  SERD_CHECK(o.ok()) << o.status().ToString();
  f.o = std::move(o).value();

  f.sim = std::make_unique<CachedSimilarity>(f.spec);
  f.a_digests.reserve(f.real.a.size());
  for (size_t i = 0; i < f.real.a.size(); ++i) {
    f.a_digests.push_back(f.sim->MakeDigest(f.real.a.row(i)));
  }
  f.b_digests.reserve(f.real.b.size());
  for (size_t i = 0; i < f.real.b.size(); ++i) {
    f.b_digests.push_back(f.sim->MakeDigest(f.real.b.row(i)));
  }
  return f;
}

/// One uncapped labeler pass over the real cross space, serial, timed by
/// the labeler's own spans.
struct LabelRun {
  CrossPairLabels labels;
  std::vector<uint64_t> keys;  ///< sorted flat match keys i * |B| + j
  double seconds = 0.0;        ///< s3.label
  double index_seconds = 0.0;  ///< s3.block_index (index + candidates)
  double recall_seconds = 0.0;  ///< s3.block_recall_estimate
  /// Scoring the pair stream: the rest of s3.label.
  double score_seconds() const {
    return seconds - index_seconds - recall_seconds;
  }
};

/// The pairs outside E_real's pair space: a self-join's diagonal.
std::unordered_set<uint64_t> KnownPairs(const Fitted& f) {
  std::unordered_set<uint64_t> known;
  if (!f.real.self_join) return known;
  const size_t nb = f.b_digests.size();
  const size_t n = std::min(f.a_digests.size(), nb);
  for (size_t i = 0; i < n; ++i) {
    known.insert(static_cast<uint64_t>(i) * nb + i);
  }
  return known;
}

LabelRun Label(const Fitted& f, const std::unordered_set<uint64_t>& known,
               BlockingMode blocking) {
  obs::MetricsRegistry metrics;
  LabelRun run;
  run.labels = LabelCrossPairs(f.o, *f.sim, f.a_digests, f.b_digests, known,
                               blocking, /*label_cap=*/0, kSeed,
                               /*pool=*/nullptr, &metrics);
  const size_t nb = f.b_digests.size();
  for (const PairRef& m : run.labels.matches) {
    run.keys.push_back(static_cast<uint64_t>(m.a_idx) * nb + m.b_idx);
  }
  const auto spans = metrics.TakeSnapshot().histograms;
  auto span_seconds = [&spans](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.sum;
  };
  run.seconds = span_seconds("s3.label");
  run.index_seconds = span_seconds("s3.block_index");
  run.recall_seconds = span_seconds("s3.block_recall_estimate");
  return run;
}

/// Labeled pairs against M_real: pairs counts the distinct pairs the
/// labeler matched, unordered in a self-join, and in_real those of them
/// in M_real (also unordered in a self-join).
struct PairSplit {
  size_t pairs = 0;
  size_t in_real = 0;
};

PairSplit SplitByRealMatches(const Fitted& f,
                             const std::vector<uint64_t>& keys) {
  const size_t nb = f.b_digests.size();
  auto pair_key = [&](size_t i, size_t j) {
    if (f.real.self_join && j < i) std::swap(i, j);
    return static_cast<uint64_t>(i) * nb + j;
  };
  std::unordered_set<uint64_t> real;
  for (const PairRef& m : f.real.matches) {
    real.insert(pair_key(m.a_idx, m.b_idx));
  }
  std::unordered_set<uint64_t> labeled;
  for (uint64_t key : keys) labeled.insert(pair_key(key / nb, key % nb));
  PairSplit split;
  split.pairs = labeled.size();
  for (uint64_t key : labeled) split.in_real += real.count(key);
  return split;
}

/// The minimum over exact matches of the best per-column q-gram Jaccard:
/// the candidate rule keeps every match while tau stays at or below it.
void PrintRarity(const Fitted& f, const std::vector<uint64_t>& matches) {
  const std::vector<size_t> gram_cols = f.sim->GramColumns();
  const size_t nb = f.b_digests.size();
  std::vector<double> best_jac;
  for (uint64_t key : matches) {
    const auto& a = f.a_digests[key / nb];
    const auto& b = f.b_digests[key % nb];
    double best = 0.0;
    for (size_t c : gram_cols) {
      best = std::max(best, JaccardOfHashedSets(a.grams[c], b.grams[c]));
    }
    best_jac.push_back(best);
  }
  if (best_jac.empty()) return;
  std::sort(best_jac.begin(), best_jac.end());
  auto jpct = [&](double p) {
    return best_jac[static_cast<size_t>(p * (best_jac.size() - 1))];
  };
  std::printf(
      "  match best-column Jaccard    min=%.3f p01=%.3f p1=%.3f "
      "p10=%.3f p50=%.3f (tau %.2f)\n",
      best_jac.front(), jpct(0.001), jpct(0.01), jpct(0.1), jpct(0.5),
      block::kJaccardTau);
}

struct BlockRow {
  std::string name;
  double scale = 1.0;
  size_t rows_a = 0, rows_b = 0;
  size_t total_pairs = 0;
  size_t real_matches = 0;  ///< |M_real|
  /// Distinct labeled pairs (unordered in a self-join), from the exact
  /// scan when it ran, else the blocked one; and how many are in M_real.
  size_t labeled_pairs = 0;
  size_t labeled_real = 0;
  bool exact_ran = false;
  double exact_seconds = 0.0;
  size_t exact_matches = 0;
  double blocked_seconds = 0.0;
  size_t blocked_matches = 0;
  size_t candidates = 0;
  double reduction = 0.0;  ///< total_pairs / pairs the blocked pass scored
  double recall = 1.0;
  /// True when `recall` is the sampled estimate (exact scan skipped)
  /// rather than the measured blocked/exact ratio — blocked-only rows
  /// (iTunes-Amazon at scale 1.0) must never be read as measured.
  bool recall_estimated = false;
  bool agree = false;
};

void WriteJson(const std::vector<BlockRow>& rows, const char* path) {
  std::ofstream out(path);
  out << "{\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    char buf[704];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"blocking_%s\", \"scale\": %.2f, "
        "\"rows_a\": %zu, \"rows_b\": %zu, \"total_pairs\": %zu, "
        "\"real_matches\": %zu, \"labeled_pairs\": %zu, "
        "\"labeled_real\": %zu, \"labeled_other\": %zu, "
        "\"exact_ran\": %s, \"exact_seconds\": %.3f, "
        "\"exact_matches\": %zu, \"blocked_seconds\": %.3f, "
        "\"blocked_matches\": %zu, \"candidates\": %zu, "
        "\"scored_reduction\": %.2f, \"recall\": %.6f, "
        "\"recall_estimated\": %s, \"agree\": %s}%s\n",
        r.name.c_str(), r.scale, r.rows_a, r.rows_b, r.total_pairs,
        r.real_matches, r.labeled_pairs, r.labeled_real,
        r.labeled_pairs - r.labeled_real, r.exact_ran ? "true" : "false",
        r.exact_seconds, r.exact_matches, r.blocked_seconds,
        r.blocked_matches, r.candidates, r.reduction, r.recall,
        r.recall_estimated ? "true" : "false",
        r.agree ? "true" : "false", i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

struct Tier {
  DatasetKind kind;
  double scale;
  const char* suffix;  ///< appended to the dataset name ("" for Table II)
};

void Run(int argc, char** argv) {
  std::string filter;
  bool rarity = false, exact_all = false, stress = true;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--datasets") && i + 1 < argc) {
      filter = argv[++i];
    } else if (!std::strcmp(argv[i], "--rarity")) {
      rarity = true;
    } else if (!std::strcmp(argv[i], "--exact-all")) {
      exact_all = true;
    } else if (!std::strcmp(argv[i], "--no-stress")) {
      stress = false;
    } else {
      std::fprintf(stderr,
                   "usage: bench_blocking [--datasets a,b] [--rarity] "
                   "[--exact-all] [--no-stress]\n");
      std::exit(2);
    }
  }

  std::vector<DatasetKind> kinds;
  if (filter.empty()) {
    kinds.assign(std::begin(kAllKinds), std::end(kAllKinds));
  } else {
    size_t pos = 0;
    while (pos <= filter.size()) {
      size_t comma = filter.find(',', pos);
      std::string token = filter.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      DatasetKind kind;
      if (!datagen::ParseDatasetKind(token, &kind)) {
        std::fprintf(stderr, "bench_blocking: unknown dataset '%s'\n",
                     token.c_str());
        std::exit(2);
      }
      kinds.push_back(kind);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  std::vector<Tier> tiers;
  for (DatasetKind kind : kinds) tiers.push_back({kind, 1.0, ""});
  // 10x stress tier: ~sqrt(10) per side, so the pair space is ~10x the
  // dataset's Table II size.
  if (stress &&
      std::find(kinds.begin(), kinds.end(), DatasetKind::kDblpAcm) !=
          kinds.end()) {
    tiers.push_back({DatasetKind::kDblpAcm, 3.16, "-10x"});
  }

  PrintHeader("S3 labeling on E_real: exact scan vs q-gram blocking");
  std::vector<BlockRow> rows;
  for (const Tier& tier : tiers) {
    Fitted f = FitDataset(tier.kind, tier.scale);
    std::string name = f.real.name + tier.suffix;
    BlockRow row;
    row.name = name;
    row.scale = tier.scale;
    row.rows_a = f.real.a.size();
    row.rows_b = f.real.b.size();
    row.total_pairs = f.real.NumTotalPairs();
    row.real_matches = f.real.matches.size();
    std::printf("%s: |A|=%zu |B|=%zu -> %zu pairs%s, |M_real|=%zu\n",
                name.c_str(), row.rows_a, row.rows_b, row.total_pairs,
                f.real.self_join ? " (self-join, diagonal known)" : "",
                row.real_matches);
    const std::unordered_set<uint64_t> known = KnownPairs(f);

    std::vector<uint64_t> exact;
    row.exact_ran = exact_all || row.total_pairs <= kExactPairGate;
    if (row.exact_ran) {
      LabelRun run = Label(f, known, BlockingMode::kOff);
      exact = std::move(run.keys);
      row.exact_seconds = run.seconds;
      row.exact_matches = exact.size();
      std::printf("  exact:   %9.2fs  %zu matches (|M_real| %zu)\n",
                  row.exact_seconds, exact.size(), row.real_matches);
    } else {
      std::printf("  exact:   skipped (> %zu pairs; --exact-all forces)\n",
                  kExactPairGate);
    }
    if (rarity && row.exact_ran) PrintRarity(f, exact);

    LabelRun run = Label(f, known, BlockingMode::kQgram);
    row.blocked_seconds = run.seconds;
    row.blocked_matches = run.keys.size();
    row.candidates = run.labels.candidate_pairs;
    row.reduction = run.labels.scored_pairs > 0
                        ? static_cast<double>(row.total_pairs) /
                              static_cast<double>(run.labels.scored_pairs)
                        : 0.0;
    if (row.exact_ran) {
      row.recall = exact.empty() ? 1.0
                                 : static_cast<double>(run.keys.size()) /
                                       static_cast<double>(exact.size());
      row.agree = run.keys == exact;
      // Precision 1.0 by construction: every blocked match must also be
      // an exact match (same digests, same posterior).
      SERD_CHECK(std::includes(exact.begin(), exact.end(), run.keys.begin(),
                               run.keys.end()))
          << name << ": blocked matches are not a subset of exact matches";
    } else {
      // No ground truth: publish the labeler's sampled estimate and say
      // so — the flag travels into the JSON row so estimated and measured
      // recall can never be conflated downstream.
      row.recall = run.labels.block_recall;
      row.recall_estimated = run.labels.block_recall_estimated;
    }
    std::printf(
        "  blocked: %9.2fs  %zu matches  (index %.2fs + score %.2fs + "
        "recall estimate %.2fs; %zu candidates, %.1fx fewer scored, "
        "recall %.4f%s)\n",
        row.blocked_seconds, run.keys.size(), run.index_seconds,
        run.score_seconds(), run.recall_seconds, row.candidates,
        row.reduction, row.recall,
        row.exact_ran ? (row.agree ? ", exact agreement" : ", DISAGREE")
                      : " (sampled estimate; exact scan skipped)");
    const PairSplit split =
        SplitByRealMatches(f, row.exact_ran ? exact : run.keys);
    row.labeled_pairs = split.pairs;
    row.labeled_real = split.in_real;
    std::printf("  labeled: %zu %spairs = %zu in M_real + %zu others "
                "(|M_real| %zu)\n",
                split.pairs, f.real.self_join ? "unordered " : "",
                split.in_real, split.pairs - split.in_real,
                row.real_matches);
    rows.push_back(row);
  }

  WriteJson(rows, "BENCH_blocking.json");
  std::printf("\nwrote BENCH_blocking.json (%zu rows)\n", rows.size());
}

}  // namespace
}  // namespace serd::bench

int main(int argc, char** argv) {
  serd::bench::Run(argc, argv);
  return 0;
}
