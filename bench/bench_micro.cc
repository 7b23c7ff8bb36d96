// Micro-benchmarks (google-benchmark) for the performance-sensitive
// substrates, including the ablation DESIGN.md calls out: incremental GMM
// maintenance (paper Eqs. 8-9) vs full sufficient-statistics recompute,
// and the 1-thread vs N-thread rows of the parallel runtime hot paths.
//
// Besides the console table, results are written machine-readably to
// BENCH_micro.json in the working directory (google-benchmark JSON schema;
// parallel benchmarks carry their thread count as the trailing /N arg).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/cached_sim.h"
#include "datagen/generators.h"
#include "gan/entity_encoder.h"
#include "gmm/gmm.h"
#include "gmm/incremental.h"
#include "gmm/o_distribution.h"
#include "nn/arena.h"
#include "nn/kernels.h"
#include "nn/modules.h"
#include "nn/tape.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "seq2seq/trainer.h"
#include "seq2seq/transformer.h"
#include "text/char_vocab.h"
#include "text/edit_distance.h"
#include "text/qgram.h"

namespace serd {
namespace {

using datagen::DatasetKind;

/// Pool with `threads` total executors (caller included); null = serial.
std::unique_ptr<runtime::ThreadPool> MakePool(int threads) {
  if (threads <= 1) return nullptr;
  return std::make_unique<runtime::ThreadPool>(threads - 1);
}

std::vector<Vec> ClusterData(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> data;
  data.reserve(n);
  for (int i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      data.push_back({rng.Gaussian(0.9, 0.05), rng.Gaussian(0.85, 0.05),
                      rng.Gaussian(0.8, 0.05), rng.Gaussian(0.9, 0.05)});
    } else {
      data.push_back({rng.Gaussian(0.1, 0.05), rng.Gaussian(0.1, 0.05),
                      rng.Gaussian(0.2, 0.05), rng.Gaussian(0.7, 0.05)});
    }
  }
  return data;
}

void BM_QgramJaccard(benchmark::State& state) {
  std::string a = "Adaptable Query Optimization and Evaluation in Temporal "
                  "Middleware";
  std::string b = "adaptable query optimization and evaluation in temporal "
                  "middleware systems";
  for (auto _ : state) {
    benchmark::DoNotOptimize(QgramJaccard(a, b, 3));
  }
}
BENCHMARK(BM_QgramJaccard);

void BM_Levenshtein(benchmark::State& state) {
  std::string a(static_cast<size_t>(state.range(0)), 'a');
  std::string b(static_cast<size_t>(state.range(0)), 'b');
  for (size_t i = 0; i < b.size(); i += 3) b[i] = 'a';
  for (auto _ : state) {
    benchmark::DoNotOptimize(Levenshtein(a, b));
  }
}
BENCHMARK(BM_Levenshtein)->Arg(16)->Arg(64)->Arg(256);

void BM_SimilarityVector(benchmark::State& state) {
  auto ds = datagen::Generate(DatasetKind::kDblpAcm,
                              {.seed = 1, .scale = 0.02});
  auto spec = SimilaritySpec::FromTables(ds.schema(), {&ds.a, &ds.b});
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec.SimilarityVector(
        ds.a.row(i % ds.a.size()), ds.b.row(i % ds.b.size())));
    ++i;
  }
}
BENCHMARK(BM_SimilarityVector);

void BM_CachedSimilarityVector(benchmark::State& state) {
  // The digest-cached path used by S3 labeling and the rejection test.
  auto ds = datagen::Generate(DatasetKind::kDblpAcm,
                              {.seed = 1, .scale = 0.02});
  auto spec = SimilaritySpec::FromTables(ds.schema(), {&ds.a, &ds.b});
  CachedSimilarity cached(spec);
  std::vector<CachedSimilarity::Digest> da, db;
  for (const auto& r : ds.a.rows()) da.push_back(cached.MakeDigest(r));
  for (const auto& r : ds.b.rows()) db.push_back(cached.MakeDigest(r));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cached.SimilarityVector(da[i % da.size()], db[i % db.size()]));
    ++i;
  }
}
BENCHMARK(BM_CachedSimilarityVector);

// ---- Kernel-layer rows (single thread; `--kernels` selects these and ----
// ---- writes BENCH_kernels.json; see main() below).                   ----

/// Random [rows, cols] float matrix for the SGEMM/tape rows.
std::vector<float> RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> m(rows * cols);
  for (float& v : m) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return m;
}

// SGEMM shapes {m, n, k} from the transformer forward pass
// (TransformerConfig defaults d_model 32, ffn 64, max_len 64; CharVocab
// ~100 symbols): {T, d, d} attention projections, {T, ffn, d} and
// {T, d, ffn} feed-forward, {T, V, d} output projection, and one square
// shape well past the L1 tile. A training step or a full re-decode runs
// them at m = T (64 here: register tiles over A and B in place); a cached
// decode step runs them at m = 1. Calls below one register tile (m = 1,
// 3 and 5 here) take the rows path; {5, 256, 256} is the largest such
// call at a size where packing could pay off.
#define SGEMM_SHAPES            \
  Args({64, 32, 32})            \
      ->Args({64, 64, 32})      \
      ->Args({64, 100, 32})     \
      ->Args({256, 256, 256})   \
      ->Args({1, 32, 32})       \
      ->Args({1, 64, 32})       \
      ->Args({1, 32, 64})       \
      ->Args({1, 100, 32})      \
      ->Args({3, 32, 32})       \
      ->Args({3, 64, 32})       \
      ->Args({3, 32, 64})       \
      ->Args({3, 100, 32})      \
      ->Args({5, 256, 256})

void BM_SgemmReference(benchmark::State& state) {
  // The pre-kernel-layer scalar triple loop: the "before" row.
  const size_t m = state.range(0), n = state.range(1), k = state.range(2);
  auto a = RandomMatrix(m, k, 21);
  auto b = RandomMatrix(k, n, 22);
  std::vector<float> c(m * n, 0.0f);
  for (auto _ : state) {
    nn::kernels::ReferenceGemmNN(m, n, k, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_SgemmReference)->SGEMM_SHAPES;

void BM_SgemmBlocked(benchmark::State& state) {
  const size_t m = state.range(0), n = state.range(1), k = state.range(2);
  auto a = RandomMatrix(m, k, 21);
  auto b = RandomMatrix(k, n, 22);
  std::vector<float> c(m * n, 0.0f);
  for (auto _ : state) {
    nn::kernels::GemmNN(m, n, k, a.data(), b.data(), c.data(), true);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_SgemmBlocked)->SGEMM_SHAPES;

#undef SGEMM_SHAPES

void BM_SgemmAttentionScores(benchmark::State& state) {
  // One decode step's attention scores for one head, {m, len, head_dim}:
  // the query row's head slice against the cached K [len, d_model] read
  // transposed through strides (brs = 1, bcs = d_model), as
  // seq2seq/kv_cache.cc calls it; one row gathers K in place.
  const size_t m = state.range(0), len = state.range(1),
               head_dim = state.range(2), d = 2 * head_dim;
  auto q = RandomMatrix(m, d, 21);
  auto kbuf = RandomMatrix(len, d, 22);
  std::vector<float> scores(m * len, 0.0f);
  for (auto _ : state) {
    nn::kernels::GemmStrided(m, len, head_dim, q.data() + head_dim, d, 1,
                             kbuf.data() + head_dim, 1, d, scores.data(),
                             false);
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * len * head_dim);
}
BENCHMARK(BM_SgemmAttentionScores)->Args({1, 24, 16});

// The two backward GEMMs of one training MatMul (tape.cc) at the CPU-scale
// config, {m, n, k} with a 25-character sequence and d_model 32: the
// weight gradient x^T * dy (TN, a contiguous B: the unpacked tiles) and
// the input gradient dy * W^T (NT, a strided B: the packed path).
void BM_SgemmTN(benchmark::State& state) {
  const size_t m = state.range(0), n = state.range(1), k = state.range(2);
  auto at = RandomMatrix(k, m, 21);
  auto b = RandomMatrix(k, n, 22);
  std::vector<float> c(m * n, 0.0f);
  for (auto _ : state) {
    nn::kernels::GemmTN(m, n, k, at.data(), b.data(), c.data(), true);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_SgemmTN)->Args({32, 32, 25});

void BM_SgemmNT(benchmark::State& state) {
  const size_t m = state.range(0), n = state.range(1), k = state.range(2);
  auto a = RandomMatrix(m, k, 21);
  auto bt = RandomMatrix(n, k, 22);
  std::vector<float> c(m * n, 0.0f);
  for (auto _ : state) {
    nn::kernels::GemmNT(m, n, k, a.data(), bt.data(), c.data(), true);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_SgemmNT)->Args({25, 32, 32})->Args({256, 256, 256});

// GELU over one decode step's FFN activations (ffn_dim 64) and four rows
// of it.
void BM_Gelu(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(29);
  std::vector<float> x(n), out(n);
  for (float& v : x) v = static_cast<float>(rng.Uniform(-4.0, 4.0));
  for (auto _ : state) {
    nn::kernels::Gelu(n, x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Gelu)->Arg(64)->Arg(4 * 64);

// Four softmax rows of 12 / 32 / 100 columns: attention rows at short and
// long prefixes, and a vocabulary row.
void BM_SoftmaxRows(benchmark::State& state) {
  constexpr size_t kRows = 4;
  const size_t cols = static_cast<size_t>(state.range(0));
  Rng rng(31);
  std::vector<float> x(kRows * cols), out(kRows * cols);
  for (float& v : x) v = static_cast<float>(rng.Uniform(-6.0, 6.0));
  for (auto _ : state) {
    nn::kernels::SoftmaxRows(kRows, cols, x.data(), nullptr, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows * cols);
}
BENCHMARK(BM_SoftmaxRows)->Arg(12)->Arg(32)->Arg(100);

/// Entity-value-sized strings for the q-gram throughput comparison.
std::vector<std::string> QgramCorpus() {
  auto ds = datagen::Generate(DatasetKind::kDblpAcm,
                              {.seed = 5, .scale = 0.02});
  std::vector<std::string> values;
  for (const auto& r : ds.a.rows()) values.push_back(r.values[0]);
  for (const auto& r : ds.b.rows()) values.push_back(r.values[0]);
  return values;
}

void BM_QgramJaccardStrings(benchmark::State& state) {
  // The old representation: per-gram std::string sets, string-compare
  // merge. Kept (QgramSet) as the correctness reference.
  auto corpus = QgramCorpus();
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = corpus[i % corpus.size()];
    const auto& b = corpus[(i + 1) % corpus.size()];
    benchmark::DoNotOptimize(
        JaccardOfSortedSets(QgramSet(a, 3), QgramSet(b, 3)));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QgramJaccardStrings);

void BM_QgramJaccardHashed(benchmark::State& state) {
  auto corpus = QgramCorpus();
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = corpus[i % corpus.size()];
    const auto& b = corpus[(i + 1) % corpus.size()];
    benchmark::DoNotOptimize(
        JaccardOfHashedSets(HashedQgramSet(a, 3), HashedQgramSet(b, 3)));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QgramJaccardHashed);

/// dblp-acm titles and author lists: the text values a served job's climb,
/// partner vectors and discriminator see.
std::vector<std::string> DblpTextValues() {
  auto ds = datagen::Generate(DatasetKind::kDblpAcm,
                              {.seed = 5, .scale = 0.02});
  std::vector<std::string> values;
  for (const Table* t : {&ds.a, &ds.b}) {
    for (const auto& r : t->rows()) {
      values.push_back(r.values[0]);
      values.push_back(r.values[1]);
    }
  }
  return values;
}

void BM_QgramProfileJaccard(benchmark::State& state) {
  // The climb's proposal scorer: one reference, many candidates.
  const auto values = DblpTextValues();
  QgramJaccardProfile profile(values[0], 3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile.Jaccard(values[i]));
    if (++i == values.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QgramProfileJaccard);

void BM_JaccardOfHashedSets(benchmark::State& state) {
  // Partner vectors, S3 and the categorical table: two digested sets.
  const auto values = DblpTextValues();
  std::vector<std::vector<uint32_t>> sets;
  for (const auto& v : values) sets.push_back(HashedQgramSet(v, 3));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        JaccardOfHashedSets(sets[i], sets[i + 1 < sets.size() ? i + 1 : 0]));
    if (++i == sets.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JaccardOfHashedSets);

void BM_EntityEncode(benchmark::State& state) {
  // The discriminator's input: one dblp-acm entity's features.
  auto ds = datagen::Generate(DatasetKind::kDblpAcm,
                              {.seed = 5, .scale = 0.02});
  const SimilaritySpec spec =
      SimilaritySpec::FromTables(ds.schema(), {&ds.a, &ds.b});
  const EntityEncoder encoder(spec);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode(ds.a.row(i)));
    if (++i == ds.a.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntityEncode);

/// One forward/backward step of a small MLP on the tape; arg 0 selects
/// heap allocation (0) or the tensor arena (1).
void BM_TapeStep(benchmark::State& state) {
  const bool use_arena = state.range(0) != 0;
  Rng rng(31);
  nn::Linear l1(32, 64, &rng), l2(64, 32, &rng);
  auto x = nn::MakeTensor(16, 32);
  for (float& v : x->value()) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  nn::TensorArena arena;
  for (auto _ : state) {
    nn::Tape tape;
    if (use_arena) {
      arena.Reset();
      tape.set_arena(&arena);
    }
    auto h = l1.ForwardRelu(&tape, x);
    auto loss = tape.MeanAll(l2.Forward(&tape, h));
    tape.Backward(loss);
    benchmark::DoNotOptimize(loss->value()[0]);
  }
}
BENCHMARK(BM_TapeStep)->Arg(0)->Arg(1);

/// One 16-example DP-SGD lot (TrainSeq2Seq over 16 pairs, lot size 16,
/// one epoch: forward, backward and clipping per example, then the noise,
/// merge, finish and Adam step) at the CPU-scale config, dropout on. Arg
/// 0 is the pool's worker count (0 = no pool). The model keeps training
/// across iterations; its shapes, and so the work, stay the same. Each
/// call also builds its optimizer state, and with a pool one replica.
void BM_Seq2SeqTrainLot(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const std::string text =
      "adaptable query optimization and evaluation in temporal middleware "
      "generalised hash teams for join and group-by processing ";
  std::vector<std::pair<std::string, std::string>> pairs;
  for (size_t i = 0; i < 16; ++i) {
    const std::string src = text.substr(i * 7, 20 + i % 9);
    pairs.emplace_back(src, text.substr(i * 7 + 3, 18 + i % 11));
  }
  CharVocab vocab;
  vocab.Fit({text});
  TransformerConfig cfg;
  cfg.vocab_size = vocab.size();
  Rng init(43);
  TransformerSeq2Seq model(cfg, &init);
  std::unique_ptr<runtime::ThreadPool> pool;
  if (workers > 0) pool = std::make_unique<runtime::ThreadPool>(workers);
  Seq2SeqTrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = 16;
  opts.pool = pool.get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrainSeq2Seq(&model, vocab, pairs, opts));
    ++opts.seed;
  }
  state.SetItemsProcessed(state.iterations() * pairs.size());
}
BENCHMARK(BM_Seq2SeqTrainLot)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_GmmFitEM(benchmark::State& state) {
  auto data = ClusterData(static_cast<int>(state.range(0)), 3);
  GmmFitOptions opts;
  opts.num_restarts = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gmm::FitEM(data, 2, opts));
  }
}
BENCHMARK(BM_GmmFitEM)->Arg(200)->Arg(1000);

void BM_IncrementalUpdate(benchmark::State& state) {
  // Paper Eq. 8-9 path: fold a small delta into cached statistics.
  auto data = ClusterData(static_cast<int>(state.range(0)), 5);
  auto fit = Gmm::FitEM(data, 2, GmmFitOptions{});
  IncrementalGmm inc(fit.value(), data);
  auto delta_points = ClusterData(16, 7);
  for (auto _ : state) {
    auto delta = inc.ComputeDelta(delta_points);
    benchmark::DoNotOptimize(inc.PreviewModel(delta));
  }
}
BENCHMARK(BM_IncrementalUpdate)->Arg(200)->Arg(1000)->Arg(4000);

void BM_FullRecomputeBaseline(benchmark::State& state) {
  // The naive alternative: rebuild sufficient statistics from all points
  // each time an entity is added. The incremental path must win by ~n/16.
  auto data = ClusterData(static_cast<int>(state.range(0)), 5);
  auto fit = Gmm::FitEM(data, 2, GmmFitOptions{});
  auto delta_points = ClusterData(16, 7);
  for (auto _ : state) {
    std::vector<Vec> all = data;
    all.insert(all.end(), delta_points.begin(), delta_points.end());
    IncrementalGmm rebuilt(fit.value(), all);
    benchmark::DoNotOptimize(rebuilt.model());
  }
}
BENCHMARK(BM_FullRecomputeBaseline)->Arg(200)->Arg(1000)->Arg(4000);

void BM_JsdEstimate(benchmark::State& state) {
  auto data = ClusterData(400, 9);
  auto m = Gmm::FitEM(data, 2, GmmFitOptions{});
  ODistribution p(0.3, m.value(), m.value());
  ODistribution q(0.4, m.value(), m.value());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EstimateJsd(p, q, static_cast<int>(state.range(0)), 1));
  }
}
BENCHMARK(BM_JsdEstimate)->Arg(64)->Arg(256);

/// A d = 4 Gaussian fitted to ClusterData and `kPoints` draws from it,
/// dimension-major (the LogPdfBatch layout) and as per-point vectors.
struct LogPdfFixture {
  static constexpr size_t kPoints = 64;
  MultivariateGaussian gaussian;
  std::vector<Vec> points;
  std::vector<double> xs;  ///< xs[i * kPoints + j]
  LogPdfFixture() {
    auto m = Gmm::FitEM(ClusterData(400, 17), 1, GmmFitOptions{});
    gaussian = m->component(0);
    Rng rng(19);
    for (size_t j = 0; j < kPoints; ++j) {
      points.push_back(gaussian.Sample(&rng));
    }
    xs.resize(4 * kPoints);
    for (size_t j = 0; j < kPoints; ++j) {
      for (size_t i = 0; i < 4; ++i) xs[i * kPoints + j] = points[j][i];
    }
  }
};

// 64 log-densities: one LogPdfBatch call (one tile) against 64 per-point
// LogPdf calls (each the 1-point case of the same kernel).
void BM_GaussianLogPdfBatch(benchmark::State& state) {
  const LogPdfFixture f;
  std::vector<double> out(LogPdfFixture::kPoints);
  for (auto _ : state) {
    f.gaussian.LogPdfBatch(f.xs.data(), LogPdfFixture::kPoints, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * LogPdfFixture::kPoints);
}
BENCHMARK(BM_GaussianLogPdfBatch);

void BM_GaussianLogPdfPerPoint(benchmark::State& state) {
  const LogPdfFixture f;
  for (auto _ : state) {
    double total = 0.0;
    for (const Vec& x : f.points) total += f.gaussian.LogPdf(x);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * LogPdfFixture::kPoints);
}
BENCHMARK(BM_GaussianLogPdfPerPoint);

// The S2 loop's JSD shape: 160 estimates against one O_real at 192
// samples, d = 4. Arg 1 reuses one JsdEstimator (O_real's half drawn once),
// as a run does; arg 0 builds one per estimate (EstimateJsd).
void BM_JsdEstimatorReuse(benchmark::State& state) {
  auto m = Gmm::FitEM(ClusterData(400, 21), 2, GmmFitOptions{});
  auto n = Gmm::FitEM(ClusterData(400, 23), 2, GmmFitOptions{});
  const ODistribution o_real(0.3, m.value(), n.value());
  std::vector<ODistribution> o_syn;
  for (int i = 0; i < 8; ++i) {
    o_syn.emplace_back(0.2 + 0.02 * i, m.value(), n.value());
  }
  constexpr int kEstimates = 160;
  constexpr int kSamples = 192;
  const bool reuse = state.range(0) != 0;
  for (auto _ : state) {
    double total = 0.0;
    if (reuse) {
      const JsdEstimator estimator(o_real, kSamples, 7);
      for (int i = 0; i < kEstimates; ++i) {
        total += estimator.Estimate(o_syn[i % o_syn.size()]);
      }
    } else {
      for (int i = 0; i < kEstimates; ++i) {
        total += EstimateJsd(o_syn[i % o_syn.size()], o_real, kSamples, 7);
      }
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_JsdEstimatorReuse)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// One O-distribution tile of log-densities: 64 points under an M arm of 3
// and an N arm of 4 components (d = 4). An Eq. 10 JSD estimate at 192
// samples scores 576 points in such tiles.
void BM_MixtureLogSumExp(benchmark::State& state) {
  const size_t count = static_cast<size_t>(state.range(0));
  auto m = Gmm::FitEM(ClusterData(400, 29), 3, GmmFitOptions{});
  auto n = Gmm::FitEM(ClusterData(400, 31), 4, GmmFitOptions{});
  const ODistribution o(0.3, m.value(), n.value());
  Rng rng(37);
  std::vector<double> xs(4 * count);
  for (size_t j = 0; j < count; ++j) {
    o.SampleUnclampedInto(&rng, xs.data() + j, count);
  }
  std::vector<double> out(count);
  for (auto _ : state) {
    o.LogPdfBatch(xs.data(), count, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(count));
}
BENCHMARK(BM_MixtureLogSumExp)->Arg(64);

// One S2 attempt's O_syn preview: 24 partner vectors folded into a
// 4-component arm (d = 4) and its model rebuilt (IncrementalGmm::Preview).
// Arg 0 drops each preview, as a rejected attempt does; arg 1 commits it.
void BM_OSynPreview(benchmark::State& state) {
  const std::vector<Vec> data = ClusterData(200, 47);
  auto fit = Gmm::FitEM(data, 4, GmmFitOptions{});
  IncrementalGmm inc(fit.value(), data);
  const std::vector<Vec> points = ClusterData(24, 53);
  const bool commit = state.range(0) != 0;
  for (auto _ : state) {
    IncrementalGmm::Update update = inc.Preview(points.data(), points.size());
    benchmark::DoNotOptimize(update.model.get());
    if (commit) inc.Commit(std::move(update));
  }
}
BENCHMARK(BM_OSynPreview)->Arg(0)->Arg(1);

// The per-job O_syn warm-up fit's shape: FitWithAic over 16 match and 64
// non-match vectors (d = 4) with up to 3 and 4 components, serial.
void BM_EmFit(benchmark::State& state) {
  const std::vector<Vec> pos = ClusterData(16, 41);
  const std::vector<Vec> neg = ClusterData(64, 43);
  GmmFitOptions m_options;
  m_options.max_components = 3;
  GmmFitOptions n_options;
  n_options.max_components = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gmm::FitWithAic(pos, m_options));
    benchmark::DoNotOptimize(Gmm::FitWithAic(neg, n_options));
  }
}
BENCHMARK(BM_EmFit)->Unit(benchmark::kMicrosecond);

void BM_GmmSample(benchmark::State& state) {
  auto data = ClusterData(400, 11);
  auto m = Gmm::FitEM(data, 2, GmmFitOptions{});
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m->Sample(&rng));
  }
}
BENCHMARK(BM_GmmSample);

// ---- Decode rows (single thread; `--generate` selects these and      ----
// ---- writes BENCH_generate.json; see main() below). Cached vs full   ----
// ---- re-decode of one candidate, and serial vs shared-encoder        ----
// ---- batched generation of a candidate set.                          ----

/// Shared fixture for the generation rows: a random-weight model over a
/// realistic character vocabulary and a source string of the requested
/// length. Weights are untrained — decode cost depends only on shapes, and
/// random logits keep the sampled lengths honest (EOS can fire anywhere).
struct GenerateFixture {
  GenerateFixture(int src_chars, TransformerConfig cfg = {}) {
    // Default config is the library's CPU-scale default: d 32, ffn 64,
    // max_len 64.
    std::string base =
        "adaptable query optimization and evaluation in temporal middleware ";
    while (static_cast<int>(base.size()) < src_chars) base += base;
    source = base.substr(0, static_cast<size_t>(src_chars));
    vocab.Fit({base});
    cfg.vocab_size = vocab.size();
    Rng init(41);
    model = std::make_unique<TransformerSeq2Seq>(cfg, &init);
    src_ids = vocab.Encode(source);
  }
  CharVocab vocab;
  std::unique_ptr<TransformerSeq2Seq> model;
  std::string source;
  std::vector<int> src_ids;
};

void BM_GenerateFullDecode(benchmark::State& state) {
  // The reference path: every step re-decodes the whole prefix.
  GenerateFixture fx(static_cast<int>(state.range(0)));
  long steps = 0;
  for (auto _ : state) {
    Rng rng(17);  // fixed seed: identical token stream to the cached row
    GenerateStats gstats;
    benchmark::DoNotOptimize(fx.model->Generate(fx.src_ids, &rng, 1.0f,
                                                &gstats));
    steps += gstats.steps;
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_GenerateFullDecode)->Arg(24)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_GenerateKvCached(benchmark::State& state) {
  GenerateFixture fx(static_cast<int>(state.range(0)));
  long steps = 0;
  for (auto _ : state) {
    Rng rng(17);
    GenerateStats gstats;
    fx.model->GenerateBatch(
        fx.model->EncodeMemory(fx.src_ids), 1, &rng, 1.0f,
        [](int, const std::vector<int>&) { return true; }, &gstats);
    steps += gstats.steps;
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_GenerateKvCached)->Arg(24)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_GenerateCandidatesSerial(benchmark::State& state) {
  // S2's pre-batching candidate loop: re-encode the source and full
  // re-decode for each of the 4 candidates.
  GenerateFixture fx(40);
  const int candidates = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Rng rng(19);
    for (int c = 0; c < candidates; ++c) {
      benchmark::DoNotOptimize(fx.model->Generate(fx.src_ids, &rng));
    }
  }
  state.SetItemsProcessed(state.iterations() * candidates);
}
BENCHMARK(BM_GenerateCandidatesSerial)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_GenerateCandidatesBatched(benchmark::State& state) {
  // The batched path: encode once, share the memory and its cross K/V
  // across all candidates, decode each through the KV cache.
  GenerateFixture fx(40);
  const int candidates = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Rng rng(19);
    int produced = fx.model->GenerateBatch(
        fx.model->EncodeMemory(fx.src_ids), candidates, &rng, 1.0f,
        [](int, const std::vector<int>&) { return true; });
    benchmark::DoNotOptimize(produced);
  }
  state.SetItemsProcessed(state.iterations() * candidates);
}
BENCHMARK(BM_GenerateCandidatesBatched)->Arg(4)->Unit(benchmark::kMillisecond);

/// The paper's decode shape (d_model 256, 8 heads, 3 layers; DESIGN.md
/// substitution table). No shipped workload decodes at it; the row below
/// keeps the cost of a paper-scale decode on record.
TransformerConfig PaperScaleConfig() {
  TransformerConfig cfg;
  cfg.d_model = 256;
  cfg.num_heads = 8;
  cfg.num_layers = 3;
  cfg.ffn_dim = 512;
  return cfg;
}

void BM_GenerateCandidatesServing(benchmark::State& state) {
  // The candidate decode S2 runs (GenerateBatch: encode once, then each
  // candidate through the KV cache on the shared stream) at the
  // paper-scale config, so compare these rows only with each other.
  //
  // bytes_per_second is decoder weight traffic: the fp32 payload of the
  // per-step projections (self wq/wk/wv/wo, cross wq/wo, ffn1/ffn2 per
  // layer) times decode steps.
  GenerateFixture fx(40, PaperScaleConfig());
  const TransformerConfig& cfg = fx.model->config();
  const std::size_t d = static_cast<std::size_t>(cfg.d_model);
  const std::size_t f = static_cast<std::size_t>(cfg.ffn_dim);
  const std::size_t step_bytes = static_cast<std::size_t>(cfg.num_layers) *
                                 (6 * d * d + 2 * d * f) * sizeof(float);
  const int candidates = static_cast<int>(state.range(0));
  long steps = 0;
  for (auto _ : state) {
    Rng rng(19);
    GenerateStats gstats;
    int produced = fx.model->GenerateBatch(
        fx.model->EncodeMemory(fx.src_ids), candidates, &rng, 1.0f,
        [](int, const std::vector<int>&) { return true; }, &gstats);
    benchmark::DoNotOptimize(produced);
    steps += gstats.steps;
  }
  state.SetItemsProcessed(state.iterations() * candidates);
  state.SetBytesProcessed(steps * static_cast<long>(step_bytes));
}
BENCHMARK(BM_GenerateCandidatesServing)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---- Observability rows: instrumentation-site cost with the registry ----
// ---- off (null pointers, the default) vs on. The disabled rows must  ----
// ---- be indistinguishable from uninstrumented code (< 2% on any hot  ----
// ---- path; here they measure the per-site cost directly).            ----

/// The shape of a typical instrumented hot-path site: a counter bump, a
/// value observation, and a trace span, wrapped around a unit of real
/// work (one cheap similarity computation) so the ratio of the two rows
/// reflects overhead relative to actual work, not empty-loop time.
void BM_ObsSite(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* reg = enabled ? &registry : nullptr;
  obs::Counter* counter = obs::GetCounter(reg, "bench.site_calls");
  obs::Histogram* hist =
      obs::GetHistogram(reg, "bench.site_value", obs::LinearBounds(0, 1, 8));
  std::string a = "privacy preserving entity resolution";
  std::string b = "privacy preserving entity resolution datasets";
  for (auto _ : state) {
    obs::TraceSpan span(reg, "bench.site");
    double sim = QgramJaccard(a, b, 3);
    obs::Inc(counter);
    obs::Observe(hist, sim);
    benchmark::DoNotOptimize(sim);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSite)->Arg(0)->Arg(1);

/// Pure per-call cost of the null-registry (disabled) instrumentation
/// helpers, with no real work in the loop: three pointer tests and a
/// dead TraceSpan per iteration.
void BM_ObsDisabledRaw(benchmark::State& state) {
  obs::Counter* counter = obs::GetCounter(nullptr, "bench.raw_calls");
  obs::Histogram* hist =
      obs::GetHistogram(nullptr, "bench.raw_value", obs::LinearBounds(0, 1, 8));
  double v = 0.25;
  for (auto _ : state) {
    obs::TraceSpan span(nullptr, "bench.raw");
    obs::Inc(counter);
    obs::Observe(hist, v);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsDisabledRaw);

// ---- Parallel runtime rows: same work at 1 thread and at N threads. ----
// The trailing benchmark arg is the executor count; results must be
// bit-identical across rows (the runtime's determinism contract), only
// wall time may differ.

void BM_ParallelBatchSimilarity(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  auto ds = datagen::Generate(DatasetKind::kDblpAcm,
                              {.seed = 1, .scale = 0.04});
  auto spec = SimilaritySpec::FromTables(ds.schema(), {&ds.a, &ds.b});
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < ds.a.size() && pairs.size() < 4000; ++i) {
    for (size_t j = 0; j < ds.b.size() && pairs.size() < 4000; ++j) {
      pairs.emplace_back(i, j);
    }
  }
  auto pool = MakePool(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        spec.BatchSimilarityVectors(ds.a, ds.b, pairs, pool.get()));
  }
}
BENCHMARK(BM_ParallelBatchSimilarity)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelGmmFitWithAic(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  auto data = ClusterData(1000, 3);
  auto pool = MakePool(threads);
  GmmFitOptions opts;
  opts.num_restarts = 1;
  opts.pool = pool.get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gmm::FitWithAic(data, opts));
  }
}
BENCHMARK(BM_ParallelGmmFitWithAic)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelJsdEstimate(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  auto data = ClusterData(400, 9);
  auto m = Gmm::FitEM(data, 2, GmmFitOptions{});
  ODistribution p(0.3, m.value(), m.value());
  ODistribution q(0.4, m.value(), m.value());
  auto pool = MakePool(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateJsd(p, q, 4096, 1, pool.get()));
  }
}
BENCHMARK(BM_ParallelJsdEstimate)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace serd

int main(int argc, char** argv) {
  // Console table for humans plus BENCH_micro.json for tooling: default
  // the --benchmark_out flags unless the caller overrides them.
  //
  // `--kernels` (or a non-empty SERD_BENCH_KERNELS env var) runs only the
  // kernel-layer rows (SGEMM reference vs blocked, string vs hashed
  // q-grams, heap vs arena tape steps, GELU, softmax) and writes
  // BENCH_kernels.json instead, so the single-thread kernel numbers live in
  // their own file.
  //
  // `--generate` (or SERD_BENCH_GENERATE) likewise selects the decode
  // rows (KV-cached vs full re-decode, batched vs serial candidate
  // generation) and writes BENCH_generate.json.
  serd::bench::RequireReleaseBuild("bench_micro");
  auto env_set = [](const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && std::string(v) != "";
  };
  std::vector<char*> args;
  args.push_back(argv[0]);
  bool kernels_only = env_set("SERD_BENCH_KERNELS");
  bool generate_only = env_set("SERD_BENCH_GENERATE");
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--kernels") {
      kernels_only = true;
      continue;
    }
    if (std::string(argv[i]) == "--generate") {
      generate_only = true;
      continue;
    }
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
    args.push_back(argv[i]);
  }
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  if (kernels_only) out_flag = "--benchmark_out=BENCH_kernels.json";
  if (generate_only) out_flag = "--benchmark_out=BENCH_generate.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  std::string filter_flag =
      "--benchmark_filter=Sgemm|QgramJaccard(Strings|Hashed)|TapeStep|Gelu|"
      "SoftmaxRows";
  if (generate_only) filter_flag = "--benchmark_filter=Generate";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  if (kernels_only || generate_only) {
    args.push_back(filter_flag.data());
  }
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  // google-benchmark's own "library_build_type" context describes the
  // *benchmark library* (the distro package ships a non-NDEBUG build);
  // what provenance needs is how the serd code under test was compiled.
  benchmark::AddCustomContext("serd_build_type", serd::bench::BenchBuildType());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
