#include "nn/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nn/arena.h"
#include "nn/tape.h"
#include "nn/tensor.h"

namespace serd::nn {
namespace {

namespace k = kernels;

std::vector<float> RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  std::vector<float> m(rows * cols);
  for (float& v : m) {
    v = static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
  return m;
}

/// Scalar triple loop over logical A[m,k] (strides ars/acs) and B[k,n]
/// (strides brs/bcs) — the oracle for every Gemm variant.
std::vector<float> NaiveGemm(size_t m, size_t n, size_t kk, const float* a,
                             size_t ars, size_t acs, const float* b,
                             size_t brs, size_t bcs,
                             const std::vector<float>& c_init) {
  std::vector<float> c = c_init;
  for (size_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < kk; ++p) {
      float av = a[i * ars + p * acs];
      for (size_t j = 0; j < n; ++j) {
        c[i * n + j] += av * b[p * brs + j * bcs];
      }
    }
  }
  return c;
}

void ExpectNear(const std::vector<float>& got, const std::vector<float>& want,
                float tol) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol) << "at index " << i;
  }
}

// Shapes chosen to cover full tiles, partial edge tiles in both m and n,
// k larger and smaller than the KC block, and degenerate vectors.
struct Shape {
  size_t m, n, k;
};
const Shape kShapes[] = {{1, 1, 1},    {3, 5, 7},    {16, 16, 16},
                         {17, 31, 13}, {6, 16, 300}, {64, 48, 24},
                         {1, 97, 11},  {33, 1, 29},  {130, 70, 257}};

TEST(KernelsTest, GemmNNMatchesReference) {
  Rng rng(11);
  for (const auto& s : kShapes) {
    auto a = RandomMatrix(s.m, s.k, &rng);
    auto b = RandomMatrix(s.k, s.n, &rng);
    std::vector<float> want(s.m * s.n, 0.0f);
    k::ReferenceGemmNN(s.m, s.n, s.k, a.data(), b.data(), want.data());
    std::vector<float> got(s.m * s.n, 0.0f);
    k::GemmNN(s.m, s.n, s.k, a.data(), b.data(), got.data(), false);
    ExpectNear(got, want, 1e-5f * static_cast<float>(s.k));
  }
}

TEST(KernelsTest, GemmNNAccumulateAddsOntoC) {
  Rng rng(12);
  const size_t m = 17, n = 19, kk = 23;
  auto a = RandomMatrix(m, kk, &rng);
  auto b = RandomMatrix(kk, n, &rng);
  auto c0 = RandomMatrix(m, n, &rng);
  auto want = NaiveGemm(m, n, kk, a.data(), kk, 1, b.data(), n, 1, c0);
  auto got = c0;
  k::GemmNN(m, n, kk, a.data(), b.data(), got.data(), true);
  ExpectNear(got, want, 1e-4f);
}

TEST(KernelsTest, GemmNNOverwriteIgnoresGarbageInC) {
  Rng rng(13);
  const size_t m = 9, n = 33, kk = 500;  // k spans multiple KC blocks
  auto a = RandomMatrix(m, kk, &rng);
  auto b = RandomMatrix(kk, n, &rng);
  auto want = NaiveGemm(m, n, kk, a.data(), kk, 1, b.data(), n, 1,
                        std::vector<float>(m * n, 0.0f));
  std::vector<float> got(m * n, 1e30f);
  k::GemmNN(m, n, kk, a.data(), b.data(), got.data(), false);
  ExpectNear(got, want, 1e-3f);
}

TEST(KernelsTest, GemmNTMatchesNaive) {
  Rng rng(14);
  for (const auto& s : kShapes) {
    auto a = RandomMatrix(s.m, s.k, &rng);
    auto bt = RandomMatrix(s.n, s.k, &rng);  // B stored [n, k]
    auto want = NaiveGemm(s.m, s.n, s.k, a.data(), s.k, 1, bt.data(), 1, s.k,
                          std::vector<float>(s.m * s.n, 0.0f));
    std::vector<float> got(s.m * s.n, 0.0f);
    k::GemmNT(s.m, s.n, s.k, a.data(), bt.data(), got.data(), true);
    ExpectNear(got, want, 1e-5f * static_cast<float>(s.k));
  }
}

TEST(KernelsTest, GemmTNMatchesNaive) {
  Rng rng(15);
  for (const auto& s : kShapes) {
    auto at = RandomMatrix(s.k, s.m, &rng);  // A stored [k, m]
    auto b = RandomMatrix(s.k, s.n, &rng);
    auto want = NaiveGemm(s.m, s.n, s.k, at.data(), 1, s.m, b.data(), s.n, 1,
                          std::vector<float>(s.m * s.n, 0.0f));
    std::vector<float> got(s.m * s.n, 0.0f);
    k::GemmTN(s.m, s.n, s.k, at.data(), b.data(), got.data(), true);
    ExpectNear(got, want, 1e-5f * static_cast<float>(s.k));
  }
}

TEST(KernelsTest, GemmIsDeterministicAcrossCalls) {
  Rng rng(16);
  const size_t m = 48, n = 40, kk = 96;
  auto a = RandomMatrix(m, kk, &rng);
  auto b = RandomMatrix(kk, n, &rng);
  std::vector<float> c1(m * n, 0.0f), c2(m * n, 0.0f);
  k::GemmNN(m, n, kk, a.data(), b.data(), c1.data(), false);
  k::GemmNN(m, n, kk, a.data(), b.data(), c2.data(), false);
  EXPECT_EQ(c1, c2);  // bit-identical, not merely close
}

/// Runs rows [r0, r0 + m) of a kFullRows-row strided product as calls of
/// their own, m = 1..5 (fewer rows than a register tile: the unpacked
/// path, except a strided B at two or more rows), and checks each against the same rows of the full, tiled call
/// bit for bit. `a` addresses row 0 of the full A; C starts non-zero so
/// `accumulate` matters.
constexpr size_t kFullRows = 13;

void ExpectShortCallsMatchFullRows(size_t n, size_t kk, const float* a,
                                   size_t ars, size_t acs, const float* b,
                                   size_t brs, size_t bcs, bool accumulate,
                                   Rng* rng) {
  const auto c0 = RandomMatrix(kFullRows, n, rng);
  std::vector<float> full = c0;
  k::GemmStrided(kFullRows, n, kk, a, ars, acs, b, brs, bcs, full.data(),
                 accumulate);
  for (size_t m = 1; m <= 5; ++m) {
    for (size_t r0 : {size_t{0}, kFullRows - m}) {
      std::vector<float> part(c0.begin() + r0 * n,
                              c0.begin() + (r0 + m) * n);
      k::GemmStrided(m, n, kk, a + r0 * ars, ars, acs, b, brs, bcs,
                     part.data(), accumulate);
      for (size_t e = 0; e < m * n; ++e) {
        EXPECT_EQ(part[e], full[r0 * n + e])
            << "m=" << m << " rows from " << r0 << " n=" << n << " k=" << kk
            << " accumulate=" << accumulate << " at row " << e / n
            << " col " << e % n;
        if (part[e] != full[r0 * n + e]) return;
      }
    }
  }
}

TEST(KernelsTest, ShortCallsMatchTiledRowsBitwise) {
  Rng rng(17);
  // kShapes' (n, k) pairs, k straddling the KC block (256), and one n
  // past the NC block (1024).
  std::vector<std::pair<size_t, size_t>> nk;
  for (const auto& s : kShapes) nk.emplace_back(s.n, s.k);
  for (size_t kk : {255, 256, 257, 513}) {
    for (size_t n : {8, 32, 100}) nk.emplace_back(n, kk);
  }
  nk.emplace_back(1030, 20);
  for (const auto& [n, kk] : nk) {
    for (bool accumulate : {false, true}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(kk) +
                   " accumulate=" + std::to_string(accumulate));
      const auto a = RandomMatrix(kFullRows, kk, &rng);  // NN/NT A [13, k]
      const auto at = RandomMatrix(kk, kFullRows, &rng);  // TN A [k, 13]
      const auto b = RandomMatrix(kk, n, &rng);           // B [k, n]
      const auto bt = RandomMatrix(n, kk, &rng);          // B stored [n, k]
      {
        SCOPED_TRACE("NN");
        ExpectShortCallsMatchFullRows(n, kk, a.data(), kk, 1, b.data(), n, 1,
                                      accumulate, &rng);
      }
      {
        SCOPED_TRACE("NT");
        ExpectShortCallsMatchFullRows(n, kk, a.data(), kk, 1, bt.data(), 1,
                                      kk, accumulate, &rng);
      }
      {
        SCOPED_TRACE("TN");
        ExpectShortCallsMatchFullRows(n, kk, at.data(), 1, kFullRows,
                                      b.data(), n, 1, accumulate, &rng);
      }
    }
  }
  // The attention layouts of seq2seq/kv_cache.cc: q rows [13, d] read as
  // head-column slices (ars = d), cached K [len, d] read transposed
  // (brs = 1, bcs = d) by the score GEMM, cached V read directly
  // (brs = d) by the mix GEMM over scores [13, len].
  const size_t d = 32, head_dim = 16;
  for (size_t len : {1, 7, 40, 64}) {
    for (bool accumulate : {false, true}) {
      SCOPED_TRACE("len=" + std::to_string(len) +
                   " accumulate=" + std::to_string(accumulate));
      const auto q = RandomMatrix(kFullRows, d, &rng);
      const auto kbuf = RandomMatrix(len, d, &rng);
      const auto vbuf = RandomMatrix(len, d, &rng);
      const auto scores = RandomMatrix(kFullRows, len, &rng);
      for (size_t off : {size_t{0}, head_dim}) {
        SCOPED_TRACE("head offset " + std::to_string(off));
        ExpectShortCallsMatchFullRows(len, head_dim, q.data() + off, d, 1,
                                      kbuf.data() + off, 1, d, accumulate,
                                      &rng);
        ExpectShortCallsMatchFullRows(head_dim, len, scores.data(), len, 1,
                                      vbuf.data() + off, d, 1, accumulate,
                                      &rng);
      }
    }
  }
}

TEST(KernelsTest, SoftmaxRowsNormalizesAndAppliesMask) {
  const size_t rows = 2, cols = 3;
  std::vector<float> x = {1.0f, 2.0f, 3.0f, 0.0f, 0.0f, 0.0f};
  std::vector<float> mask = {0.0f, 0.0f, -1e9f, 0.0f, 0.0f, 0.0f};
  std::vector<float> out(rows * cols);
  k::SoftmaxRows(rows, cols, x.data(), mask.data(), out.data());
  for (size_t r = 0; r < rows; ++r) {
    float sum = 0.0f;
    for (size_t c = 0; c < cols; ++c) sum += out[r * cols + c];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  EXPECT_NEAR(out[2], 0.0f, 1e-6f);           // masked logit
  EXPECT_NEAR(out[3], 1.0f / 3.0f, 1e-5f);    // uniform row
}

uint32_t FloatBits(float x) {
  uint32_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

float BitsFloat(uint32_t b) {
  float x;
  std::memcpy(&x, &b, sizeof(x));
  return x;
}

/// Every `stride`-th float of [lo, hi] (lo < 0 < hi) by bit pattern, plus
/// the boundary values of Exp's clamp and cutoff.
std::vector<float> FloatSweep(float lo, float hi, uint32_t stride) {
  std::vector<float> xs;
  for (uint32_t b = FloatBits(-lo);; b -= stride) {
    xs.push_back(-BitsFloat(b));
    if (b < stride) break;
  }
  for (uint32_t b = 0; b <= FloatBits(hi); b += stride) {
    xs.push_back(BitsFloat(b));
  }
  for (float x : {-87.0f, 88.0f, 0.0f, -0.0f, 1.0f, -1.0f}) {
    xs.push_back(x);
    xs.push_back(std::nextafter(x, -1000.0f));
    xs.push_back(std::nextafter(x, 1000.0f));
  }
  xs.push_back(-1e9f);
  xs.push_back(-1e30f);
  xs.push_back(1e30f);
  return xs;
}

TEST(KernelsTest, ExpMatchesReferenceBitwise) {
  const std::vector<float> xs = FloatSweep(-110.0f, 89.0f, 4099);
  std::vector<float> out(xs.size());
  k::Exp(xs.size(), xs.data(), out.data());
  for (size_t i = 0; i < xs.size(); ++i) {
    const float x = xs[i];
    ASSERT_EQ(FloatBits(out[i]), FloatBits(k::ReferenceExp(x))) << "x=" << x;
    ASSERT_TRUE(std::isfinite(out[i])) << "x=" << x;
    if (x < -87.0f) {
      ASSERT_EQ(FloatBits(out[i]), 0u) << "x=" << x;  // exactly +0
    } else if (x <= 88.0f) {
      const double want = std::exp(static_cast<double>(x));
      const float near = static_cast<float>(want);
      const double ulp =
          static_cast<double>(std::nextafter(
              near, std::numeric_limits<float>::infinity())) -
          static_cast<double>(near);
      ASSERT_LE(std::fabs(static_cast<double>(out[i]) - want), 2.0 * ulp)
          << "x=" << x;
    }
  }
}

TEST(KernelsTest, SoftmaxAndGeluArePositionFree) {
  Rng rng(91);
  constexpr size_t kLong = 40;
  std::vector<float> x(kLong), dy(kLong), dx0(kLong);
  for (size_t i = 0; i < kLong; ++i) {
    x[i] = static_cast<float>(rng.Uniform(-12.0, 12.0));
    dy[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    dx0[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  // One long call per kernel; every shorter call at every offset must
  // reproduce its elements.
  std::vector<float> exp_all(kLong), gelu_all(kLong), grad_all = dx0;
  k::Exp(kLong, x.data(), exp_all.data());
  k::Gelu(kLong, x.data(), gelu_all.data());
  k::GeluGrad(kLong, x.data(), dy.data(), grad_all.data());
  for (size_t n = 1; n <= 17; ++n) {
    for (size_t off = 0; off <= 7; ++off) {
      SCOPED_TRACE("n=" + std::to_string(n) + " off=" + std::to_string(off));
      std::vector<float> e(n), g(n);
      std::vector<float> grad(dx0.begin() + off, dx0.begin() + off + n);
      k::Exp(n, x.data() + off, e.data());
      k::Gelu(n, x.data() + off, g.data());
      k::GeluGrad(n, x.data() + off, dy.data() + off, grad.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(FloatBits(e[i]), FloatBits(exp_all[off + i]));
        EXPECT_EQ(FloatBits(g[i]), FloatBits(gelu_all[off + i]));
        EXPECT_EQ(FloatBits(grad[i]), FloatBits(grad_all[off + i]));
      }

      // A softmax row of n logits, read from offset `off`, against the
      // same row padded with off + 1 masked (-1e9) entries: exact zeros
      // there, the same bits elsewhere.
      const float* row = x.data() + off;
      std::vector<float> plain(n);
      k::SoftmaxRows(1, n, row, nullptr, plain.data());
      const size_t padded_n = n + off + 1;
      std::vector<float> padded_x(padded_n, 0.5f), mask(padded_n, 0.0f);
      std::copy(row, row + n, padded_x.begin());
      for (size_t c = n; c < padded_n; ++c) mask[c] = -1e9f;
      std::vector<float> padded(padded_n);
      k::SoftmaxRows(1, padded_n, padded_x.data(), mask.data(), padded.data());
      for (size_t c = 0; c < n; ++c) {
        EXPECT_EQ(FloatBits(padded[c]), FloatBits(plain[c]));
      }
      for (size_t c = n; c < padded_n; ++c) {
        EXPECT_EQ(FloatBits(padded[c]), 0u);
      }

      // Rows of an m-row call equal 1-row calls.
      constexpr size_t kRows = 3;
      std::vector<float> block(kRows * n);
      for (size_t r = 0; r < kRows; ++r) {
        for (size_t c = 0; c < n; ++c) {
          block[r * n + c] = x[(r * 7 + c) % kLong];
        }
      }
      std::vector<float> all(kRows * n), one(n);
      k::SoftmaxRows(kRows, n, block.data(), nullptr, all.data());
      for (size_t r = 0; r < kRows; ++r) {
        k::SoftmaxRows(1, n, block.data() + r * n, nullptr, one.data());
        for (size_t c = 0; c < n; ++c) {
          EXPECT_EQ(FloatBits(all[r * n + c]), FloatBits(one[c]));
        }
      }
    }
  }
}

TEST(KernelsTest, GeluMatchesTanhFormInDouble) {
  // The reference is 0.5 v (1 + tanh u) in double. For v < 0 the value
  // decays towards 0 while the float rounding of u alone moves it by about
  // |u| ulp relative, so the bound is relative to max(1, |ref|).
  const std::vector<float> vs = FloatSweep(-12.0f, 12.0f, 997);
  std::vector<float> got(vs.size());
  k::Gelu(vs.size(), vs.data(), got.data());
  std::vector<float> ones(vs.size(), 1.0f), grad(vs.size(), 0.0f);
  k::GeluGrad(vs.size(), vs.data(), ones.data(), grad.data());
  for (size_t i = 0; i < vs.size(); ++i) {
    const double v = vs[i];
    if (std::fabs(v) > 12.0) continue;
    const double c = std::sqrt(2.0 / M_PI);
    const double u = c * (v + 0.044715 * v * v * v);
    const double t = std::tanh(u);
    const double want = 0.5 * v * (1.0 + t);
    ASSERT_LE(std::fabs(got[i] - want), 5e-7 * std::max(1.0, std::fabs(want)))
        << "v=" << v;
    const double du = c * (1.0 + 3.0 * 0.044715 * v * v);
    const double want_grad = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du;
    ASSERT_LE(std::fabs(grad[i] - want_grad),
              2e-6 * std::max(1.0, std::fabs(want_grad)))
        << "v=" << v;
  }
}

TEST(KernelsTest, BiasReluMatchesScalar) {
  Rng rng(17);
  const size_t rows = 5, cols = 13;
  auto x = RandomMatrix(rows, cols, &rng);
  auto bias = RandomMatrix(1, cols, &rng);
  std::vector<float> out(rows * cols);
  k::BiasRelu(rows, cols, x.data(), bias.data(), out.data());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      float want = std::max(0.0f, x[r * cols + c] + bias[c]);
      EXPECT_FLOAT_EQ(out[r * cols + c], want);
    }
  }
}

TEST(KernelsTest, LayerNormRowsNormalizes) {
  Rng rng(18);
  const size_t rows = 4, cols = 16;
  auto x = RandomMatrix(rows, cols, &rng);
  std::vector<float> gamma(cols, 1.0f), beta(cols, 0.0f);
  std::vector<float> out(rows * cols);
  k::LayerNormRows(rows, cols, x.data(), gamma.data(), beta.data(), 1e-5f,
                   out.data(), nullptr, nullptr);
  for (size_t r = 0; r < rows; ++r) {
    float mean = 0.0f, var = 0.0f;
    for (size_t c = 0; c < cols; ++c) mean += out[r * cols + c];
    mean /= cols;
    for (size_t c = 0; c < cols; ++c) {
      float d = out[r * cols + c] - mean;
      var += d * d;
    }
    var /= cols;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

// ----------------------------------------------------------------- arena

TEST(ArenaTest, ReusesTensorsAfterReset) {
  TensorArena arena;
  TensorPtr t0 = arena.Allocate(4, 8);
  Tensor* raw = t0.get();
  t0.reset();  // drop our reference so the slot is reusable
  EXPECT_EQ(arena.pooled(), 1u);
  arena.Reset();
  TensorPtr t1 = arena.Allocate(2, 3);
  EXPECT_EQ(t1.get(), raw);  // same tensor, recycled
  EXPECT_EQ(t1->rows(), 2u);
  EXPECT_EQ(t1->cols(), 3u);
  for (float v : t1->value()) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(arena.pooled(), 1u);
}

TEST(ArenaTest, EscapedTensorIsLeftToItsOwner) {
  TensorArena arena;
  TensorPtr kept = arena.Allocate(3, 3);
  kept->value()[0] = 42.0f;
  arena.Reset();
  // `kept` is still referenced here, so reuse must hand out a different
  // tensor and leave `kept` untouched.
  TensorPtr fresh = arena.Allocate(3, 3);
  EXPECT_NE(fresh.get(), kept.get());
  EXPECT_EQ(kept->value()[0], 42.0f);
}

TEST(ArenaTest, SteadyStatePoolSizeIsStable) {
  TensorArena arena;
  size_t after_first = 0;
  for (int step = 0; step < 5; ++step) {
    arena.Reset();
    std::vector<TensorPtr> live;
    for (int i = 0; i < 10; ++i) {
      live.push_back(arena.Allocate(8, 8));
    }
    live.clear();
    if (step == 0) after_first = arena.pooled();
    EXPECT_EQ(arena.pooled(), after_first);
  }
  EXPECT_EQ(after_first, 10u);
}

TEST(ArenaTest, TapeOnArenaMatchesHeapTape) {
  // The same graph computed with and without an arena must produce
  // bit-identical values and gradients.
  Rng rng(19);
  auto x = MakeTensor(4, 6);
  auto w = MakeTensor(6, 3);
  for (float& v : x->value()) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& v : w->value()) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  x->EnsureGrad();
  w->EnsureGrad();

  auto run = [&](TensorArena* arena) {
    x->ZeroGrad();
    w->ZeroGrad();
    Tape tape;
    if (arena != nullptr) {
      arena->Reset();
      tape.set_arena(arena);
    }
    TensorPtr y = tape.Relu(tape.MatMul(x, w));
    TensorPtr loss = tape.MeanAll(y);
    tape.Backward(loss);
    return std::make_pair(loss->value()[0], w->grad());
  };

  auto [loss_heap, grad_heap] = run(nullptr);
  TensorArena arena;
  auto [loss_arena, grad_arena] = run(&arena);
  // Run twice on the arena: the second pass reuses pooled tensors.
  auto [loss_arena2, grad_arena2] = run(&arena);
  EXPECT_EQ(loss_heap, loss_arena);
  EXPECT_EQ(grad_heap, grad_arena);
  EXPECT_EQ(loss_heap, loss_arena2);
  EXPECT_EQ(grad_heap, grad_arena2);
}

}  // namespace
}  // namespace serd::nn
