#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/cpu.h"

#if SERD_X86_DISPATCH
#include <immintrin.h>
#endif

namespace serd::nn::kernels {

namespace {

// Cache blocking (floats), shared by every ISA variant: a KC x NR strip of
// B (~8-16 KB) stays in L1 across an MC-row sweep, an MC x KC block of A
// (~128 KB) in L2. The transformer-scale GEMMs here (T, d_model, ffn_dim
// <= a few hundred) usually fit in one block; the outer loops only matter
// for the larger vocab-projection and batch matmuls.
constexpr std::size_t kMc = 128;
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 1024;

// The GEMM core (B packing, the register tiles and the rows path,
// kernels_gemm.inc) is instantiated once per register-tile/ISA variant.
// A tile keeps an MR x NR float accumulator live across a KC block; with
// 256-bit vectors each row maps to NR/8 ymm registers (6x16 = 12
// accumulator ymms), with plain SSE2 the narrower 4x8 tile avoids spills.

namespace portable {
#if defined(__AVX__)
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;
#else
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;
#endif
#include "nn/kernels_gemm.inc"
}  // namespace portable

#if SERD_X86_DISPATCH
// Runtime-dispatched clone for AVX2+FMA hosts: the baseline (SSE2) build
// still reaches fused 256-bit arithmetic where the CPU has it. The
// selection is a per-process constant, so results remain bit-identical
// across runs and thread counts on a given machine; as with SERD_NATIVE,
// different ISAs may round differently (FMA contraction) between
// machines.
#pragma GCC push_options
#pragma GCC target("avx2,fma")
namespace avx2 {
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;
#define SERD_GEMM_USE_AVX2_MICROKERNEL 1
#include "nn/kernels_gemm.inc"
#undef SERD_GEMM_USE_AVX2_MICROKERNEL
}  // namespace avx2
#pragma GCC pop_options

/// The GEMM's clone runs on AVX2 + FMA hosts, and Exp's with it.
bool UseAvx2() { return cpu::X86().avx2 && cpu::X86().fma; }
#endif  // SERD_X86_DISPATCH

// Exp (Cephes expf form). Inputs are clamped to [kExpLo, kExpHi]; below
// kExpLo the result is replaced by +0. n = round(x log2 e) comes from the
// 1.5 * 2^23 shifter: adding it leaves n in the low mantissa bits, and
// subtracting it back gives n as a float, both exact for |n| <= 127.
// r = x - n ln 2 in two parts (kLn2Hi has few enough bits that n * kLn2Hi
// is exact), then exp(r) ~ 1 + r + r^2 P(r) and 2^n is put together from
// its exponent bits. kExpHi keeps n <= 127 and the result finite; kExpLo
// keeps n >= -126 and the result a normal float.
constexpr float kExpLo = -87.0f;
constexpr float kExpHi = 88.0f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kShifter = 12582912.0f;  // 1.5 * 2^23
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

#if SERD_X86_DISPATCH
// The Exp clone is compiled for AVX2 *without* FMA: in an "avx2,fma"
// region GCC contracts the multiply-adds below into FMAs, which round
// differently from the portable body. The same two rules as the GEMM clone
// hold: internal linkage and no standard-library templates in the region.
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2_exp {

/// Eight lanes of ReferenceExp, operation for operation: the min/max
/// operand order and the ordered compare match its selects, NaN included.
inline __m256 Exp8(__m256 x) {
  __m256 xc = _mm256_min_ps(_mm256_set1_ps(kExpHi), x);
  xc = _mm256_max_ps(_mm256_set1_ps(kExpLo), xc);
  const __m256 shifter = _mm256_set1_ps(kShifter);
  const __m256 v =
      _mm256_add_ps(_mm256_mul_ps(xc, _mm256_set1_ps(kLog2e)), shifter);
  const __m256 nf = _mm256_sub_ps(v, shifter);
  const __m256i n = _mm256_sub_epi32(_mm256_castps_si256(v),
                                     _mm256_castps_si256(shifter));
  const __m256 scale = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23));
  __m256 r = _mm256_sub_ps(xc, _mm256_mul_ps(nf, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(nf, _mm256_set1_ps(kLn2Lo)));
  const __m256 z = _mm256_mul_ps(r, r);
  __m256 p = _mm256_set1_ps(kExpP0);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP5));
  const __m256 y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, z), r),
                                 _mm256_set1_ps(1.0f));
  const __m256 under =
      _mm256_cmp_ps(x, _mm256_set1_ps(kExpLo), _CMP_LT_OQ);
  return _mm256_andnot_ps(under, _mm256_mul_ps(y, scale));
}

/// Lane masks for a tail of r < 8 elements: kTailMask + 8 - r holds r
/// all-ones lanes followed by zeros.
constexpr int kTailMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                               0,  0,  0,  0,  0,  0,  0,  0};

void Exp(std::size_t n, const float* x, float* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, Exp8(_mm256_loadu_ps(x + i)));
  }
  if (i == n) return;
  // The tail is padded (masked load: zeros) into one full vector, so its
  // elements take the same arithmetic as every other lane; the masked
  // store writes back only the tail (a copy through a stack buffer
  // measured about 35 ns more per call).
  const __m256i mask = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + 8 - (n - i)));
  _mm256_maskstore_ps(out + i, mask, Exp8(_mm256_maskload_ps(x + i, mask)));
}

}  // namespace avx2_exp
#pragma GCC pop_options
#endif  // SERD_X86_DISPATCH

constexpr float kGeluC = 0.7978845608f;  // sqrt(2/pi)

/// u = sqrt(2/pi) (v + 0.044715 v^3), the tanh-GELU argument.
inline float GeluArg(float v) {
  return kGeluC * (v + 0.044715f * v * v * v);
}

/// Elements per Gelu/GeluGrad chunk: exp(-2u) is staged in a stack buffer
/// of this many floats and handed to Exp in one call.
constexpr std::size_t kGeluChunk = 64;

}  // namespace

/// Shared blocked driver: sizes the thread-local scratch for a strided B
/// (no allocation after warmup; never shared, one model replica per
/// thread) and hands off to the ISA variant, which picks the rows path or
/// the tiles from the call's shape. Strides as in GemmStridedImpl.
void GemmStrided(std::size_t m, std::size_t n, std::size_t k, const float* a,
                 std::size_t ars, std::size_t acs, const float* b,
                 std::size_t brs, std::size_t bcs, float* c,
                 bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) {
      for (std::size_t i = 0; i < m * n; ++i) c[i] = 0.0f;
    }
    return;
  }
  thread_local std::vector<float> bpack;
  // Pad the block width so the scratch covers every variant's panel
  // rounding (ceil to NR <= 16). Only a strided B is packed.
  if (bcs != 1) {
    const std::size_t kc_max = std::min(kKc, k);
    const std::size_t nc_pad = std::min(kNc, n) + 16;
    if (bpack.size() < kc_max * nc_pad) bpack.resize(kc_max * nc_pad);
  }
#if SERD_X86_DISPATCH
  if (UseAvx2()) {
    avx2::GemmStridedImpl(m, n, k, a, ars, acs, b, brs, bcs, c, accumulate,
                          bpack.data());
    return;
  }
#endif
  portable::GemmStridedImpl(m, n, k, a, ars, acs, b, brs, bcs, c, accumulate,
                            bpack.data());
}

void GemmNN(std::size_t m, std::size_t n, std::size_t k, const float* a,
            const float* b, float* c, bool accumulate) {
  GemmStrided(m, n, k, a, k, 1, b, n, 1, c, accumulate);
}

void GemmNT(std::size_t m, std::size_t n, std::size_t k, const float* a,
            const float* b, float* c, bool accumulate) {
  GemmStrided(m, n, k, a, k, 1, b, 1, k, c, accumulate);
}

void GemmTN(std::size_t m, std::size_t n, std::size_t k, const float* a,
            const float* b, float* c, bool accumulate) {
  GemmStrided(m, n, k, a, 1, m, b, n, 1, c, accumulate);
}

void ReferenceGemmNN(std::size_t m, std::size_t n, std::size_t k,
                     const float* a, const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      float x = a[i * k + p];
      if (x == 0.0f) continue;
      const float* brow = b + p * n;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += x * brow[j];
    }
  }
}

void Axpy(std::size_t n, float alpha, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void AddInto(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void Add(std::size_t n, const float* a, const float* b, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void ScaleCopy(std::size_t n, float s, const float* x, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * s;
}

void BiasRelu(std::size_t rows, std::size_t cols, const float* x,
              const float* bias, float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* or_ = out + r * cols;
    if (bias != nullptr) {
      for (std::size_t c = 0; c < cols; ++c) {
        const float v = xr[c] + bias[c];
        or_[c] = v > 0.0f ? v : 0.0f;
      }
    } else {
      for (std::size_t c = 0; c < cols; ++c) {
        or_[c] = xr[c] > 0.0f ? xr[c] : 0.0f;
      }
    }
  }
}

float ReferenceExp(float x) {
  // Selects written as SSE min/max evaluate them (`a < b ? a : b`), so the
  // AVX2 clone's _mm256_min_ps/_mm256_max_ps match, NaN included.
  float xc = kExpHi < x ? kExpHi : x;
  xc = kExpLo > xc ? kExpLo : xc;
  const float v = xc * kLog2e + kShifter;
  const float nf = v - kShifter;
  std::uint32_t v_bits;
  std::uint32_t shifter_bits;
  std::memcpy(&v_bits, &v, sizeof(v));
  std::memcpy(&shifter_bits, &kShifter, sizeof(kShifter));
  const std::uint32_t scale_bits = (v_bits - shifter_bits + 127u) << 23;
  float scale;
  std::memcpy(&scale, &scale_bits, sizeof(scale));
  float r = xc - nf * kLn2Hi;
  r = r - nf * kLn2Lo;
  const float z = r * r;
  float p = kExpP0;
  p = p * r + kExpP1;
  p = p * r + kExpP2;
  p = p * r + kExpP3;
  p = p * r + kExpP4;
  p = p * r + kExpP5;
  const float y = p * z + r + 1.0f;
  return x < kExpLo ? 0.0f : y * scale;
}

void Exp(std::size_t n, const float* x, float* out) {
#if SERD_X86_DISPATCH
  if (UseAvx2()) {
    avx2_exp::Exp(n, x, out);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = ReferenceExp(x[i]);
}

void SoftmaxRows(std::size_t rows, std::size_t cols, const float* x,
                 const float* add_mask, float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* or_ = out + r * cols;
    float hi = -1e30f;
    if (add_mask != nullptr) {
      const float* mr = add_mask + r * cols;
      for (std::size_t c = 0; c < cols; ++c) {
        const float v = xr[c] + mr[c];
        or_[c] = v;
        hi = std::max(hi, v);
      }
    } else {
      for (std::size_t c = 0; c < cols; ++c) {
        or_[c] = xr[c];
        hi = std::max(hi, xr[c]);
      }
    }
    for (std::size_t c = 0; c < cols; ++c) or_[c] -= hi;
    Exp(cols, or_, or_);
    float total = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) total += or_[c];
    const float inv = 1.0f / total;
    for (std::size_t c = 0; c < cols; ++c) or_[c] *= inv;
  }
}

void Gelu(std::size_t n, const float* x, float* out) {
  float e[kGeluChunk];
  for (std::size_t i0 = 0; i0 < n; i0 += kGeluChunk) {
    const std::size_t len = std::min(kGeluChunk, n - i0);
    for (std::size_t j = 0; j < len; ++j) e[j] = -2.0f * GeluArg(x[i0 + j]);
    Exp(len, e, e);
    for (std::size_t j = 0; j < len; ++j) {
      out[i0 + j] = x[i0 + j] / (1.0f + e[j]);
    }
  }
}

void GeluGrad(std::size_t n, const float* x, const float* dy, float* dx) {
  float e[kGeluChunk];
  for (std::size_t i0 = 0; i0 < n; i0 += kGeluChunk) {
    const std::size_t len = std::min(kGeluChunk, n - i0);
    for (std::size_t j = 0; j < len; ++j) e[j] = -2.0f * GeluArg(x[i0 + j]);
    Exp(len, e, e);
    for (std::size_t j = 0; j < len; ++j) {
      const float v = x[i0 + j];
      const float s = 1.0f / (1.0f + e[j]);
      const float du = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
      dx[i0 + j] += dy[i0 + j] * (s + 2.0f * v * s * (1.0f - s) * du);
    }
  }
}

void LayerNormRows(std::size_t rows, std::size_t cols, const float* x,
                   const float* gamma, const float* beta, float eps,
                   float* out, float* xhat, float* inv_std) {
  const float inv_n = 1.0f / static_cast<float>(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* or_ = out + r * cols;
    float mean = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) mean += xr[c];
    mean *= inv_n;
    float var = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      const float d = xr[c] - mean;
      var += d * d;
    }
    var *= inv_n;
    const float istd = 1.0f / std::sqrt(var + eps);
    if (inv_std != nullptr) inv_std[r] = istd;
    if (xhat != nullptr) {
      float* hr = xhat + r * cols;
      for (std::size_t c = 0; c < cols; ++c) {
        const float h = (xr[c] - mean) * istd;
        hr[c] = h;
        or_[c] = h * gamma[c] + beta[c];
      }
    } else {
      for (std::size_t c = 0; c < cols; ++c) {
        or_[c] = (xr[c] - mean) * istd * gamma[c] + beta[c];
      }
    }
  }
}

}  // namespace serd::nn::kernels
