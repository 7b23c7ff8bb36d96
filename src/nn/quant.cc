#include "nn/quant.h"

#include <algorithm>
#include <cmath>
#include <vector>

// Same dispatch model as kernels.cc: on x86-64 GCC/Clang builds that are
// not already compiled for AVX2+FMA, an AVX2 clone of the cores is
// emitted under a target pragma and selected once per process; a native
// AVX2 build uses the intrinsic bodies directly with no runtime check.
#if defined(__x86_64__) && defined(__GNUC__)
#define SERD_QUANT_X86 1
#else
#define SERD_QUANT_X86 0
#endif

#if SERD_QUANT_X86
#include <immintrin.h>
#if !(defined(__AVX2__) && defined(__FMA__))
#define SERD_QUANT_RUNTIME_DISPATCH 1
#endif
#endif

namespace serd::nn {

namespace {

std::size_t RoundUpK(std::size_t cols) {
  return (cols + kQuantKAlign - 1) / kQuantKAlign * kQuantKAlign;
}

/// Symmetric int8 step for a max magnitude: amax maps to +-127. A zero
/// extent quantizes to all-zero codes with a scale of 1 (the dequant
/// multiply then reproduces exact zeros).
float ScaleForAmax(float amax) { return amax > 0.0f ? amax / 127.0f : 1.0f; }

/// Round half away from zero via trunc(f + copysign(0.5, f)) — the same
/// plain mul/add/truncate sequence the activation quantizer's scalar and
/// AVX2 bodies use (kernels_quant.inc), so weight and activation codes
/// follow one rounding definition everywhere. Exact for |f| well under
/// 2^22; our domain is |f| <= ~127.
std::int8_t QuantizeValue(float v, float inv) {
  const float f = v * inv;
  const float t = f + (f < 0.0f ? -0.5f : 0.5f);
  const long r = static_cast<long>(t);
  const long c = std::max(-127l, std::min(127l, r));
  return static_cast<std::int8_t>(c);
}

}  // namespace

QuantizedMatrix QuantizeWeightMatrix(std::size_t in, std::size_t out,
                                     const float* w) {
  QuantizedMatrix qm;
  qm.rows = out;
  qm.cols = in;
  qm.cstride = RoundUpK(in);
  qm.q.assign(out * qm.cstride, 0);
  qm.scales.resize(out);
  for (std::size_t j = 0; j < out; ++j) {
    float amax = 0.0f;
    for (std::size_t k = 0; k < in; ++k) {
      amax = std::max(amax, std::fabs(w[k * out + j]));
    }
    qm.scales[j] = ScaleForAmax(amax);
    const float inv = amax > 0.0f ? 127.0f / amax : 0.0f;
    std::int8_t* row = qm.q.data() + j * qm.cstride;
    for (std::size_t k = 0; k < in; ++k) {
      row[k] = QuantizeValue(w[k * out + j], inv);
    }
  }
  return qm;
}

QuantizedMatrix MakeInt8Matrix(std::size_t rows, std::size_t cols,
                               const std::int8_t* q, const float* scales) {
  QuantizedMatrix qm;
  qm.rows = rows;
  qm.cols = cols;
  qm.cstride = RoundUpK(cols);
  qm.q.assign(rows * qm.cstride, 0);
  qm.scales.assign(scales, scales + rows);
  for (std::size_t j = 0; j < rows; ++j) {
    std::copy(q + j * cols, q + (j + 1) * cols, qm.q.data() + j * qm.cstride);
  }
  return qm;
}

namespace kernels {

namespace {

namespace portable {
#include "nn/kernels_quant.inc"
}  // namespace portable

#if SERD_QUANT_X86
#if defined(SERD_QUANT_RUNTIME_DISPATCH)
#pragma GCC push_options
#pragma GCC target("avx2,fma")
#endif
namespace avx2 {
#define SERD_QUANT_USE_AVX2 1
#include "nn/kernels_quant.inc"
#undef SERD_QUANT_USE_AVX2
}  // namespace avx2
#if defined(SERD_QUANT_RUNTIME_DISPATCH)
#pragma GCC pop_options
#endif

bool UseAvx2() {
#if defined(SERD_QUANT_RUNTIME_DISPATCH)
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return true;
#endif
}
#endif  // SERD_QUANT_X86

}  // namespace

void QuantizeActivationRows(std::size_t m, std::size_t cols,
                            std::size_t cstride, const float* x,
                            std::int8_t* aq, float* ascales) {
#if SERD_QUANT_X86
  if (UseAvx2()) {
    avx2::QuantizeActivationRowsImpl(m, cols, cstride, x, aq, ascales);
    return;
  }
#endif
  portable::QuantizeActivationRowsImpl(m, cols, cstride, x, aq, ascales);
}

void GemmInt8(const QuantizedMatrix& w, const float* bias, std::size_t m,
              const std::int8_t* aq, const float* ascales, float* y) {
  if (m == 0 || w.rows == 0) return;
#if SERD_QUANT_X86
  if (UseAvx2()) {
    avx2::GemmInt8Impl(w, bias, m, aq, ascales, y);
    return;
  }
#endif
  portable::GemmInt8Impl(w, bias, m, aq, ascales, y);
}

void QuantizedGemm(const QuantizedMatrix& w, const float* bias,
                   std::size_t m, const float* x, float* y) {
  if (m == 0 || w.rows == 0) return;
  thread_local std::vector<std::int8_t> aq;
  thread_local std::vector<float> ascales;
  if (aq.size() < m * w.cstride) aq.resize(m * w.cstride);
  if (ascales.size() < m) ascales.resize(m);
  QuantizeActivationRows(m, w.cols, w.cstride, x, aq.data(), ascales.data());
  GemmInt8(w, bias, m, aq.data(), ascales.data(), y);
}

double Int8ErrorBound(std::size_t k, const float* x_row, const float* w_col,
                      std::size_t w_col_stride, float sa, float sw) {
  const double hsa = 0.5 * static_cast<double>(sa);
  const double hsw = 0.5 * static_cast<double>(sw);
  double bound = 0.0;
  for (std::size_t p = 0; p < k; ++p) {
    const double ax = std::fabs(static_cast<double>(x_row[p]));
    const double aw = std::fabs(static_cast<double>(w_col[p * w_col_stride]));
    bound += ax * hsw + aw * hsa + hsa * hsw;
  }
  return bound;
}

}  // namespace kernels

}  // namespace serd::nn
