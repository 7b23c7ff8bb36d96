#include "gmm/mixture_tile.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/cpu.h"

#if SERD_X86_DISPATCH
#include <immintrin.h>
#endif

namespace serd::mixture_tile {

namespace {

#include "gmm/lse_lanes.inc"

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kLogHalf = -0.6931471805599453;

/// Points per tile.
constexpr std::size_t kTile = 64;
/// Dimensions whose solve scratch lives on the stack, as
/// MultivariateGaussian::kInlineDimension.
constexpr std::size_t kMaxSolveDimension = 32;

/// A call's scratch, the tile's coordinates and component terms: on the
/// stack up to kMaxSolveDimension dimensions and 16 components per arm
/// (Gmm::kInlineComponents), else on the heap.
class Scratch {
 public:
  Scratch(std::size_t d, std::size_t g) {
    const std::size_t size = kTile * (d + g);
    if (size > kInline) {
      heap_.resize(size);
      data_ = heap_.data();
    }
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  double* get() { return data_; }

 private:
  static constexpr std::size_t kInline = kTile * (kMaxSolveDimension + 16);
  double inline_[kInline];
  std::vector<double> heap_;
  double* data_ = inline_;
};

std::size_t MaxCount(const OArms& o) {
  return o.m.count > o.n.count ? o.m.count : o.n.count;
}

// The portable scalar reference: four lanes as four doubles, each through
// the lse scalar bodies.
namespace portable {

struct V {
  double v[4];
};

inline V Set(double a) { return {{a, a, a, a}}; }
inline V LoadLanes(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
inline void StoreLanes(double* p, V a) {
  for (std::size_t l = 0; l < 4; ++l) p[l] = a.v[l];
}
inline V LoadPoints(const double* p, std::size_t r) {
  V a = Set(0.0);
  for (std::size_t l = 0; l < r; ++l) a.v[l] = p[l];
  return a;
}
inline void StorePoints(double* p, std::size_t r, V a) {
  for (std::size_t l = 0; l < r; ++l) p[l] = a.v[l];
}
inline V Add(V a, V b) {
  for (std::size_t l = 0; l < 4; ++l) a.v[l] = a.v[l] + b.v[l];
  return a;
}
inline V Sub(V a, V b) {
  for (std::size_t l = 0; l < 4; ++l) a.v[l] = a.v[l] - b.v[l];
  return a;
}
inline V Mul(V a, V b) {
  for (std::size_t l = 0; l < 4; ++l) a.v[l] = a.v[l] * b.v[l];
  return a;
}
inline V Div(V a, V b) {
  for (std::size_t l = 0; l < 4; ++l) a.v[l] = a.v[l] / b.v[l];
  return a;
}
/// std::max(a, b): b where a < b, else a (NaN included).
inline V Max(V a, V b) {
  for (std::size_t l = 0; l < 4; ++l) a.v[l] = a.v[l] < b.v[l] ? b.v[l] : a.v[l];
  return a;
}
inline V Exp(V a) {
  for (std::size_t l = 0; l < 4; ++l) a.v[l] = ScalarExp(a.v[l]);
  return a;
}
inline V Log(V a) {
  for (std::size_t l = 0; l < 4; ++l) a.v[l] = ScalarLog(a.v[l]);
  return a;
}
/// value where hi is finite, else hi.
inline V FiniteOr(V hi, V value) {
  for (std::size_t l = 0; l < 4; ++l) {
    if (!std::isfinite(hi.v[l])) value.v[l] = hi.v[l];
  }
  return value;
}

#include "gmm/mixture_tile.inc"

}  // namespace portable

#if SERD_X86_DISPATCH
// The AVX2 clone: the same body over __m256d, compiled without FMA.
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {

using V = __m256d;

inline V Set(double a) { return _mm256_set1_pd(a); }
inline V LoadLanes(const double* p) { return _mm256_loadu_pd(p); }
inline void StoreLanes(double* p, V a) { _mm256_storeu_pd(p, a); }
inline V LoadPoints(const double* p, std::size_t r) {
  return r == 4 ? _mm256_loadu_pd(p) : _mm256_maskload_pd(p, TailMask(r));
}
inline void StorePoints(double* p, std::size_t r, V a) {
  if (r == 4) {
    _mm256_storeu_pd(p, a);
  } else {
    _mm256_maskstore_pd(p, TailMask(r), a);
  }
}
inline V Add(V a, V b) { return _mm256_add_pd(a, b); }
inline V Sub(V a, V b) { return _mm256_sub_pd(a, b); }
inline V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
inline V Div(V a, V b) { return _mm256_div_pd(a, b); }
/// maxpd returns its second operand unless the first is greater, so
/// (b, a) gives std::max(a, b), NaN included.
inline V Max(V a, V b) { return _mm256_max_pd(b, a); }
inline V Exp(V a) { return Exp4(a); }
inline V Log(V a) { return Log4(a); }
inline V FiniteOr(V hi, V value) {
  const V magnitude = _mm256_andnot_pd(_mm256_set1_pd(-0.0), hi);
  const V finite =
      _mm256_cmp_pd(magnitude, _mm256_set1_pd(kInf), _CMP_LT_OQ);
  return _mm256_blendv_pd(hi, value, finite);
}

#include "gmm/mixture_tile.inc"

}  // namespace avx2
#pragma GCC pop_options

bool UseAvx2(bool reference) { return !reference && cpu::X86().avx2; }
#endif  // SERD_X86_DISPATCH

}  // namespace

void ArmLogPdf(const Arm& arm, std::size_t d, const double* xs,
               std::size_t stride, std::size_t n, double* out,
               [[maybe_unused]] bool reference) {
  Scratch scratch(d, arm.count);
#if SERD_X86_DISPATCH
  if (UseAvx2(reference)) {
    avx2::ArmLogPdfTiles(arm, d, xs, stride, n, out, scratch.get());
    return;
  }
#endif
  portable::ArmLogPdfTiles(arm, d, xs, stride, n, out, scratch.get());
}

void OLogPdf(const OArms& o, std::size_t d, const double* xs,
             std::size_t stride, std::size_t n, double* out,
             [[maybe_unused]] bool reference) {
  Scratch scratch(d, MaxCount(o));
#if SERD_X86_DISPATCH
  if (UseAvx2(reference)) {
    avx2::OLogPdfTiles(o, d, xs, stride, n, out, scratch.get());
    return;
  }
#endif
  portable::OLogPdfTiles(o, d, xs, stride, n, out, scratch.get());
}

void Posterior(const OArms& o, std::size_t d, const double* xs,
               std::size_t stride, std::size_t n, double* out,
               [[maybe_unused]] bool reference) {
  Scratch scratch(d, MaxCount(o));
#if SERD_X86_DISPATCH
  if (UseAvx2(reference)) {
    avx2::PosteriorTiles(o, d, xs, stride, n, out, scratch.get());
    return;
  }
#endif
  portable::PosteriorTiles(o, d, xs, stride, n, out, scratch.get());
}

double KlSum(const OArms& p, const OArms& q, const double* log_q,
             bool side_p, std::size_t d, const double* xs, std::size_t stride,
             std::size_t n, [[maybe_unused]] bool reference) {
  const std::size_t g = MaxCount(p) > MaxCount(q) ? MaxCount(p) : MaxCount(q);
  Scratch scratch(d, g);
#if SERD_X86_DISPATCH
  if (UseAvx2(reference)) {
    return avx2::KlSumTiles(p, q, log_q, side_p, d, xs, stride, n,
                             scratch.get());
  }
#endif
  return portable::KlSumTiles(p, q, log_q, side_p, d, xs, stride, n,
                               scratch.get());
}

}  // namespace serd::mixture_tile
