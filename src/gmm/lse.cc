#include "gmm/lse.h"

#include <cstdint>
#include <cstring>

#include "common/cpu.h"

#if SERD_X86_DISPATCH
#include <immintrin.h>
#endif

namespace serd::lse {

namespace {

#include "gmm/lse_lanes.inc"

#if SERD_X86_DISPATCH
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {

// Exp and Log, four lanes at a time. The tail is padded (masked load:
// zeros) into one full vector, so its elements take the same arithmetic
// as every other lane; the masked store writes back only the tail.
void Exp(std::size_t n, const double* x, double* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, Exp4(_mm256_loadu_pd(x + i)));
  }
  if (i == n) return;
  const __m256i mask = TailMask(n - i);
  _mm256_maskstore_pd(out + i, mask, Exp4(_mm256_maskload_pd(x + i, mask)));
}

void Log(std::size_t n, const double* x, double* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, Log4(_mm256_loadu_pd(x + i)));
  }
  if (i == n) return;
  const __m256i mask = TailMask(n - i);
  _mm256_maskstore_pd(out + i, mask, Log4(_mm256_maskload_pd(x + i, mask)));
}

}  // namespace avx2
#pragma GCC pop_options
#endif  // SERD_X86_DISPATCH

}  // namespace

double ReferenceExp(double x) { return ScalarExp(x); }

double ReferenceLog(double x) { return ScalarLog(x); }

void Exp(std::size_t n, const double* x, double* out) {
#if SERD_X86_DISPATCH
  if (cpu::X86().avx2) {
    avx2::Exp(n, x, out);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = ReferenceExp(x[i]);
}

void Log(std::size_t n, const double* x, double* out) {
#if SERD_X86_DISPATCH
  if (cpu::X86().avx2) {
    avx2::Log(n, x, out);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = ReferenceLog(x[i]);
}

}  // namespace serd::lse
