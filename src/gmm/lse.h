#ifndef SERD_GMM_LSE_H_
#define SERD_GMM_LSE_H_

#include <cstddef>

namespace serd::lse {

/// The double-precision exp/log pair behind every mixture log-sum-exp in
/// src/gmm: EM's log-likelihoods (Gmm::EStepTile) here, and, through the
/// same lane bodies (lse_lanes.inc), the fused mixture tile's
/// log-densities, posteriors and JSD terms (mixture_tile.h). Each entry point is a
/// portable scalar reference plus an AVX2 clone picked once per process
/// (as nn::kernels::Exp is), compiled without FMA; a short call or a
/// call's tail is padded into a full vector, so every element goes
/// through the reference's operations whatever the call length and its
/// position in the call, and the two agree bit for bit. Both are within
/// 1 ulp of libm on their domains (tests/gmm_test.cc sweeps them), not
/// bit-identical to it. EM responsibilities and Box-Muller sampling keep
/// libm (DESIGN.md §5d).

/// out[i] = exp(x[i]) for x[i] in (-inf, 0]: exactly 1 at 0 and -0, +0 at
/// -inf and wherever exp underflows, subnormal results rounded once. A
/// NaN input is returned unchanged; inputs above 0 are outside the
/// contract. In-place safe.
void Exp(std::size_t n, const double* x, double* out);

/// out[i] = log(x[i]) for finite x[i] >= 1 (a log-sum-exp's sum, whose
/// largest term is exp(0) = 1): exactly +0 at 1. A NaN input is returned
/// unchanged; other inputs below 1, subnormals and inf are outside the
/// contract. In-place safe.
void Log(std::size_t n, const double* x, double* out);

/// The portable body of Exp: k = round(x * 128 / ln 2) by the 1.5 * 2^52
/// shifter, r = x - k ln 2 / 128 in two parts, a 128-entry table of
/// 2^(j/128) with its relative tail, a degree-5 Taylor polynomial, and the
/// scale built from k's exponent bits 2^1022 too high, then one multiply
/// by 2^-1022 (exact for normal results, the one rounding for subnormal
/// ones). Below -746 the result is +0 without that arithmetic, so the far
/// tail of a log-sum-exp never forms a subnormal product.
double ReferenceExp(double x);

/// The portable body of Log: x = 2^k (1 + f) with 1 + f in [sqrt(2)/2,
/// sqrt(2)), s = f / (2 + f), fdlibm's degree-14 Remez polynomial in s
/// and log x = k ln2_hi - ((hfsq - (s (hfsq + R) + k ln2_lo)) - f), one
/// formula for every k.
double ReferenceLog(double x);

}  // namespace serd::lse

#endif  // SERD_GMM_LSE_H_
