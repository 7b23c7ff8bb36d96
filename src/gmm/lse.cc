#include "gmm/lse.h"

#include <cstdint>
#include <cstring>

#include "common/cpu.h"

#if SERD_X86_DISPATCH
#include <immintrin.h>
#endif

namespace serd::lse {

namespace {

inline std::uint64_t AsBits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

inline double AsDouble(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

// ------------------------------------------------------------------ Exp
//
// exp(x) = 2^(k/128) exp(r), k = round(x * 128 / ln 2), |r| <= ln 2 / 256
// (plus rounding). k comes from the 1.5 * 2^52 shifter: z + kShift leaves
// k in the low mantissa bits. r = x - k ln2/128 in two parts: kLn2HiN
// has 35 significant bits, so kd * kNegLn2HiN is exact for |k| < 2^18
// (x >= -746 gives |k| <= 137760), and the sum with x is exact by
// Sterbenz's lemma. exp(r) - 1 ~ r + r^2/2 + r^3/6 + r^4/24 + r^5/120,
// whose truncation error is below 2^-60 on |r| <= ln 2 / 256.
//
// kExpTable holds, for j < 128, the pair (tail_j, sbits_j): 2^(j/128) =
// hi_j (1 + tail_j), hi_j the nearest double, and sbits_j = bits(hi_j) -
// (j << 45) + (1022 << 52). Adding k << 45 = (e << 52) + (j << 45),
// e = floor(k / 128), gives the bits of 2^(e + 1022) hi_j: a normal double
// for every e >= -1077, i.e. every x >= kExpLo. The final multiply by
// 2^-1022 is exact for a normal result and rounds a subnormal one once;
// below kExpLo the result is +0 without it. Generated with Python's
// decimal module at 60 digits: hi_j = float(2^(j/128)), tail_j =
// float((2^(j/128) - hi_j) / hi_j).
constexpr int kExpTableBits = 7;
constexpr std::uint64_t kExpTableSize = 1u << kExpTableBits;
alignas(64) constexpr std::uint64_t kExpTable[2 * kExpTableSize] = {
    0x0000000000000000, 0x7fd0000000000000,
    0x3c9b3b4f1a88bf6e, 0x7fcff63da9fb3335,
    0xbc7160139cd8dc5d, 0x7fcfec9a3e778061,
    0xbc905e7a108766d1, 0x7fcfe315e86e7f85,
    0x3c8cd2523567f613, 0x7fcfd9b0d3158574,
    0xbc8bce8023f98efa, 0x7fcfd06b29ddf6de,
    0x3c60f74e61e6c861, 0x7fcfc74518759bc8,
    0x3c90a3e45b33d399, 0x7fcfbe3ecac6f383,
    0x3c979aa65d837b6d, 0x7fcfb5586cf9890f,
    0x3c8eb51a92fdeffc, 0x7fcfac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x7fcfa3ec32d3d1a2,
    0xbc6a033489906e0b, 0x7fcf9b66affed31b,
    0xbc9556522a2fbd0e, 0x7fcf9301d0125b51,
    0xbc5080ef8c4eea55, 0x7fcf8abdc06c31cc,
    0xbc91c923b9d5f416, 0x7fcf829aaea92de0,
    0x3c80d3e3e95c55af, 0x7fcf7a98c8a58e51,
    0xbc801b15eaa59348, 0x7fcf72b83c7d517b,
    0xbc8f1ff055de323d, 0x7fcf6af9388c8dea,
    0x3c8b898c3f1353bf, 0x7fcf635beb6fcb75,
    0xbc96d99c7611eb26, 0x7fcf5be084045cd4,
    0x3c9aecf73e3a2f60, 0x7fcf54873168b9aa,
    0xbc8fe782cb86389d, 0x7fcf4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x7fcf463b88628cd6,
    0x3c807a05b0e4047d, 0x7fcf3f49917ddc96,
    0x3c968efde3a8a894, 0x7fcf387a6e756238,
    0x3c875e18f274487d, 0x7fcf31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x7fcf2b4565e27cdd,
    0xbc96b87b3f71085e, 0x7fcf24dfe1f56381,
    0x3c82f7e16d09ab31, 0x7fcf1e9df51fdee1,
    0xbc3d219b1a6fbffa, 0x7fcf187fd0dad990,
    0x3c8b3782720c0ab4, 0x7fcf1285a6e4030b,
    0x3c6e149289cecb8f, 0x7fcf0cafa93e2f56,
    0x3c834d754db0abb6, 0x7fcf06fe0a31b715,
    0x3c864201e2ac744c, 0x7fcf0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x7fcefc08b26416ff,
    0xbc86a3803b8e5b04, 0x7fcef6c55f929ff1,
    0xbc924aedcc4b5068, 0x7fcef1a7373aa9cb,
    0xbc9907f81b512d8e, 0x7fceecae6d05d866,
    0xbc71d1e83e9436d2, 0x7fcee7db34e59ff7,
    0xbc991919b3ce1b15, 0x7fcee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x7fcedea64c123422,
    0xbc9312607a28698a, 0x7fceda4504ac801c,
    0xbc58a78f4817895b, 0x7fced60a21f72e2a,
    0xbc7c2c9b67499a1b, 0x7fced1f5d950a897,
    0x3c4363ed60c2ac11, 0x7fcece086061892d,
    0x3c9666093b0664ef, 0x7fceca41ed1d0057,
    0x3c6ecce1daa10379, 0x7fcec6a2b5c13cd0,
    0x3c93ff8e3f0f1230, 0x7fcec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x7fcebfdad5362a27,
    0x3c931dbdeb54e077, 0x7fcebcb299fddd0d,
    0xbc8f94340071a38e, 0x7fceb9b2769d2ca7,
    0xbc87deccdc93a349, 0x7fceb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x7fceb42b569d4f82,
    0xbc861246ec7b5cf6, 0x7fceb1a4ca5d920f,
    0x3c93350518fdd78e, 0x7fceaf4736b527da,
    0x3c7b98b72f8a9b05, 0x7fcead12d497c7fd,
    0x3c9063e1e21c5409, 0x7fceab07dd485429,
    0x3c34c7855019c6ea, 0x7fcea9268a5946b7,
    0x3c9432e62b64c035, 0x7fcea76f15ad2148,
    0xbc8ce44a6199769f, 0x7fcea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x7fcea47eb03a5585,
    0xbc845378892be9ae, 0x7fcea34634ccc320,
    0xbc93cedd78565858, 0x7fcea23882552225,
    0x3c5710aa807e1964, 0x7fcea155d44ca973,
    0xbc93b3efbf5e2228, 0x7fcea09e667f3bcd,
    0xbc6a12ad8734b982, 0x7fcea012750bdabf,
    0xbc6367efb86da9ee, 0x7fce9fb23c651a2f,
    0xbc80dc3d54e08851, 0x7fce9f7df9519484,
    0xbc781f647e5a3ecf, 0x7fce9f75e8ec5f74,
    0xbc86ee4ac08b7db0, 0x7fce9f9a48a58174,
    0xbc8619321e55e68a, 0x7fce9feb564267c9,
    0x3c909ccb5e09d4d3, 0x7fcea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x7fcea11473eb0187,
    0x3c94ecfd5467c06b, 0x7fcea1ed0130c132,
    0x3c65ebe1abd66c55, 0x7fcea2f336cf4e62,
    0xbc88a1c52fb3cf42, 0x7fcea427543e1a12,
    0xbc9369b6f13b3734, 0x7fcea589994cce13,
    0xbc805e843a19ff1e, 0x7fcea71a4623c7ad,
    0xbc94d450d872576e, 0x7fcea8d99b4492ed,
    0x3c90ad675b0e8a00, 0x7fceaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x7fceace5422aa0db,
    0xbc65b6609cc5e7ff, 0x7fceaf3216b5448c,
    0x3c7bf68359f35f44, 0x7fceb1ae99157736,
    0xbc93091fa71e3d83, 0x7fceb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x7fceb737b0cdc5e5,
    0xbc6c23f97c90b959, 0x7fceba44cbc8520f,
    0xbc92434322f4f9aa, 0x7fcebd829fde4e50,
    0xbc85ca6cd7668e4b, 0x7fcec0f170ca07ba,
    0x3c71affc2b91ce27, 0x7fcec49182a3f090,
    0x3c6dd235e10a73bb, 0x7fcec86319e32323,
    0xbc87c50422622263, 0x7fcecc667b5de565,
    0x3c8b1c86e3e231d5, 0x7fced09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x7fced503b23e255d,
    0x3c90cc319cee31d2, 0x7fced99e1330b358,
    0x3c8469846e735ab3, 0x7fcede6b5579fdbf,
    0xbc82dfcd978e9db4, 0x7fcee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x7fcee89f995ad3ad,
    0xbc907b8f4ad1d9fa, 0x7fceee07298db666,
    0xbc55c3d956dcaeba, 0x7fcef3a2b84f15fb,
    0xbc90a40e3da6f640, 0x7fcef9728de5593a,
    0xbc68d6f438ad9334, 0x7fceff76f2fb5e47,
    0xbc91eee26b588a35, 0x7fcf05b030a1064a,
    0x3c74ffd70a5fddcd, 0x7fcf0c1e904bc1d2,
    0xbc91bdfbfa9298ac, 0x7fcf12c25bd71e09,
    0x3c736eae30af0cb3, 0x7fcf199bdd85529c,
    0x3c8ee3325c9ffd94, 0x7fcf20ab5fffd07a,
    0x3c84e08fd10959ac, 0x7fcf27f12e57d14b,
    0x3c63cdaf384e1a67, 0x7fcf2f6d9406e7b5,
    0x3c676b2c6c921968, 0x7fcf3720dcef9069,
    0xbc808a1883ccb5d2, 0x7fcf3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x7fcf472d4a07897c,
    0xbc900dae3875a949, 0x7fcf4f87080d89f2,
    0x3c74a385a63d07a7, 0x7fcf5818dcfba487,
    0xbc82919e2040220f, 0x7fcf60e316c98398,
    0x3c8e5a50d5c192ac, 0x7fcf69e603db3285,
    0x3c843a59ac016b4b, 0x7fcf7321f301b460,
    0xbc82d52107b43e1f, 0x7fcf7c97337b9b5f,
    0xbc892ab93b470dc9, 0x7fcf864614f5a129,
    0x3c74b604603a88d3, 0x7fcf902ee78b3ff6,
    0x3c83c5ec519d7271, 0x7fcf9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x7fcfa4afa2a490da,
    0xbc8dae98e223747d, 0x7fcfaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x7fcfba1bee615a27,
    0x3c842b94c3a9eb32, 0x7fcfc52b376bba97,
    0x3c8a64a931d185ee, 0x7fcfd0765b6e4540,
    0xbc8e37bae43be3ed, 0x7fcfdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x7fcfe7c1819e90d8,
    0x3c5305c14160cc89, 0x7fcff3c22b8f71f1,
};
constexpr double kExpLo = -746.0;        // exp(x) rounds to +0 below this
constexpr double kExpNormalLo = -708.0;  // exp(x) >= 2^-1022 from here up
constexpr double kInvLn2N = 0x1.71547652b82fep+7;  // 128 / ln 2
constexpr double kShift = 0x1.8p52;
constexpr double kNegLn2HiN = -0x1.62e42fefc0000p-8;
constexpr double kNegLn2LoN = 0x1.c610ca86c3899p-44;
constexpr double kExpC2 = 0.5;
constexpr double kExpC3 = 0x1.5555555555555p-3;  // 1/6
constexpr double kExpC4 = 0x1.5555555555555p-5;  // 1/24
constexpr double kExpC5 = 0x1.1111111111111p-7;  // 1/120
constexpr double kTwoM1022 = 0x1p-1022;

// ------------------------------------------------------------------ Log
//
// fdlibm's e_log.c reduction and polynomial (error below 1 ulp): 1 + f is
// x's mantissa, halved (and k raised by one) when it is at least sqrt(2),
// which adding 0x95f64 to the top 20 mantissa bits detects by its carry
// into bit 52. log(1 + f) = f - (hfsq - s (hfsq + R)), the form fdlibm
// keeps for accuracy; with k = 0 the ln 2 terms are zeros and the same
// expression is fdlibm's k = 0 branch.
constexpr std::uint64_t kMantissaMask = 0x000fffffffffffffULL;
constexpr std::uint64_t kSqrt2Carry = 0x95f64ULL << 32;
constexpr std::uint64_t kBit52 = 1ULL << 52;
constexpr std::uint64_t kOneBits = 0x3ff0000000000000ULL;
constexpr std::uint64_t kShiftBits = 0x4338000000000000ULL;  // kShift
constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kLg1 = 0x1.5555555555593p-1;
constexpr double kLg2 = 0x1.999999997fa04p-2;
constexpr double kLg3 = 0x1.2492494229359p-2;
constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
constexpr double kLg5 = 0x1.7466496cb03dep-3;
constexpr double kLg6 = 0x1.39a09d078c69fp-3;
constexpr double kLg7 = 0x1.2f112df3e5244p-3;

/// exp(x) for x >= kExpLo by the table, the polynomial and the biased
/// scale: one rounding in the last multiply, exact there for normal
/// results.
inline double ExpCore(double x) {
  const double kd_shifted = x * kInvLn2N + kShift;
  const std::uint64_t ki = AsBits(kd_shifted);
  const double kd = kd_shifted - kShift;
  double r = x + kd * kNegLn2HiN;
  r = r + kd * kNegLn2LoN;
  const std::uint64_t idx = 2 * (ki & (kExpTableSize - 1));
  const double tail = AsDouble(kExpTable[idx]);
  const double scale =
      AsDouble(kExpTable[idx + 1] + (ki << (52 - kExpTableBits)));
  const double r2 = r * r;
  double tmp = tail + r;
  tmp = tmp + r2 * (kExpC2 + r * kExpC3);
  tmp = tmp + (r2 * r2) * (kExpC4 + r * kExpC5);
  return (scale + scale * tmp) * kTwoM1022;
}

#if SERD_X86_DISPATCH
// Compiled for AVX2 without FMA, so the multiply-adds round as the
// portable bodies' do. As in nn/kernels.cc: internal linkage and no
// standard-library templates inside the target region.
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {

/// Four lanes of ExpCore, operation for operation; every lane must be at
/// least kExpLo.
inline __m256d ExpCore4(__m256d x) {
  const __m256d shift = _mm256_set1_pd(kShift);
  const __m256d kd_shifted =
      _mm256_add_pd(_mm256_mul_pd(x, _mm256_set1_pd(kInvLn2N)), shift);
  const __m256i ki = _mm256_castpd_si256(kd_shifted);
  const __m256d kd = _mm256_sub_pd(kd_shifted, shift);
  __m256d r =
      _mm256_add_pd(x, _mm256_mul_pd(kd, _mm256_set1_pd(kNegLn2HiN)));
  r = _mm256_add_pd(r, _mm256_mul_pd(kd, _mm256_set1_pd(kNegLn2LoN)));
  const __m256i idx = _mm256_slli_epi64(
      _mm256_and_si256(ki, _mm256_set1_epi64x(kExpTableSize - 1)), 1);
  const long long* table = reinterpret_cast<const long long*>(kExpTable);
  const __m256d tail =
      _mm256_castsi256_pd(_mm256_i64gather_epi64(table, idx, 8));
  const __m256d scale = _mm256_castsi256_pd(
      _mm256_add_epi64(_mm256_i64gather_epi64(table + 1, idx, 8),
                       _mm256_slli_epi64(ki, 52 - kExpTableBits)));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d tmp = _mm256_add_pd(tail, r);
  tmp = _mm256_add_pd(
      tmp, _mm256_mul_pd(r2, _mm256_add_pd(_mm256_set1_pd(kExpC2),
                                           _mm256_mul_pd(
                                               r, _mm256_set1_pd(kExpC3)))));
  tmp = _mm256_add_pd(
      tmp, _mm256_mul_pd(_mm256_mul_pd(r2, r2),
                         _mm256_add_pd(_mm256_set1_pd(kExpC4),
                                       _mm256_mul_pd(
                                           r, _mm256_set1_pd(kExpC5)))));
  return _mm256_mul_pd(_mm256_add_pd(scale, _mm256_mul_pd(scale, tmp)),
                       _mm256_set1_pd(kTwoM1022));
}

/// Four lanes of ReferenceExp. Every lane first takes the core at
/// max(x, kExpNormalLo), where no operation leaves the normal range; a
/// vector whose lanes are all at least kExpNormalLo is done. Otherwise
/// lanes below kExpLo are +0, NaN lanes are x, and lanes in [kExpLo,
/// kExpNormalLo), whose results are subnormal, take the core once more at
/// max(x, kExpLo). (A tiny product costs a microcode assist on x86, so the
/// far tail of a log-sum-exp must not reach the core's last multiply.)
inline __m256d Exp4(__m256d x) {
  const __m256d normal_lo = _mm256_set1_pd(kExpNormalLo);
  const __m256d y = ExpCore4(_mm256_max_pd(x, normal_lo));
  const __m256d normal = _mm256_cmp_pd(x, normal_lo, _CMP_GE_OQ);
  if (_mm256_movemask_pd(normal) == 0xF) return y;
  __m256d out = _mm256_and_pd(y, normal);
  const __m256d lo = _mm256_set1_pd(kExpLo);
  const __m256d subnormal =
      _mm256_andnot_pd(normal, _mm256_cmp_pd(x, lo, _CMP_GE_OQ));
  if (_mm256_movemask_pd(subnormal) != 0) {
    out = _mm256_or_pd(
        out, _mm256_and_pd(subnormal, ExpCore4(_mm256_max_pd(x, lo))));
  }
  return _mm256_blendv_pd(out, x, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
}

/// Four lanes of ReferenceLog, operation for operation. k is converted
/// through the shifter (exact for |k| < 2^51, as the reference's cast).
inline __m256d Log4(__m256d x) {
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i mantissa =
      _mm256_and_si256(bits, _mm256_set1_epi64x(kMantissaMask));
  const __m256i half = _mm256_and_si256(
      _mm256_add_epi64(mantissa, _mm256_set1_epi64x(kSqrt2Carry)),
      _mm256_set1_epi64x(kBit52));
  const __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      mantissa, _mm256_xor_si256(half, _mm256_set1_epi64x(kOneBits))));
  const __m256i k = _mm256_sub_epi64(
      _mm256_add_epi64(_mm256_srli_epi64(bits, 52),
                       _mm256_srli_epi64(half, 52)),
      _mm256_set1_epi64x(1023));
  const __m256d dk = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_add_epi64(k, _mm256_set1_epi64x(kShiftBits))),
      _mm256_set1_pd(kShift));
  const __m256d f = _mm256_sub_pd(m, _mm256_set1_pd(1.0));
  const __m256d s =
      _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d t1 = _mm256_mul_pd(
      w, _mm256_add_pd(
             _mm256_set1_pd(kLg2),
             _mm256_mul_pd(w, _mm256_add_pd(_mm256_set1_pd(kLg4),
                                            _mm256_mul_pd(
                                                w, _mm256_set1_pd(kLg6))))));
  const __m256d t2 = _mm256_mul_pd(
      z,
      _mm256_add_pd(
          _mm256_set1_pd(kLg1),
          _mm256_mul_pd(
              w, _mm256_add_pd(
                     _mm256_set1_pd(kLg3),
                     _mm256_mul_pd(
                         w, _mm256_add_pd(_mm256_set1_pd(kLg5),
                                          _mm256_mul_pd(
                                              w, _mm256_set1_pd(kLg7))))))));
  const __m256d poly = _mm256_add_pd(t2, t1);
  const __m256d hfsq =
      _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
  const __m256d inner =
      _mm256_add_pd(_mm256_mul_pd(s, _mm256_add_pd(hfsq, poly)),
                    _mm256_mul_pd(dk, _mm256_set1_pd(kLn2Lo)));
  const __m256d y =
      _mm256_sub_pd(_mm256_mul_pd(dk, _mm256_set1_pd(kLn2Hi)),
                    _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f));
  return _mm256_blendv_pd(y, x, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
}

/// Lane masks for a tail of r < 4 elements: kTailMask + 4 - r holds r
/// all-ones lanes followed by zeros.
constexpr long long kTailMask[8] = {-1, -1, -1, -1, 0, 0, 0, 0};

/// The masked load and store of a tail of r = n - i < 4 elements.
inline __m256i TailMask(std::size_t r) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + 4 - r));
}

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

double ReferenceExp(double x) {
  if (x >= kExpNormalLo) return ExpCore(x);
  if (x != x) return x;
  return x < kExpLo ? 0.0 : ExpCore(x);
}

double ReferenceLog(double x) {
  const std::uint64_t bits = AsBits(x);
  const std::uint64_t mantissa = bits & kMantissaMask;
  const std::uint64_t half = (mantissa + kSqrt2Carry) & kBit52;
  const double m = AsDouble(mantissa | (half ^ kOneBits));
  const std::int64_t k = static_cast<std::int64_t>(bits >> 52) +
                         static_cast<std::int64_t>(half >> 52) - 1023;
  const double dk = static_cast<double>(k);
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double poly = t2 + t1;
  const double hfsq = 0.5 * f * f;
  const double y =
      dk * kLn2Hi - ((hfsq - (s * (hfsq + poly) + dk * kLn2Lo)) - f);
  return x != x ? x : y;
}

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
