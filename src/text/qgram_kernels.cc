#include "text/qgram_kernels.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/cpu.h"

#if SERD_X86_DISPATCH
#include <immintrin.h>
#endif

namespace serd::qgram {

namespace {

constexpr uint32_t kFnvBasis = 2166136261u;
constexpr uint32_t kFnvPrime = 16777619u;

/// FirstOccurrences past kScanLimit: the first position of each hash is
/// the smallest in its run once (hash, position) pairs are sorted.
size_t SortedFirstOccurrences(const uint32_t* h, size_t n, uint32_t* pos,
                              uint32_t* distinct) {
  std::vector<uint64_t> keyed(n);
  for (size_t i = 0; i < n; ++i) {
    keyed[i] = static_cast<uint64_t>(h[i]) << 32 | i;
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<uint8_t> first(n, 0);
  for (size_t k = 0; k < n; ++k) {
    if (k == 0 || keyed[k] >> 32 != keyed[k - 1] >> 32) {
      first[keyed[k] & 0xFFFFFFFFu] = 1;
    }
  }
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!first[i]) continue;
    pos[count] = static_cast<uint32_t>(i);
    distinct[count++] = h[i];
  }
  return count;
}

/// lanes[m] lists the set bits of m, lowest first, one byte each: the lane
/// order that packs a block's kept lanes to its front.
struct PackIndex {
  uint64_t lanes[256];
};

constexpr PackIndex MakePackIndex() {
  PackIndex table{};
  for (unsigned m = 0; m < 256; ++m) {
    uint64_t packed = 0;
    int out = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if (m & (1u << lane)) {
        packed |= static_cast<uint64_t>(lane) << (8 * out++);
      }
    }
    table.lanes[m] = packed;
  }
  return table;
}
constexpr PackIndex kPackIndex = MakePackIndex();

#if SERD_X86_DISPATCH
// Internal linkage and no standard-library templates inside the target
// region (as in gmm/lse.cc).
#pragma GCC push_options
#pragma GCC target("avx2,popcnt")
namespace avx2 {

inline __m256i Iota() { return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7); }

/// All-ones in the lanes below r.
inline __m256i LanesBelow(size_t r) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(r)), Iota());
}

inline __m256i Load(const uint32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// p[0, len) in the first len lanes (1 <= len <= 8) and copies of p[0] in
/// the rest; reads nothing past p[len - 1].
inline __m256i LoadBlock(const uint32_t* p, size_t len) {
  if (len == kLanes) return Load(p);
  const __m256i mask = LanesBelow(len);
  const __m256i loaded =
      _mm256_maskload_epi32(reinterpret_cast<const int*>(p), mask);
  return _mm256_blendv_epi8(_mm256_set1_epi32(static_cast<int>(p[0])), loaded,
                            mask);
}

/// eq with the lanes where a and b are equal set too.
inline __m256i OrEqual(__m256i eq, __m256i a, __m256i b) {
  return _mm256_or_si256(eq, _mm256_cmpeq_epi32(a, b));
}

/// All-ones in lane i when a's lane i equals some lane of b: a against b
/// rotated within its halves, then against b's halves swapped.
inline __m256i AnyEqualRotations(__m256i a, __m256i b) {
  const __m256i s = _mm256_permute2x128_si256(b, b, 0x01);
  __m256i eq = _mm256_cmpeq_epi32(a, b);
  eq = OrEqual(eq, a, _mm256_shuffle_epi32(b, 0x39));
  eq = OrEqual(eq, a, _mm256_shuffle_epi32(b, 0x4E));
  eq = OrEqual(eq, a, _mm256_shuffle_epi32(b, 0x93));
  eq = OrEqual(eq, a, s);
  eq = OrEqual(eq, a, _mm256_shuffle_epi32(s, 0x39));
  eq = OrEqual(eq, a, _mm256_shuffle_epi32(s, 0x4E));
  eq = OrEqual(eq, a, _mm256_shuffle_epi32(s, 0x93));
  return eq;
}

void HashGrams(const uint8_t* bytes, size_t n, size_t len, uint32_t* out) {
  const __m256i basis = _mm256_set1_epi32(static_cast<int>(kFnvBasis));
  const __m256i prime = _mm256_set1_epi32(static_cast<int>(kFnvPrime));
  for (size_t i = 0; i < n; i += kLanes) {
    // Lane j hashes the gram at i + j: step k xors in byte i + j + k.
    __m256i h = basis;
    for (size_t k = 0; k < len; ++k) {
      const __m256i c = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(bytes + i + k)));
      h = _mm256_mullo_epi32(_mm256_xor_si256(h, c), prime);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
  }
}

/// All-ones in lane i where p[i] == x[i] and p[i] came from an earlier
/// lane: p is a permutation of x and pi the same permutation of the lane
/// indices.
inline __m256i EarlierEqual(__m256i x, __m256i p, __m256i pi) {
  return _mm256_and_si256(_mm256_cmpeq_epi32(x, p),
                          _mm256_cmpgt_epi32(Iota(), pi));
}

/// All-ones in lane i when x[j] == x[i] for some j < i: the seven
/// permutations of AnyEqualRotations other than the identity, applied to
/// x and to the lane indices alike, cover every pair of lanes once.
inline __m256i AnyEarlierEqual(__m256i x) {
  const __m256i iota = Iota();
  const __m256i s = _mm256_permute2x128_si256(x, x, 0x01);
  const __m256i si = _mm256_permute2x128_si256(iota, iota, 0x01);
  __m256i eq = EarlierEqual(x, _mm256_shuffle_epi32(x, 0x39),
                            _mm256_shuffle_epi32(iota, 0x39));
  eq = _mm256_or_si256(eq, EarlierEqual(x, _mm256_shuffle_epi32(x, 0x4E),
                                        _mm256_shuffle_epi32(iota, 0x4E)));
  eq = _mm256_or_si256(eq, EarlierEqual(x, _mm256_shuffle_epi32(x, 0x93),
                                        _mm256_shuffle_epi32(iota, 0x93)));
  eq = _mm256_or_si256(eq, EarlierEqual(x, s, si));
  eq = _mm256_or_si256(eq, EarlierEqual(x, _mm256_shuffle_epi32(s, 0x39),
                                        _mm256_shuffle_epi32(si, 0x39)));
  eq = _mm256_or_si256(eq, EarlierEqual(x, _mm256_shuffle_epi32(s, 0x4E),
                                        _mm256_shuffle_epi32(si, 0x4E)));
  eq = _mm256_or_si256(eq, EarlierEqual(x, _mm256_shuffle_epi32(s, 0x93),
                                        _mm256_shuffle_epi32(si, 0x93)));
  return eq;
}

/// Lane bits of a movemask.
inline unsigned LaneBits(__m256i v) {
  return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(v)));
}

size_t FirstOccurrences(const uint32_t* h, size_t n, uint32_t* pos,
                        uint32_t* distinct) {
  size_t count = 0;
  for (size_t b = 0; b < n; b += kLanes) {
    const __m256i x = Load(h + b);
    __m256i seen = AnyEarlierEqual(x);
    for (size_t e = 0; e < b; e += kLanes) {
      seen = _mm256_or_si256(seen, AnyEqualRotations(x, Load(h + e)));
    }
    const unsigned valid = n - b < kLanes ? (1u << (n - b)) - 1u : 0xFFu;
    const unsigned keep = ~LaneBits(seen) & valid;
    // Pack the kept lanes to the front; count <= b, so the whole-block
    // stores stay within PaddedLength(n).
    const __m256i order = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(
        static_cast<long long>(kPackIndex.lanes[keep])));
    const __m256i positions =
        _mm256_add_epi32(Iota(), _mm256_set1_epi32(static_cast<int>(b)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(pos + count),
                        _mm256_permutevar8x32_epi32(positions, order));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(distinct + count),
                        _mm256_permutevar8x32_epi32(x, order));
    count += static_cast<size_t>(_mm_popcnt_u32(keep));
  }
  return count;
}

/// CountMembers over MemberSet's table: `num_slots` slots, a power of
/// two, free ones holding `empty_key`, home slots (h * kMemberHashMul) >>
/// home_shift. Each block gathers every hash's home slot and the slot
/// after it at once; the rare run that goes on past both is followed one
/// slot at a time.
size_t CountMembers(const uint32_t* slots, size_t num_slots,
                    uint32_t empty_key, int home_shift, const uint32_t* h,
                    size_t count) {
  const __m256i empty = _mm256_set1_epi32(static_cast<int>(empty_key));
  const __m256i mul = _mm256_set1_epi32(static_cast<int>(kMemberHashMul));
  const __m256i wrap = _mm256_set1_epi32(static_cast<int>(num_slots - 1));
  const __m128i shift = _mm_cvtsi32_si128(home_shift);
  const int* table = reinterpret_cast<const int*>(slots);
  size_t members = 0;
  for (size_t k = 0; k < count; k += kLanes) {
    const __m256i x = Load(h + k);
    const __m256i home = _mm256_srl_epi32(_mm256_mullo_epi32(x, mul), shift);
    const __m256i next =
        _mm256_and_si256(_mm256_add_epi32(home, _mm256_set1_epi32(1)), wrap);
    const __m256i key1 = _mm256_i32gather_epi32(table, home, 4);
    const __m256i key2 = _mm256_i32gather_epi32(table, next, 4);
    const unsigned valid =
        count - k < kLanes ? (1u << (count - k)) - 1u : 0xFFu;
    // A hash equal to the empty marker is never a member.
    const unsigned real = ~LaneBits(_mm256_cmpeq_epi32(x, empty)) & valid;
    const unsigned found1 = LaneBits(_mm256_cmpeq_epi32(key1, x));
    const unsigned free1 = LaneBits(_mm256_cmpeq_epi32(key1, empty));
    const unsigned found2 = LaneBits(_mm256_cmpeq_epi32(key2, x));
    const unsigned free2 = LaneBits(_mm256_cmpeq_epi32(key2, empty));
    members += static_cast<size_t>(
        _mm_popcnt_u32((found1 | (found2 & ~free1)) & real));
    for (unsigned open = ~(found1 | free1 | found2 | free2) & real;
         open != 0; open &= open - 1) {
      const uint32_t v = h[k + static_cast<size_t>(__builtin_ctz(open))];
      size_t slot = ((v * kMemberHashMul) >> home_shift) + 2;
      for (;; ++slot) {
        const uint32_t key = slots[slot & (num_slots - 1)];
        if (key == v) {
          ++members;
          break;
        }
        if (key == empty_key) break;
      }
    }
  }
  return members;
}

size_t CountIntersection(const uint32_t* a, size_t na, const uint32_t* b,
                         size_t nb) {
  size_t i = 0, j = 0, count = 0;
  while (i < na && j < nb) {
    const size_t la = na - i < kLanes ? na - i : kLanes;
    const size_t lb = nb - j < kLanes ? nb - j : kLanes;
    const __m256i eq = AnyEqualRotations(LoadBlock(a + i, la),
                                         LoadBlock(b + j, lb));
    // a's padding lanes repeat a[i], so only its first la lanes count.
    const unsigned hits =
        static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(eq))) &
        ((1u << la) - 1u);
    count += static_cast<size_t>(_mm_popcnt_u32(hits));
    const uint32_t a_last = a[i + la - 1];
    const uint32_t b_last = b[j + lb - 1];
    if (a_last <= b_last) i += la;
    if (b_last <= a_last) j += lb;
  }
  return count;
}

}  // namespace avx2
#pragma GCC pop_options

/// The clones run on AVX2 + popcnt hosts.
bool UseAvx2() { return cpu::X86().avx2 && cpu::X86().popcnt; }
#endif  // SERD_X86_DISPATCH

}  // namespace

void ReferenceHashGrams(const uint8_t* bytes, size_t n, size_t len,
                        uint32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    uint32_t h = kFnvBasis;
    for (size_t k = 0; k < len; ++k) {
      h ^= bytes[i + k];
      h *= kFnvPrime;
    }
    out[i] = h;
  }
}

void HashGrams(const uint8_t* bytes, size_t n, size_t len, uint32_t* out) {
#if SERD_X86_DISPATCH
  if (UseAvx2()) {
    avx2::HashGrams(bytes, n, len, out);
    return;
  }
#endif
  ReferenceHashGrams(bytes, n, len, out);
}

size_t ReferenceFirstOccurrences(const uint32_t* h, size_t n, uint32_t* pos,
                                 uint32_t* distinct) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    bool seen = false;
    for (size_t j = 0; j < i; ++j) seen |= h[j] == h[i];
    if (seen) continue;
    pos[count] = static_cast<uint32_t>(i);
    distinct[count++] = h[i];
  }
  return count;
}

size_t FirstOccurrences(const uint32_t* h, size_t n, uint32_t* pos,
                        uint32_t* distinct) {
  if (n > kScanLimit) return SortedFirstOccurrences(h, n, pos, distinct);
#if SERD_X86_DISPATCH
  if (UseAvx2()) return avx2::FirstOccurrences(h, n, pos, distinct);
#endif
  return ReferenceFirstOccurrences(h, n, pos, distinct);
}

MemberSet::MemberSet(std::vector<uint32_t> sorted_unique)
    : sorted(std::move(sorted_unique)) {
  size_t capacity = 16;
  shift = 28;
  while (capacity < 8 * sorted.size()) {
    capacity *= 2;
    --shift;
  }
  // The smallest value outside the set marks a free slot.
  for (uint32_t v : sorted) {
    if (v != empty) break;
    ++empty;
  }
  slots.assign(capacity, empty);
  for (uint32_t v : sorted) {
    size_t i = (v * kMemberHashMul) >> shift;
    while (slots[i] != empty) i = (i + 1) & (capacity - 1);
    slots[i] = v;
  }
}

size_t ReferenceCountMembers(const MemberSet& set, const uint32_t* h,
                             size_t count) {
  size_t members = 0;
  for (size_t k = 0; k < count; ++k) {
    members += std::binary_search(set.sorted.begin(), set.sorted.end(), h[k]);
  }
  return members;
}

size_t CountMembers(const MemberSet& set, const uint32_t* h, size_t count) {
#if SERD_X86_DISPATCH
  if (UseAvx2()) {
    return avx2::CountMembers(set.slots.data(), set.slots.size(), set.empty,
                              set.shift, h, count);
  }
#endif
  return ReferenceCountMembers(set, h, count);
}

size_t ReferenceCountIntersection(const uint32_t* a, size_t na,
                                  const uint32_t* b, size_t nb) {
  // Branch-free merge: equal heads count and both advance, otherwise the
  // smaller head advances.
  size_t i = 0, j = 0, count = 0;
  while (i < na && j < nb) {
    const uint32_t x = a[i], y = b[j];
    count += x == y;
    i += x <= y;
    j += y <= x;
  }
  return count;
}

size_t CountIntersection(const uint32_t* a, size_t na, const uint32_t* b,
                         size_t nb) {
#if SERD_X86_DISPATCH
  if (UseAvx2()) return avx2::CountIntersection(a, na, b, nb);
#endif
  return ReferenceCountIntersection(a, na, b, nb);
}

}  // namespace serd::qgram
