#ifndef SERD_TEXT_QGRAM_KERNELS_H_
#define SERD_TEXT_QGRAM_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace serd::qgram {

/// The set kernels behind every hashed q-gram operation in text/qgram.h:
/// gram hashing, first occurrences, membership and sorted-set
/// intersection. Each entry point is a portable scalar reference plus an
/// AVX2 clone picked once per process (as gmm/lse.h's are). Every one
/// yields integers, so the two agree exactly, and so does every Jaccard
/// built on them (tests/text_test.cc checks each pair).

/// Lanes per vector block; the buffers below are padded to whole blocks.
inline constexpr size_t kLanes = 8;

/// n rounded up to a whole number of blocks.
inline constexpr size_t PaddedLength(size_t n) {
  return (n + kLanes - 1) / kLanes * kLanes;
}

/// Above this many grams, FirstOccurrences leaves the all-pairs compares
/// for an O(n log n) path, so a long string costs no quadratic scan.
inline constexpr size_t kScanLimit = 256;

/// out[i] = FNV-1a-32 of bytes[i, i + len) for i < n, eight grams at a
/// time. `bytes` must be readable through PaddedLength(n) + len - 1 bytes
/// and `out` writable through PaddedLength(n) entries; the lanes past n
/// hold values of no meaning.
void HashGrams(const uint8_t* bytes, size_t n, size_t len, uint32_t* out);
void ReferenceHashGrams(const uint8_t* bytes, size_t n, size_t len,
                        uint32_t* out);

/// Finds each i < n whose h[i] differs from every h[j] with j < i: writes
/// those i to pos and their hashes to distinct, both in increasing i, and
/// returns their count. `h` must be readable, and pos and distinct
/// writable, through PaddedLength(n) entries. Up to kScanLimit grams the
/// AVX2 clone compares a block of eight hashes with itself and with each
/// earlier block, then packs the survivors; beyond it, positions are
/// sorted by hash.
size_t FirstOccurrences(const uint32_t* h, size_t n, uint32_t* pos,
                        uint32_t* distinct);
/// The all-pairs scan, one compare at a time, for every n.
size_t ReferenceFirstOccurrences(const uint32_t* h, size_t n, uint32_t* pos,
                                 uint32_t* distinct);

/// A fixed set of hashes held for many membership tests: sorted, and in
/// an open-addressing table (linear probing, at least eight slots per
/// member) whose free slots hold `empty`, a value outside the set.
struct MemberSet {
  explicit MemberSet(std::vector<uint32_t> sorted_unique);

  std::vector<uint32_t> sorted;
  std::vector<uint32_t> slots;
  uint32_t empty = 0;
  /// A hash's home slot is (h * kMemberHashMul) >> shift.
  int shift = 28;
};

inline constexpr uint32_t kMemberHashMul = 0x9E3779B1u;

/// How many of h[0, count) are members of `set`. The AVX2 clone looks up
/// eight hashes at once, at their home slots and the slots after them,
/// and follows the few probe runs that go on past both one slot at a
/// time; the reference binary-searches `sorted`. `h` must be readable
/// through PaddedLength(count) entries.
size_t CountMembers(const MemberSet& set, const uint32_t* h, size_t count);
size_t ReferenceCountMembers(const MemberSet& set, const uint32_t* h,
                             size_t count);

/// |a ∩ b| of two sorted sets of unique hashes. The AVX2 clone compares an
/// 8-hash block of a with all eight rotations of an 8-hash block of b and
/// advances the block whose last hash is smaller (both on a tie); the
/// reference is a branch-free merge.
size_t CountIntersection(const uint32_t* a, size_t na, const uint32_t* b,
                         size_t nb);
size_t ReferenceCountIntersection(const uint32_t* a, size_t na,
                                  const uint32_t* b, size_t nb);

}  // namespace serd::qgram

#endif  // SERD_TEXT_QGRAM_KERNELS_H_
