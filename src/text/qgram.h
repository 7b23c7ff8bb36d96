#ifndef SERD_TEXT_QGRAM_H_
#define SERD_TEXT_QGRAM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace serd {

/// Extracts the multiset-deduplicated set of character q-grams of `s`,
/// lowercased. Strings shorter than q contribute the whole string as a
/// single gram (so "ab" with q=3 yields {"ab"}); the empty string yields
/// the empty set. The returned vector is sorted and unique, so set
/// operations are linear merges.
///
/// This is the reference representation; the hot paths use
/// HashedQgramSet, which applies identical extraction rules to 32-bit
/// gram hashes (no per-gram string allocation). The two agree on every
/// Jaccard value unless two distinct grams of the compared strings
/// collide under FNV-1a, which at q-gram set sizes (tens of grams) has
/// probability ~ |G|^2 / 2^33 per pair (see DESIGN.md).
std::vector<std::string> QgramSet(std::string_view s, int q);

/// Sorted unique 32-bit FNV-1a hashes of the lowercased q-grams of `s`
/// (same extraction rules as QgramSet).
std::vector<uint32_t> HashedQgramSet(std::string_view s, int q);

/// Jaccard similarity |G(a) ∩ G(b)| / |G(a) ∪ G(b)| of the q-gram sets.
/// Two empty strings have similarity 1; one empty and one nonempty is 0.
/// This is the paper's similarity for textual and categorical columns
/// (3_gram_jaccard in Example 2) with q = 3. Computed over hashed
/// profiles.
double QgramJaccard(std::string_view a, std::string_view b, int q = 3);

/// Jaccard over two already-extracted sorted gram sets.
double JaccardOfSortedSets(const std::vector<std::string>& a,
                           const std::vector<std::string>& b);

/// Jaccard over two hashed profiles from HashedQgramSet (linear merge).
double JaccardOfHashedSets(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b);

/// Jaccard of many candidates against one fixed reference: Jaccard(c)
/// equals JaccardOfHashedSets(HashedQgramSet(reference, q),
/// HashedQgramSet(c, q)), computed from the same set sizes and
/// intersection size without a sort or an allocation per candidate. The
/// reference's gram hashes sit in an open-addressing set built once; each
/// candidate's grams are deduplicated in a second set, sized from the
/// candidate and cleared by a generation stamp. The scratch set makes
/// Jaccard non-const: one profile per thread.
class QgramJaccardProfile {
 public:
  QgramJaccardProfile(std::string_view reference, int q);

  double Jaccard(std::string_view candidate);

 private:
  /// A set of 32-bit hashes with linear probing. A slot is occupied when
  /// its stamp equals the current one, so Clear is O(1) once the table is
  /// large enough.
  class HashSet {
   public:
    /// Empties the set and makes room for `max_keys` keys.
    void Clear(size_t max_keys);
    /// Adds h; false when it was already present.
    bool Insert(uint32_t h);
    bool Contains(uint32_t h) const;

   private:
    struct Slot {
      uint32_t key = 0;
      uint32_t stamp = 0;
    };
    size_t Home(uint32_t h) const {
      return static_cast<size_t>((h * 0x9E3779B1u) >> shift_);
    }
    std::vector<Slot> slots_;
    uint32_t stamp_ = 0;
    int shift_ = 28;
  };

  int q_;
  HashSet reference_;
  size_t reference_size_ = 0;
  HashSet seen_;
};

/// QgramJaccard as a named callable: the text-column similarity every
/// string bank is built with. HillClimbToSimilarity recognizes it and
/// climbs with a QgramJaccardProfile of its fixed reference.
struct QgramJaccardSim {
  int q = 3;
  double operator()(const std::string& a, const std::string& b) const {
    return QgramJaccard(a, b, q);
  }
};

}  // namespace serd

#endif  // SERD_TEXT_QGRAM_H_
