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

/// |G(a) ∩ G(b)| of two hashed profiles from HashedQgramSet (linear
/// merge). This is the quantity the q-gram blocking layer (src/block)
/// thresholds on: a pair can only clear a Jaccard threshold tau when its
/// overlap reaches tau / (1 + tau) * (|G(a)| + |G(b)|), so candidate
/// generation counts shared grams instead of computing full similarities.
size_t OverlapOfHashedSets(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b);

/// QgramJaccard as a named callable: the text-column similarity every
/// string bank is built with. HillClimbToSimilarity recognizes it and
/// hashes its fixed reference once per climb instead of once per proposal.
struct QgramJaccardSim {
  int q = 3;
  double operator()(const std::string& a, const std::string& b) const {
    return QgramJaccard(a, b, q);
  }
};

}  // namespace serd

#endif  // SERD_TEXT_QGRAM_H_
