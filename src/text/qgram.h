#ifndef SERD_TEXT_QGRAM_H_
#define SERD_TEXT_QGRAM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "text/qgram_kernels.h"

namespace serd {

/// Extracts the multiset-deduplicated set of character q-grams of `s`,
/// lowercased. Strings shorter than q contribute the whole string as a
/// single gram (so "ab" with q=3 yields {"ab"}); the empty string yields
/// the empty set. The returned vector is sorted and unique.
///
/// This is the reference representation, kept for tests; every job path
/// uses the 32-bit FNV-1a hashes of the same grams. For q = 3 the two are
/// exact images of each other: FNV-1a-32 maps the 16,843,008 byte strings
/// of length 1-3 to distinct hashes (checked exhaustively in
/// tests/text_test.cc), so every hashed Jaccard equals the string-set one.
/// For other q they agree unless two grams of the compared strings collide
/// (DESIGN.md §5d).
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

/// Jaccard over two already-extracted sorted gram sets (the string-set
/// reference of JaccardOfHashedSets, kept for tests).
double JaccardOfSortedSets(const std::vector<std::string>& a,
                           const std::vector<std::string>& b);

/// Jaccard over two hashed profiles from HashedQgramSet; the intersection
/// is qgram::CountIntersection (8x8 blocks on AVX2 hosts).
double JaccardOfHashedSets(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b);

/// One string's q-grams at a time, in buffers the scan owns and reuses:
/// the lowercased bytes, each gram's FNV-1a-32 hash in position order
/// (qgram::HashGrams), and the positions and values of each distinct hash's
/// first occurrence (qgram::FirstOccurrences). A scan allocates nothing
/// once its buffers have grown; one scan per thread.
class QgramScan {
 public:
  /// Scans `s` under HashedQgramSet's extraction rules: NumGrams grams of
  /// min(|s|, q) bytes each, none for an empty `s` or q <= 0.
  void Scan(std::string_view s, int q);

  /// Bytes per gram of the last scan.
  size_t gram_length() const { return gram_length_; }
  /// The lowercased string: gram i is lowered()[i, i + gram_length()).
  const uint8_t* lowered() const { return lowered_.data(); }
  /// Distinct hashes (= distinct grams for q <= 3) of the last scan.
  size_t num_distinct() const { return num_distinct_; }
  /// Positions of their first occurrences, increasing.
  const uint32_t* first() const { return first_.data(); }
  /// The distinct hashes in that order, readable through
  /// qgram::PaddedLength(num_distinct()) entries.
  const uint32_t* distinct() const { return distinct_.data(); }

 private:
  std::vector<uint8_t> lowered_;
  std::vector<uint32_t> hashes_;
  std::vector<uint32_t> first_;
  std::vector<uint32_t> distinct_;
  size_t gram_length_ = 0;
  size_t num_distinct_ = 0;
};

/// Jaccard of many candidates against one fixed reference: Jaccard(c)
/// equals JaccardOfHashedSets(HashedQgramSet(reference, q),
/// HashedQgramSet(c, q)), computed from the same set sizes and
/// intersection size without a sort or an allocation per candidate. The
/// reference's hashes are held as a qgram::MemberSet; each candidate is
/// scanned (QgramScan) and its distinct hashes are looked up there
/// (qgram::CountMembers). The scan's buffers make Jaccard non-const: one
/// profile per thread.
class QgramJaccardProfile {
 public:
  QgramJaccardProfile(std::string_view reference, int q);

  double Jaccard(std::string_view candidate);

 private:
  int q_;
  qgram::MemberSet reference_;
  QgramScan scan_;
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
