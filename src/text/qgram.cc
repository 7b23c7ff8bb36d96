#include "text/qgram.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstring>

#include "common/strings.h"

namespace serd {

namespace {

/// std::tolower over every byte value, built once: the gram hashes lower
/// each byte through it.
const std::array<uint8_t, 256>& LowerTable() {
  static const std::array<uint8_t, 256> table = [] {
    std::array<uint8_t, 256> t{};
    for (int c = 0; c < 256; ++c) t[c] = static_cast<uint8_t>(std::tolower(c));
    return t;
  }();
  return table;
}

/// Whether LowerTable is the ASCII rule (A-Z to a-z, every other byte
/// kept), as std::tolower is in the "C" locale; then LowerAscii lowers
/// eight bytes per step with the same result.
bool LowerTableIsAscii() {
  static const bool ascii = [] {
    const std::array<uint8_t, 256>& table = LowerTable();
    for (int c = 0; c < 256; ++c) {
      const int want = c >= 'A' && c <= 'Z' ? c + ('a' - 'A') : c;
      if (table[c] != want) return false;
    }
    return true;
  }();
  return ascii;
}

/// ASCII lowercasing of in[0, n) into out, eight bytes per step: a byte
/// below 0x80 whose low seven bits lie in 'A'..'Z' gains 0x20.
void LowerAscii(const char* in, size_t n, uint8_t* out) {
  constexpr uint64_t kOnes = 0x0101010101010101ull;
  constexpr uint64_t kHigh = 0x8080808080808080ull;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t x;
    std::memcpy(&x, in + i, 8);
    const uint64_t low7 = x & ~kHigh;
    const uint64_t at_least_a = low7 + (0x80 - 'A') * kOnes;
    const uint64_t above_z = low7 + (0x7F - 'Z') * kOnes;
    const uint64_t upper = at_least_a & ~above_z & ~x & kHigh;
    x |= upper >> 2;
    std::memcpy(out + i, &x, 8);
  }
  for (; i < n; ++i) {
    const uint8_t c = static_cast<uint8_t>(in[i]);
    out[i] = c >= 'A' && c <= 'Z' ? c + ('a' - 'A') : c;
  }
}

/// Grams HashedQgramSet hashes for `s`, duplicates included.
size_t NumGrams(std::string_view s, int q) {
  if (s.empty() || q <= 0) return 0;
  const size_t qu = static_cast<size_t>(q);
  return s.size() < qu ? 1 : s.size() - qu + 1;
}

/// |A ∩ B| / |A ∪ B| from the set sizes and the intersection size: 1 for
/// two empty sets, 0 when exactly one is empty.
double JaccardOfCounts(size_t inter, size_t na, size_t nb) {
  if (na == 0 && nb == 0) return 1.0;
  if (na == 0 || nb == 0) return 0.0;
  const size_t uni = na + nb - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace

std::vector<std::string> QgramSet(std::string_view s, int q) {
  std::vector<std::string> grams;
  if (s.empty() || q <= 0) return grams;
  std::string lower = ToLower(s);
  if (lower.size() < static_cast<size_t>(q)) {
    grams.push_back(lower);
    return grams;
  }
  grams.reserve(lower.size() - q + 1);
  for (size_t i = 0; i + q <= lower.size(); ++i) {
    grams.push_back(lower.substr(i, q));
  }
  std::sort(grams.begin(), grams.end());
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
  return grams;
}

std::vector<uint32_t> HashedQgramSet(std::string_view s, int q) {
  thread_local QgramScan scan;
  scan.Scan(s, q);
  std::vector<uint32_t> grams(scan.distinct(),
                              scan.distinct() + scan.num_distinct());
  std::sort(grams.begin(), grams.end());
  return grams;
}

double JaccardOfSortedSets(const std::vector<std::string>& a,
                           const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    int cmp = a[i].compare(b[j]);
    if (cmp == 0) {
      ++inter;
      ++i;
      ++j;
    } else if (cmp < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double JaccardOfHashedSets(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b) {
  return JaccardOfCounts(
      qgram::CountIntersection(a.data(), a.size(), b.data(), b.size()),
      a.size(), b.size());
}

void QgramScan::Scan(std::string_view s, int q) {
  const size_t n = NumGrams(s, q);
  gram_length_ = 0;
  num_distinct_ = 0;
  if (n == 0) return;
  gram_length_ = std::min(s.size(), static_cast<size_t>(q));
  // HashGrams reads whole blocks: through PaddedLength(n) + gram_length - 1
  // bytes (at least |s|) and PaddedLength(n) hashes.
  const size_t padded = qgram::PaddedLength(n);
  const size_t bytes = padded + gram_length_ - 1;
  if (lowered_.size() < bytes) lowered_.resize(bytes);
  if (hashes_.size() < padded) {
    hashes_.resize(padded);
    first_.resize(padded);
    distinct_.resize(padded);
  }
  if (LowerTableIsAscii()) {
    LowerAscii(s.data(), s.size(), lowered_.data());
  } else {
    // Local pointers: a store through uint8_t* may alias the vector's own
    // fields, which would reload them every byte.
    const uint8_t* lower = LowerTable().data();
    const char* in = s.data();
    uint8_t* out = lowered_.data();
    for (size_t i = 0; i < s.size(); ++i) {
      out[i] = lower[static_cast<unsigned char>(in[i])];
    }
  }
  qgram::HashGrams(lowered_.data(), n, gram_length_, hashes_.data());
  num_distinct_ = qgram::FirstOccurrences(hashes_.data(), n, first_.data(),
                                          distinct_.data());
}

QgramJaccardProfile::QgramJaccardProfile(std::string_view reference, int q)
    : q_(q), reference_(HashedQgramSet(reference, q)) {}

double QgramJaccardProfile::Jaccard(std::string_view candidate) {
  scan_.Scan(candidate, q_);
  const size_t count = scan_.num_distinct();
  const size_t shared =
      qgram::CountMembers(reference_, scan_.distinct(), count);
  return JaccardOfCounts(shared, reference_.sorted.size(), count);
}

double QgramJaccard(std::string_view a, std::string_view b, int q) {
  return JaccardOfHashedSets(HashedQgramSet(a, q), HashedQgramSet(b, q));
}

}  // namespace serd
