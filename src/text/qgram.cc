#include "text/qgram.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"

namespace serd {

namespace {

inline uint32_t LowerByte(char c) {
  return static_cast<uint32_t>(
      std::tolower(static_cast<unsigned char>(c)));
}

/// FNV-1a over the lowercased bytes s[pos, pos+len).
inline uint32_t Fnv1aLower(std::string_view s, size_t pos, size_t len) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < len; ++i) {
    h ^= LowerByte(s[pos + i]);
    h *= 16777619u;
  }
  return h;
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
  std::vector<uint32_t> grams;
  if (s.empty() || q <= 0) return grams;
  const size_t qu = static_cast<size_t>(q);
  if (s.size() < qu) {
    grams.push_back(Fnv1aLower(s, 0, s.size()));
    return grams;
  }
  grams.resize(s.size() - qu + 1);
  for (size_t i = 0; i + qu <= s.size(); ++i) {
    grams[i] = Fnv1aLower(s, i, qu);
  }
  std::sort(grams.begin(), grams.end());
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
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
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t x = a[i], y = b[j];
    if (x == y) {
      ++inter;
      ++i;
      ++j;
    } else if (x < y) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double QgramJaccard(std::string_view a, std::string_view b, int q) {
  return JaccardOfHashedSets(HashedQgramSet(a, q), HashedQgramSet(b, q));
}

}  // namespace serd
