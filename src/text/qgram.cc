#include "text/qgram.h"

#include <algorithm>
#include <array>
#include <cctype>

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

/// FNV-1a over the lowercased bytes s[pos, pos+len).
inline uint32_t Fnv1aLower(const std::array<uint8_t, 256>& lower,
                           std::string_view s, size_t pos, size_t len) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < len; ++i) {
    h ^= lower[static_cast<unsigned char>(s[pos + i])];
    h *= 16777619u;
  }
  return h;
}

/// Grams HashedQgramSet hashes for `s`, duplicates included.
size_t NumGrams(std::string_view s, int q) {
  if (s.empty() || q <= 0) return 0;
  const size_t qu = static_cast<size_t>(q);
  return s.size() < qu ? 1 : s.size() - qu + 1;
}

/// Calls f(hash) for each of the NumGrams(s, q) gram hashes of `s`, in
/// position order: the whole string when it is shorter than q.
template <typename F>
void ForEachGramHash(std::string_view s, int q, const F& f) {
  const size_t n = NumGrams(s, q);
  if (n == 0) return;
  const std::array<uint8_t, 256>& lower = LowerTable();
  const size_t len = std::min(s.size(), static_cast<size_t>(q));
  for (size_t i = 0; i < n; ++i) f(Fnv1aLower(lower, s, i, len));
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
  std::vector<uint32_t> grams;
  grams.reserve(NumGrams(s, q));
  ForEachGramHash(s, q, [&](uint32_t h) { grams.push_back(h); });
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
  // Branch-free merge: equal heads count and both advance, otherwise the
  // smaller head advances.
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t x = a[i], y = b[j];
    inter += x == y;
    i += x <= y;
    j += y <= x;
  }
  return JaccardOfCounts(inter, a.size(), b.size());
}

void QgramJaccardProfile::HashSet::Clear(size_t max_keys) {
  // A load factor of at most 1/2 keeps probe runs short.
  size_t capacity = 16;
  int shift = 28;
  while (capacity < 2 * max_keys) {
    capacity *= 2;
    --shift;
  }
  if (capacity > slots_.size()) {
    slots_.assign(capacity, Slot{});
    stamp_ = 0;
    shift_ = shift;
  }
  if (++stamp_ == 0) {
    for (Slot& slot : slots_) slot.stamp = 0;
    stamp_ = 1;
  }
}

bool QgramJaccardProfile::HashSet::Insert(uint32_t h) {
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(h);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.stamp != stamp_) {
      slot = {h, stamp_};
      return true;
    }
    if (slot.key == h) return false;
  }
}

bool QgramJaccardProfile::HashSet::Contains(uint32_t h) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(h);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.stamp != stamp_) return false;
    if (slot.key == h) return true;
  }
}

QgramJaccardProfile::QgramJaccardProfile(std::string_view reference, int q)
    : q_(q) {
  reference_.Clear(NumGrams(reference, q));
  ForEachGramHash(reference, q,
                  [&](uint32_t h) { reference_size_ += reference_.Insert(h); });
}

double QgramJaccardProfile::Jaccard(std::string_view candidate) {
  seen_.Clear(NumGrams(candidate, q_));
  size_t size = 0, inter = 0;
  ForEachGramHash(candidate, q_, [&](uint32_t h) {
    if (seen_.Insert(h)) {
      ++size;
      inter += reference_.Contains(h);
    }
  });
  return JaccardOfCounts(inter, reference_size_, size);
}

double QgramJaccard(std::string_view a, std::string_view b, int q) {
  return JaccardOfHashedSets(HashedQgramSet(a, q), HashedQgramSet(b, q));
}

}  // namespace serd
