#include "common/rng.h"

#include <cmath>

namespace serd {
namespace {

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& w : state_) w = SplitMix64(&s);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  SERD_CHECK_LE(lo, hi);
  return lo + (hi - lo) * Uniform();
}

uint64_t Rng::UniformInt(uint64_t n) {
  SERD_CHECK_GT(n, 0u);
  // Rejection sampling to remove modulo bias.
  const uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  SERD_CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - Uniform();
  double u2 = Uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  SERD_CHECK_GE(stddev, 0.0);
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return Uniform() < p;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  return CategoricalIndex(weights, Uniform());
}

size_t Rng::CategoricalIndex(const std::vector<double>& weights, double u) {
  SERD_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    SERD_CHECK_GE(w, 0.0);
    total += w;
  }
  SERD_CHECK_GT(total, 0.0) << "categorical weights sum to zero";
  return CategoricalPick(weights.data(), weights.size(), total, u);
}

Rng Rng::Fork() { return Rng(Next() ^ 0xa5a5a5a5deadbeefULL); }

}  // namespace serd
