#ifndef SERD_COMMON_RNG_H_
#define SERD_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace serd {

/// Deterministic, seedable pseudo-random generator (xoshiro256++).
///
/// Every stochastic component in the library takes an Rng (or a seed from
/// which it constructs one) so that experiments are reproducible
/// bit-for-bit. There is no global generator.
class Rng {
 public:
  /// Seeds the four-word state from `seed` via splitmix64, as recommended
  /// by the xoshiro authors.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (one value per call; the pair's second
  /// value is cached).
  double Gaussian();

  /// Normal with the given mean and standard deviation (stddev >= 0).
  double Gaussian(double mean, double stddev);

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Index in [0, weights.size()) sampled proportionally to `weights`.
  /// Requires a nonempty vector with nonnegative weights and positive sum.
  size_t Categorical(const std::vector<double>& weights);

  /// The index Categorical(weights) returns when its uniform draw is u:
  /// the first i whose running weight sum exceeds u * total, else the
  /// last. Same requirements on `weights`.
  static size_t CategoricalIndex(const std::vector<double>& weights,
                                 double u);

  /// CategoricalIndex's pick once `total`, the weights summed in order,
  /// is known; no checks.
  static size_t CategoricalPick(const double* weights, size_t count,
                                double total, double u) {
    const double r = u * total;
    double acc = 0.0;
    for (size_t i = 0; i < count; ++i) {
      acc += weights[i];
      if (r < acc) return i;
    }
    return count - 1;  // Numerical edge: fall to the last bucket.
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = UniformInt(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// A derived generator with an independent stream; useful for giving
  /// sub-components their own reproducible randomness.
  Rng Fork();

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace serd

#endif  // SERD_COMMON_RNG_H_
