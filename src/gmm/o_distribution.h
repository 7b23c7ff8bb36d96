#ifndef SERD_GMM_O_DISTRIBUTION_H_
#define SERD_GMM_O_DISTRIBUTION_H_

#include <vector>

#include "common/rng.h"
#include "gmm/gmm.h"
#include "runtime/thread_pool.h"

namespace serd {

/// The paper's O-distribution: the mixture of the matching distribution
/// (M, weight pi) and the non-matching distribution (N, weight 1-pi) over
/// similarity vectors:  p(x) = pi * p_m(x) + (1-pi) * p_n(x).
class ODistribution {
 public:
  ODistribution() = default;
  ODistribution(double pi, Gmm m, Gmm n);

  double pi() const { return pi_; }
  const Gmm& m_distribution() const { return m_; }
  const Gmm& n_distribution() const { return n_; }
  size_t dimension() const { return m_.dimension(); }

  /// log p(x). The 1-point case of LogPdfBatch.
  double LogPdf(const Vec& x) const;

  /// LogPdf of `count` points stored dimension-major (coordinate i of
  /// point j at xs[i * count + j]), a tile of points at a time; out[j] is
  /// bit-identical to LogPdf of point j.
  void LogPdfBatch(const double* xs, size_t count, double* out) const;

  /// A sampled similarity vector plus which mixture arm produced it.
  struct SampleResult {
    Vec x;
    bool from_match;
  };

  /// Samples from M with probability pi, else from N (paper step S2-2).
  /// Components are clamped to [0, 1] since similarities live there.
  SampleResult Sample(Rng* rng) const;

  /// Samples without the [0, 1] clamp. The Monte-Carlo JSD estimator must
  /// draw from the *actual* mixture density it evaluates LogPdf under:
  /// clamping piles probability mass onto the faces of the unit cube while
  /// LogPdf still integrates over all of R^d, which biases the KL terms
  /// whenever the GMM has mass outside the cube (common for boundary-
  /// hugging similarity mixtures near 0/1). Entity synthesis keeps using
  /// the clamped Sample(). Consumes the same RNG draws as Sample().
  SampleResult SampleUnclamped(Rng* rng) const;

  /// SampleUnclamped() without allocating: the same RNG draws (Bernoulli
  /// pi, the arm's component, then its Gaussians) and the same values,
  /// written to x[i * stride] for i < dimension(). Returns from_match.
  bool SampleUnclampedInto(Rng* rng, double* x, size_t stride) const;

  /// Posterior probability that x belongs to the M-distribution
  /// (paper Section IV-C): P_m(x) = pi p_m(x) / (pi p_m(x) + (1-pi) p_n(x)).
  /// The 1-point case of PosteriorMatchBatch.
  double PosteriorMatch(const Vec& x) const;

  /// PosteriorMatch of `count` points stored dimension-major (coordinate i
  /// of point j at xs[i * count + j]), a tile of points at a time; out[j]
  /// is bit-identical to PosteriorMatch of point j.
  void PosteriorMatchBatch(const double* xs, size_t count,
                           double* out) const;

  /// Labels x as matching iff P_m(x) >= P_n(x) = 1 - P_m(x).
  bool LabelAsMatch(const Vec& x) const { return PosteriorMatch(x) >= 0.5; }

 private:
  /// The batch kernel: n <= MultivariateGaussian::kBatchTile points,
  /// coordinate i of point j at xs[i * stride + j].
  void LogPdfTile(const double* xs, size_t stride, size_t n,
                  double* out) const;
  /// The posterior kernel, over a tile laid out as for LogPdfTile.
  void PosteriorMatchTile(const double* xs, size_t stride, size_t n,
                          double* out) const;

  double pi_ = 0.5;
  Gmm m_;
  Gmm n_;
};

/// Monte-Carlo estimates of the Jensen-Shannon divergence (paper Eq. 3)
/// of many p against one fixed q — O_real in the S2 rejection loop:
///   JSD(p||q) = 0.5 E_p[log p/m] + 0.5 E_q[log q/m],  m = (p+q)/2.
/// Each side takes `num_samples` draws, sharded into fixed 64-draw blocks;
/// block b of side p draws from the RNG stream DeriveSeed(seed, 2b) and
/// block b of side q from DeriveSeed(seed, 2b+1). Every estimate shares
/// that randomness (common random numbers, so the comparison in Eq. 10 is
/// low-variance), which means q's half — its draws and log q at them — is
/// the same for every p: the constructor draws and scores it once and
/// keeps num_samples * (dimension + 1) doubles.
///
/// Estimate(p) draws p's blocks and scores log p and log q there, scores
/// log p at the stored q draws, sums each block in draw order and folds
/// the block sums in block order; blocks run on `pool` when given. The
/// estimate is a pure function of (p, q, num_samples, seed) — the same for
/// any pool size, including none. q must outlive the estimator; Estimate
/// may be called concurrently.
class JsdEstimator {
 public:
  JsdEstimator(const ODistribution& q, int num_samples, uint64_t seed,
               runtime::ThreadPool* pool = nullptr);

  double Estimate(const ODistribution& p) const;

 private:
  /// Sum over one block of p's draws of log p - log m.
  double DrawnBlockSum(const ODistribution& p, size_t block) const;
  /// Sum over one block of the stored q draws of log q - log m.
  double StoredBlockSum(const ODistribution& p, size_t block) const;

  const ODistribution* q_;
  int num_samples_;
  uint64_t seed_;
  runtime::ThreadPool* pool_;
  size_t num_blocks_;
  /// q's draws block after block, each block dimension-major: coordinate
  /// i of draw j of the block starting at draw s is at [s * d + i * len +
  /// j], len the block's draw count.
  std::vector<double> q_draws_;
  /// log q at q_draws_, in draw order.
  std::vector<double> log_q_;
};

/// JsdEstimator(q, num_samples, seed, pool).Estimate(p): one estimate.
double EstimateJsd(const ODistribution& p, const ODistribution& q,
                   int num_samples, uint64_t seed,
                   runtime::ThreadPool* pool = nullptr);

}  // namespace serd

#endif  // SERD_GMM_O_DISTRIBUTION_H_
