#ifndef SERD_GMM_O_DISTRIBUTION_H_
#define SERD_GMM_O_DISTRIBUTION_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "gmm/gmm.h"
#include "runtime/thread_pool.h"

namespace serd {

/// The paper's O-distribution: the mixture of the matching distribution
/// (M, weight pi) and the non-matching distribution (N, weight 1-pi) over
/// similarity vectors:  p(x) = pi * p_m(x) + (1-pi) * p_n(x).
/// The arms are immutable and shared: a copy of a distribution, or one
/// built from another's arms, copies no model.
class ODistribution {
 public:
  ODistribution();
  ODistribution(double pi, Gmm m, Gmm n);
  ODistribution(double pi, std::shared_ptr<const Gmm> m,
                std::shared_ptr<const Gmm> n);

  double pi() const { return pi_; }
  const Gmm& m_distribution() const { return *m_; }
  const Gmm& n_distribution() const { return *n_; }
  size_t dimension() const { return m_->dimension(); }

  /// log p(x), through the fused mixture tile (mixture_tile::OLogPdf).
  /// The 1-point case of LogPdfBatch.
  double LogPdf(const Vec& x) const;

  /// LogPdf of `count` points stored dimension-major (coordinate i of
  /// point j at xs[i * count + j]); out[j] is bit-identical to LogPdf of
  /// point j. Where log_m (log_n) is non-null it holds log p_m (log p_n)
  /// at the same points, as Gmm::LogPdfBatch gives them, and that arm is
  /// not evaluated again.
  void LogPdfBatch(const double* xs, size_t count, double* out,
                   const double* log_m = nullptr,
                   const double* log_n = nullptr) const;

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

  /// SampleUnclampedInto's value for given draws: the M arm iff u_arm <
  /// pi (Rng::Bernoulli's rule), the arm's component
  /// Rng::CategoricalIndex(weights, u_component) (Rng::Categorical's),
  /// then its TransformInto(z). For 0 < pi < 1, SampleUnclampedInto draws
  /// exactly u_arm, u_component and dimension() normals, in that order, so
  /// the two agree bit for bit; at pi = 0 or 1 it draws no u_arm. Returns
  /// from_match.
  bool MapUnclampedInto(double u_arm, double u_component, const double* z,
                        double* x, size_t stride) const;

  /// Posterior probability that x belongs to the M-distribution
  /// (paper Section IV-C): P_m(x) = pi p_m(x) / (pi p_m(x) + (1-pi) p_n(x)).
  /// The 1-point case of PosteriorMatchBatch.
  double PosteriorMatch(const Vec& x) const;

  /// PosteriorMatch of `count` points stored dimension-major (coordinate i
  /// of point j at xs[i * count + j]), through the fused mixture tile
  /// (mixture_tile::Posterior); out[j] is bit-identical to PosteriorMatch
  /// of point j.
  void PosteriorMatchBatch(const double* xs, size_t count,
                           double* out) const;

  /// Labels x as matching iff P_m(x) >= P_n(x) = 1 - P_m(x).
  bool LabelAsMatch(const Vec& x) const { return PosteriorMatch(x) >= 0.5; }

  /// The distribution's arms as the fused tile reads them, pointing into
  /// its models (which must outlive the view): an arm of zero weight is
  /// left empty (-inf), and known_m / known_n are as in LogPdfBatch.
  class TileView {
   public:
    explicit TileView(const ODistribution& o, const double* known_m = nullptr,
                      const double* known_n = nullptr);
    const mixture_tile::OArms& arms() const { return arms_; }

   private:
    Gmm::TileView m_, n_;
    mixture_tile::OArms arms_;
  };

 private:
  double pi_ = 0.5;
  std::shared_ptr<const Gmm> m_;
  std::shared_ptr<const Gmm> n_;
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
/// p's draws differ per p, but their raw randomness does not: for 0 < pi
/// < 1 each draw takes its arm uniform, its component uniform and
/// dimension normals from its block's stream, whatever p's weights and
/// factors. The constructor draws those once too (num_samples * (dimension
/// + 2) doubles), and Estimate maps a block of them through p at a time
/// by MapUnclampedInto's rule, bit-identical to drawing from the stream; a
/// p with pi of 0 or 1 draws no arm uniform, so its blocks draw from their
/// streams.
///
/// Estimate(p) draws p's blocks, then scores log p and log q there and
/// sums the block's KL terms in draw order in one fused pass
/// (mixture_tile::KlSum); the stored q draws take one such pass with log
/// p; the block sums fold in block order; blocks run on `pool` when given. The
/// estimate is a pure function of (p, q, num_samples, seed) — the same for
/// any pool size, including none. q must outlive the estimator; Estimate
/// may be called concurrently.
///
/// A caller whose successive p share an arm (the S2 loop, whose arm with
/// no new pairs is its committed model) can keep that arm's log-densities
/// at the stored q draws (StoredArmLogPdf) and pass them to Estimate,
/// which then skips that arm there, with the same result bit for bit.
class JsdEstimator {
 public:
  JsdEstimator(const ODistribution& q, int num_samples, uint64_t seed,
               runtime::ThreadPool* pool = nullptr);

  /// m_stored (n_stored), when non-null, is StoredArmLogPdf of p's M (N)
  /// arm.
  double Estimate(const ODistribution& p, const double* m_stored = nullptr,
                  const double* n_stored = nullptr) const;

  /// log p_arm at the stored q draws, in draw order (num_samples values).
  void StoredArmLogPdf(const Gmm& arm, std::vector<double>* out) const;

 private:
  struct Prepared;
  /// Sum over one block of p's draws of log p - log m: the block's draws
  /// mapped through p, then one fused pass (mixture_tile::KlSum) scoring
  /// them under p and q.
  double DrawnBlockSum(const Prepared& p, const mixture_tile::OArms& q,
                       size_t block) const;
  /// Sum over one block of the stored q draws of log q - log m, in one
  /// fused pass with p's stored arms.
  double StoredBlockSum(const Prepared& p, size_t block) const;

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
  /// p's raw randomness, draw by draw: the arm and component uniforms of
  /// draw s at p_uniforms_[2 s] and [2 s + 1], its normals at
  /// p_normals_[s * d + i].
  std::vector<double> p_uniforms_;
  std::vector<double> p_normals_;
};

/// JsdEstimator(q, num_samples, seed, pool).Estimate(p): one estimate.
double EstimateJsd(const ODistribution& p, const ODistribution& q,
                   int num_samples, uint64_t seed,
                   runtime::ThreadPool* pool = nullptr);

}  // namespace serd

#endif  // SERD_GMM_O_DISTRIBUTION_H_
