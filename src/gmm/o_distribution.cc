#include "gmm/o_distribution.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "runtime/parallel_for.h"
#include "runtime/sharded_rng.h"

namespace serd {

ODistribution::ODistribution()
    : m_(std::make_shared<const Gmm>()), n_(m_) {}

ODistribution::ODistribution(double pi, Gmm m, Gmm n)
    : ODistribution(pi, std::make_shared<const Gmm>(std::move(m)),
                    std::make_shared<const Gmm>(std::move(n))) {}

ODistribution::ODistribution(double pi, std::shared_ptr<const Gmm> m,
                             std::shared_ptr<const Gmm> n)
    : pi_(pi), m_(std::move(m)), n_(std::move(n)) {
  SERD_CHECK(pi_ >= 0.0 && pi_ <= 1.0);
  SERD_CHECK(m_ != nullptr && n_ != nullptr);
  SERD_CHECK_EQ(m_->dimension(), n_->dimension());
}

ODistribution::TileView::TileView(const ODistribution& o,
                                  const double* known_m,
                                  const double* known_n)
    : m_(*o.m_), n_(*o.n_) {
  // log(pi) + log p_m and log(1-pi) + log p_n; an arm with zero weight is
  // -inf and its GMM is not evaluated.
  if (o.pi_ > 0.0) arms_.m = m_.arm(std::log(o.pi_), known_m);
  if (o.pi_ < 1.0) arms_.n = n_.arm(std::log(1.0 - o.pi_), known_n);
}

double ODistribution::LogPdf(const Vec& x) const {
  SERD_CHECK_EQ(x.size(), dimension());
  double out;
  mixture_tile::OLogPdf(TileView(*this).arms(), dimension(), x.data(), 1, 1,
                        &out);
  return out;
}

void ODistribution::LogPdfBatch(const double* xs, size_t count, double* out,
                                const double* log_m,
                                const double* log_n) const {
  mixture_tile::OLogPdf(TileView(*this, log_m, log_n).arms(), dimension(), xs,
                        count, count, out);
}

ODistribution::SampleResult ODistribution::Sample(Rng* rng) const {
  SampleResult out = SampleUnclamped(rng);
  for (double& v : out.x) v = std::clamp(v, 0.0, 1.0);
  return out;
}

ODistribution::SampleResult ODistribution::SampleUnclamped(Rng* rng) const {
  Vec x(dimension());
  const bool from_match = SampleUnclampedInto(rng, x.data(), 1);
  return {std::move(x), from_match};
}

bool ODistribution::SampleUnclampedInto(Rng* rng, double* x,
                                        size_t stride) const {
  SERD_CHECK(rng != nullptr);
  const bool from_match = rng->Bernoulli(pi_);
  (from_match ? *m_ : *n_).SampleInto(rng, x, stride);
  return from_match;
}

namespace {

/// An arm's weights summed in order, as Rng::CategoricalIndex sums them.
double WeightTotal(const Gmm& arm) {
  double total = 0.0;
  for (double w : arm.weights()) total += w;
  return total;
}

/// MapUnclampedInto's rule, with each arm's WeightTotal given.
inline bool MapDraw(const ODistribution& o, double m_total, double n_total,
                    double u_arm, double u_component, const double* z,
                    double* x, size_t stride) {
  const bool from_match = u_arm < o.pi();
  const Gmm& arm = from_match ? o.m_distribution() : o.n_distribution();
  const std::vector<double>& w = arm.weights();
  arm.component(Rng::CategoricalPick(w.data(), w.size(),
                                     from_match ? m_total : n_total,
                                     u_component))
      .TransformInto(z, x, stride);
  return from_match;
}

}  // namespace

bool ODistribution::MapUnclampedInto(double u_arm, double u_component,
                                     const double* z, double* x,
                                     size_t stride) const {
  return MapDraw(*this, WeightTotal(*m_), WeightTotal(*n_), u_arm,
                 u_component, z, x, stride);
}

double ODistribution::PosteriorMatch(const Vec& x) const {
  SERD_CHECK_EQ(x.size(), dimension());
  double out;
  PosteriorMatchBatch(x.data(), 1, &out);
  return out;
}

void ODistribution::PosteriorMatchBatch(const double* xs, size_t count,
                                        double* out) const {
  // A one-arm mixture decides every point without evaluating either GMM.
  if (pi_ <= 0.0 || pi_ >= 1.0) {
    std::fill(out, out + count, pi_ <= 0.0 ? 0.0 : 1.0);
    return;
  }
  mixture_tile::Posterior(TileView(*this).arms(), dimension(), xs, count,
                          count, out);
}

namespace {

/// Draws per Monte-Carlo block; each block owns an independent RNG stream
/// so the estimate is thread-count independent. Fixed by contract.
constexpr size_t kJsdBlock = 64;

/// Draws in Monte-Carlo block `block`, which starts at draw
/// block * kJsdBlock.
size_t BlockLength(size_t block, int num_samples) {
  return std::min(kJsdBlock,
                  static_cast<size_t>(num_samples) - block * kJsdBlock);
}

}  // namespace

/// One p of Estimate, ready for its blocks: its arms as the tile reads
/// them and each arm's weight total for mapping draws.
struct JsdEstimator::Prepared {
  Prepared(const ODistribution& p, const double* m_stored,
           const double* n_stored)
      : o(p),
        view(p),
        m_total(WeightTotal(p.m_distribution())),
        n_total(WeightTotal(p.n_distribution())),
        m_stored(m_stored),
        n_stored(n_stored) {}
  const ODistribution& o;
  ODistribution::TileView view;
  double m_total, n_total;
  const double* m_stored;
  const double* n_stored;
};

JsdEstimator::JsdEstimator(const ODistribution& q, int num_samples,
                           uint64_t seed, runtime::ThreadPool* pool)
    : q_(&q), num_samples_(num_samples), seed_(seed), pool_(pool) {
  SERD_CHECK_GT(num_samples, 0);
  const size_t d = q.dimension();
  num_blocks_ = (static_cast<size_t>(num_samples) + kJsdBlock - 1) / kJsdBlock;
  q_draws_.resize(static_cast<size_t>(num_samples) * d);
  log_q_.resize(static_cast<size_t>(num_samples));
  p_uniforms_.resize(2 * static_cast<size_t>(num_samples));
  p_normals_.resize(static_cast<size_t>(num_samples) * d);
  runtime::ParallelFor(pool, 0, num_blocks_, 1, [&](size_t lo, size_t hi) {
    for (size_t block = lo; block < hi; ++block) {
      const size_t start = block * kJsdBlock;
      const size_t len = BlockLength(block, num_samples_);
      // p's raw randomness, in SampleUnclampedInto's order for 0 < pi < 1.
      Rng p_rng(runtime::ShardedRng::DeriveSeed(seed_, 2 * block));
      for (size_t s = start; s < start + len; ++s) {
        p_uniforms_[2 * s] = p_rng.Uniform();
        p_uniforms_[2 * s + 1] = p_rng.Uniform();
        for (size_t i = 0; i < d; ++i) p_normals_[s * d + i] = p_rng.Gaussian();
      }
      Rng rng(runtime::ShardedRng::DeriveSeed(seed_, 2 * block + 1));
      // Unclamped: the estimator must sample the density it scores (see
      // SampleUnclamped); clamped draws bias both KL terms at the cube
      // boundary.
      double* xs = q_draws_.data() + start * d;
      for (size_t j = 0; j < len; ++j) q.SampleUnclampedInto(&rng, xs + j, len);
      q.LogPdfBatch(xs, len, log_q_.data() + start);
    }
  });
}

double JsdEstimator::DrawnBlockSum(const Prepared& p,
                                   const mixture_tile::OArms& q,
                                   size_t block) const {
  const size_t len = BlockLength(block, num_samples_);
  const size_t d = q_->dimension();
  double inline_xs[MultivariateGaussian::kInlineDimension * kJsdBlock];
  std::unique_ptr<double[]> heap_xs;
  double* xs = inline_xs;
  if (d > MultivariateGaussian::kInlineDimension) {
    heap_xs = std::make_unique<double[]>(d * len);
    xs = heap_xs.get();
  }
  const double pi = p.o.pi();
  if (pi > 0.0 && pi < 1.0) {
    const size_t start = block * kJsdBlock;
    for (size_t j = 0; j < len; ++j) {
      const size_t s = start + j;
      MapDraw(p.o, p.m_total, p.n_total, p_uniforms_[2 * s],
              p_uniforms_[2 * s + 1], p_normals_.data() + s * d, xs + j, len);
    }
  } else {
    Rng rng(runtime::ShardedRng::DeriveSeed(seed_, 2 * block));
    for (size_t j = 0; j < len; ++j) p.o.SampleUnclampedInto(&rng, xs + j, len);
  }
  return mixture_tile::KlSum(p.view.arms(), q, nullptr, /*side_p=*/true, d,
                             xs, len, len);
}

double JsdEstimator::StoredBlockSum(const Prepared& p, size_t block) const {
  const size_t start = block * kJsdBlock;
  const size_t len = BlockLength(block, num_samples_);
  // The stored arms' log-densities at this block's draws; an arm of zero
  // weight stays -inf.
  mixture_tile::OArms arms = p.view.arms();
  if (p.m_stored != nullptr && arms.m.count > 0) {
    arms.m.known = p.m_stored + start;
  }
  if (p.n_stored != nullptr && arms.n.count > 0) {
    arms.n.known = p.n_stored + start;
  }
  const size_t d = q_->dimension();
  return mixture_tile::KlSum(arms, {}, log_q_.data() + start,
                             /*side_p=*/false, d, q_draws_.data() + start * d,
                             len, len);
}

void JsdEstimator::StoredArmLogPdf(const Gmm& arm,
                                   std::vector<double>* out) const {
  SERD_CHECK_EQ(arm.dimension(), q_->dimension());
  out->resize(static_cast<size_t>(num_samples_));
  runtime::ParallelFor(pool_, 0, num_blocks_, 1, [&](size_t lo, size_t hi) {
    for (size_t block = lo; block < hi; ++block) {
      const size_t start = block * kJsdBlock;
      arm.LogPdfBatch(q_draws_.data() + start * q_->dimension(),
                      BlockLength(block, num_samples_), out->data() + start);
    }
  });
}

double JsdEstimator::Estimate(const ODistribution& p, const double* m_stored,
                              const double* n_stored) const {
  SERD_CHECK_EQ(p.dimension(), q_->dimension());
  const Prepared prepared(p, m_stored, n_stored);
  const ODistribution::TileView q(*q_);
  // Task b is block b / 2 of side p (even b) or side q (odd b), the side
  // whose RNG stream is DeriveSeed(seed, b). Block sums are folded in task
  // order.
  struct KlPair {
    double kl_p = 0.0;
    double kl_q = 0.0;
  };
  KlPair kl = runtime::ParallelReduce<KlPair>(
      pool_, 0, 2 * num_blocks_, 1, KlPair{},
      [&](size_t lo, size_t hi) {
        KlPair part;
        for (size_t b = lo; b < hi; ++b) {
          if (b % 2 == 0) {
            part.kl_p += DrawnBlockSum(prepared, q.arms(), b / 2);
          } else {
            part.kl_q += StoredBlockSum(prepared, b / 2);
          }
        }
        return part;
      },
      [](KlPair acc, KlPair part) {
        acc.kl_p += part.kl_p;
        acc.kl_q += part.kl_q;
        return acc;
      });
  double jsd =
      0.5 * (kl.kl_p + kl.kl_q) / static_cast<double>(num_samples_);
  // MC noise can push the estimate slightly negative near zero divergence.
  return std::max(0.0, jsd);
}

double EstimateJsd(const ODistribution& p, const ODistribution& q,
                   int num_samples, uint64_t seed,
                   runtime::ThreadPool* pool) {
  return JsdEstimator(q, num_samples, seed, pool).Estimate(p);
}

}  // namespace serd
