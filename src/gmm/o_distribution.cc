#include "gmm/o_distribution.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "gmm/lse.h"
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

double ODistribution::LogPdf(const Vec& x) const {
  SERD_CHECK_EQ(x.size(), dimension());
  double out;
  LogPdfTile(x.data(), 1, 1, &out, nullptr, nullptr);
  return out;
}

void ODistribution::LogPdfBatch(const double* xs, size_t count, double* out,
                                const double* log_m,
                                const double* log_n) const {
  constexpr size_t kTile = MultivariateGaussian::kBatchTile;
  for (size_t j0 = 0; j0 < count; j0 += kTile) {
    LogPdfTile(xs + j0, count, std::min(kTile, count - j0), out + j0,
               log_m != nullptr ? log_m + j0 : nullptr,
               log_n != nullptr ? log_n + j0 : nullptr);
  }
}

void ODistribution::LogPdfTile(const double* xs, size_t stride, size_t n,
                               double* out, const double* known_m,
                               const double* known_n) const {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  // log(pi) + log p_m and log(1-pi) + log p_n per point; an arm with zero
  // weight is -inf and its GMM is not evaluated.
  double log_m[MultivariateGaussian::kBatchTile];
  double log_n[MultivariateGaussian::kBatchTile];
  if (pi_ > 0.0) {
    if (known_m != nullptr) {
      std::copy(known_m, known_m + n, log_m);
    } else {
      m_->EStepTile(xs, stride, n, nullptr, log_m);
    }
    const double log_pi = std::log(pi_);
    for (size_t j = 0; j < n; ++j) log_m[j] = log_pi + log_m[j];
  } else {
    for (size_t j = 0; j < n; ++j) log_m[j] = kNegInf;
  }
  if (pi_ < 1.0) {
    if (known_n != nullptr) {
      std::copy(known_n, known_n + n, log_n);
    } else {
      n_->EStepTile(xs, stride, n, nullptr, log_n);
    }
    const double log_1mpi = std::log(1.0 - pi_);
    for (size_t j = 0; j < n; ++j) log_n[j] = log_1mpi + log_n[j];
  } else {
    for (size_t j = 0; j < n; ++j) log_n[j] = kNegInf;
  }
  // Per point hi + log(exp(log_m - hi) + exp(log_n - hi)) through the lse
  // kernels, or hi itself where it is not finite; e holds the m terms,
  // then the n terms.
  double hi[MultivariateGaussian::kBatchTile];
  double e[2 * MultivariateGaussian::kBatchTile];
  for (size_t j = 0; j < n; ++j) {
    hi[j] = std::max(log_m[j], log_n[j]);
    e[j] = log_m[j] - hi[j];
    e[n + j] = log_n[j] - hi[j];
  }
  lse::Exp(2 * n, e, e);
  for (size_t j = 0; j < n; ++j) e[j] = e[j] + e[n + j];
  lse::Log(n, e, e);
  for (size_t j = 0; j < n; ++j) {
    out[j] = std::isfinite(hi[j]) ? hi[j] + e[j] : hi[j];
  }
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

bool ODistribution::MapUnclampedInto(double u_arm, double u_component,
                                     const double* z, double* x,
                                     size_t stride) const {
  const bool from_match = u_arm < pi_;
  const Gmm& arm = from_match ? *m_ : *n_;
  arm.component(Rng::CategoricalIndex(arm.weights(), u_component))
      .TransformInto(z, x, stride);
  return from_match;
}

double ODistribution::PosteriorMatch(const Vec& x) const {
  SERD_CHECK_EQ(x.size(), dimension());
  double out;
  PosteriorMatchTile(x.data(), 1, 1, &out);
  return out;
}

void ODistribution::PosteriorMatchBatch(const double* xs, size_t count,
                                        double* out) const {
  constexpr size_t kTile = MultivariateGaussian::kBatchTile;
  for (size_t j0 = 0; j0 < count; j0 += kTile) {
    PosteriorMatchTile(xs + j0, count, std::min(kTile, count - j0),
                       out + j0);
  }
}

void ODistribution::PosteriorMatchTile(const double* xs, size_t stride,
                                       size_t n, double* out) const {
  // A one-arm mixture decides every point without evaluating either GMM.
  if (pi_ <= 0.0 || pi_ >= 1.0) {
    const double posterior = pi_ <= 0.0 ? 0.0 : 1.0;
    for (size_t j = 0; j < n; ++j) out[j] = posterior;
    return;
  }
  double log_m[MultivariateGaussian::kBatchTile];
  double log_n[MultivariateGaussian::kBatchTile];
  m_->EStepTile(xs, stride, n, nullptr, log_m);
  n_->EStepTile(xs, stride, n, nullptr, log_n);
  const double log_pi = std::log(pi_);
  const double log_1mpi = std::log(1.0 - pi_);
  // z[j] = exp(lm - hi) and z[n + j] = exp(ln - hi) through the lse Exp.
  double z[2 * MultivariateGaussian::kBatchTile];
  for (size_t j = 0; j < n; ++j) {
    const double lm = log_pi + log_m[j];
    const double ln = log_1mpi + log_n[j];
    const double hi = std::max(lm, ln);
    z[j] = lm - hi;
    z[n + j] = ln - hi;
  }
  lse::Exp(2 * n, z, z);
  for (size_t j = 0; j < n; ++j) out[j] = z[j] / (z[j] + z[n + j]);
}

namespace {

/// Draws per Monte-Carlo block; each block owns an independent RNG stream
/// so the estimate is thread-count independent. Fixed by contract.
constexpr size_t kJsdBlock = 64;

/// Sum over a block of len draws of side[j] - log m_j, where log m_j =
/// log((p + q) / 2) = (log 1/2 + hi) + log(exp(lp - hi) + exp(lq - hi)),
/// hi = max(lp, lq), through the lse kernels; summed in draw order.
double KlBlockSum(const double* side, const double* lp, const double* lq,
                  size_t len) {
  constexpr double kLogHalf = -0.6931471805599453;
  double hi[kJsdBlock];
  double e[2 * kJsdBlock] = {};  // zeroed only to quiet GCC 12's
                                 // -Wmaybe-uninitialized at lse::Exp
  for (size_t j = 0; j < len; ++j) {
    hi[j] = std::max(lp[j], lq[j]);
    e[j] = lp[j] - hi[j];
    e[len + j] = lq[j] - hi[j];
  }
  lse::Exp(2 * len, e, e);
  for (size_t j = 0; j < len; ++j) e[j] = e[j] + e[len + j];
  lse::Log(len, e, e);
  double sum = 0.0;
  for (size_t j = 0; j < len; ++j) sum += side[j] - (kLogHalf + hi[j] + e[j]);
  return sum;
}

/// Draws in Monte-Carlo block `block`, which starts at draw
/// block * kJsdBlock.
size_t BlockLength(size_t block, int num_samples) {
  return std::min(kJsdBlock,
                  static_cast<size_t>(num_samples) - block * kJsdBlock);
}

}  // namespace

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

double JsdEstimator::DrawnBlockSum(const ODistribution& p,
                                   size_t block) const {
  const size_t len = BlockLength(block, num_samples_);
  const size_t d = p.dimension();
  double inline_xs[MultivariateGaussian::kInlineDimension * kJsdBlock];
  std::unique_ptr<double[]> heap_xs;
  double* xs = inline_xs;
  if (d > MultivariateGaussian::kInlineDimension) {
    heap_xs = std::make_unique<double[]>(d * len);
    xs = heap_xs.get();
  }
  if (p.pi() > 0.0 && p.pi() < 1.0) {
    const size_t start = block * kJsdBlock;
    for (size_t j = 0; j < len; ++j) {
      const size_t s = start + j;
      p.MapUnclampedInto(p_uniforms_[2 * s], p_uniforms_[2 * s + 1],
                         p_normals_.data() + s * d, xs + j, len);
    }
  } else {
    Rng rng(runtime::ShardedRng::DeriveSeed(seed_, 2 * block));
    for (size_t j = 0; j < len; ++j) p.SampleUnclampedInto(&rng, xs + j, len);
  }
  double lp[kJsdBlock];
  double lq[kJsdBlock];
  p.LogPdfBatch(xs, len, lp);
  q_->LogPdfBatch(xs, len, lq);
  return KlBlockSum(lp, lp, lq, len);
}

double JsdEstimator::StoredBlockSum(const ODistribution& p, size_t block,
                                    const double* m_stored,
                                    const double* n_stored) const {
  const size_t start = block * kJsdBlock;
  const size_t len = BlockLength(block, num_samples_);
  double lp[kJsdBlock];
  p.LogPdfBatch(q_draws_.data() + start * q_->dimension(), len, lp,
                m_stored != nullptr ? m_stored + start : nullptr,
                n_stored != nullptr ? n_stored + start : nullptr);
  const double* lq = log_q_.data() + start;
  return KlBlockSum(lq, lp, lq, len);
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
            part.kl_p += DrawnBlockSum(p, b / 2);
          } else {
            part.kl_q += StoredBlockSum(p, b / 2, m_stored, n_stored);
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
