#ifndef SERD_GMM_MIXTURE_TILE_H_
#define SERD_GMM_MIXTURE_TILE_H_

#include <cstddef>

namespace serd::mixture_tile {

/// The fused log-density kernel behind every mixture log-density outside
/// EM (DESIGN.md §5d): Gmm::LogPdf/LogPdfBatch, ODistribution::LogPdfBatch,
/// PosteriorMatchBatch and the JSD estimator's blocks. Points are
/// dimension-major (coordinate i of point j at xs[i * stride + j]) and go
/// through the kernel four at a time, a register group; a call's last
/// group is padded with zeros, so every point takes the same operations
/// wherever it falls. Per group the kernel solves each component by
/// multiplying with the component's reciprocal Cholesky diagonal, forms
/// each arm's log-sum-exp through the lse exp/log, then combines the two
/// arms. Each entry point is a portable scalar reference plus an AVX2
/// clone (no FMA) picked once per process through cpu::X86(); the two
/// agree bit for bit. `reference` runs the scalar reference on any host.
///
/// One component's term at point x, with y the solve L y = x - mean:
///   s_i = x_i - mean_i;  s_i -= L_ik y_k (k < i ascending);
///   y_i = s_i * inv_diag_i;  quad += y_i^2 (from quad = 0);
///   term = log_weight + -0.5 * (base + quad).
/// An arm's log-sum-exp over its terms (k ascending) is hi + log(sum of
/// exp(term_k - hi)), hi the largest term, or hi itself where hi is not
/// finite. Each arm keeps its own log-sum-exp, so log-densities stored
/// for one arm combine bit for bit with the other arm computed afresh.

/// A mixture component as the kernel reads it.
struct Component {
  const double* mean;      ///< d values
  const double* chol;      ///< d x d row-major; the lower triangle is read
  const double* inv_diag;  ///< d values, 1 / chol[i * d + i]
  double base;             ///< d log 2 pi + log det Sigma
  double log_weight;       ///< log w_k in its mixture, -inf for w_k = 0
};

/// One mixture arm. With `known` set, the arm's log-densities at the
/// call's points are known[j] and no component is read; with neither
/// components nor `known`, the arm is -inf (a zero-weight arm).
struct Arm {
  const Component* components = nullptr;
  std::size_t count = 0;
  double log_weight = 0.0;  ///< log pi or log(1 - pi) in an O-distribution
  const double* known = nullptr;
};

/// An O-distribution pi * p_m + (1 - pi) * p_n: its two arms.
struct OArms {
  Arm m, n;
};

/// out[j] = the arm's log-sum-exp at point j (its log_weight unused).
void ArmLogPdf(const Arm& arm, std::size_t d, const double* xs,
               std::size_t stride, std::size_t n, double* out,
               bool reference = false);

/// out[j] = log p(x_j): with lm = m.log_weight + arm m, ln likewise and
/// hi = max(lm, ln), hi + log(exp(lm - hi) + exp(ln - hi)), or hi where
/// hi is not finite.
void OLogPdf(const OArms& o, std::size_t d, const double* xs,
             std::size_t stride, std::size_t n, double* out,
             bool reference = false);

/// out[j] = P_m(x_j) = zm / (zm + zn), zm = exp(lm - hi) and zn = exp(ln
/// - hi) with lm, ln and hi as in OLogPdf. Both arms must be evaluable.
void Posterior(const OArms& o, std::size_t d, const double* xs,
               std::size_t stride, std::size_t n, double* out,
               bool reference = false);

/// The sum over the points, in point order, of side_j - log m_j, where
/// lp_j = OLogPdf(p), lq_j = log_q[j] when log_q is given and OLogPdf(q)
/// otherwise, log m_j = (log 1/2 + hi) + log(exp(lp - hi) + exp(lq - hi))
/// with hi = max(lp, lq), and side_j is lp_j (side_p) or lq_j: one
/// Monte-Carlo block of a JSD's KL term.
double KlSum(const OArms& p, const OArms& q, const double* log_q,
             bool side_p, std::size_t d, const double* xs, std::size_t stride,
             std::size_t n, bool reference = false);

}  // namespace serd::mixture_tile

#endif  // SERD_GMM_MIXTURE_TILE_H_
