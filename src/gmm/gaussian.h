#ifndef SERD_GMM_GAUSSIAN_H_
#define SERD_GMM_GAUSSIAN_H_

#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"

namespace serd {

/// A multivariate normal N(mu, Sigma) with a cached Cholesky factor.
/// Covariances are regularized with a ridge on construction so that the
/// factorization exists even for degenerate sample covariances (common for
/// tight matching-pair clusters where one column similarity is constant).
class MultivariateGaussian {
 public:
  MultivariateGaussian() = default;

  /// Builds the density; adds `ridge` to the diagonal. If the matrix is
  /// still not positive definite, the ridge is grown (x10 up to 1e3 tries
  /// worth) until it is — the caller keeps a usable density in all cases.
  MultivariateGaussian(Vec mean, Matrix covariance, double ridge = 1e-6);

  /// Reconstructs a density from previously computed parts without
  /// re-running the regularization/factorization loop (artifact store).
  /// Because `chol`/`log_det` are restored verbatim, LogPdf and Sample are
  /// bit-identical to the instance the parts were taken from, regardless
  /// of how much ridge growth the original construction needed. The caller
  /// must have validated the dimensions (d, d x d, d x d).
  static MultivariateGaussian FromParts(Vec mean, Matrix covariance,
                                        Matrix chol, double log_det);

  size_t dimension() const { return mean_.size(); }
  const Vec& mean() const { return mean_; }
  const Matrix& covariance() const { return covariance_; }
  /// Lower-triangular factor of the regularized covariance (serialization).
  const Matrix& cholesky() const { return chol_; }
  double log_det() const { return log_det_; }

  /// Dimensions up to this size evaluate LogPdf without a heap allocation;
  /// wider ones use a heap buffer (same arithmetic either way).
  static constexpr size_t kInlineDimension = 32;

  /// log N(x; mu, Sigma). Bit-identical to -0.5 * (d log 2pi + log_det +
  /// Dot(y, y)) with y = ForwardSolve(cholesky(), Sub(x, mean)).
  double LogPdf(const Vec& x) const;

  /// Draws x = mu + L z with z ~ N(0, I).
  Vec Sample(Rng* rng) const;

 private:
  Vec mean_;
  Matrix covariance_;
  Matrix chol_;      // lower-triangular factor of the regularized covariance
  double log_det_ = 0.0;
};

}  // namespace serd

#endif  // SERD_GMM_GAUSSIAN_H_
