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
  /// 1 / cholesky()(i, i): the fused mixture tile's solve multiplies by
  /// these instead of dividing (mixture_tile.h).
  const Vec& inverse_diagonal() const { return inv_diag_; }

  /// Dimensions up to this size evaluate and draw without a heap
  /// allocation; wider ones use a heap buffer (same arithmetic either way).
  static constexpr size_t kInlineDimension = 32;

  /// Points per tile of the batched log-densities (this class, Gmm and
  /// ODistribution): a tile's intermediates live on the stack.
  static constexpr size_t kBatchTile = 64;

  /// log N(x; mu, Sigma). Bit-identical to -0.5 * (d log 2pi + log_det +
  /// Dot(y, y)) with y = ForwardSolve(cholesky(), Sub(x, mean)), the
  /// dividing solve that EM's E-step (Gmm::EStepTile) runs. The 1-point
  /// case of LogPdfBatch.
  double LogPdf(const Vec& x) const;

  /// LogPdf of `count` points stored dimension-major: coordinate i of
  /// point j is xs[i * count + j]. Evaluated a tile of points at a time,
  /// with every operation of the per-point solve vectorized across the
  /// tile; out[j] is bit-identical to LogPdf of point j.
  void LogPdfBatch(const double* xs, size_t count, double* out) const;

  /// Draws x = mu + L z with z ~ N(0, I).
  Vec Sample(Rng* rng) const;

  /// Sample() without allocating: the same RNG draws and the same values,
  /// written to x[i * stride] for i < dimension().
  void SampleInto(Rng* rng, double* x, size_t stride) const;

  /// x = mu + L z for dimension() given normals z, written to
  /// x[i * stride]: SampleInto's arithmetic once its normals are drawn
  /// (each row's sum starts at 0 and adds l[i][j] z[j] for j <= i).
  void TransformInto(const double* z, double* x, size_t stride) const {
    const size_t d = mean_.size();
    const double* l = chol_.data().data();
    for (size_t i = 0; i < d; ++i) {
      double s = 0.0;
      for (size_t j = 0; j <= i; ++j) s += l[i * d + j] * z[j];
      x[i * stride] = mean_[i] + s;
    }
  }

 private:
  friend class Gmm;
  friend class IncrementalGmm;

  /// The batch kernel: n <= kBatchTile points, coordinate i of point j at
  /// xs[i * stride + j].
  void LogPdfTile(const double* xs, size_t stride, size_t n,
                  double* out) const;

  /// Factors covariance_ + r I into chol_ for r = ridge, growing r (x10,
  /// from 1e-8 when it is 0) until the factorization exists, then sets
  /// log_det_ and inv_diag_. In place: once the sizes are set, no
  /// allocation.
  void Factor(double ridge);
  void CacheInverseDiagonal();
  /// d log 2pi + log det Sigma, the constant of -2 log N.
  double LogNormBase() const;

  Vec mean_;
  Matrix covariance_;
  Matrix chol_;      // lower-triangular factor of the regularized covariance
  Vec inv_diag_;     // 1 / chol_(i, i)
  double log_det_ = 0.0;
};

}  // namespace serd

#endif  // SERD_GMM_GAUSSIAN_H_
