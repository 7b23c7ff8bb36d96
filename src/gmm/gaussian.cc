#include "gmm/gaussian.h"

#include <cmath>
#include <memory>

namespace serd {

namespace {
constexpr double kLog2Pi = 1.8378770664093453;  // log(2*pi)
}

MultivariateGaussian::MultivariateGaussian(Vec mean, Matrix covariance,
                                           double ridge)
    : mean_(std::move(mean)), covariance_(std::move(covariance)) {
  SERD_CHECK_EQ(covariance_.rows(), mean_.size());
  SERD_CHECK_EQ(covariance_.cols(), mean_.size());
  Matrix regularized = covariance_;
  double r = ridge;
  for (int attempt = 0; attempt < 12; ++attempt) {
    regularized = covariance_;
    regularized.AddDiagonal(r);
    auto chol = Cholesky(regularized);
    if (chol.ok()) {
      chol_ = std::move(chol).value();
      log_det_ = LogDetFromCholesky(chol_);
      return;
    }
    r = (r == 0.0) ? 1e-8 : r * 10.0;
  }
  SERD_CHECK(false) << "covariance could not be regularized to SPD";
}

MultivariateGaussian MultivariateGaussian::FromParts(Vec mean,
                                                     Matrix covariance,
                                                     Matrix chol,
                                                     double log_det) {
  SERD_CHECK_EQ(covariance.rows(), mean.size());
  SERD_CHECK_EQ(covariance.cols(), mean.size());
  SERD_CHECK_EQ(chol.rows(), mean.size());
  SERD_CHECK_EQ(chol.cols(), mean.size());
  MultivariateGaussian g;
  g.mean_ = std::move(mean);
  g.covariance_ = std::move(covariance);
  g.chol_ = std::move(chol);
  g.log_det_ = log_det;
  return g;
}

double MultivariateGaussian::LogPdf(const Vec& x) const {
  const size_t n = mean_.size();
  SERD_CHECK_EQ(x.size(), n);
  SERD_CHECK(chol_.rows() == n && chol_.cols() == n);
  // Solve L y = x - mu; then (x-mu)^T Sigma^-1 (x-mu) = ||y||^2. This is
  // Sub, ForwardSolve and Dot (common/matrix) with the same operations in
  // the same order, fused into one pass over an on-stack y so the
  // per-sample density evaluations of JSD tracking do not allocate.
  double inline_y[kInlineDimension];
  std::unique_ptr<double[]> heap_y;
  double* y = inline_y;
  if (n > kInlineDimension) {
    heap_y = std::make_unique<double[]>(n);
    y = heap_y.get();
  }
  const double* l = chol_.data().data();
  double quad = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double* li = l + i * n;
    double s = x[i] - mean_[i];
    for (size_t k = 0; k < i; ++k) s -= li[k] * y[k];
    y[i] = s / li[i];
    quad += y[i] * y[i];
  }
  double d = static_cast<double>(n);
  return -0.5 * (d * kLog2Pi + log_det_ + quad);
}

Vec MultivariateGaussian::Sample(Rng* rng) const {
  SERD_CHECK(rng != nullptr);
  Vec z(mean_.size());
  for (double& v : z) v = rng->Gaussian();
  Vec x = mean_;
  for (size_t i = 0; i < mean_.size(); ++i) {
    double s = 0.0;
    for (size_t j = 0; j <= i; ++j) s += chol_(i, j) * z[j];
    x[i] += s;
  }
  return x;
}

}  // namespace serd
