#include "gmm/gaussian.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/cpu.h"

namespace serd {

namespace {
constexpr double kLog2Pi = 1.8378770664093453;  // log(2*pi)

// The tile's solve L y = x - mu and quad[j] = ||y_j||^2. Its loops run
// across the tile's points, so GCC vectorizes them at whatever width the
// target gives; each element's operations and their order are the same at
// any width, so the AVX2 clone (no FMA: "avx2" does not imply it) and the
// baseline agree bit for bit. The clone inlines this body into an
// avx2-target function and is picked once per process (no ifunc, which
// ThreadSanitizer builds cannot resolve).
__attribute__((always_inline)) inline void SolveTileBody(
    const double* l, const double* mean, size_t d, const double* xs,
    size_t stride, size_t n, double* y, double* quad) {
  for (size_t j = 0; j < n; ++j) quad[j] = 0.0;
  for (size_t i = 0; i < d; ++i) {
    const double* li = l + i * d;
    const double* xi = xs + i * stride;
    const double mean_i = mean[i];
    double* yi = y + i * n;
    for (size_t j = 0; j < n; ++j) yi[j] = xi[j] - mean_i;
    for (size_t k = 0; k < i; ++k) {
      const double lik = li[k];
      const double* yk = y + k * n;
      for (size_t j = 0; j < n; ++j) yi[j] -= lik * yk[j];
    }
    const double lii = li[i];
    for (size_t j = 0; j < n; ++j) {
      yi[j] = yi[j] / lii;
      quad[j] += yi[j] * yi[j];
    }
  }
}

#if SERD_X86_DISPATCH
__attribute__((target("avx2"))) void SolveTileAvx2(
    const double* l, const double* mean, size_t d, const double* xs,
    size_t stride, size_t n, double* y, double* quad) {
  SolveTileBody(l, mean, d, xs, stride, n, y, quad);
}
#endif

void SolveTile(const double* l, const double* mean, size_t d,
               const double* xs, size_t stride, size_t n, double* y,
               double* quad) {
#if SERD_X86_DISPATCH
  if (cpu::X86().avx2) {
    SolveTileAvx2(l, mean, d, xs, stride, n, y, quad);
    return;
  }
#endif
  SolveTileBody(l, mean, d, xs, stride, n, y, quad);
}

}  // namespace

MultivariateGaussian::MultivariateGaussian(Vec mean, Matrix covariance,
                                           double ridge)
    : mean_(std::move(mean)), covariance_(std::move(covariance)) {
  SERD_CHECK_EQ(covariance_.rows(), mean_.size());
  SERD_CHECK_EQ(covariance_.cols(), mean_.size());
  Factor(ridge);
}

void MultivariateGaussian::Factor(double ridge) {
  double r = ridge;
  for (int attempt = 0; attempt < 12; ++attempt) {
    chol_ = covariance_;
    chol_.AddDiagonal(r);
    if (CholeskyInPlace(&chol_) == chol_.rows()) {
      log_det_ = LogDetFromCholesky(chol_);
      CacheInverseDiagonal();
      return;
    }
    r = (r == 0.0) ? 1e-8 : r * 10.0;
  }
  SERD_CHECK(false) << "covariance could not be regularized to SPD";
}

void MultivariateGaussian::CacheInverseDiagonal() {
  const size_t d = chol_.rows();
  inv_diag_.resize(d);
  const double* l = chol_.data().data();
  for (size_t i = 0; i < d; ++i) inv_diag_[i] = 1.0 / l[i * d + i];
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
  g.CacheInverseDiagonal();
  return g;
}

double MultivariateGaussian::LogNormBase() const {
  return static_cast<double>(mean_.size()) * kLog2Pi + log_det_;
}

double MultivariateGaussian::LogPdf(const Vec& x) const {
  SERD_CHECK_EQ(x.size(), mean_.size());
  double out;
  LogPdfTile(x.data(), 1, 1, &out);
  return out;
}

void MultivariateGaussian::LogPdfBatch(const double* xs, size_t count,
                                       double* out) const {
  for (size_t j0 = 0; j0 < count; j0 += kBatchTile) {
    LogPdfTile(xs + j0, count, std::min(kBatchTile, count - j0), out + j0);
  }
}

void MultivariateGaussian::LogPdfTile(const double* xs, size_t stride,
                                      size_t n, double* out) const {
  const size_t d = mean_.size();
  SERD_CHECK(chol_.rows() == d && chol_.cols() == d);
  SERD_CHECK_LE(n, kBatchTile);
  // Solve L y = x - mu per point; then (x-mu)^T Sigma^-1 (x-mu) = ||y||^2.
  // Per point this is Sub, ForwardSolve and Dot (common/matrix) with the
  // same operations in the same order; the loops over the tile's points
  // are innermost, so the dependent divisions of one point's solve
  // overlap with the other points'. y is dimension-major, y[i * n + j].
  double inline_y[kInlineDimension * kBatchTile];
  std::unique_ptr<double[]> heap_y;
  double* y = inline_y;
  if (d > kInlineDimension) {
    heap_y = std::make_unique<double[]>(d * n);
    y = heap_y.get();
  }
  double quad[kBatchTile];
  SolveTile(chol_.data().data(), mean_.data(), d, xs, stride, n, y, quad);
  const double base = LogNormBase();
  for (size_t j = 0; j < n; ++j) out[j] = -0.5 * (base + quad[j]);
}

Vec MultivariateGaussian::Sample(Rng* rng) const {
  Vec x(mean_.size());
  SampleInto(rng, x.data(), 1);
  return x;
}

void MultivariateGaussian::SampleInto(Rng* rng, double* x,
                                      size_t stride) const {
  SERD_CHECK(rng != nullptr);
  const size_t d = mean_.size();
  double inline_z[kInlineDimension];
  std::unique_ptr<double[]> heap_z;
  double* z = inline_z;
  if (d > kInlineDimension) {
    heap_z = std::make_unique<double[]>(d);
    z = heap_z.get();
  }
  for (size_t i = 0; i < d; ++i) z[i] = rng->Gaussian();
  TransformInto(z, x, stride);
}

}  // namespace serd
