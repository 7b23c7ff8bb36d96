#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gmm/gaussian.h"
#include "gmm/gmm.h"
#include "gmm/incremental.h"
#include "gmm/lse.h"
#include "gmm/mixture_tile.h"
#include "gmm/o_distribution.h"
#include "runtime/sharded_rng.h"
#include "runtime/thread_pool.h"

namespace serd {
namespace {

Matrix Diag2(double a, double b) {
  Matrix m(2, 2);
  m(0, 0) = a;
  m(1, 1) = b;
  return m;
}

// ------------------------------------------------------------ lse kernels

/// Ordered integer image of a double: adjacent doubles differ by 1, and
/// -0 and +0 map to the same value.
int64_t OrderedBits(double v) {
  int64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b < 0 ? std::numeric_limits<int64_t>::min() - b : b;
}

/// Distance in ulps between two non-NaN doubles of the same sign.
uint64_t UlpDistance(double a, double b) {
  const int64_t ia = OrderedBits(a);
  const int64_t ib = OrderedBits(b);
  return ia > ib ? static_cast<uint64_t>(ia - ib)
                 : static_cast<uint64_t>(ib - ia);
}

bool SameBitsExact(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// Every call length 1-64 at several starting offsets of `inputs`: each
/// element of the dispatched call equals the scalar reference bit for bit
/// (NaN payloads included), wherever it falls in the vector or the tail.
void ExpectCallsMatchReference(void (*call)(size_t, const double*, double*),
                               double (*reference)(double),
                               const std::vector<double>& inputs) {
  ASSERT_GE(inputs.size(), 64u + 7u);
  for (size_t len = 1; len <= 64; ++len) {
    for (size_t offset : {size_t{0}, size_t{1}, size_t{3}, size_t{7}}) {
      std::vector<double> out(len);
      call(len, inputs.data() + offset, out.data());
      for (size_t i = 0; i < len; ++i) {
        const double want = reference(inputs[offset + i]);
        ASSERT_TRUE(SameBitsExact(out[i], want))
            << "len " << len << " offset " << offset << " x "
            << inputs[offset + i] << ": " << out[i] << " != " << want;
      }
      // In place.
      std::vector<double> in_place(inputs.begin() + offset,
                                   inputs.begin() + offset + len);
      call(len, in_place.data(), in_place.data());
      for (size_t i = 0; i < len; ++i) {
        ASSERT_TRUE(SameBitsExact(in_place[i], out[i])) << len << "," << i;
      }
    }
  }
}

TEST(LseKernelTest, ExpCallsMatchScalarReferenceBitwise) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> x = {0.0, -0.0, -inf, nan, -nan, -745.0, -708.0,
                           -745.1332191019411, -745.1332191019412,
                           -746.0, -1e300, -4.9e-324, -1e-300};
  Rng rng(3);
  // The subnormal range, then all scales of (-inf, 0].
  while (x.size() < 48) x.push_back(rng.Uniform(-745.0, -708.0));
  while (x.size() < 96) {
    x.push_back(-std::ldexp(rng.Uniform(), static_cast<int>(
                                               rng.UniformInt(int64_t{-60},
                                                              int64_t{10}))));
  }
  ExpectCallsMatchReference(&lse::Exp, &lse::ReferenceExp, x);
}

TEST(LseKernelTest, LogCallsMatchScalarReferenceBitwise) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> x = {1.0, std::nextafter(1.0, 2.0), 2.0,
                           std::sqrt(2.0), 1.4142135623730951, nan, -nan,
                           1e300, std::numeric_limits<double>::max()};
  Rng rng(5);
  while (x.size() < 48) x.push_back(1.0 + rng.Uniform(0.0, 3.0));
  while (x.size() < 96) {
    x.push_back(1.0 + std::ldexp(rng.Uniform(),
                                 static_cast<int>(rng.UniformInt(
                                     int64_t{-60}, int64_t{900}))));
  }
  ExpectCallsMatchReference(&lse::Log, &lse::ReferenceLog, x);
}

TEST(LseKernelTest, ExpEdgeValuesExact) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> x = {0.0, -0.0, -inf, -746.0, -1e300};
  std::vector<double> out(x.size());
  lse::Exp(x.size(), x.data(), out.data());
  EXPECT_TRUE(SameBitsExact(out[0], 1.0));
  EXPECT_TRUE(SameBitsExact(out[1], 1.0));
  for (size_t i = 2; i < x.size(); ++i) {
    EXPECT_TRUE(SameBitsExact(out[i], 0.0)) << x[i];  // +0, not -0
  }
  double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(lse::ReferenceExp(nan)));
  EXPECT_TRUE(SameBitsExact(lse::ReferenceLog(1.0), 0.0));
  EXPECT_TRUE(std::isnan(lse::ReferenceLog(nan)));
}

/// Sweeps `count` points through the dispatched call and counts those
/// more than 1 ulp from libm.
template <typename Libm>
void ExpectWithinOneUlpOfLibm(void (*call)(size_t, const double*, double*),
                              Libm libm, const std::vector<double>& x) {
  std::vector<double> out(x.size());
  call(x.size(), x.data(), out.data());
  size_t beyond = 0;
  uint64_t worst = 0;
  double worst_x = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const uint64_t ulps = UlpDistance(out[i], libm(x[i]));
    if (ulps > 1) ++beyond;
    if (ulps > worst) {
      worst = ulps;
      worst_x = x[i];
    }
  }
  EXPECT_EQ(beyond, 0u) << "worst " << worst << " ulps at " << worst_x;
  EXPECT_LE(worst, 1u);
}

TEST(LseKernelTest, ExpWithinOneUlpOfLibmOnTenMillionPoints) {
  // 8e6 points on a quadratic sweep of [-746, 0] (dense near 0, where a
  // log-sum-exp's terms mostly fall), 2e6 at random scales 2^-60..2^10.
  constexpr size_t kSweep = 8000000;
  constexpr size_t kScales = 2000000;
  std::vector<double> x(kSweep + kScales);
  for (size_t i = 0; i < kSweep; ++i) {
    const double u = static_cast<double>(i) / kSweep;
    x[i] = -746.0 * u * u;
  }
  Rng rng(7);
  for (size_t i = kSweep; i < x.size(); ++i) {
    x[i] = -std::ldexp(rng.Uniform(),
                       static_cast<int>(rng.UniformInt(int64_t{-60},
                                                       int64_t{10})));
  }
  ExpectWithinOneUlpOfLibm(&lse::Exp, [](double v) { return std::exp(v); },
                           x);
}

TEST(LseKernelTest, LogWithinOneUlpOfLibmOnTenMillionPoints) {
  // 6e6 points on [1, 16] (a log-sum-exp's sum lies in [1, components]),
  // 2e6 at 1 + 2^-60..1 + 2^-1, 2e6 over the whole exponent range.
  constexpr size_t kSweep = 6000000;
  constexpr size_t kNearOne = 2000000;
  constexpr size_t kWide = 2000000;
  std::vector<double> x(kSweep + kNearOne + kWide);
  for (size_t i = 0; i < kSweep; ++i) {
    x[i] = 1.0 + 15.0 * static_cast<double>(i) / kSweep;
  }
  Rng rng(11);
  for (size_t i = kSweep; i < kSweep + kNearOne; ++i) {
    x[i] = 1.0 + std::ldexp(rng.Uniform(),
                            static_cast<int>(rng.UniformInt(int64_t{-60},
                                                            int64_t{-1})));
  }
  for (size_t i = kSweep + kNearOne; i < x.size(); ++i) {
    x[i] = std::ldexp(1.0 + rng.Uniform(),
                      static_cast<int>(rng.UniformInt(int64_t{0},
                                                      int64_t{1022})));
  }
  ExpectWithinOneUlpOfLibm(&lse::Log, [](double v) { return std::log(v); },
                           x);
}

// --------------------------------------------------------------- Gaussian

TEST(GaussianTest, StandardNormalLogPdfAtMean) {
  MultivariateGaussian g({0.0}, Matrix::Identity(1), 0.0);
  // log N(0; 0, 1) = -0.5 log(2 pi)
  EXPECT_NEAR(g.LogPdf({0.0}), -0.9189385332046727, 1e-9);
}

TEST(GaussianTest, LogPdfMatchesClosedForm2D) {
  MultivariateGaussian g({1.0, -1.0}, Diag2(4.0, 0.25), 0.0);
  // log pdf = -log(2 pi) - 0.5 log|S| - 0.5 quad
  Vec x = {3.0, 0.0};
  double quad = (2.0 * 2.0) / 4.0 + (1.0 * 1.0) / 0.25;
  double expected = -std::log(2 * M_PI) - 0.5 * std::log(1.0) - 0.5 * quad;
  EXPECT_NEAR(g.LogPdf(x), expected, 1e-9);
}

TEST(GaussianTest, SampleMomentsMatch) {
  MultivariateGaussian g({2.0, -3.0}, Diag2(1.0, 4.0), 0.0);
  Rng rng(5);
  const int n = 30000;
  Vec mean = {0, 0}, var = {0, 0};
  for (int i = 0; i < n; ++i) {
    Vec x = g.Sample(&rng);
    mean[0] += x[0];
    mean[1] += x[1];
  }
  mean[0] /= n;
  mean[1] /= n;
  EXPECT_NEAR(mean[0], 2.0, 0.05);
  EXPECT_NEAR(mean[1], -3.0, 0.05);
}

TEST(GaussianTest, RegularizesDegenerateCovariance) {
  // Zero covariance (a point mass from constant similarity columns) still
  // yields a usable density.
  MultivariateGaussian g({0.5, 0.5}, Matrix(2, 2), 1e-6);
  EXPECT_TRUE(std::isfinite(g.LogPdf({0.5, 0.5})));
  EXPECT_GT(g.LogPdf({0.5, 0.5}), g.LogPdf({0.9, 0.1}));
}

/// LogPdf spelled out with the common/matrix reference operations (Sub,
/// ForwardSolve, Dot); MultivariateGaussian::LogPdf and LogPdfBatch, and
/// the component terms of EM's E-step, must match it bit for bit.
double ReferenceLogPdf(const MultivariateGaussian& g, const Vec& x) {
  Vec y = ForwardSolve(g.cholesky(), Sub(x, g.mean()));
  double d = static_cast<double>(g.dimension());
  return -0.5 * (d * 1.8378770664093453 + g.log_det() + Dot(y, y));
}

/// The fused mixture tile's component term spelled out per point:
/// ReferenceLogPdf with each y_i multiplied by 1 / L_ii where
/// ForwardSolve divides by L_ii.
double ReciprocalLogPdf(const MultivariateGaussian& g, const Vec& x) {
  const Matrix& l = g.cholesky();
  const Vec b = Sub(x, g.mean());
  Vec y(b.size());
  for (size_t i = 0; i < b.size(); ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s * (1.0 / l(i, i));
  }
  double d = static_cast<double>(g.dimension());
  return -0.5 * (d * 1.8378770664093453 + g.log_det() + Dot(y, y));
}

/// log-sum-exp over components with a std::vector of terms, log(weight)
/// taken per call, `component` densities and the lse kernels' scalar
/// references.
double MixtureLogPdf(const Gmm& gmm, const Vec& x,
                     double (*component)(const MultivariateGaussian&,
                                         const Vec&)) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> terms(gmm.num_components());
  double max_term = -inf;
  for (size_t k = 0; k < terms.size(); ++k) {
    const double w = gmm.weights()[k];
    terms[k] = (w > 0.0 ? std::log(w) : -inf) + component(gmm.component(k), x);
    max_term = std::max(max_term, terms[k]);
  }
  if (!std::isfinite(max_term)) return max_term;
  double sum = 0.0;
  for (double t : terms) sum += lse::ReferenceExp(t - max_term);
  return max_term + lse::ReferenceLog(sum);
}

/// Gmm::LogPdf and LogPdfBatch (the fused tile) must match this bit for
/// bit.
double ReferenceLogPdf(const Gmm& gmm, const Vec& x) {
  return MixtureLogPdf(gmm, x, ReciprocalLogPdf);
}

/// EM's log-densities (Gmm::EStepTile, the dividing solve) must match
/// this bit for bit.
double EStepLogPdf(const Gmm& gmm, const Vec& x) {
  return MixtureLogPdf(gmm, x, ReferenceLogPdf);
}

/// ODistribution::LogPdf spelled out per point over the reference GMM
/// densities and the lse scalar references, with its pi = 0 and pi = 1
/// edges.
double ReferenceLogPdf(const ODistribution& o, const Vec& x) {
  const double inf = std::numeric_limits<double>::infinity();
  const double log_m =
      o.pi() > 0.0 ? std::log(o.pi()) + ReferenceLogPdf(o.m_distribution(), x)
                   : -inf;
  const double log_n =
      o.pi() < 1.0
          ? std::log(1.0 - o.pi()) + ReferenceLogPdf(o.n_distribution(), x)
          : -inf;
  const double hi = std::max(log_m, log_n);
  if (!std::isfinite(hi)) return hi;
  return hi + lse::ReferenceLog(lse::ReferenceExp(log_m - hi) +
                                lse::ReferenceExp(log_n - hi));
}

/// A A^T + 0.1 I for a random A: symmetric positive definite.
Matrix RandomSpd(size_t d, Rng* rng) {
  Matrix a(d, d);
  for (double& v : a.data()) v = rng->Uniform(-1.0, 1.0);
  Matrix cov = a.Multiply(a.Transpose());
  cov.AddDiagonal(0.1);
  return cov;
}

Vec RandomPoint(size_t d, double scale, Rng* rng) {
  Vec x(d);
  for (double& v : x) v = rng->Uniform(-scale, scale);
  return x;
}

/// Point counts that straddle the 64-point tile.
const std::vector<size_t> kBatchCounts = {1, 3, 63, 64, 65, 200};

/// Dimensions on both sides of the on-stack solve buffer.
std::vector<size_t> BatchDimensions() {
  return {1, 3, 6, MultivariateGaussian::kInlineDimension + 1};
}

/// `count` random points of growing spread; every seventh lies so far out
/// (1e160 per coordinate) that the squared Mahalanobis norm overflows and
/// every log-density is -inf.
std::vector<Vec> BatchPoints(size_t d, size_t count, Rng* rng) {
  std::vector<Vec> points;
  for (size_t j = 0; j < count; ++j) {
    points.push_back(j % 7 == 6 ? Vec(d, 1e160)
                                : RandomPoint(d, 1.0 + 0.1 * j, rng));
  }
  return points;
}

/// The dimension-major layout LogPdfBatch reads: coordinate i of point j
/// at [i * count + j].
std::vector<double> DimensionMajor(const std::vector<Vec>& points) {
  const size_t count = points.size();
  const size_t d = points.empty() ? 0 : points[0].size();
  std::vector<double> xs(d * count);
  for (size_t j = 0; j < count; ++j) {
    for (size_t i = 0; i < d; ++i) xs[i * count + j] = points[j][i];
  }
  return xs;
}

/// Bit-for-bit equality of two doubles (two NaNs count as equal).
::testing::AssertionResult SameBits(double got, double want) {
  if (std::isnan(got) && std::isnan(want)) {
    return ::testing::AssertionSuccess();
  }
  uint64_t a, b;
  std::memcpy(&a, &got, sizeof(a));
  std::memcpy(&b, &want, sizeof(b));
  if (a == b) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << got << " != " << want;
}

/// Checks LogPdfBatch on BatchPoints of every count in kBatchCounts, and
/// the per-point LogPdf, bit for bit against ReferenceLogPdf.
template <typename Density>
void ExpectMatchesReferenceBitwise(const Density& density, Rng* rng) {
  const size_t d = density.dimension();
  for (size_t count : kBatchCounts) {
    SCOPED_TRACE("count=" + std::to_string(count));
    const std::vector<Vec> points = BatchPoints(d, count, rng);
    const std::vector<double> xs = DimensionMajor(points);
    std::vector<double> out(count);
    density.LogPdfBatch(xs.data(), count, out.data());
    for (size_t j = 0; j < count; ++j) {
      const double want = ReferenceLogPdf(density, points[j]);
      EXPECT_TRUE(SameBits(out[j], want)) << "point " << j;
      EXPECT_TRUE(SameBits(density.LogPdf(points[j]), want)) << "point " << j;
    }
  }
}

TEST(GaussianTest, LogPdfMatchesForwardSolveReferenceBitwise) {
  Rng rng(23);
  std::vector<MultivariateGaussian> gaussians;
  for (size_t d : BatchDimensions()) {
    gaussians.emplace_back(RandomPoint(d, 1.0, &rng), RandomSpd(d, &rng));
  }
  // Rank one with no ridge: Cholesky fails until the ridge has grown.
  Matrix ones(3, 3, 1.0);
  ASSERT_FALSE(Cholesky(ones).ok());
  gaussians.emplace_back(Vec{0.2, 0.4, 0.6}, ones, 0.0);
  for (const auto& g : gaussians) {
    SCOPED_TRACE("d=" + std::to_string(g.dimension()));
    ExpectMatchesReferenceBitwise(g, &rng);
  }
}

// -------------------------------------------------------------------- GMM

/// A mixture of `g` random components in `d` dimensions; with g > 1 the
/// second weight is zero, so its terms are -inf.
Gmm RandomMixture(size_t d, size_t g, Rng* rng) {
  std::vector<double> weights;
  std::vector<MultivariateGaussian> comps;
  for (size_t k = 0; k < g; ++k) {
    weights.push_back(k == 1 ? 0.0 : rng->Uniform(0.1, 1.0));
    comps.emplace_back(RandomPoint(d, 1.0, rng), RandomSpd(d, rng));
  }
  return Gmm(std::move(weights), std::move(comps));
}

TEST(GmmTest, LogPdfMatchesLogSumExpReferenceBitwise) {
  Rng rng(29);
  const size_t d = 3;
  auto components = [&](size_t g) {
    std::vector<MultivariateGaussian> comps;
    for (size_t k = 0; k < g; ++k) {
      comps.emplace_back(RandomPoint(d, 1.0, &rng), RandomSpd(d, &rng));
    }
    return comps;
  };
  std::vector<Gmm> mixtures;
  mixtures.emplace_back(std::vector<double>{1.0}, components(1));
  mixtures.emplace_back(std::vector<double>{0.1, 0.2, 0.3, 0.4},
                        components(4));
  mixtures.emplace_back(std::vector<double>{0.5, 0.0, 0.5}, components(3));
  // Restored weights (no re-normalization), one of them zero.
  mixtures.push_back(Gmm::FromParts({0.25, 0.0, 0.75}, components(3)));
  // More components than the on-stack term buffer holds.
  mixtures.emplace_back(
      std::vector<double>(Gmm::kInlineComponents + 1, 1.0),
      components(Gmm::kInlineComponents + 1));
  // Every batch dimension with 1, 4 and more components than the on-stack
  // term buffer holds, one of them with zero weight.
  for (size_t dim : BatchDimensions()) {
    for (size_t g : {size_t{1}, size_t{4}, Gmm::kInlineComponents + 1}) {
      mixtures.push_back(RandomMixture(dim, g, &rng));
    }
  }
  for (const auto& gmm : mixtures) {
    SCOPED_TRACE("d=" + std::to_string(gmm.dimension()) + " components=" +
                 std::to_string(gmm.num_components()));
    ExpectMatchesReferenceBitwise(gmm, &rng);
  }
}

std::vector<Vec> TwoClusterData(int n_per, Rng* rng) {
  std::vector<Vec> data;
  for (int i = 0; i < n_per; ++i) {
    data.push_back({rng->Gaussian(0.9, 0.03), rng->Gaussian(0.85, 0.04)});
    data.push_back({rng->Gaussian(0.1, 0.05), rng->Gaussian(0.15, 0.04)});
  }
  return data;
}

/// Responsibilities spelled out per point with libm's exp over reference
/// terms: the prior weights where every term is -inf.
Vec ReferenceResponsibilities(const Gmm& gmm, const Vec& x) {
  const double inf = std::numeric_limits<double>::infinity();
  const size_t g = gmm.num_components();
  std::vector<double> terms(g);
  double max_term = -inf;
  for (size_t k = 0; k < g; ++k) {
    const double w = gmm.weights()[k];
    terms[k] = (w > 0.0 ? std::log(w) : -inf) +
               ReferenceLogPdf(gmm.component(k), x);
    max_term = std::max(max_term, terms[k]);
  }
  if (!std::isfinite(max_term)) return gmm.weights();
  Vec gamma(g);
  double total = 0.0;
  for (size_t k = 0; k < g; ++k) {
    gamma[k] = std::exp(terms[k] - max_term);
    total += gamma[k];
  }
  for (double& v : gamma) v /= total;
  return gamma;
}

TEST(GmmTest, EStepTileMatchesPerPointReferencesBitwise) {
  Rng rng(31);
  for (size_t d : BatchDimensions()) {
    for (size_t g : {size_t{1}, size_t{3}, Gmm::kInlineComponents + 1}) {
      SCOPED_TRACE("d=" + std::to_string(d) + " g=" + std::to_string(g));
      const Gmm gmm = RandomMixture(d, g, &rng);
      for (size_t count : {size_t{1}, size_t{5}, size_t{64}}) {
        const std::vector<Vec> points = BatchPoints(d, count, &rng);
        const std::vector<double> xs = DimensionMajor(points);
        std::vector<double> gamma(count * g), log_pdf(count);
        gmm.EStepTile(xs.data(), count, count, gamma.data(), log_pdf.data());
        std::vector<double> gamma_only(count * g);
        gmm.EStepTile(xs.data(), count, count, gamma_only.data(), nullptr);
        for (size_t j = 0; j < count; ++j) {
          const Vec want = ReferenceResponsibilities(gmm, points[j]);
          const Vec got = gmm.Responsibilities(points[j]);
          for (size_t k = 0; k < g; ++k) {
            EXPECT_TRUE(SameBits(gamma[j * g + k], want[k])) << j << "," << k;
            EXPECT_TRUE(SameBits(gamma_only[j * g + k], want[k]));
            EXPECT_TRUE(SameBits(got[k], want[k])) << j << "," << k;
          }
          EXPECT_TRUE(SameBits(log_pdf[j], EStepLogPdf(gmm, points[j])))
              << "point " << j;
        }
      }
    }
  }
}

/// RunEmOnce as it ran per point before its E-step went into tiles:
/// serial, ReferenceResponsibilities and ReferenceLogPdf per point, every
/// sum chunked by 128 points and folded in chunk order as ParallelReduce
/// folds it, and the same M-step.
struct ReferenceEmRun {
  Gmm model;
  double log_likelihood = -std::numeric_limits<double>::infinity();
};

ReferenceEmRun ReferenceRunEmOnce(const std::vector<Vec>& data, int g,
                                  const GmmFitOptions& options, Rng* rng) {
  constexpr size_t kGrain = 128;
  const size_t n = data.size();
  const size_t d = data[0].size();
  Vec global_mean(d, 0.0);
  for (const auto& x : data) AddInPlace(&global_mean, x);
  ScaleInPlace(&global_mean, 1.0 / static_cast<double>(n));
  Matrix global_cov(d, d);
  for (const auto& x : data) {
    Vec diff = Sub(x, global_mean);
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = 0; j < d; ++j) global_cov(i, j) += diff[i] * diff[j];
    }
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  for (auto& v : global_cov.data()) v *= inv_n;
  double mean_var = 0.0;
  for (size_t i = 0; i < d; ++i) mean_var += global_cov(i, i);
  mean_var /= static_cast<double>(d);
  const double var_floor = std::max(options.ridge, 1e-3 * mean_var);
  std::vector<MultivariateGaussian> comps;
  for (int k = 0; k < g; ++k) {
    comps.emplace_back(data[rng->UniformInt(n)], global_cov, var_floor);
  }
  Gmm model(std::vector<double>(g, 1.0 / g), std::move(comps));
  auto log_likelihood = [&](std::vector<Vec>* gammas) {
    double acc = 0.0;
    for (size_t lo = 0; lo < n; lo += kGrain) {
      double part = 0.0;
      for (size_t i = lo; i < std::min(n, lo + kGrain); ++i) {
        if (gammas != nullptr) {
          (*gammas)[i] = ReferenceResponsibilities(model, data[i]);
        }
        part += EStepLogPdf(model, data[i]);
      }
      acc = acc + part;
    }
    return acc;
  };
  double prev_ll = -std::numeric_limits<double>::infinity();
  std::vector<Vec> gammas(n);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const double ll = log_likelihood(&gammas);
    if (iter > 0 && ll - prev_ll < options.tolerance) return {model, ll};
    prev_ll = ll;
    std::vector<double> gamma_sum;
    std::vector<Vec> mu_sum;
    for (size_t lo = 0; lo < n; lo += kGrain) {
      std::vector<double> part_gamma(g, 0.0);
      std::vector<Vec> part_mu(g, Vec(d, 0.0));
      for (size_t i = lo; i < std::min(n, lo + kGrain); ++i) {
        for (int k = 0; k < g; ++k) {
          part_gamma[k] += gammas[i][k];
          for (size_t j = 0; j < d; ++j) {
            part_mu[k][j] += gammas[i][k] * data[i][j];
          }
        }
      }
      if (gamma_sum.empty()) {
        gamma_sum = part_gamma;
        mu_sum = part_mu;
        continue;
      }
      for (int k = 0; k < g; ++k) {
        gamma_sum[k] += part_gamma[k];
        AddInPlace(&mu_sum[k], part_mu[k]);
      }
    }
    std::vector<Vec> mu(g, Vec(d, 0.0));
    for (int k = 0; k < g; ++k) {
      if (gamma_sum[k] < 1e-10) continue;
      mu[k] = mu_sum[k];
      ScaleInPlace(&mu[k], 1.0 / gamma_sum[k]);
    }
    std::vector<Matrix> covs;
    for (size_t lo = 0; lo < n; lo += kGrain) {
      std::vector<Matrix> part(g, Matrix(d, d));
      for (size_t i = lo; i < std::min(n, lo + kGrain); ++i) {
        for (int k = 0; k < g; ++k) {
          if (gamma_sum[k] < 1e-10) continue;
          Vec diff = Sub(data[i], mu[k]);
          for (size_t r = 0; r < d; ++r) {
            for (size_t c = 0; c < d; ++c) {
              part[k](r, c) += gammas[i][k] * diff[r] * diff[c];
            }
          }
        }
      }
      if (covs.empty()) {
        covs = std::move(part);
        continue;
      }
      for (int k = 0; k < g; ++k) {
        for (size_t e = 0; e < covs[k].data().size(); ++e) {
          covs[k].data()[e] += part[k].data()[e];
        }
      }
    }
    std::vector<double> weights(g);
    std::vector<MultivariateGaussian> next;
    for (int k = 0; k < g; ++k) {
      if (gamma_sum[k] < 1e-10) {
        next.emplace_back(data[rng->UniformInt(n)], global_cov, var_floor);
        weights[k] = 1.0 / static_cast<double>(n);
        continue;
      }
      Matrix cov = covs[k];
      for (auto& v : cov.data()) v /= gamma_sum[k];
      next.emplace_back(mu[k], std::move(cov), var_floor);
      weights[k] = gamma_sum[k] / static_cast<double>(n);
    }
    model = Gmm(std::move(weights), std::move(next));
  }
  return {model, log_likelihood(nullptr)};
}

/// Gmm::FitEM's restarts over ReferenceRunEmOnce.
Gmm ReferenceFitEm(const std::vector<Vec>& data, int g,
                   const GmmFitOptions& options) {
  g = std::max(1, std::min<int>(g, static_cast<int>(data.size())));
  Rng rng(options.seed + static_cast<uint64_t>(g) * 1000003ULL);
  ReferenceEmRun best{
      Gmm({1.0}, {MultivariateGaussian({0.0}, Matrix::Identity(1))})};
  for (int r = 0; r < std::max(1, options.num_restarts); ++r) {
    ReferenceEmRun run = ReferenceRunEmOnce(data, g, options, &rng);
    if (run.log_likelihood > best.log_likelihood) best = std::move(run);
  }
  return best.model;
}

void ExpectSameGmmBits(const Gmm& got, const Gmm& want) {
  ASSERT_EQ(got.num_components(), want.num_components());
  for (size_t k = 0; k < got.num_components(); ++k) {
    EXPECT_TRUE(SameBits(got.weights()[k], want.weights()[k])) << k;
    const auto& a = got.component(k);
    const auto& b = want.component(k);
    EXPECT_TRUE(SameBits(a.log_det(), b.log_det())) << k;
    for (size_t i = 0; i < a.dimension(); ++i) {
      EXPECT_TRUE(SameBits(a.mean()[i], b.mean()[i])) << k << "," << i;
    }
    for (size_t e = 0; e < a.cholesky().data().size(); ++e) {
      EXPECT_TRUE(SameBits(a.covariance().data()[e], b.covariance().data()[e]));
      EXPECT_TRUE(SameBits(a.cholesky().data()[e], b.cholesky().data()[e]));
    }
  }
}

TEST(GmmTest, FitEmMatchesPerPointLoopBitwise) {
  // 300 points: chunks of 128, 128 and 44 points, tiles of 64 and tails.
  Rng rng(43);
  std::vector<Vec> data2 = TwoClusterData(150, &rng);
  std::vector<Vec> data3;
  for (int i = 0; i < 201; ++i) {
    data3.push_back({rng.Gaussian(0.2 + 0.6 * (i % 3 == 0), 0.05),
                     rng.Uniform(), rng.Gaussian(0.5, 0.2)});
  }
  runtime::ThreadPool pool(3);
  for (const auto* data : {&data2, &data3}) {
    for (int g = 1; g <= 4; ++g) {
      SCOPED_TRACE("d=" + std::to_string((*data)[0].size()) +
                   " g=" + std::to_string(g));
      GmmFitOptions options;
      const Gmm want = ReferenceFitEm(*data, g, options);
      for (runtime::ThreadPool* p :
           {static_cast<runtime::ThreadPool*>(nullptr), &pool}) {
        options.pool = p;
        auto fit = Gmm::FitEM(*data, g, options);
        ASSERT_TRUE(fit.ok());
        ExpectSameGmmBits(fit.value(), want);
      }
    }
  }
}

TEST(GmmTest, FitRecoversTwoSeparatedClusters) {
  Rng rng(7);
  auto data = TwoClusterData(150, &rng);
  GmmFitOptions opts;
  auto fit = Gmm::FitEM(data, 2, opts);
  ASSERT_TRUE(fit.ok());
  ASSERT_EQ(fit->num_components(), 2u);
  // One mean near (0.9, 0.85), the other near (0.1, 0.15).
  Vec m0 = fit->component(0).mean();
  Vec m1 = fit->component(1).mean();
  bool order_a = m0[0] > 0.5 && m1[0] < 0.5;
  bool order_b = m1[0] > 0.5 && m0[0] < 0.5;
  EXPECT_TRUE(order_a || order_b);
  EXPECT_NEAR(fit->weights()[0], 0.5, 0.05);
}

TEST(GmmTest, ResponsibilitiesSumToOne) {
  Rng rng(9);
  auto data = TwoClusterData(50, &rng);
  auto fit = Gmm::FitEM(data, 3, GmmFitOptions{});
  ASSERT_TRUE(fit.ok());
  for (const auto& x : data) {
    Vec gamma = fit->Responsibilities(x);
    double total = 0;
    for (double g : gamma) {
      EXPECT_GE(g, 0.0);
      total += g;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(GmmTest, AicSelectsOneComponentForSingleCluster) {
  Rng rng(11);
  std::vector<Vec> data;
  for (int i = 0; i < 200; ++i) {
    data.push_back({rng.Gaussian(0.5, 0.05), rng.Gaussian(0.5, 0.05)});
  }
  GmmFitOptions opts;
  opts.max_components = 4;
  auto fit = Gmm::FitWithAic(data, opts);
  ASSERT_TRUE(fit.ok());
  EXPECT_EQ(fit->num_components(), 1u);
}

TEST(GmmTest, AicSelectsTwoComponentsForTwoClusters) {
  Rng rng(13);
  auto data = TwoClusterData(200, &rng);
  GmmFitOptions opts;
  opts.max_components = 4;
  auto fit = Gmm::FitWithAic(data, opts);
  ASSERT_TRUE(fit.ok());
  EXPECT_EQ(fit->num_components(), 2u);
}

TEST(GmmTest, FitOnEmptyDataFails) {
  EXPECT_FALSE(Gmm::FitEM({}, 2, GmmFitOptions{}).ok());
  EXPECT_FALSE(Gmm::FitWithAic({}, GmmFitOptions{}).ok());
}

TEST(GmmTest, ComponentCountClampedToDataSize) {
  std::vector<Vec> data = {{0.1, 0.2}, {0.9, 0.8}};
  auto fit = Gmm::FitEM(data, 10, GmmFitOptions{});
  ASSERT_TRUE(fit.ok());
  EXPECT_LE(fit->num_components(), 2u);
}

TEST(GmmTest, SampleFollowsFittedDensity) {
  Rng rng(17);
  auto data = TwoClusterData(100, &rng);
  auto fit = Gmm::FitEM(data, 2, GmmFitOptions{});
  ASSERT_TRUE(fit.ok());
  Rng sample_rng(19);
  int near_high = 0, near_low = 0;
  for (int i = 0; i < 1000; ++i) {
    Vec x = fit->Sample(&sample_rng);
    if (x[0] > 0.5) ++near_high;
    if (x[0] <= 0.5) ++near_low;
  }
  EXPECT_NEAR(near_high, 500, 100);
  EXPECT_NEAR(near_low, 500, 100);
}

TEST(GmmTest, NumFreeParameters) {
  // g=2, d=3: (2-1) + 2*3 + 2*6 = 19.
  EXPECT_DOUBLE_EQ(Gmm::NumFreeParameters(2, 3), 19.0);
  EXPECT_DOUBLE_EQ(Gmm::NumFreeParameters(1, 1), 2.0);
}

TEST(GmmTest, MeanLogLikelihoodHigherOnTrainingData) {
  Rng rng(23);
  auto data = TwoClusterData(100, &rng);
  auto fit = Gmm::FitEM(data, 2, GmmFitOptions{});
  ASSERT_TRUE(fit.ok());
  std::vector<Vec> off_data = {{0.5, 0.5}, {0.4, 0.6}};
  EXPECT_GT(fit->MeanLogLikelihood(data), fit->MeanLogLikelihood(off_data));
}

// ------------------------------------------------------------ Incremental

TEST(IncrementalGmmTest, CommitMatchesBatchSufficientStats) {
  // The incremental update must equal processing all points in one pass
  // with the same (frozen) responsibilities.
  Rng rng(29);
  auto initial = TwoClusterData(60, &rng);
  auto fit = Gmm::FitEM(initial, 2, GmmFitOptions{});
  ASSERT_TRUE(fit.ok());

  std::vector<Vec> extra;
  for (int i = 0; i < 40; ++i) {
    extra.push_back({rng.Gaussian(0.9, 0.03), rng.Gaussian(0.85, 0.04)});
  }

  // Path 1: incremental.
  IncrementalGmm inc(fit.value(), initial);
  auto delta = inc.ComputeDelta(extra);
  Gmm preview = inc.PreviewModel(delta);
  inc.Commit(delta);

  // Path 2: one-shot statistics over initial + extra with the same model.
  std::vector<Vec> all = initial;
  all.insert(all.end(), extra.begin(), extra.end());
  IncrementalGmm batch(fit.value(), all);
  auto zero = batch.ComputeDelta({});
  Gmm batch_model = batch.PreviewModel(zero);

  ASSERT_EQ(preview.num_components(), batch_model.num_components());
  for (size_t k = 0; k < preview.num_components(); ++k) {
    EXPECT_NEAR(preview.weights()[k], batch_model.weights()[k], 1e-9);
    for (size_t d = 0; d < 2; ++d) {
      EXPECT_NEAR(preview.component(k).mean()[d],
                  batch_model.component(k).mean()[d], 1e-9);
    }
  }
  // Committed model equals the preview.
  for (size_t k = 0; k < preview.num_components(); ++k) {
    EXPECT_NEAR(inc.model().weights()[k], preview.weights()[k], 1e-12);
  }
}

TEST(IncrementalGmmTest, ComputeDeltaMatchesPerPointSumsBitwise) {
  // 150 points: two full tiles and a tail, summed point by point.
  Rng rng(47);
  auto initial = TwoClusterData(40, &rng);
  auto fit = Gmm::FitEM(initial, 3, GmmFitOptions{});
  ASSERT_TRUE(fit.ok());
  const IncrementalGmm inc(fit.value(), initial);
  const std::vector<Vec> points = TwoClusterData(75, &rng);
  const auto delta = inc.ComputeDelta(points);
  const size_t g = fit->num_components();
  std::vector<double> gamma_sum(g, 0.0);
  std::vector<Vec> weighted(g, Vec(2, 0.0));
  std::vector<Matrix> second(g, Matrix(2, 2));
  for (const auto& x : points) {
    const Vec gamma = ReferenceResponsibilities(inc.model(), x);
    for (size_t k = 0; k < g; ++k) {
      gamma_sum[k] += gamma[k];
      for (size_t i = 0; i < 2; ++i) {
        weighted[k][i] += gamma[k] * x[i];
        for (size_t j = 0; j < 2; ++j) {
          second[k](i, j) += gamma[k] * x[i] * x[j];
        }
      }
    }
  }
  ASSERT_EQ(delta.count, points.size());
  for (size_t k = 0; k < g; ++k) {
    EXPECT_TRUE(SameBits(delta.gamma_sum[k], gamma_sum[k])) << k;
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_TRUE(SameBits(delta.weighted_sum[k][i], weighted[k][i]));
      for (size_t j = 0; j < 2; ++j) {
        EXPECT_TRUE(SameBits(delta.second_moment[k](i, j), second[k](i, j)));
      }
    }
  }
}

TEST(IncrementalGmmTest, PreviewDoesNotMutate) {
  Rng rng(31);
  auto initial = TwoClusterData(40, &rng);
  auto fit = Gmm::FitEM(initial, 2, GmmFitOptions{});
  ASSERT_TRUE(fit.ok());
  IncrementalGmm inc(fit.value(), initial);
  double w0 = inc.model().weights()[0];
  auto delta = inc.ComputeDelta({{0.5, 0.5}, {0.6, 0.6}});
  (void)inc.PreviewModel(delta);
  EXPECT_DOUBLE_EQ(inc.model().weights()[0], w0);
  EXPECT_EQ(inc.num_points(), initial.size());
}

TEST(IncrementalGmmTest, CommitGrowsPointCount) {
  Rng rng(37);
  auto initial = TwoClusterData(30, &rng);
  auto fit = Gmm::FitEM(initial, 1, GmmFitOptions{});
  ASSERT_TRUE(fit.ok());
  IncrementalGmm inc(fit.value(), initial);
  auto delta = inc.ComputeDelta({{0.2, 0.2}});
  inc.Commit(delta);
  EXPECT_EQ(inc.num_points(), initial.size() + 1);
}

TEST(IncrementalGmmTest, MeanShiftsTowardNewData) {
  Rng rng(41);
  std::vector<Vec> initial;
  for (int i = 0; i < 50; ++i) {
    initial.push_back({rng.Gaussian(0.3, 0.02), rng.Gaussian(0.3, 0.02)});
  }
  auto fit = Gmm::FitEM(initial, 1, GmmFitOptions{});
  ASSERT_TRUE(fit.ok());
  IncrementalGmm inc(fit.value(), initial);
  std::vector<Vec> extra;
  for (int i = 0; i < 50; ++i) {
    extra.push_back({rng.Gaussian(0.7, 0.02), rng.Gaussian(0.7, 0.02)});
  }
  inc.Commit(inc.ComputeDelta(extra));
  EXPECT_NEAR(inc.model().component(0).mean()[0], 0.5, 0.05);
}

TEST(IncrementalGmmTest, AdoptedAndEmptyPreviewsMatchRebuildBitwise) {
  // The S2 loop previews, then commits what it previewed; an arm with no
  // new points previews as its committed model once that model was
  // rebuilt. Both must equal the always-rebuilt PreviewModel, and a twin
  // committing deltas the reference way must end on the same bits.
  Rng rng(43);
  auto initial = TwoClusterData(40, &rng);
  auto fit = Gmm::FitEM(initial, 3, GmmFitOptions{});
  ASSERT_TRUE(fit.ok());
  IncrementalGmm inc(fit.value(), initial);
  IncrementalGmm twin(fit.value(), initial);
  const std::vector<std::vector<Vec>> batches = {
      {}, TwoClusterData(3, &rng), {}, {}, TwoClusterData(1, &rng), {}};
  for (size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const std::vector<Vec>& points = batches[b];
    const Gmm rebuilt = inc.PreviewModel(inc.ComputeDelta(points));
    IncrementalGmm::Update update = inc.Preview(points.data(), points.size());
    // Only the first batch meets the EM fit, which an empty delta rebuilds.
    EXPECT_EQ(update.unchanged, points.empty() && b > 0);
    if (update.unchanged) {
      EXPECT_EQ(update.model, inc.shared_model());
    }
    ExpectSameGmmBits(*update.model, rebuilt);
    inc.Commit(std::move(update));
    twin.Commit(twin.ComputeDelta(points));
    ExpectSameGmmBits(inc.model(), rebuilt);
    ExpectSameGmmBits(twin.model(), rebuilt);
    EXPECT_EQ(inc.num_points(), twin.num_points());
  }
}

TEST(IncrementalGmmTest, InPlacePreviewSequenceMatchesRebuildAndReplayBitwise) {
  // 300 previews in a seeded order, each committed or dropped: every
  // preview, built in reused buffers, equals the rebuilt PreviewModel; a
  // twin committing deltas the reference way stays on the same bits; and
  // an arm previewed unchanged, scored with log-densities cached by
  // version as the S2 loop caches them, gives the estimate of the model
  // itself, also right after a commit that handed back the object a
  // stale cache entry was computed for.
  Rng rng(79);
  const std::vector<Vec> initial = TwoClusterData(40, &rng);
  const Gmm fit = Gmm::FitEM(initial, 3, GmmFitOptions{}).value();
  IncrementalGmm inc(fit, initial);
  IncrementalGmm twin(fit, initial);
  const ODistribution q(0.3, RandomMixture(2, 3, &rng),
                        RandomMixture(2, 2, &rng));
  const auto other = std::make_shared<const Gmm>(RandomMixture(2, 2, &rng));
  const JsdEstimator estimator(q, 130, 0x15d0);
  std::optional<uint64_t> cached_version;
  std::vector<double> cached;
  std::map<const Gmm*, uint64_t> committed_at;  // model address -> version
  bool reused = false, stored_after_reuse = false;
  int stored = 0, commits = 0;
  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<Vec> points;
    if (rng.UniformInt(3u) != 0) points = TwoClusterData(1 + rng.UniformInt(3u), &rng);
    const Gmm want = inc.PreviewModel(inc.ComputeDelta(points));
    IncrementalGmm::Update update = inc.Preview(points.data(), points.size());
    ExpectSameGmmBits(*update.model, want);
    if (update.unchanged) {
      if (cached_version != inc.version()) {
        estimator.StoredArmLogPdf(*update.model, &cached);
        cached_version = inc.version();
      }
      const ODistribution p(0.4, update.model, other);
      EXPECT_TRUE(SameBits(estimator.Estimate(p, cached.data()),
                           estimator.Estimate(p)));
      ++stored;
      stored_after_reuse = stored_after_reuse || reused;
    }
    if (rng.UniformInt(2u) == 0) continue;  // dropped
    inc.Commit(std::move(update));
    twin.Commit(twin.ComputeDelta(points));
    ++commits;
    ExpectSameGmmBits(inc.model(), twin.model());
    ASSERT_EQ(inc.num_points(), twin.num_points());
    const auto [it, fresh] = committed_at.emplace(&inc.model(), inc.version());
    if (!fresh && it->second != inc.version()) {
      reused = true;
      it->second = inc.version();
    }
  }
  EXPECT_GT(stored, 20);
  EXPECT_GT(commits, 100);
  EXPECT_TRUE(reused);
  EXPECT_TRUE(stored_after_reuse);
}

// --------------------------------------------------------- ODistribution

ODistribution MakeODistribution(double pi, double m_center, double n_center) {
  Gmm m({1.0}, {MultivariateGaussian({m_center, m_center},
                                     Diag2(0.01, 0.01), 0.0)});
  Gmm n({1.0}, {MultivariateGaussian({n_center, n_center},
                                     Diag2(0.01, 0.01), 0.0)});
  return ODistribution(pi, std::move(m), std::move(n));
}

TEST(ODistributionTest, PosteriorNearMatchCluster) {
  auto o = MakeODistribution(0.3, 0.9, 0.1);
  EXPECT_GT(o.PosteriorMatch({0.9, 0.9}), 0.95);
  EXPECT_LT(o.PosteriorMatch({0.1, 0.1}), 0.05);
  EXPECT_TRUE(o.LabelAsMatch({0.88, 0.92}));
  EXPECT_FALSE(o.LabelAsMatch({0.12, 0.08}));
}

TEST(ODistributionTest, SampleRespectsPi) {
  auto o = MakeODistribution(0.25, 0.9, 0.1);
  Rng rng(43);
  int matches = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    matches += o.Sample(&rng).from_match ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(matches) / n, 0.25, 0.02);
}

TEST(ODistributionTest, SamplesClampedToUnitBox) {
  auto o = MakeODistribution(0.5, 0.99, 0.01);
  Rng rng(47);
  for (int i = 0; i < 500; ++i) {
    Vec x = o.Sample(&rng).x;
    for (double v : x) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(ODistributionTest, ExtremePiPosterior) {
  auto o_zero = MakeODistribution(0.0, 0.9, 0.1);
  EXPECT_DOUBLE_EQ(o_zero.PosteriorMatch({0.9, 0.9}), 0.0);
  auto o_one = MakeODistribution(1.0, 0.9, 0.1);
  EXPECT_DOUBLE_EQ(o_one.PosteriorMatch({0.1, 0.1}), 1.0);
}

TEST(ODistributionTest, LogPdfBatchMatchesPerPointReferenceBitwise) {
  Rng rng(41);
  for (size_t d : BatchDimensions()) {
    for (double pi : {0.0, 0.3, 1.0}) {
      SCOPED_TRACE("d=" + std::to_string(d) + " pi=" + std::to_string(pi));
      const ODistribution o(pi, RandomMixture(d, 4, &rng),
                            RandomMixture(d, 2, &rng));
      ExpectMatchesReferenceBitwise(o, &rng);
    }
  }
}

/// PosteriorMatch spelled out per point over the reference GMM densities
/// and the lse scalar reference Exp, with its pi = 0 and pi = 1 edges.
double ReferencePosteriorMatch(const ODistribution& o, const Vec& x) {
  if (o.pi() <= 0.0) return 0.0;
  if (o.pi() >= 1.0) return 1.0;
  const double log_m =
      std::log(o.pi()) + ReferenceLogPdf(o.m_distribution(), x);
  const double log_n =
      std::log(1.0 - o.pi()) + ReferenceLogPdf(o.n_distribution(), x);
  const double hi = std::max(log_m, log_n);
  const double zm = lse::ReferenceExp(log_m - hi);
  const double zn = lse::ReferenceExp(log_n - hi);
  return zm / (zm + zn);
}

TEST(ODistributionTest, PosteriorMatchBatchMatchesPerPointReferenceBitwise) {
  // BatchPoints puts every seventh point so far out that both arms are
  // -inf; the counts straddle the 64-point tile.
  Rng rng(53);
  for (size_t d : BatchDimensions()) {
    for (double pi : {0.0, 1.0 / 11.0, 0.5, 1.0}) {
      SCOPED_TRACE("d=" + std::to_string(d) + " pi=" + std::to_string(pi));
      const ODistribution o(pi, RandomMixture(d, 4, &rng),
                            RandomMixture(d, 2, &rng));
      for (size_t count : kBatchCounts) {
        SCOPED_TRACE("count=" + std::to_string(count));
        const std::vector<Vec> points = BatchPoints(d, count, &rng);
        const std::vector<double> xs = DimensionMajor(points);
        std::vector<double> out(count);
        o.PosteriorMatchBatch(xs.data(), count, out.data());
        for (size_t j = 0; j < count; ++j) {
          const double want = ReferencePosteriorMatch(o, points[j]);
          EXPECT_TRUE(SameBits(out[j], want)) << "point " << j;
          EXPECT_TRUE(SameBits(o.PosteriorMatch(points[j]), want))
              << "point " << j;
          EXPECT_EQ(o.LabelAsMatch(points[j]), want >= 0.5) << "point " << j;
        }
      }
    }
  }
}

// ---------------------------------------------------------- mixture tile

/// Bit-for-bit equality of two arrays.
::testing::AssertionResult SameBitsArray(const std::vector<double>& got,
                                         const std::vector<double>& want) {
  for (size_t j = 0; j < want.size(); ++j) {
    if (!SameBits(got[j], want[j])) {
      return ::testing::AssertionFailure()
             << "at " << j << ": " << got[j] << " != " << want[j];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(MixtureTileTest, Avx2CloneMatchesScalarReferenceBitwise) {
  // The host's kernels (the AVX2 clone where the host has AVX2) against
  // the scalar reference: every call length 1-64 (a subset at d = 33,
  // the heap scratch), arms of 1-4 and 17 components with a zero-weight
  // component, pi at its edges, -inf points, and stored arms.
  Rng rng(73);
  constexpr size_t kPoints = 64;
  const size_t arm_sizes[][2] = {{1, 2}, {2, 3}, {3, 4}, {4, 1},
                                 {Gmm::kInlineComponents + 1, 3}};
  for (size_t d : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{6},
                   size_t{8}, MultivariateGaussian::kInlineDimension + 1}) {
    std::vector<size_t> lengths;
    if (d <= 8) {
      for (size_t len = 1; len <= kPoints; ++len) lengths.push_back(len);
    } else {
      lengths = {1, 2, 3, 4, 5, 8, 63, 64};
    }
    const std::vector<double> xs = DimensionMajor(BatchPoints(d, kPoints, &rng));
    for (const auto& sizes : arm_sizes) {
      SCOPED_TRACE("d=" + std::to_string(d) + " g=" + std::to_string(sizes[0]));
      const Gmm m = RandomMixture(d, sizes[0], &rng);
      const Gmm n = RandomMixture(d, sizes[1], &rng);
      const ODistribution q(0.25, RandomMixture(d, 2, &rng),
                            RandomMixture(d, 3, &rng));
      std::vector<double> m_known(kPoints), n_known(kPoints), log_q(kPoints);
      m.LogPdfBatch(xs.data(), kPoints, m_known.data());
      n.LogPdfBatch(xs.data(), kPoints, n_known.data());
      q.LogPdfBatch(xs.data(), kPoints, log_q.data());
      const Gmm::TileView m_view(m);
      const ODistribution::TileView q_view(q);
      for (size_t len : lengths) {
        std::vector<double> got(len), want(len);
        mixture_tile::ArmLogPdf(m_view.arm(), d, xs.data(), kPoints, len,
                                got.data());
        mixture_tile::ArmLogPdf(m_view.arm(), d, xs.data(), kPoints, len,
                                want.data(), /*reference=*/true);
        ASSERT_TRUE(SameBitsArray(got, want)) << "arm, len " << len;
      }
      for (double pi : {0.0, 1.0 / 11.0, 0.5, 1.0}) {
        const ODistribution o(pi, m, n);
        for (bool stored : {false, true}) {
          SCOPED_TRACE("pi=" + std::to_string(pi) +
                       (stored ? " stored" : ""));
          const ODistribution::TileView view(
              o, stored ? m_known.data() : nullptr,
              stored ? n_known.data() : nullptr);
          for (size_t len : lengths) {
            SCOPED_TRACE("len=" + std::to_string(len));
            std::vector<double> got(len), want(len);
            mixture_tile::OLogPdf(view.arms(), d, xs.data(), kPoints, len,
                                  got.data());
            mixture_tile::OLogPdf(view.arms(), d, xs.data(), kPoints, len,
                                  want.data(), true);
            ASSERT_TRUE(SameBitsArray(got, want));
            if (pi > 0.0 && pi < 1.0) {
              mixture_tile::Posterior(view.arms(), d, xs.data(), kPoints, len,
                                      got.data());
              mixture_tile::Posterior(view.arms(), d, xs.data(), kPoints, len,
                                      want.data(), true);
              ASSERT_TRUE(SameBitsArray(got, want));
            }
            for (bool side_p : {true, false}) {
              const double* known_q[] = {nullptr, log_q.data()};
              for (const double* lq : known_q) {
                ASSERT_TRUE(SameBits(
                    mixture_tile::KlSum(view.arms(), q_view.arms(), lq, side_p,
                                        d, xs.data(), kPoints, len),
                    mixture_tile::KlSum(view.arms(), q_view.arms(), lq, side_p,
                                        d, xs.data(), kPoints, len, true)));
              }
            }
          }
        }
      }
    }
  }
}

/// Q diag(s, ..., s / cond) Q^T, eigenvalues spaced geometrically, Q an
/// orthonormal basis from Gram-Schmidt on a random matrix.
Matrix ConditionedSpd(size_t d, double cond, double s, Rng* rng) {
  std::vector<Vec> q;
  while (q.size() < d) {
    Vec v = RandomPoint(d, 1.0, rng);
    for (const Vec& u : q) {
      const double dot = Dot(u, v);
      for (size_t i = 0; i < d; ++i) v[i] -= dot * u[i];
    }
    const double norm = Norm(v);
    if (norm < 1e-3) continue;
    for (double& x : v) x /= norm;
    q.push_back(v);
  }
  Matrix a(d, d);
  for (size_t k = 0; k < d; ++k) {
    const double lambda =
        d == 1 ? s : s * std::pow(cond, -static_cast<double>(k) / (d - 1));
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = 0; j < d; ++j) a(i, j) += lambda * q[k][i] * q[k][j];
    }
  }
  return a;
}

TEST(MixtureTileTest, ScalarReferenceAgreesWithDividingSolve) {
  // Multiplying by the reciprocal diagonal moves a log-density by ulps of
  // the solve: within 1e-11 of max(1, |log p|) of the per-point
  // ForwardSolve/Dot form, on covariances of condition number up to 1e4,
  // for points near and far (1, 3 and 10 sigma).
  Rng rng(83);
  for (size_t d : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{6},
                   size_t{8}}) {
    for (double cond : {1.0, 10.0, 1e2, 1e4}) {
      SCOPED_TRACE("d=" + std::to_string(d) + " cond=" + std::to_string(cond));
      std::vector<double> weights;
      std::vector<MultivariateGaussian> comps;
      for (size_t k = 0; k < 3; ++k) {
        weights.push_back(rng.Uniform(0.2, 1.0));
        comps.emplace_back(RandomPoint(d, 1.0, &rng),
                           ConditionedSpd(d, cond, 0.01, &rng), 0.0);
      }
      const Gmm gmm(weights, comps);
      const ODistribution o(0.3, gmm, Gmm({1.0}, {comps[1]}));
      std::vector<Vec> points;
      for (double spread : {1.0, 3.0, 10.0}) {
        for (int j = 0; j < 40; ++j) {
          Vec z(d);
          for (double& v : z) v = spread * rng.Gaussian();
          Vec x(d);
          comps[j % 3].TransformInto(z.data(), x.data(), 1);
          points.push_back(x);
        }
      }
      const std::vector<double> xs = DimensionMajor(points);
      const size_t count = points.size();
      std::vector<double> arm(count), mixture(count);
      const Gmm::TileView view(gmm);
      mixture_tile::ArmLogPdf(view.arm(), d, xs.data(), count, count,
                              arm.data(), /*reference=*/true);
      mixture_tile::OLogPdf(ODistribution::TileView(o).arms(), d, xs.data(),
                            count, count, mixture.data(), true);
      for (size_t j = 0; j < count; ++j) {
        const double want = EStepLogPdf(gmm, points[j]);
        EXPECT_NEAR(arm[j], want, 1e-11 * std::max(1.0, std::fabs(want)))
            << "point " << j;
        const double lm = std::log(0.3) + want;
        const double ln = std::log(0.7) + ReferenceLogPdf(comps[1], points[j]);
        const double hi = std::max(lm, ln);
        const double want_o =
            hi + std::log(std::exp(lm - hi) + std::exp(ln - hi));
        EXPECT_NEAR(mixture[j], want_o, 1e-11 * std::max(1.0, std::fabs(want_o)))
            << "point " << j;
      }
    }
  }
}

// ---------------------------------------------------------------- JSD

TEST(JsdTest, IdenticalDistributionsNearZero) {
  auto o = MakeODistribution(0.3, 0.9, 0.1);
  double jsd = EstimateJsd(o, o, 500, 1);
  EXPECT_NEAR(jsd, 0.0, 1e-9);
}

TEST(JsdTest, DifferentDistributionsPositive) {
  auto p = MakeODistribution(0.3, 0.9, 0.1);
  auto q = MakeODistribution(0.3, 0.6, 0.4);
  EXPECT_GT(EstimateJsd(p, q, 500, 2), 0.05);
}

TEST(JsdTest, BoundedByLog2) {
  auto p = MakeODistribution(0.5, 0.99, 0.95);
  auto q = MakeODistribution(0.5, 0.01, 0.05);
  double jsd = EstimateJsd(p, q, 500, 3);
  EXPECT_LE(jsd, std::log(2.0) + 0.05);
}

TEST(JsdTest, MonotoneInSeparation) {
  auto p = MakeODistribution(0.3, 0.9, 0.1);
  auto close = MakeODistribution(0.3, 0.85, 0.15);
  auto far = MakeODistribution(0.3, 0.5, 0.5);
  EXPECT_LT(EstimateJsd(p, close, 600, 4), EstimateJsd(p, far, 600, 4));
}

TEST(JsdTest, DeterministicForFixedSeed) {
  auto p = MakeODistribution(0.4, 0.8, 0.2);
  auto q = MakeODistribution(0.4, 0.7, 0.3);
  EXPECT_DOUBLE_EQ(EstimateJsd(p, q, 200, 9), EstimateJsd(p, q, 200, 9));
}

/// 1-D O-distribution with both arms hugging the unit-interval boundary:
/// sd 0.1 around means near 0/1 puts ~35-40% of each arm's mass outside
/// [0, 1], which is exactly where the old clamped-sample estimator broke.
ODistribution Boundary1D(double pi, double m_mean, double n_mean) {
  Matrix var(1, 1);
  var(0, 0) = 0.01;
  Gmm m({1.0}, {MultivariateGaussian({m_mean}, var, 0.0)});
  Gmm n({1.0}, {MultivariateGaussian({n_mean}, var, 0.0)});
  return ODistribution(pi, std::move(m), std::move(n));
}

TEST(JsdTest, MatchesNumericIntegrationForBoundaryHuggingMixtures) {
  // Regression for the estimator bias fixed alongside SampleUnclamped():
  // the Monte-Carlo JSD used to draw clamped samples (mass piled onto the
  // cube faces) while scoring them with the unclamped LogPdf, overstating
  // agreement between boundary-hugging mixtures. The reference here is a
  // fine-grid trapezoidal integral of the exact 1-D JSD over [-1, 2]
  // (mean +/- 10 sd), which the fixed estimator must match within Monte-
  // Carlo noise.
  auto p = Boundary1D(0.5, 0.97, 0.03);
  auto q = Boundary1D(0.5, 0.80, 0.20);

  auto pdf = [](const ODistribution& o, double x) {
    return std::exp(o.LogPdf({x}));
  };
  const double lo = -1.0, hi = 2.0, step = 5e-4;
  double reference = 0.0;
  for (double x = lo; x < hi; x += step) {
    double pv = pdf(p, x), qv = pdf(q, x);
    double mv = 0.5 * (pv + qv);
    double integrand = 0.0;
    if (pv > 0.0) integrand += 0.5 * pv * std::log(pv / mv);
    if (qv > 0.0) integrand += 0.5 * qv * std::log(qv / mv);
    reference += integrand * step;
  }

  double estimate = EstimateJsd(p, q, 20000, 11);
  EXPECT_NEAR(estimate, reference, 0.02);

  // Same check with one side all but outside the cube: q's match arm at
  // 1.05 has the majority of its mass above 1.
  auto r = Boundary1D(0.5, 1.05, -0.05);
  double reference_r = 0.0;
  for (double x = lo; x < hi; x += step) {
    double pv = pdf(p, x), rv = pdf(r, x);
    double mv = 0.5 * (pv + rv);
    double integrand = 0.0;
    if (pv > 0.0) integrand += 0.5 * pv * std::log(pv / mv);
    if (rv > 0.0) integrand += 0.5 * rv * std::log(rv / mv);
    reference_r += integrand * step;
  }
  EXPECT_NEAR(EstimateJsd(p, r, 20000, 13), reference_r, 0.02);
}

/// The allocating per-point draw SampleUnclamped made before draws went
/// into tiles: Bernoulli(pi), Categorical(weights), d Gaussians, then
/// x = mean + L z with each row's sum starting at 0.
Vec ReferenceSampleUnclamped(const ODistribution& o, Rng* rng) {
  const Gmm& arm =
      rng->Bernoulli(o.pi()) ? o.m_distribution() : o.n_distribution();
  const MultivariateGaussian& g =
      arm.component(rng->Categorical(arm.weights()));
  Vec z(g.dimension());
  for (double& v : z) v = rng->Gaussian();
  Vec x = g.mean();
  for (size_t i = 0; i < x.size(); ++i) {
    double s = 0.0;
    for (size_t j = 0; j <= i; ++j) s += g.cholesky()(i, j) * z[j];
    x[i] += s;
  }
  return x;
}

/// The per-point block sum EstimateJsd used before JsdEstimator: one draw
/// at a time from the sampled side's stream, both densities per draw, log m
/// through the lse scalar references.
double ReferenceJsdBlockSum(const ODistribution& sample_side,
                            const ODistribution& p, const ODistribution& q,
                            int lo, int hi, Rng* rng) {
  constexpr double kLogHalf = -0.6931471805599453;
  double sum = 0.0;
  for (int i = lo; i < hi; ++i) {
    Vec x = ReferenceSampleUnclamped(sample_side, rng);
    double lp = ReferenceLogPdf(p, x);
    double lq = ReferenceLogPdf(q, x);
    double hi_l = std::max(lp, lq);
    double log_mix =
        kLogHalf + hi_l + lse::ReferenceLog(lse::ReferenceExp(lp - hi_l) +
                                            lse::ReferenceExp(lq - hi_l));
    sum += (&sample_side == &p ? lp : lq) - log_mix;
  }
  return sum;
}

/// The serial per-point estimate: even blocks from p, odd blocks from q,
/// block b on stream DeriveSeed(seed, b), sums folded in block order.
double ReferenceEstimateJsd(const ODistribution& p, const ODistribution& q,
                            int num_samples, uint64_t seed) {
  constexpr int kBlock = 64;
  const int blocks_per_side = (num_samples + kBlock - 1) / kBlock;
  double kl_p = 0.0, kl_q = 0.0;
  for (int b = 0; b < 2 * blocks_per_side; ++b) {
    const int s_lo = (b / 2) * kBlock;
    const int s_hi = std::min(num_samples, s_lo + kBlock);
    Rng rng(runtime::ShardedRng::DeriveSeed(seed, static_cast<size_t>(b)));
    if (b % 2 == 0) {
      kl_p += ReferenceJsdBlockSum(p, p, q, s_lo, s_hi, &rng);
    } else {
      kl_q += ReferenceJsdBlockSum(q, p, q, s_lo, s_hi, &rng);
    }
  }
  return std::max(0.0, 0.5 * (kl_p + kl_q) / static_cast<double>(num_samples));
}

TEST(ODistributionTest, SampleIntoMatchesReferenceDraws) {
  Rng build(47);
  const ODistribution o(0.3, RandomMixture(4, 3, &build),
                        RandomMixture(4, 2, &build));
  Rng tile_rng(5), ref_rng(5);
  constexpr size_t kCount = 70;
  std::vector<double> xs(4 * kCount);
  for (size_t j = 0; j < kCount; ++j) {
    o.SampleUnclampedInto(&tile_rng, xs.data() + j, kCount);
  }
  for (size_t j = 0; j < kCount; ++j) {
    const Vec want = ReferenceSampleUnclamped(o, &ref_rng);
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(SameBits(xs[i * kCount + j], want[i])) << j << "," << i;
    }
  }
  // Both consumed the same draws.
  EXPECT_EQ(tile_rng.Next(), ref_rng.Next());
}

TEST(JsdTest, EstimatorMatchesPerPointReferenceBitwise) {
  Rng rng(53);
  const size_t d = 4;
  const ODistribution q(0.2, RandomMixture(d, 3, &rng),
                        RandomMixture(d, 2, &rng));
  std::vector<ODistribution> ps;
  ps.emplace_back(0.25, RandomMixture(d, 2, &rng), RandomMixture(d, 3, &rng));
  ps.emplace_back(0.05, RandomMixture(d, 1, &rng), RandomMixture(d, 4, &rng));
  ps.emplace_back(1.0, RandomMixture(d, 2, &rng), RandomMixture(d, 1, &rng));
  ps.push_back(q);
  const uint64_t seed = 0x15d0;
  runtime::ThreadPool pool1(1), pool3(3);
  for (int n : {1, 63, 64, 65, 192}) {
    std::vector<double> want;
    for (const auto& p : ps) {
      want.push_back(ReferenceEstimateJsd(p, q, n, seed));
    }
    for (runtime::ThreadPool* pool :
         {static_cast<runtime::ThreadPool*>(nullptr), &pool1, &pool3}) {
      SCOPED_TRACE("num_samples=" + std::to_string(n) + " pool=" +
                   std::to_string(pool == nullptr ? 0 : pool->num_threads()));
      // One estimator serves every p, in forward and then reverse order.
      const JsdEstimator estimator(q, n, seed, pool);
      for (size_t i = 0; i < ps.size(); ++i) {
        EXPECT_TRUE(SameBits(estimator.Estimate(ps[i]), want[i])) << i;
      }
      for (size_t i = ps.size(); i-- > 0;) {
        EXPECT_TRUE(SameBits(estimator.Estimate(ps[i]), want[i])) << i;
      }
      EXPECT_TRUE(SameBits(EstimateJsd(ps[0], q, n, seed, pool), want[0]));
    }
  }
}

TEST(JsdTest, StoredArmLogPdfReuseMatchesEstimateBitwise) {
  // Handing Estimate an arm's log-densities at the stored draws, as the S2
  // loop does for an arm with no new pairs, must not move a bit.
  Rng rng(57);
  const size_t d = 4;
  const ODistribution q(0.2, RandomMixture(d, 3, &rng),
                        RandomMixture(d, 2, &rng));
  const ODistribution p(0.3, RandomMixture(d, 2, &rng),
                        RandomMixture(d, 3, &rng));
  runtime::ThreadPool pool(2);
  for (int n : {1, 63, 64, 65, 192}) {
    for (runtime::ThreadPool* pl :
         {static_cast<runtime::ThreadPool*>(nullptr), &pool}) {
      const JsdEstimator estimator(q, n, 0x15d0, pl);
      std::vector<double> m_stored, n_stored;
      estimator.StoredArmLogPdf(p.m_distribution(), &m_stored);
      estimator.StoredArmLogPdf(p.n_distribution(), &n_stored);
      const double want = estimator.Estimate(p);
      EXPECT_TRUE(SameBits(estimator.Estimate(p, m_stored.data()), want));
      EXPECT_TRUE(
          SameBits(estimator.Estimate(p, nullptr, n_stored.data()), want));
      EXPECT_TRUE(SameBits(
          estimator.Estimate(p, m_stored.data(), n_stored.data()), want));
    }
  }
}

TEST(JsdTest, CachedDrawsMatchStreamPathBitwise) {
  // For 0 < pi < 1 Estimate maps the draws its constructor cached; the
  // reference draws every point from the block streams. Odd d makes the
  // Box-Muller pairs straddle draws; d = 33 takes the heap buffers; pi = 0
  // and pi = 1 draw no arm uniform and keep the stream path.
  const uint64_t seed = 0x5eed;
  for (size_t d : {size_t{1}, size_t{3}, size_t{4},
                   MultivariateGaussian::kInlineDimension + 1}) {
    Rng rng(59 + d);
    const ODistribution q(0.3, RandomMixture(d, 2, &rng),
                          RandomMixture(d, 3, &rng));
    std::vector<ODistribution> ps;
    for (double pi : {0.0, 1.0 / 11.0, 0.5, 1.0}) {
      ps.emplace_back(pi, RandomMixture(d, 3, &rng),
                      RandomMixture(d, 4, &rng));
    }
    for (int n : {1, 65, 130}) {
      SCOPED_TRACE("d=" + std::to_string(d) + " n=" + std::to_string(n));
      const JsdEstimator estimator(q, n, seed);
      for (const auto& p : ps) {
        EXPECT_TRUE(SameBits(estimator.Estimate(p),
                             ReferenceEstimateJsd(p, q, n, seed)))
            << "pi=" << p.pi();
      }
    }
  }
}

TEST(ODistributionTest, MapUnclampedMatchesSampleUnclampedBitwise) {
  Rng build(61);
  for (size_t d : {size_t{1}, size_t{3}}) {
    const ODistribution o(0.4, RandomMixture(d, 3, &build),
                          RandomMixture(d, 2, &build));
    Rng stream(7), raw(7);
    for (int draw = 0; draw < 50; ++draw) {
      std::vector<double> want(d), got(d);
      const bool want_match = o.SampleUnclampedInto(&stream, want.data(), 1);
      const double u_arm = raw.Uniform();
      const double u_component = raw.Uniform();
      std::vector<double> z(d);
      for (double& v : z) v = raw.Gaussian();
      EXPECT_EQ(o.MapUnclampedInto(u_arm, u_component, z.data(), got.data(),
                                   1),
                want_match);
      for (size_t i = 0; i < d; ++i) EXPECT_TRUE(SameBits(got[i], want[i]));
    }
    EXPECT_EQ(stream.Next(), raw.Next());
  }
}

}  // namespace
}  // namespace serd
