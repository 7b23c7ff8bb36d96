#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gmm/gaussian.h"
#include "gmm/gmm.h"
#include "gmm/incremental.h"
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
/// ForwardSolve, Dot); LogPdf and LogPdfBatch must match it bit for bit.
double ReferenceLogPdf(const MultivariateGaussian& g, const Vec& x) {
  Vec y = ForwardSolve(g.cholesky(), Sub(x, g.mean()));
  double d = static_cast<double>(g.dimension());
  return -0.5 * (d * 1.8378770664093453 + g.log_det() + Dot(y, y));
}

/// log-sum-exp over components with a std::vector of terms, log(weight)
/// taken per call and reference component densities; Gmm::LogPdf and
/// LogPdfBatch must match it bit for bit.
double ReferenceLogPdf(const Gmm& gmm, const Vec& x) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> terms(gmm.num_components());
  double max_term = -inf;
  for (size_t k = 0; k < terms.size(); ++k) {
    const double w = gmm.weights()[k];
    terms[k] = (w > 0.0 ? std::log(w) : -inf) +
               ReferenceLogPdf(gmm.component(k), x);
    max_term = std::max(max_term, terms[k]);
  }
  if (!std::isfinite(max_term)) return max_term;
  double sum = 0.0;
  for (double t : terms) sum += std::exp(t - max_term);
  return max_term + std::log(sum);
}

/// ODistribution::LogPdf spelled out per point over the reference GMM
/// densities, with its pi = 0 and pi = 1 edges.
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
  return hi + std::log(std::exp(log_m - hi) + std::exp(log_n - hi));
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
/// at a time from the sampled side, both densities per draw.
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
    double log_mix = kLogHalf + hi_l + std::log(std::exp(lp - hi_l) +
                                                std::exp(lq - hi_l));
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

}  // namespace
}  // namespace serd
