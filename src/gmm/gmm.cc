#include "gmm/gmm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "obs/trace.h"
#include "runtime/parallel_for.h"

namespace serd {

Gmm::Gmm(std::vector<double> weights,
         std::vector<MultivariateGaussian> components)
    : weights_(std::move(weights)), components_(std::move(components)) {
  SERD_CHECK_EQ(weights_.size(), components_.size());
  SERD_CHECK(!components_.empty());
  double total = 0.0;
  for (double w : weights_) {
    SERD_CHECK_GE(w, 0.0);
    total += w;
  }
  SERD_CHECK_GT(total, 0.0);
  for (double& w : weights_) w /= total;
  CacheLogWeights();
}

void Gmm::CacheLogWeights() {
  log_weights_.resize(weights_.size());
  for (size_t k = 0; k < weights_.size(); ++k) {
    log_weights_[k] = weights_[k] > 0.0
                          ? std::log(weights_[k])
                          : -std::numeric_limits<double>::infinity();
  }
}

Gmm Gmm::FromParts(std::vector<double> weights,
                   std::vector<MultivariateGaussian> components) {
  SERD_CHECK_EQ(weights.size(), components.size());
  SERD_CHECK(!components.empty());
  Gmm gmm;
  gmm.weights_ = std::move(weights);
  gmm.components_ = std::move(components);
  gmm.CacheLogWeights();
  return gmm;
}

double Gmm::LogPdf(const Vec& x) const {
  SERD_CHECK(!components_.empty());
  const size_t g = components_.size();
  double inline_terms[kInlineComponents];
  std::unique_ptr<double[]> heap_terms;
  double* terms = inline_terms;
  if (g > kInlineComponents) {
    heap_terms = std::make_unique<double[]>(g);
    terms = heap_terms.get();
  }
  double max_term = -std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < g; ++k) {
    terms[k] = log_weights_[k] + components_[k].LogPdf(x);
    max_term = std::max(max_term, terms[k]);
  }
  if (!std::isfinite(max_term)) return max_term;
  double sum = 0.0;
  for (size_t k = 0; k < g; ++k) sum += std::exp(terms[k] - max_term);
  return max_term + std::log(sum);
}

double Gmm::Pdf(const Vec& x) const { return std::exp(LogPdf(x)); }

Vec Gmm::Responsibilities(const Vec& x) const {
  std::vector<double> terms(components_.size());
  double max_term = -std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < components_.size(); ++k) {
    terms[k] = log_weights_[k] + components_[k].LogPdf(x);
    max_term = std::max(max_term, terms[k]);
  }
  Vec gamma(components_.size(), 0.0);
  if (!std::isfinite(max_term)) {
    // All components give zero density: fall back to the prior weights.
    for (size_t k = 0; k < components_.size(); ++k) gamma[k] = weights_[k];
    return gamma;
  }
  double total = 0.0;
  for (size_t k = 0; k < components_.size(); ++k) {
    gamma[k] = std::exp(terms[k] - max_term);
    total += gamma[k];
  }
  for (double& g : gamma) g /= total;
  return gamma;
}

Vec Gmm::Sample(Rng* rng) const {
  SERD_CHECK(rng != nullptr);
  size_t k = rng->Categorical(weights_);
  return components_[k].Sample(rng);
}

double Gmm::MeanLogLikelihood(const std::vector<Vec>& data) const {
  SERD_CHECK(!data.empty());
  double total = 0.0;
  for (const auto& x : data) total += LogPdf(x);
  return total / static_cast<double>(data.size());
}

double Gmm::NumFreeParameters(int g, int d) {
  return static_cast<double>(g - 1) + static_cast<double>(g) * d +
         static_cast<double>(g) * d * (d + 1) / 2.0;
}

namespace {

/// One full EM run from a random initialization. Returns the fitted model
/// and its total log-likelihood.
struct EmRun {
  Gmm model = Gmm({1.0}, {MultivariateGaussian({0.0}, Matrix::Identity(1))});
  double log_likelihood = -std::numeric_limits<double>::infinity();
  int iterations = 0;
};

Matrix SampleCovariance(const std::vector<Vec>& data, const Vec& mean) {
  const size_t d = mean.size();
  Matrix cov(d, d);
  for (const auto& x : data) {
    Vec diff = Sub(x, mean);
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = 0; j < d; ++j) cov(i, j) += diff[i] * diff[j];
    }
  }
  double inv_n = 1.0 / static_cast<double>(data.size());
  for (auto& v : cov.data()) v *= inv_n;
  return cov;
}

/// Per-point work in the E-/M-steps is O(g * d^2); this grain keeps chunks
/// in the tens-of-microseconds range. Fixed (never derived from the thread
/// count) so chunked reductions associate identically for any pool size.
constexpr size_t kEmGrain = 128;

EmRun RunEmOnce(const std::vector<Vec>& data, int g,
                const GmmFitOptions& options, Rng* rng) {
  const size_t n = data.size();
  const size_t d = data[0].size();
  runtime::ThreadPool* pool = options.pool;

  // Initialization: means at distinct random points; covariance = global
  // sample covariance; uniform weights.
  Vec global_mean(d, 0.0);
  for (const auto& x : data) AddInPlace(&global_mean, x);
  ScaleInPlace(&global_mean, 1.0 / static_cast<double>(n));
  Matrix global_cov = SampleCovariance(data, global_mean);

  // Variance floor: prevents the classic GMM likelihood blow-up where a
  // component collapses onto a handful of points with near-singular
  // covariance (which would also defeat AIC model selection). The floor
  // scales with the data's own spread.
  double mean_var = 0.0;
  for (size_t i = 0; i < d; ++i) mean_var += global_cov(i, i);
  mean_var /= static_cast<double>(d);
  const double var_floor = std::max(options.ridge, 1e-3 * mean_var);

  std::vector<double> weights(g, 1.0 / g);
  std::vector<MultivariateGaussian> comps;
  comps.reserve(g);
  for (int k = 0; k < g; ++k) {
    const Vec& seed_point = data[rng->UniformInt(n)];
    comps.emplace_back(seed_point, global_cov, var_floor);
  }
  Gmm model(weights, std::move(comps));

  // Per-chunk first moments of the M-step: responsibilities mass and
  // responsibility-weighted data sums per component.
  struct Moments {
    std::vector<double> gamma_sum;
    std::vector<Vec> mu_sum;
  };
  // Per-chunk second moments: responsibility-weighted outer products.
  struct CovPartial {
    std::vector<Matrix> cov;
  };

  double prev_ll = -std::numeric_limits<double>::infinity();
  std::vector<Vec> gammas(n);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // E-step (paper Eq. 5) + log-likelihood. gammas[i] depends only on i;
    // the log-likelihood is reduced in chunk order.
    double ll = runtime::ParallelReduce<double>(
        pool, 0, n, kEmGrain, 0.0,
        [&](size_t lo, size_t hi) {
          double part = 0.0;
          for (size_t i = lo; i < hi; ++i) {
            gammas[i] = model.Responsibilities(data[i]);
            part += model.LogPdf(data[i]);
          }
          return part;
        },
        [](double a, double b) { return a + b; });
    if (iter > 0 && ll - prev_ll < options.tolerance) {
      return {model, ll, iter + 1};
    }
    prev_ll = ll;

    // M-step (paper Eq. 6), two chunked passes: first moments, then
    // covariances around the updated means.
    Moments moments = runtime::ParallelReduce<Moments>(
        pool, 0, n, kEmGrain, Moments{},
        [&](size_t lo, size_t hi) {
          Moments part;
          part.gamma_sum.assign(g, 0.0);
          part.mu_sum.assign(g, Vec(d, 0.0));
          for (size_t i = lo; i < hi; ++i) {
            for (int k = 0; k < g; ++k) {
              const double gk = gammas[i][k];
              part.gamma_sum[k] += gk;
              for (size_t j = 0; j < d; ++j) {
                part.mu_sum[k][j] += gk * data[i][j];
              }
            }
          }
          return part;
        },
        [](Moments acc, Moments part) {
          if (acc.gamma_sum.empty()) return part;
          for (size_t k = 0; k < acc.gamma_sum.size(); ++k) {
            acc.gamma_sum[k] += part.gamma_sum[k];
            AddInPlace(&acc.mu_sum[k], part.mu_sum[k]);
          }
          return acc;
        });

    std::vector<Vec> mu(g, Vec(d, 0.0));
    for (int k = 0; k < g; ++k) {
      if (moments.gamma_sum[k] < 1e-10) continue;
      mu[k] = moments.mu_sum[k];
      ScaleInPlace(&mu[k], 1.0 / moments.gamma_sum[k]);
    }

    CovPartial covs = runtime::ParallelReduce<CovPartial>(
        pool, 0, n, kEmGrain, CovPartial{},
        [&](size_t lo, size_t hi) {
          CovPartial part;
          part.cov.assign(g, Matrix(d, d));
          for (size_t i = lo; i < hi; ++i) {
            for (int k = 0; k < g; ++k) {
              if (moments.gamma_sum[k] < 1e-10) continue;
              Vec diff = Sub(data[i], mu[k]);
              const double gk = gammas[i][k];
              Matrix& cov = part.cov[k];
              for (size_t r = 0; r < d; ++r) {
                for (size_t c = 0; c < d; ++c) {
                  cov(r, c) += gk * diff[r] * diff[c];
                }
              }
            }
          }
          return part;
        },
        [](CovPartial acc, CovPartial part) {
          if (acc.cov.empty()) return part;
          for (size_t k = 0; k < acc.cov.size(); ++k) {
            auto& a = acc.cov[k].data();
            const auto& p = part.cov[k].data();
            for (size_t i = 0; i < a.size(); ++i) a[i] += p[i];
          }
          return acc;
        });

    std::vector<double> new_weights(g);
    std::vector<MultivariateGaussian> new_comps;
    new_comps.reserve(g);
    for (int k = 0; k < g; ++k) {
      const double gamma_sum = moments.gamma_sum[k];
      if (gamma_sum < 1e-10) {
        // Dead component: re-seed at a random point.
        new_comps.emplace_back(data[rng->UniformInt(n)], global_cov,
                               var_floor);
        new_weights[k] = 1.0 / static_cast<double>(n);
        continue;
      }
      Matrix cov = std::move(covs.cov[k]);
      for (auto& v : cov.data()) v /= gamma_sum;
      new_comps.emplace_back(std::move(mu[k]), std::move(cov), var_floor);
      new_weights[k] = gamma_sum / static_cast<double>(n);
    }
    model = Gmm(std::move(new_weights), std::move(new_comps));
  }
  double ll = runtime::ParallelReduce<double>(
      pool, 0, n, kEmGrain, 0.0,
      [&](size_t lo, size_t hi) {
        double part = 0.0;
        for (size_t i = lo; i < hi; ++i) part += model.LogPdf(data[i]);
        return part;
      },
      [](double a, double b) { return a + b; });
  return {model, ll, options.max_iterations};
}

}  // namespace

Result<Gmm> Gmm::FitEM(const std::vector<Vec>& data, int g,
                       const GmmFitOptions& options, long* em_iterations) {
  if (data.empty()) {
    return Status::InvalidArgument("cannot fit a GMM on empty data");
  }
  g = std::max(1, std::min<int>(g, static_cast<int>(data.size())));
  Rng rng(options.seed + static_cast<uint64_t>(g) * 1000003ULL);
  EmRun best;
  long iterations = 0;
  int restarts = std::max(1, options.num_restarts);
  for (int r = 0; r < restarts; ++r) {
    EmRun run = RunEmOnce(data, g, options, &rng);
    iterations += run.iterations;
    if (run.log_likelihood > best.log_likelihood) best = std::move(run);
  }
  if (em_iterations != nullptr) *em_iterations = iterations;
  return best.model;
}

Result<Gmm> Gmm::FitWithAic(const std::vector<Vec>& data,
                            const GmmFitOptions& options) {
  if (data.empty()) {
    return Status::InvalidArgument("cannot fit a GMM on empty data");
  }
  const int d = static_cast<int>(data[0].size());
  const int max_g =
      std::max(1, std::min<int>(options.max_components,
                                static_cast<int>(data.size())));
  obs::TraceSpan fit_span(options.metrics, "gmm.fit");

  // Fit all candidate component counts concurrently: every candidate seeds
  // its own Rng from (options.seed, g), so the fits are independent and the
  // ascending-g selection below matches the serial algorithm exactly. Each
  // fit's inner E-/M-loops share the same pool; the caller-participation
  // guarantee of ParallelFor makes the nesting deadlock-free.
  std::vector<Result<Gmm>> fits(max_g, Status::Internal("not fitted"));
  std::vector<double> aics(max_g,
                           std::numeric_limits<double>::infinity());
  // Per-candidate EM iteration counts land in their own slot and are folded
  // in ascending-g order below, so the recorded total is thread-count
  // independent.
  std::vector<long> em_iters(max_g, 0);
  runtime::ParallelFor(
      options.pool, 0, static_cast<size_t>(max_g), 1,
      [&](size_t lo, size_t hi) {
        for (size_t gi = lo; gi < hi; ++gi) {
          const int g = static_cast<int>(gi) + 1;
          auto fitted = FitEM(data, g, options, &em_iters[gi]);
          if (!fitted.ok()) {
            fits[gi] = std::move(fitted);
            continue;
          }
          double ll = 0.0;
          for (const auto& x : data) ll += fitted->LogPdf(x);
          aics[gi] = 2.0 * NumFreeParameters(g, d) - 2.0 * ll;
          fits[gi] = std::move(fitted);
        }
      });

  double best_aic = std::numeric_limits<double>::infinity();
  int best_g = 0;
  long total_iters = 0;
  Result<Gmm> best = Status::Internal("no model fitted");
  for (int gi = 0; gi < max_g; ++gi) {
    total_iters += em_iters[gi];
    if (!fits[gi].ok()) continue;
    if (aics[gi] < best_aic) {
      best_aic = aics[gi];
      best_g = gi + 1;
      best = std::move(fits[gi]);
    }
  }
  if (options.metrics != nullptr) {
    obs::Inc(options.metrics->counter("gmm.fits"));
    obs::Inc(options.metrics->counter("gmm.em_iterations"),
             static_cast<uint64_t>(std::max<long>(0, total_iters)));
    if (best.ok()) {
      options.metrics
          ->histogram("gmm.selected_components", obs::LinearBounds(1.0, 8.0, 8))
          ->Record(static_cast<double>(best_g));
    }
  }
  return best;
}

}  // namespace serd
