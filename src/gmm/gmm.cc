#include "gmm/gmm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "gmm/lse.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"

namespace serd {

Gmm::Gmm(std::vector<double> weights,
         std::vector<MultivariateGaussian> components)
    : weights_(std::move(weights)), components_(std::move(components)) {
  SERD_CHECK_EQ(weights_.size(), components_.size());
  SERD_CHECK(!components_.empty());
  NormalizeWeights();
}

void Gmm::NormalizeWeights() {
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

Gmm::TileView::TileView(const Gmm& gmm) : count_(gmm.components_.size()) {
  mixture_tile::Component* out = inline_;
  if (count_ > kInlineComponents) {
    heap_.resize(count_);
    out = heap_.data();
  }
  for (size_t k = 0; k < count_; ++k) {
    const MultivariateGaussian& c = gmm.components_[k];
    out[k] = {c.mean_.data(), c.chol_.data().data(), c.inv_diag_.data(),
              c.LogNormBase(), gmm.log_weights_[k]};
  }
  components_ = out;
}

double Gmm::LogPdf(const Vec& x) const {
  SERD_CHECK_EQ(x.size(), dimension());
  double out;
  mixture_tile::ArmLogPdf(TileView(*this).arm(), dimension(), x.data(), 1, 1,
                          &out);
  return out;
}

void Gmm::LogPdfBatch(const double* xs, size_t count, double* out) const {
  SERD_CHECK(!components_.empty());
  mixture_tile::ArmLogPdf(TileView(*this).arm(), dimension(), xs, count,
                          count, out);
}

void Gmm::EStepTile(const double* xs, size_t stride, size_t n,
                    double* gamma, double* log_pdf) const {
  SERD_CHECK(!components_.empty());
  SERD_CHECK_LE(n, MultivariateGaussian::kBatchTile);
  const size_t g = components_.size();
  // terms[k * n + j] = log w_k + log N_k(x_j); per point, the maximum and
  // both sums below run over k ascending exactly as a per-point loop would.
  double inline_terms[kInlineComponents * MultivariateGaussian::kBatchTile];
  std::unique_ptr<double[]> heap_terms;
  double* terms = inline_terms;
  if (g > kInlineComponents) {
    heap_terms = std::make_unique<double[]>(g * n);
    terms = heap_terms.get();
  }
  double max_term[MultivariateGaussian::kBatchTile];
  for (size_t j = 0; j < n; ++j) {
    max_term[j] = -std::numeric_limits<double>::infinity();
  }
  for (size_t k = 0; k < g; ++k) {
    double* tk = terms + k * n;
    components_[k].LogPdfTile(xs, stride, n, tk);
    const double log_w = log_weights_[k];
    for (size_t j = 0; j < n; ++j) {
      tk[j] = log_w + tk[j];
      max_term[j] = std::max(max_term[j], tk[j]);
    }
  }
  if (gamma != nullptr) {
    // Responsibilities keep libm's exp, so the M-steps they feed are the
    // ones a per-point loop computes.
    for (size_t j = 0; j < n; ++j) {
      double* gj = gamma + j * g;
      if (!std::isfinite(max_term[j])) {
        // All components give zero density: fall back to the prior weights.
        for (size_t k = 0; k < g; ++k) gj[k] = weights_[k];
        continue;
      }
      double total = 0.0;
      for (size_t k = 0; k < g; ++k) {
        gj[k] = std::exp(terms[k * n + j] - max_term[j]);
        total += gj[k];
      }
      for (size_t k = 0; k < g; ++k) gj[k] /= total;
    }
  }
  if (log_pdf == nullptr) return;
  // The log-sum-exp through the lse kernels, terms overwritten in place.
  double sum[MultivariateGaussian::kBatchTile];
  for (size_t k = 0; k < g; ++k) {
    double* tk = terms + k * n;
    for (size_t j = 0; j < n; ++j) tk[j] = tk[j] - max_term[j];
  }
  lse::Exp(g * n, terms, terms);
  for (size_t j = 0; j < n; ++j) sum[j] = 0.0;
  for (size_t k = 0; k < g; ++k) {
    const double* tk = terms + k * n;
    for (size_t j = 0; j < n; ++j) sum[j] += tk[j];
  }
  lse::Log(n, sum, sum);
  for (size_t j = 0; j < n; ++j) {
    log_pdf[j] =
        std::isfinite(max_term[j]) ? max_term[j] + sum[j] : max_term[j];
  }
}

double Gmm::Pdf(const Vec& x) const { return std::exp(LogPdf(x)); }

Vec Gmm::Responsibilities(const Vec& x) const {
  SERD_CHECK_EQ(x.size(), dimension());
  Vec gamma(components_.size());
  EStepTile(x.data(), 1, 1, gamma.data(), nullptr);
  return gamma;
}

Vec Gmm::Sample(Rng* rng) const {
  Vec x(dimension());
  SampleInto(rng, x.data(), 1);
  return x;
}

void Gmm::SampleInto(Rng* rng, double* x, size_t stride) const {
  SERD_CHECK(rng != nullptr);
  size_t k = rng->Categorical(weights_);
  components_[k].SampleInto(rng, x, stride);
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

/// The points in EStepTile's layout: coordinate i of point j at
/// [i * n + j].
std::vector<double> DimensionMajor(const std::vector<Vec>& data) {
  const size_t n = data.size();
  const size_t d = data[0].size();
  std::vector<double> xs(d * n);
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < d; ++i) xs[i * n + j] = data[j][i];
  }
  return xs;
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
  // Per-chunk second moments, responsibility-weighted outer products: chunk
  // c's g d x d sums at cov_parts[c * g d^2], with its scratch difference
  // vector at diff_parts[c * d].
  const size_t num_chunks = (n + kEmGrain - 1) / kEmGrain;
  const size_t cov_size = static_cast<size_t>(g) * d * d;
  std::vector<double> cov_parts(num_chunks * cov_size);
  std::vector<double> diff_parts(num_chunks * d);

  // The data in EStepTile's layout, and the log-likelihood of `fit` over
  // it: tiles in point order within a chunk, chunks reduced in order. When
  // `gammas` is non-null, point i's responsibilities land at
  // gammas[i * g + k].
  constexpr size_t kTile = MultivariateGaussian::kBatchTile;
  const std::vector<double> xs = DimensionMajor(data);
  auto e_step = [&](const Gmm& fit, double* gammas) {
    return runtime::ParallelReduce<double>(
        pool, 0, n, kEmGrain, 0.0,
        [&](size_t lo, size_t hi) {
          double part = 0.0;
          double log_pdf[kTile];
          for (size_t t0 = lo; t0 < hi; t0 += kTile) {
            const size_t len = std::min(kTile, hi - t0);
            fit.EStepTile(xs.data() + t0, n, len,
                          gammas != nullptr ? gammas + t0 * g : nullptr,
                          log_pdf);
            for (size_t j = 0; j < len; ++j) part += log_pdf[j];
          }
          return part;
        },
        [](double a, double b) { return a + b; });
  };

  double prev_ll = -std::numeric_limits<double>::infinity();
  std::vector<double> gammas(n * static_cast<size_t>(g));
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // E-step (paper Eq. 5) + log-likelihood.
    const double ll = e_step(model, gammas.data());
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
              const double gk = gammas[i * g + k];
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

    std::fill(cov_parts.begin(), cov_parts.end(), 0.0);
    runtime::ParallelFor(pool, 0, n, kEmGrain, [&](size_t lo, size_t hi) {
      const size_t chunk = lo / kEmGrain;
      double* part = cov_parts.data() + chunk * cov_size;
      double* diff = diff_parts.data() + chunk * d;
      for (size_t i = lo; i < hi; ++i) {
        const double* x = data[i].data();
        for (int k = 0; k < g; ++k) {
          if (moments.gamma_sum[k] < 1e-10) continue;
          const double* mu_k = mu[k].data();
          for (size_t r = 0; r < d; ++r) diff[r] = x[r] - mu_k[r];
          const double gk = gammas[i * g + k];
          double* cov = part + static_cast<size_t>(k) * d * d;
          for (size_t r = 0; r < d; ++r) {
            double* row = cov + r * d;
            for (size_t c = 0; c < d; ++c) row[c] += gk * diff[r] * diff[c];
          }
        }
      }
    });
    // The chunks' sums folded into chunk 0's in chunk order, as
    // ParallelReduce folds.
    for (size_t c = 1; c < num_chunks; ++c) {
      const double* part = cov_parts.data() + c * cov_size;
      for (size_t e = 0; e < cov_size; ++e) cov_parts[e] += part[e];
    }

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
      Matrix cov(d, d);
      const double* sum = cov_parts.data() + static_cast<size_t>(k) * d * d;
      for (size_t e = 0; e < d * d; ++e) cov.data()[e] = sum[e] / gamma_sum;
      new_comps.emplace_back(std::move(mu[k]), std::move(cov), var_floor);
      new_weights[k] = gamma_sum / static_cast<double>(n);
    }
    model = Gmm(std::move(new_weights), std::move(new_comps));
  }
  return {model, e_step(model, nullptr), options.max_iterations};
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
  const std::vector<double> xs = DimensionMajor(data);
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
          std::vector<double> log_pdf(data.size());
          fitted->LogPdfBatch(xs.data(), data.size(), log_pdf.data());
          double ll = 0.0;
          for (double v : log_pdf) ll += v;
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
