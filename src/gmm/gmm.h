#ifndef SERD_GMM_GMM_H_
#define SERD_GMM_GMM_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "gmm/gaussian.h"
#include "gmm/mixture_tile.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace serd {

/// Options for EM fitting (paper Section IV-A).
struct GmmFitOptions {
  int max_iterations = 200;
  double tolerance = 1e-5;      ///< stop when log-likelihood gain < tolerance
  double ridge = 1e-6;          ///< covariance regularization
  int max_components = 4;       ///< upper bound for AIC model selection
  uint64_t seed = 17;           ///< EM initialization seed
  int num_restarts = 2;         ///< random restarts per component count

  /// Worker pool for the E-/M-step loops and the AIC candidate fits
  /// (not owned; may outlive the fit call only). nullptr = serial. Results
  /// are bit-identical for any pool size (ordered chunk reduction).
  runtime::ThreadPool* pool = nullptr;

  /// Observability sink for FitWithAic (not owned; nullptr = off):
  /// counters gmm.fits / gmm.em_iterations, histogram
  /// gmm.selected_components, timer gmm.fit. Per-candidate EM iteration
  /// counts are tallied into chunk-indexed shards and folded in shard
  /// order, so the recorded totals are thread-count independent.
  obs::MetricsRegistry* metrics = nullptr;
};

/// A multivariate Gaussian Mixture Model: p(x) = sum_i pi_i N(x; mu_i, S_i).
/// Used for the paper's M- and N-distributions over similarity vectors.
class Gmm {
 public:
  Gmm() = default;
  Gmm(std::vector<double> weights,
      std::vector<MultivariateGaussian> components);

  /// Restores a mixture with the weights taken verbatim — no
  /// re-normalization (artifact store). The constructor divides each
  /// weight by their sum, which perturbs low bits when the stored sum is
  /// only approximately 1; reloading a fitted model must not do that or
  /// Sample()/LogPdf() drift from the original. The caller must have
  /// validated sizes, non-negativity, and a positive total.
  static Gmm FromParts(std::vector<double> weights,
                       std::vector<MultivariateGaussian> components);

  size_t num_components() const { return components_.size(); }
  size_t dimension() const {
    return components_.empty() ? 0 : components_[0].dimension();
  }
  const std::vector<double>& weights() const { return weights_; }
  const MultivariateGaussian& component(size_t i) const {
    return components_[i];
  }

  /// Mixtures up to this many components evaluate LogPdf without a heap
  /// allocation; larger ones use a heap buffer (same arithmetic).
  static constexpr size_t kInlineComponents = 16;

  /// log p(x) via log-sum-exp over components, through the fused mixture
  /// tile (mixture_tile::ArmLogPdf). The 1-point case of LogPdfBatch.
  double LogPdf(const Vec& x) const;

  /// LogPdf of `count` points stored dimension-major (coordinate i of
  /// point j at xs[i * count + j]); out[j] is bit-identical to LogPdf of
  /// point j.
  void LogPdfBatch(const double* xs, size_t count, double* out) const;

  /// p(x) = exp(LogPdf(x)).
  double Pdf(const Vec& x) const;

  /// Posterior responsibilities gamma_k(x) (paper Eq. 5). Returns a vector
  /// of length num_components() summing to 1: exp(term_k - max) over
  /// their sum with libm's exp, or the weights where every term is -inf.
  /// The 1-point case of EStepTile.
  Vec Responsibilities(const Vec& x) const;

  /// The E-step of n <= MultivariateGaussian::kBatchTile points, coordinate
  /// i of point j at xs[i * stride + j]: the component terms log w_k +
  /// log N_k(x_j) are computed once, by the dividing solve of
  /// MultivariateGaussian::LogPdf, then gamma[j * g + k] is
  /// Responsibilities(point j)[k] and log_pdf[j] is their log-sum-exp
  /// (g = num_components()). EM runs on it, so every fitted model keeps
  /// its bits (DESIGN.md §5d); LogPdf's fused tile may differ from
  /// log_pdf by ulps. Either output may be null. No heap allocation up to
  /// kInlineComponents components and MultivariateGaussian::kInlineDimension
  /// dimensions.
  void EStepTile(const double* xs, size_t stride, size_t n, double* gamma,
                 double* log_pdf) const;

  /// Draws a sample: component by weight, then from its Gaussian.
  Vec Sample(Rng* rng) const;

  /// Sample() without allocating: the same RNG draws and the same values,
  /// written to x[i * stride] for i < dimension().
  void SampleInto(Rng* rng, double* x, size_t stride) const;

  /// Mean log-likelihood of `data` (nats per point).
  double MeanLogLikelihood(const std::vector<Vec>& data) const;

  /// Fits a GMM with exactly `g` components by EM (paper Eqs. 4-6).
  /// Requires data.size() >= 1; g is clamped to data.size(). When
  /// `em_iterations` is non-null it receives the EM iterations executed,
  /// summed over restarts (a deterministic count: convergence is decided
  /// on the ordered-reduction log-likelihood).
  static Result<Gmm> FitEM(const std::vector<Vec>& data, int g,
                           const GmmFitOptions& options,
                           long* em_iterations = nullptr);

  /// Fits GMMs with 1..max_components components and returns the one
  /// minimizing AIC = 2k - 2 log L (paper Section IV-A).
  static Result<Gmm> FitWithAic(const std::vector<Vec>& data,
                                const GmmFitOptions& options);

  /// Number of free parameters (for AIC): (g-1) + g*d + g*d*(d+1)/2.
  static double NumFreeParameters(int g, int d);

  /// The mixture's components as the fused tile reads them: pointers into
  /// this mixture, which must outlive the view and not change under it.
  /// No heap allocation up to kInlineComponents components.
  class TileView {
   public:
    explicit TileView(const Gmm& gmm);
    TileView(const TileView&) = delete;
    TileView& operator=(const TileView&) = delete;
    /// The mixture as an arm of weight log_weight, with its log-densities
    /// at the call's points given by `known` when it is not null.
    mixture_tile::Arm arm(double log_weight = 0.0,
                          const double* known = nullptr) const {
      return {components_, count_, log_weight, known};
    }

   private:
    mixture_tile::Component inline_[kInlineComponents];
    std::vector<mixture_tile::Component> heap_;
    const mixture_tile::Component* components_;
    size_t count_;
  };

 private:
  friend class IncrementalGmm;

  /// Divides each weight by their sum, then caches their logs.
  void NormalizeWeights();
  /// Fills log_weights_ from weights_ (log w, or -inf for a zero weight);
  /// every constructor calls it once the weights are final.
  void CacheLogWeights();

  std::vector<double> weights_;
  std::vector<double> log_weights_;
  std::vector<MultivariateGaussian> components_;
};

}  // namespace serd

#endif  // SERD_GMM_GMM_H_
