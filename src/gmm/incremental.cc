#include "gmm/incremental.h"

namespace serd {

IncrementalGmm::IncrementalGmm(const Gmm& model, const std::vector<Vec>& data,
                               double ridge)
    : model_(model), stats_(ComputeDelta(data)), ridge_(ridge) {}

IncrementalGmm::Delta IncrementalGmm::ComputeDelta(
    const std::vector<Vec>& points) const {
  const size_t g = model_.num_components();
  const size_t d = model_.dimension();
  Delta delta;
  delta.gamma_sum.assign(g, 0.0);
  delta.weighted_sum.assign(g, Vec(d, 0.0));
  delta.second_moment.assign(g, Matrix(d, d));
  for (const auto& x : points) {
    Vec gamma = model_.Responsibilities(x);  // paper Eq. 8
    for (size_t k = 0; k < g; ++k) {
      delta.gamma_sum[k] += gamma[k];
      for (size_t i = 0; i < d; ++i) {
        delta.weighted_sum[k][i] += gamma[k] * x[i];
        for (size_t j = 0; j < d; ++j) {
          delta.second_moment[k](i, j) += gamma[k] * x[i] * x[j];
        }
      }
    }
  }
  delta.count = points.size();
  return delta;
}

void IncrementalGmm::Accumulate(const Delta& delta, Delta* stats) {
  for (size_t k = 0; k < stats->gamma_sum.size(); ++k) {
    const size_t d = stats->weighted_sum[k].size();
    stats->gamma_sum[k] += delta.gamma_sum[k];
    for (size_t i = 0; i < d; ++i) {
      stats->weighted_sum[k][i] += delta.weighted_sum[k][i];
      for (size_t j = 0; j < d; ++j) {
        stats->second_moment[k](i, j) += delta.second_moment[k](i, j);
      }
    }
  }
  stats->count += delta.count;
}

Gmm IncrementalGmm::RebuildModel(const Delta& stats) const {
  const size_t g = model_.num_components();
  const size_t d = model_.dimension();
  std::vector<double> weights(g);
  std::vector<MultivariateGaussian> comps;
  comps.reserve(g);
  for (size_t k = 0; k < g; ++k) {
    const double gamma = stats.gamma_sum[k];
    if (gamma < 1e-10) {
      // Empty component: keep its previous parameters with a tiny weight.
      comps.push_back(model_.component(k));
      weights[k] = 1e-10;
      continue;
    }
    Vec mu = stats.weighted_sum[k];
    ScaleInPlace(&mu, 1.0 / gamma);
    Matrix cov(d, d);
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = 0; j < d; ++j) {
        cov(i, j) = stats.second_moment[k](i, j) / gamma - mu[i] * mu[j];
      }
    }
    comps.emplace_back(std::move(mu), std::move(cov), ridge_);
    weights[k] = gamma / static_cast<double>(stats.count);
  }
  return Gmm(std::move(weights), std::move(comps));
}

Gmm IncrementalGmm::PreviewModel(const Delta& delta) const {
  Delta stats = stats_;
  Accumulate(delta, &stats);
  return RebuildModel(stats);
}

void IncrementalGmm::Commit(const Delta& delta) {
  Accumulate(delta, &stats_);
  model_ = RebuildModel(stats_);
}

}  // namespace serd
