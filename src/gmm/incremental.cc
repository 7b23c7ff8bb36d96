#include "gmm/incremental.h"

#include <algorithm>
#include <memory>

namespace serd {

IncrementalGmm::IncrementalGmm(const Gmm& model, const std::vector<Vec>& data,
                               double ridge)
    : model_(std::make_shared<const Gmm>(model)),
      stats_(ComputeDelta(data)),
      ridge_(ridge) {}

IncrementalGmm::Delta IncrementalGmm::ComputeDelta(const Vec* points,
                                                   size_t count) const {
  constexpr size_t kTile = MultivariateGaussian::kBatchTile;
  const size_t g = model_->num_components();
  const size_t d = model_->dimension();
  Delta delta;
  delta.gamma_sum.assign(g, 0.0);
  delta.weighted_sum.assign(g, Vec(d, 0.0));
  delta.second_moment.assign(g, Matrix(d, d));
  // Responsibilities (paper Eq. 8) a tile at a time, then summed point by
  // point in order. Up to the inline sizes the tile lives on the stack.
  double inline_xs[MultivariateGaussian::kInlineDimension * kTile];
  double inline_gamma[Gmm::kInlineComponents * kTile];
  std::unique_ptr<double[]> heap_xs, heap_gamma;
  double* xs = inline_xs;
  double* gamma = inline_gamma;
  if (d > MultivariateGaussian::kInlineDimension) {
    heap_xs = std::make_unique<double[]>(d * kTile);
    xs = heap_xs.get();
  }
  if (g > Gmm::kInlineComponents) {
    heap_gamma = std::make_unique<double[]>(g * kTile);
    gamma = heap_gamma.get();
  }
  for (size_t t0 = 0; t0 < count; t0 += kTile) {
    const size_t len = std::min(kTile, count - t0);
    for (size_t j = 0; j < len; ++j) {
      const Vec& x = points[t0 + j];
      SERD_CHECK_EQ(x.size(), d);
      for (size_t i = 0; i < d; ++i) xs[i * len + j] = x[i];
    }
    model_->EStepTile(xs, len, len, gamma, nullptr);
    for (size_t j = 0; j < len; ++j) {
      const Vec& x = points[t0 + j];
      const double* gj = gamma + j * g;
      for (size_t k = 0; k < g; ++k) {
        delta.gamma_sum[k] += gj[k];
        for (size_t i = 0; i < d; ++i) {
          delta.weighted_sum[k][i] += gj[k] * x[i];
          for (size_t c = 0; c < d; ++c) {
            delta.second_moment[k](i, c) += gj[k] * x[i] * x[c];
          }
        }
      }
    }
  }
  delta.count = count;
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
  const size_t g = model_->num_components();
  const size_t d = model_->dimension();
  std::vector<double> weights(g);
  std::vector<MultivariateGaussian> comps;
  comps.reserve(g);
  for (size_t k = 0; k < g; ++k) {
    const double gamma = stats.gamma_sum[k];
    if (gamma < 1e-10) {
      // Empty component: keep its previous parameters with a tiny weight.
      comps.push_back(model_->component(k));
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

IncrementalGmm::Update IncrementalGmm::Preview(const Vec* points,
                                               size_t count) const {
  Update update;
  if (count == 0 && rebuilt_) {
    update.model = model_;
    update.unchanged = true;
    return update;
  }
  update.stats = stats_;
  Accumulate(ComputeDelta(points, count), &update.stats);
  update.model = std::make_shared<const Gmm>(RebuildModel(update.stats));
  return update;
}

void IncrementalGmm::Commit(Update update) {
  if (update.unchanged) return;
  stats_ = std::move(update.stats);
  model_ = std::move(update.model);
  rebuilt_ = true;
}

Gmm IncrementalGmm::PreviewModel(const Delta& delta) const {
  Delta stats = stats_;
  Accumulate(delta, &stats);
  return RebuildModel(stats);
}

void IncrementalGmm::Commit(const Delta& delta) {
  Accumulate(delta, &stats_);
  model_ = std::make_shared<const Gmm>(RebuildModel(stats_));
  rebuilt_ = true;
}

}  // namespace serd
