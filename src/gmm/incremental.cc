#include "gmm/incremental.h"

#include <algorithm>
#include <memory>

namespace serd {

IncrementalGmm::IncrementalGmm(const Gmm& model, const std::vector<Vec>& data,
                               double ridge)
    : model_(std::make_shared<Gmm>(model)),
      stats_(ComputeDelta(data)),
      ridge_(ridge) {}

IncrementalGmm::Delta IncrementalGmm::ComputeDelta(const Vec* points,
                                                   size_t count) const {
  Delta delta;
  Reset(&delta);
  AddPoints(points, count, &delta);
  return delta;
}

void IncrementalGmm::Reset(Delta* delta) const {
  const size_t g = model_->num_components();
  const size_t d = model_->dimension();
  if (delta->gamma_sum.size() != g) {
    delta->gamma_sum.assign(g, 0.0);
    delta->weighted_sum.assign(g, Vec(d, 0.0));
    delta->second_moment.assign(g, Matrix(d, d));
  } else {
    for (size_t k = 0; k < g; ++k) {
      delta->gamma_sum[k] = 0.0;
      std::fill(delta->weighted_sum[k].begin(), delta->weighted_sum[k].end(),
                0.0);
      std::fill(delta->second_moment[k].data().begin(),
                delta->second_moment[k].data().end(), 0.0);
    }
  }
  delta->count = 0;
}

void IncrementalGmm::AddPoints(const Vec* points, size_t count,
                               Delta* delta) const {
  constexpr size_t kTile = MultivariateGaussian::kBatchTile;
  const size_t g = model_->num_components();
  const size_t d = model_->dimension();
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
      const double* x = points[t0 + j].data();
      const double* gj = gamma + j * g;
      for (size_t k = 0; k < g; ++k) {
        const double gk = gj[k];
        double* ws = delta->weighted_sum[k].data();
        double* sm = delta->second_moment[k].data().data();
        delta->gamma_sum[k] += gk;
        for (size_t i = 0; i < d; ++i) {
          ws[i] += gk * x[i];
          double* row = sm + i * d;
          for (size_t c = 0; c < d; ++c) row[c] += gk * x[i] * x[c];
        }
      }
    }
  }
  delta->count += count;
}

void IncrementalGmm::Sum(const Delta& a, const Delta& b, Delta* out) {
  const size_t g = a.gamma_sum.size();
  if (out->gamma_sum.size() != g) *out = a;
  for (size_t k = 0; k < g; ++k) {
    out->gamma_sum[k] = a.gamma_sum[k] + b.gamma_sum[k];
    const Vec& aw = a.weighted_sum[k];
    const Vec& bw = b.weighted_sum[k];
    Vec& ow = out->weighted_sum[k];
    for (size_t i = 0; i < aw.size(); ++i) ow[i] = aw[i] + bw[i];
    const std::vector<double>& as = a.second_moment[k].data();
    const std::vector<double>& bs = b.second_moment[k].data();
    std::vector<double>& os = out->second_moment[k].data();
    for (size_t e = 0; e < as.size(); ++e) os[e] = as[e] + bs[e];
  }
  out->count = a.count + b.count;
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

void IncrementalGmm::RebuildInto(const Delta& stats, Gmm* out) const {
  const size_t g = model_->num_components();
  const size_t d = model_->dimension();
  for (size_t k = 0; k < g; ++k) {
    const double gamma = stats.gamma_sum[k];
    if (gamma < 1e-10) {
      out->components_[k] = model_->component(k);
      out->weights_[k] = 1e-10;
      continue;
    }
    MultivariateGaussian& c = out->components_[k];
    const double* ws = stats.weighted_sum[k].data();
    const double* sm = stats.second_moment[k].data().data();
    double* mu = c.mean_.data();
    double* cov = c.covariance_.data().data();
    const double inv_gamma = 1.0 / gamma;
    for (size_t i = 0; i < d; ++i) mu[i] = ws[i] * inv_gamma;
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = 0; j < d; ++j) {
        cov[i * d + j] = sm[i * d + j] / gamma - mu[i] * mu[j];
      }
    }
    c.Factor(ridge_);
    out->weights_[k] = gamma / static_cast<double>(stats.count);
  }
  out->NormalizeWeights();
}

IncrementalGmm::Update IncrementalGmm::Preview(const Vec* points,
                                               size_t count) {
  if (count == 0 && rebuilt_) return {model_, true};
  Reset(&delta_);
  AddPoints(points, count, &delta_);
  Sum(stats_, delta_, &preview_stats_);
  // The buffer is rebuilt in place only while nobody else holds it.
  if (preview_model_ == nullptr || preview_model_.use_count() != 1) {
    preview_model_ = std::make_shared<Gmm>(*model_);
  }
  RebuildInto(preview_stats_, preview_model_.get());
  return {preview_model_, false};
}

void IncrementalGmm::Commit(Update update) {
  if (update.unchanged) return;
  SERD_CHECK(update.model != nullptr && update.model == preview_model_)
      << "Commit takes the latest Preview";
  update.model.reset();
  std::swap(stats_, preview_stats_);
  std::swap(model_, preview_model_);
  rebuilt_ = true;
  ++version_;
}

Gmm IncrementalGmm::PreviewModel(const Delta& delta) const {
  Delta stats;
  Sum(stats_, delta, &stats);
  return RebuildModel(stats);
}

void IncrementalGmm::Commit(const Delta& delta) {
  Delta stats;
  Sum(stats_, delta, &stats);
  stats_ = std::move(stats);
  model_ = std::make_shared<Gmm>(RebuildModel(stats_));
  // The preview buffers no longer match the committed state.
  preview_model_.reset();
  rebuilt_ = true;
  ++version_;
}

}  // namespace serd
