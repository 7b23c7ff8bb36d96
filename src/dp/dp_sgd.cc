#include "dp/dp_sgd.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "runtime/parallel_for.h"

namespace serd {

PerExampleGradAccumulator::PerExampleGradAccumulator(
    std::vector<nn::TensorPtr> params, DpSgdConfig config)
    : params_(std::move(params)), config_(config) {
  SERD_CHECK(!params_.empty());
  SERD_CHECK_GT(config_.clip_norm, 0.0);
  SERD_CHECK_GE(config_.noise_multiplier, 0.0);
  if (NoiseStd() > 0.0) {
    noise_.reserve(params_.size());
    for (const auto& p : params_) noise_.emplace_back(p->size(), 0.0);
  }
}

double PerExampleGradAccumulator::NoiseStd() const {
  return config_.enabled ? config_.noise_multiplier * config_.clip_norm : 0.0;
}

double PerExampleGradAccumulator::ClipInto(
    const std::vector<nn::TensorPtr>& replica_params,
    ClippedGrad* out) const {
  SERD_CHECK(out != nullptr);
  SERD_CHECK_EQ(replica_params.size(), params_.size());
  out->resize(replica_params.size());
  double norm_sq = 0.0;
  for (const auto& p : replica_params) {
    for (float g : p->grad()) norm_sq += static_cast<double>(g) * g;
  }
  double norm = std::sqrt(norm_sq);
  double scale = 1.0;
  if (config_.enabled) {
    // Alg. 1 line 8: divide by max(1, ||g||_2 / V).
    scale = 1.0 / std::max(1.0, norm / config_.clip_norm);
  }
  for (size_t pi = 0; pi < replica_params.size(); ++pi) {
    // A parameter untouched by this example's graph may have no grad
    // buffer; record it as an empty (all-zero) contribution.
    const auto& g = replica_params[pi]->grad();
    auto& o = (*out)[pi];
    o.resize(g.size());
    for (size_t i = 0; i < g.size(); ++i) {
      o[i] = static_cast<float>(g[i] * scale);
    }
    replica_params[pi]->ZeroGrad();
  }
  return norm;
}

void PerExampleGradAccumulator::DrawNoise(Rng* rng) {
  SERD_CHECK(rng != nullptr);
  const double noise_std = NoiseStd();
  if (noise_std > 0.0) {
    for (auto& noise : noise_) {
      for (double& v : noise) v = rng->Gaussian(0.0, noise_std);
    }
  }
  noise_drawn_ = true;
}

void PerExampleGradAccumulator::FinishLot(
    const std::vector<ClippedGrad>& clipped, size_t batch_size,
    runtime::ThreadPool* pool) {
  SERD_CHECK_GT(batch_size, 0u);
  SERD_CHECK_LE(batch_size, clipped.size());
  SERD_CHECK(noise_drawn_) << "each lot needs its own DrawNoise";
  noise_drawn_ = false;
  for (size_t k = 0; k < batch_size; ++k) {
    SERD_CHECK_EQ(clipped[k].size(), params_.size());
  }
  const bool add_noise = NoiseStd() > 0.0;
  const float inv_j = 1.0f / static_cast<float>(batch_size);
  runtime::ParallelFor(pool, 0, params_.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t pi = lo; pi < hi; ++pi) {
      nn::Tensor& param = *params_[pi];
      param.EnsureGrad();
      std::vector<float>& g = param.grad();
      std::fill(g.begin(), g.end(), 0.0f);
      for (size_t k = 0; k < batch_size; ++k) {
        const std::vector<float>& c = clipped[k][pi];
        if (c.empty()) continue;
        SERD_CHECK_EQ(c.size(), g.size());
        for (size_t i = 0; i < g.size(); ++i) g[i] += c[i];
      }
      const double* noise = add_noise ? noise_[pi].data() : nullptr;
      for (size_t i = 0; i < g.size(); ++i) {
        double noisy = g[i];
        if (noise != nullptr) noisy += noise[i];
        g[i] = static_cast<float>(noisy * inv_j);
      }
    }
  });
}

}  // namespace serd
