#include "nn/modules.h"

#include <cmath>

namespace serd::nn {

size_t Module::NumParameters() const {
  size_t n = 0;
  for (const auto& p : params_) n += p->size();
  return n;
}

void Module::ZeroGrad() {
  for (auto& p : params_) {
    p->EnsureGrad();
    p->ZeroGrad();
  }
}

TensorPtr Module::AddParameter(TensorPtr p) {
  p->EnsureGrad();
  params_.push_back(p);
  return p;
}

void Module::AddChild(Module* child) {
  SERD_CHECK(child != nullptr);
  for (const auto& p : child->params_) params_.push_back(p);
}

Linear::Linear(size_t in_features, size_t out_features, Rng* rng, bool bias) {
  auto w = MakeTensor(in_features, out_features);
  if (rng != nullptr) {
    float limit =
        std::sqrt(6.0f / static_cast<float>(in_features + out_features));
    w->FillUniform(rng, limit);
  }
  weight_ = AddParameter(w);
  if (bias) {
    bias_ = AddParameter(MakeTensor(1, out_features, 0.0f));
  }
}

TensorPtr Linear::Forward(Tape* tape, const TensorPtr& x) const {
  TensorPtr y = tape->MatMul(x, weight_);
  if (bias_) y = tape->AddRowBroadcast(y, bias_);
  return y;
}

TensorPtr Linear::ForwardRelu(Tape* tape, const TensorPtr& x) const {
  SERD_CHECK(bias_ != nullptr);
  return tape->BiasRelu(tape->MatMul(x, weight_), bias_);
}

Embedding::Embedding(size_t vocab_size, size_t dim, Rng* rng) {
  auto t = MakeTensor(vocab_size, dim);
  if (rng != nullptr) t->FillGaussian(rng, 0.02f);
  table_ = AddParameter(t);
}

TensorPtr Embedding::Forward(Tape* tape, const std::vector<int>& ids) const {
  return tape->EmbeddingLookup(table_, ids);
}

LayerNormLayer::LayerNormLayer(size_t dim) {
  gamma_ = AddParameter(MakeTensor(1, dim, 1.0f));
  beta_ = AddParameter(MakeTensor(1, dim, 0.0f));
}

TensorPtr LayerNormLayer::Forward(Tape* tape, const TensorPtr& x) const {
  return tape->LayerNorm(x, gamma_, beta_);
}

std::vector<float> FlattenGrads(const std::vector<TensorPtr>& params) {
  size_t total = 0;
  for (const auto& p : params) total += p->size();
  std::vector<float> flat;
  flat.reserve(total);
  for (const auto& p : params) {
    const auto& g = p->grad();
    flat.insert(flat.end(), g.begin(), g.end());
  }
  return flat;
}

double GradNorm(const std::vector<TensorPtr>& params) {
  double s = 0.0;
  for (const auto& p : params) {
    for (float g : p->grad()) s += static_cast<double>(g) * g;
  }
  return std::sqrt(s);
}

void ScaleGrads(const std::vector<TensorPtr>& params, double factor) {
  for (const auto& p : params) {
    for (float& g : p->grad()) g = static_cast<float>(g * factor);
  }
}

}  // namespace serd::nn
