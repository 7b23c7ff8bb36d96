#ifndef SERD_NN_MODULES_H_
#define SERD_NN_MODULES_H_

#include <string>
#include <vector>

#include "nn/tape.h"
#include "nn/tensor.h"

namespace serd::nn {

/// Base for parameterized layers: owns named parameter tensors and exposes
/// them for optimizers and DP-SGD per-example gradient handling.
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameters (shared; optimizers mutate them in place).
  const std::vector<TensorPtr>& parameters() const { return params_; }

  /// Total number of trainable scalars.
  size_t NumParameters() const;

  void ZeroGrad();

 protected:
  /// Registers a parameter created by the subclass.
  TensorPtr AddParameter(TensorPtr p);
  /// Registers all parameters of a child module.
  void AddChild(Module* child);

 private:
  std::vector<TensorPtr> params_;
};

/// Fully connected layer y = x W + b with Xavier-uniform init (zero
/// weights when `rng` is null, for a caller that overwrites them).
class Linear : public Module {
 public:
  Linear(size_t in_features, size_t out_features, Rng* rng,
         bool bias = true);

  TensorPtr Forward(Tape* tape, const TensorPtr& x) const;

  /// relu(x W + b) with the fused bias-relu epilogue (requires bias).
  TensorPtr ForwardRelu(Tape* tape, const TensorPtr& x) const;

  const TensorPtr& weight() const { return weight_; }
  const TensorPtr& bias() const { return bias_; }

 private:
  TensorPtr weight_;  // [in, out]
  TensorPtr bias_;    // [1, out] or null
};

/// Token embedding table, N(0, 0.02^2) init (zero when `rng` is null).
class Embedding : public Module {
 public:
  Embedding(size_t vocab_size, size_t dim, Rng* rng);

  TensorPtr Forward(Tape* tape, const std::vector<int>& ids) const;

  const TensorPtr& table() const { return table_; }

 private:
  TensorPtr table_;  // [vocab, dim]
};

/// Layer normalization with learned gain and bias.
class LayerNormLayer : public Module {
 public:
  explicit LayerNormLayer(size_t dim);

  TensorPtr Forward(Tape* tape, const TensorPtr& x) const;

  const TensorPtr& gamma() const { return gamma_; }
  const TensorPtr& beta() const { return beta_; }

 private:
  TensorPtr gamma_;  // [1, dim], init 1
  TensorPtr beta_;   // [1, dim], init 0
};

/// Collects gradients of `params` into one flat vector (for clipping).
std::vector<float> FlattenGrads(const std::vector<TensorPtr>& params);

/// L2 norm of all gradients in `params`.
double GradNorm(const std::vector<TensorPtr>& params);

/// Scales all gradients by `factor`.
void ScaleGrads(const std::vector<TensorPtr>& params, double factor);

}  // namespace serd::nn

#endif  // SERD_NN_MODULES_H_
