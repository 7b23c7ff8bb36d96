#ifndef SERD_DP_DP_SGD_H_
#define SERD_DP_DP_SGD_H_

#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"
#include "runtime/thread_pool.h"

namespace serd {

/// DP-SGD hyperparameters (paper Algorithm 1: noise scale sigma, gradient
/// norm bound V). When `enabled` is false the accumulator degrades to
/// plain minibatch gradient averaging, which lets every trainer share one
/// code path and makes the DP-on/off ablation a config flip.
struct DpSgdConfig {
  bool enabled = true;
  double clip_norm = 1.0;        ///< V: per-example L2 bound (Alg. 1 line 8)
  double noise_multiplier = 1.0; ///< sigma: noise stddev = sigma * V
};

/// Implements the per-example part of paper Algorithm 1:
///   for each example j: g_j = grad;  g_j <- g_j / max(1, ||g_j||_2 / V)
///   g~ = (sum_j g_j + N(0, sigma^2 V^2 I)) / J
///
/// Usage per lot (the three calls touch disjoint state, so the noise draw
/// may run while examples are clipped):
///   acc.DrawNoise(rng);
///   for each example k: forward, backward, acc.ClipInto(params, &slots[k]);
///   acc.FinishLot(slots, J, pool);  // leaves g~ in the params' grad buffers
///   optimizer.Step();
class PerExampleGradAccumulator {
 public:
  PerExampleGradAccumulator(std::vector<nn::TensorPtr> params,
                            DpSgdConfig config);

  /// Per-example clipped gradient, parallel to the parameter list.
  using ClippedGrad = std::vector<std::vector<float>>;

  /// Clips the gradients stored in `replica_params` (a value-identical
  /// copy of the trained model's parameters) into `out` and zeroes them.
  /// Returns the pre-clip norm. Touches no accumulator state, so worker
  /// threads may clip concurrently, each example into its own slot.
  double ClipInto(const std::vector<nn::TensorPtr>& replica_params,
                  ClippedGrad* out) const;

  /// Draws the lot's Gaussian noise N(0, (sigma V)^2) from `rng`: one
  /// value per parameter element, in parameter order then element order,
  /// into a buffer that the next FinishLot consumes; nothing is drawn when
  /// noise is off (DP disabled or sigma = 0). Must precede each FinishLot.
  /// Touches no parameter and no clipped gradient.
  void DrawNoise(Rng* rng);

  /// Writes g~ into the parameters' grad buffers. Per element: a float sum
  /// from +0 over clipped[0, batch_size) in ascending example order (an
  /// empty per-parameter entry contributes nothing), widened to double,
  /// plus the drawn noise, times 1 / batch_size, rounded to float. The
  /// parameters are split across `pool` (nullptr = serial); every element
  /// takes the same arithmetic for any pool size.
  void FinishLot(const std::vector<ClippedGrad>& clipped, size_t batch_size,
                 runtime::ThreadPool* pool);

  const DpSgdConfig& config() const { return config_; }

 private:
  double NoiseStd() const;

  std::vector<nn::TensorPtr> params_;
  DpSgdConfig config_;
  std::vector<std::vector<double>> noise_;  // parallel to params_
  bool noise_drawn_ = false;
};

}  // namespace serd

#endif  // SERD_DP_DP_SGD_H_
