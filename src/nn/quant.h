#ifndef SERD_NN_QUANT_H_
#define SERD_NN_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace serd::nn {

/// Numeric format for the per-step decode projections (DESIGN.md §5m).
/// kFp32 is the exact reference path; kInt8 quantizes weights per output
/// channel to symmetric int8 and activations per row at runtime,
/// accumulating in int32 with an fp32 dequant epilogue. The values are
/// the artifact's quant-section tags; 1 belonged to a retired bf16 format
/// and is never reused.
enum class DecodePrecision : int { kFp32 = 0, kInt8 = 2 };

/// K-extent alignment of the packed quantized rows (one 256-bit int8
/// vector).
inline constexpr std::size_t kQuantKAlign = 32;

/// An int8 weight matrix, stored transposed relative to the fp32
/// nn::Linear layout: the Linear weight is [in, out] row-major (an
/// output channel's weights strided), while the quantized copy is
/// [out, in] so every output channel's weights form one contiguous
/// dot-product operand — the layout the u8·s8 inner loop streams. Rows
/// are zero-padded to a kQuantKAlign stride at quantize time (the pack
/// step; zero padding is exact since a zero weight contributes nothing),
/// so the int8 kernel never needs a scalar K tail.
struct QuantizedMatrix {
  std::size_t rows = 0;     ///< output channels (cols of the fp32 weight)
  std::size_t cols = 0;     ///< input features (rows of the fp32 weight)
  std::size_t cstride = 0;  ///< cols rounded up to kQuantKAlign
  /// q[r * cstride + c] = round(w[c, r] / scales[r]), clamped to
  /// [-127, 127] (symmetric; -128 is never produced, which keeps the AVX2
  /// maddubs pair sums below INT16_MAX).
  std::vector<std::int8_t> q;
  std::vector<float> scales;  ///< [rows] fp32 per-output-channel scales
};

/// A quantized Linear: the packed weight plus an fp32 copy of the bias
/// (empty when the source layer has none), fused into the dequant
/// epilogue.
struct QuantizedLinear {
  QuantizedMatrix w;
  std::vector<float> bias;
};

/// Quantizes a row-major fp32 weight `w` of shape [in, out] (the
/// nn::Linear layout) into the transposed int8 layout.
QuantizedMatrix QuantizeWeightMatrix(std::size_t in, std::size_t out,
                                     const float* w);

/// Rebuilds the packed representation from logical (unpadded, [out, in]
/// row-major) payload values — the artifact-decode path. `q` holds
/// rows*cols int8 values, `scales` rows floats.
QuantizedMatrix MakeInt8Matrix(std::size_t rows, std::size_t cols,
                               const std::int8_t* q, const float* scales);
namespace kernels {

/// Quantizes `m` activation rows of `cols` floats each to symmetric int8,
/// one runtime scale per row (round half away from zero, like the weight
/// quantizer): aq[i*cstride + c] = round(x[i*cols + c] * 127 / amax_i),
/// with the [cols, cstride) tail zeroed. A row's scale depends only on
/// that row, so quantization never couples rows.
void QuantizeActivationRows(std::size_t m, std::size_t cols,
                            std::size_t cstride, const float* x,
                            std::int8_t* aq, float* ascales);

/// y[m, out] = dequant(aq[m, ·] · Wq^T) + bias over pre-quantized
/// activation rows (QuantizeActivationRows layout, stride w.cstride).
/// Products accumulate exactly in int32 (u8·s8 maddubs/madd on AVX2
/// hosts, a scalar multiply-add chain otherwise — integer sums, so both
/// agree bit-for-bit); the epilogue is one fp32 multiply by
/// (ascales[i] · w.scales[j]) plus the optional bias. Each output element
/// depends only on its own activation row and weight channel, never on
/// `m`, so an M-row call equals M single-row calls bitwise.
void GemmInt8(const QuantizedMatrix& w, const float* bias, std::size_t m,
              const std::int8_t* aq, const float* ascales, float* y);

/// Convenience driver the decoder calls: quantizes activations into
/// thread-local scratch, then runs GemmInt8.
void QuantizedGemm(const QuantizedMatrix& w, const float* bias,
                   std::size_t m, const float* x, float* y);

/// Worst-case |fp32_exact - int8| for one output element, from the
/// rounding guarantees above: activations and weights each sit within
/// half a quantization step of their fp32 values, so
///   |err| <= sum_k ( |x_k|·sw/2 + |w_k|·sa/2 + sa·sw/4 )
/// with sa the activation row scale and sw the weight channel scale. The
/// tolerance-sweep test asserts against exactly this bound (plus fp32
/// epilogue slack). `w_col` walks the fp32 [in, out] weight at stride
/// `w_col_stride`.
double Int8ErrorBound(std::size_t k, const float* x_row, const float* w_col,
                      std::size_t w_col_stride, float sa, float sw);

}  // namespace kernels

}  // namespace serd::nn

#endif  // SERD_NN_QUANT_H_
