#ifndef SERD_GAN_ENTITY_ENCODER_H_
#define SERD_GAN_ENTITY_ENCODER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "data/similarity.h"
#include "data/table.h"

namespace serd {

/// Hashed one-hot width of a categorical column's features.
inline constexpr size_t kEncoderCategoricalBuckets = 8;
/// Hashed 3-gram count width of a text column's features.
inline constexpr size_t kEncoderTextBuckets = 24;
/// A text column's length feature is min(1, length / kEncoderMaxTextLen).
inline constexpr double kEncoderMaxTextLen = 80.0;

/// Maps entities to fixed-width float feature vectors for the GAN
/// (the "entity in a matrix form" of paper Section IV-B2):
///  - numeric/date columns: min-max normalized scalar,
///  - categorical columns: hashed one-hot over kEncoderCategoricalBuckets,
///  - text columns: hashed character 3-gram counts over
///    kEncoderTextBuckets, L2-normalized, plus a normalized length feature.
class EntityEncoder {
 public:
  explicit EntityEncoder(const SimilaritySpec& spec);

  size_t feature_dim() const { return feature_dim_; }

  /// Encodes one entity; output has feature_dim() entries in ~[0, 1].
  std::vector<float> Encode(const Entity& entity) const;

  /// Greedy decode: for each column, selects from `pools[c]` the value
  /// whose encoding is closest (L2) to the corresponding feature slice.
  /// Used for the GAN cold start (generated features -> concrete entity).
  /// Pools must have one nonempty entry per column.
  Entity Decode(const std::vector<float>& features,
                const std::vector<std::vector<std::string>>& pools) const;

 private:
  void EncodeColumn(size_t col, const std::string& value, float* out) const;
  size_t ColumnWidth(size_t col) const;

  const SimilaritySpec* spec_;
  size_t feature_dim_;
  std::vector<size_t> offsets_;  // per-column start in the feature vector
};

}  // namespace serd

#endif  // SERD_GAN_ENTITY_ENCODER_H_
