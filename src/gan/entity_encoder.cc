#include "gan/entity_encoder.h"

#include <algorithm>
#include <cmath>

#include "text/qgram.h"

namespace serd {
namespace {

/// FNV-1a 64-bit hash of bytes[0, len), for bucketing strings and grams.
uint64_t Fnv1a64(const unsigned char* bytes, size_t len) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

EntityEncoder::EntityEncoder(const SimilaritySpec& spec) : spec_(&spec) {
  offsets_.resize(spec.schema().num_columns());
  size_t off = 0;
  for (size_t c = 0; c < spec.schema().num_columns(); ++c) {
    offsets_[c] = off;
    off += ColumnWidth(c);
  }
  feature_dim_ = off;
}

size_t EntityEncoder::ColumnWidth(size_t col) const {
  switch (spec_->schema().column(col).type) {
    case ColumnType::kNumeric:
    case ColumnType::kDate:
      return 1;
    case ColumnType::kCategorical:
      return kEncoderCategoricalBuckets;
    case ColumnType::kText:
      return kEncoderTextBuckets + 1;  // +length
  }
  return 0;
}

void EntityEncoder::EncodeColumn(size_t col, const std::string& value,
                                 float* out) const {
  switch (spec_->schema().column(col).type) {
    case ColumnType::kNumeric:
    case ColumnType::kDate: {
      double v;
      if (!spec_->ParseValue(col, value, &v)) {
        out[0] = 0.5f;
        return;
      }
      double range = spec_->Range(col);
      double normalized =
          range > 0.0 ? (v - spec_->stats()[col].min_value) / range : 0.5;
      out[0] = static_cast<float>(std::clamp(normalized, 0.0, 1.0));
      return;
    }
    case ColumnType::kCategorical: {
      size_t bucket =
          Fnv1a64(reinterpret_cast<const unsigned char*>(value.data()),
                  value.size()) %
          kEncoderCategoricalBuckets;
      out[bucket] = 1.0f;
      return;
    }
    case ColumnType::kText: {
      // One count per distinct lowercased 3-gram, in the bucket of the
      // gram's FNV-1a-64. Distinct 32-bit gram hashes are distinct grams
      // (qgram.h), so no gram string is built and nothing is sorted.
      thread_local QgramScan scan;
      scan.Scan(value, 3);
      const size_t nb = kEncoderTextBuckets;
      for (size_t k = 0; k < scan.num_distinct(); ++k) {
        out[Fnv1a64(scan.lowered() + scan.first()[k], scan.gram_length()) %
            nb] += 1.0f;
      }
      double norm_sq = 0.0;
      for (size_t i = 0; i < nb; ++i) norm_sq += out[i] * out[i];
      if (norm_sq > 0.0) {
        float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
        for (size_t i = 0; i < nb; ++i) out[i] *= inv;
      }
      out[nb] = static_cast<float>(
          std::min(1.0, value.size() / kEncoderMaxTextLen));
      return;
    }
  }
}

std::vector<float> EntityEncoder::Encode(const Entity& entity) const {
  SERD_CHECK_EQ(entity.values.size(), spec_->schema().num_columns());
  std::vector<float> features(feature_dim_, 0.0f);
  for (size_t c = 0; c < entity.values.size(); ++c) {
    EncodeColumn(c, entity.values[c], features.data() + offsets_[c]);
  }
  return features;
}

Entity EntityEncoder::Decode(
    const std::vector<float>& features,
    const std::vector<std::vector<std::string>>& pools) const {
  SERD_CHECK_EQ(features.size(), feature_dim_);
  SERD_CHECK_EQ(pools.size(), spec_->schema().num_columns());
  Entity entity;
  entity.values.resize(pools.size());
  std::vector<float> candidate(feature_dim_, 0.0f);
  for (size_t c = 0; c < pools.size(); ++c) {
    SERD_CHECK(!pools[c].empty()) << "empty decode pool for column " << c;
    const size_t width = ColumnWidth(c);
    double best = 1e30;
    for (const auto& value : pools[c]) {
      std::fill(candidate.begin() + offsets_[c],
                candidate.begin() + offsets_[c] + width, 0.0f);
      EncodeColumn(c, value, candidate.data() + offsets_[c]);
      double dist = 0.0;
      for (size_t i = 0; i < width; ++i) {
        double d = candidate[offsets_[c] + i] - features[offsets_[c] + i];
        dist += d * d;
      }
      if (dist < best) {
        best = dist;
        entity.values[c] = value;
      }
    }
  }
  return entity;
}

}  // namespace serd
