#ifndef SERD_DATA_SCHEMA_H_
#define SERD_DATA_SCHEMA_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace serd {

/// Attribute types the paper distinguishes (Section IV-B1): each type has
/// its own value-synthesis strategy and similarity function.
enum class ColumnType {
  kNumeric,      ///< e.g. year, price — min-max normalized |a-b| similarity
  kCategorical,  ///< e.g. venue, brand — finite domain, 3-gram Jaccard
  kDate,         ///< e.g. release date — treated like numeric over day counts
  kText,         ///< e.g. title, authors — 3-gram Jaccard, transformer synth
};

const char* ColumnTypeName(ColumnType type);

/// One attribute of the aligned schema.
struct ColumnSpec {
  std::string name;
  ColumnType type;
};

/// The aligned schema {C_1..C_l} shared by the A- and B-relations
/// (the paper assumes a one-to-one attribute correspondence).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnSpec> columns)
      : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const ColumnSpec& column(size_t i) const { return columns_[i]; }
  const std::vector<ColumnSpec>& columns() const { return columns_; }

  /// Index of the column named `name`, or NotFound.
  Result<size_t> ColumnIndex(const std::string& name) const;

  bool operator==(const Schema& other) const;

 private:
  std::vector<ColumnSpec> columns_;
};

}  // namespace serd

#endif  // SERD_DATA_SCHEMA_H_
