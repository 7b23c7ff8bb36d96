#include "data/schema.h"

namespace serd {

const char* ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kNumeric:
      return "numeric";
    case ColumnType::kCategorical:
      return "categorical";
    case ColumnType::kDate:
      return "date";
    case ColumnType::kText:
      return "text";
  }
  return "?";
}

Result<size_t> Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("no column named " + name);
}

bool Schema::operator==(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name != other.columns_[i].name ||
        columns_[i].type != other.columns_[i].type) {
      return false;
    }
  }
  return true;
}

}  // namespace serd
