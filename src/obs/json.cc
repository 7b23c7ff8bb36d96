#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace serd::obs {

namespace {

const Json kNullJson;

/// Numbers print round-trippably (%.17g) but integral values — the
/// common case for counters — print without an exponent or decimals.
std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void Indent(std::string* out, int n) { out->append(2 * n, ' '); }

/// ParseValue recurses once per container nesting level; a hostile
/// document of the form "[[[[..." would otherwise turn parser recursion
/// into stack exhaustion (a crash, not a Status). Manifests nest a
/// handful of levels; 256 is far above any legitimate document.
constexpr int kMaxParseDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Json> ParseDocument() {
    auto value = ParseValue();
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters after JSON value");
    }
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Result<Json> ParseValue() {
    if (depth_ >= kMaxParseDepth) {
      return Status::InvalidArgument(
          "JSON nesting exceeds the maximum depth of " +
          std::to_string(kMaxParseDepth));
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unexpected end of JSON input");
    }
    char c = text_[pos_];
    switch (c) {
      case '{': {
        ++depth_;
        auto obj = ParseObject();
        --depth_;
        return obj;
      }
      case '[': {
        ++depth_;
        auto arr = ParseArray();
        --depth_;
        return arr;
      }
      case '"': {
        auto s = ParseString();
        if (!s.ok()) return s.status();
        return Json::Str(std::move(s).value());
      }
      case 't':
        if (ConsumeLiteral("true")) return Json::Bool(true);
        break;
      case 'f':
        if (ConsumeLiteral("false")) return Json::Bool(false);
        break;
      case 'n':
        if (ConsumeLiteral("null")) return Json();
        break;
      default: {
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
          // strtod also takes "-inf", "-nan" and hex, and overflows
          // "1e400" to inf; JSON has none of these, so the consumed text
          // must be plain decimal and the value finite.
          const char* begin = text_.c_str() + pos_;
          char* end = nullptr;
          double v = std::strtod(begin, &end);
          if (end == begin ||
              std::string_view(begin, end - begin)
                      .find_first_not_of("0123456789+-.eE") !=
                  std::string_view::npos) {
            return Status::InvalidArgument("malformed JSON number");
          }
          if (!std::isfinite(v)) {
            return Status::InvalidArgument("JSON number out of range");
          }
          pos_ = end - text_.c_str();
          return Json::Number(v);
        }
      }
    }
    return Status::InvalidArgument("unexpected character in JSON at offset " +
                                   std::to_string(pos_));
  }

  Result<Json> ParseObject() {
    ++pos_;  // consume '{'
    Json obj = Json::Object();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      if (!Consume(':')) {
        return Status::InvalidArgument("expected ':' in JSON object");
      }
      auto value = ParseValue();
      if (!value.ok()) return value;
      obj.Set(key.value(), std::move(value).value());
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Status::InvalidArgument("expected ',' or '}' in JSON object");
    }
  }

  Result<Json> ParseArray() {
    ++pos_;  // consume '['
    Json arr = Json::Array();
    if (Consume(']')) return arr;
    while (true) {
      auto value = ParseValue();
      if (!value.ok()) return value;
      arr.Append(std::move(value).value());
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Status::InvalidArgument("expected ',' or ']' in JSON array");
    }
  }

  Result<std::string> ParseString() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Status::InvalidArgument("expected JSON string");
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::InvalidArgument("truncated \\u escape");
          }
          unsigned code = std::strtoul(text_.substr(pos_, 4).c_str(),
                                       nullptr, 16);
          pos_ += 4;
          // Manifests only emit \u escapes for control characters; other
          // code points pass through as UTF-8 bytes and never hit this.
          out.push_back(static_cast<char>(code & 0x7f));
          break;
        }
        default:
          return Status::InvalidArgument("unknown JSON escape");
      }
    }
    return Status::InvalidArgument("unterminated JSON string");
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

void Json::Set(const std::string& key, Json value) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members_.emplace_back(key, std::move(value));
}

void Json::Append(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  elements_.push_back(std::move(value));
}

const Json& Json::at(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return v;
  }
  return kNullJson;
}

bool Json::Has(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return true;
  }
  return false;
}

size_t Json::size() const {
  return type_ == Type::kObject ? members_.size() : elements_.size();
}

const Json& Json::item(size_t i) const {
  return i < elements_.size() ? elements_[i] : kNullJson;
}

double Json::AsNumber(double fallback) const {
  return type_ == Type::kNumber ? number_ : fallback;
}

bool Json::AsBool(bool fallback) const {
  return type_ == Type::kBool ? bool_ : fallback;
}

void Json::DumpTo(std::string* out, int indent) const {
  switch (type_) {
    case Type::kNull: *out += "null"; break;
    case Type::kBool: *out += bool_ ? "true" : "false"; break;
    case Type::kNumber: *out += FormatNumber(number_); break;
    case Type::kString: AppendEscaped(out, string_); break;
    case Type::kArray: {
      if (elements_.empty()) {
        *out += "[]";
        break;
      }
      // Arrays of scalars print inline; arrays holding containers nest.
      bool scalar_only = true;
      for (const auto& e : elements_) {
        if (e.is_object() || e.is_array()) scalar_only = false;
      }
      *out += '[';
      for (size_t i = 0; i < elements_.size(); ++i) {
        if (i > 0) *out += scalar_only ? ", " : ",";
        if (!scalar_only) {
          *out += '\n';
          Indent(out, indent + 1);
        }
        elements_[i].DumpTo(out, indent + 1);
      }
      if (!scalar_only) {
        *out += '\n';
        Indent(out, indent);
      }
      *out += ']';
      break;
    }
    case Type::kObject: {
      if (members_.empty()) {
        *out += "{}";
        break;
      }
      *out += "{\n";
      for (size_t i = 0; i < members_.size(); ++i) {
        Indent(out, indent + 1);
        AppendEscaped(out, members_[i].first);
        *out += ": ";
        members_[i].second.DumpTo(out, indent + 1);
        if (i + 1 < members_.size()) *out += ',';
        *out += '\n';
      }
      Indent(out, indent);
      *out += '}';
      break;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out, 0);
  out += '\n';
  return out;
}

Result<Json> Json::Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

}  // namespace serd::obs
