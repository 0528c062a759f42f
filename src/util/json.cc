#include "util/json.h"

#include <cstdio>
#include <cstdlib>

namespace blossomtree {
namespace util {

namespace {
constexpr size_t kMaxJsonDepth = 128;
}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

std::string JsonValue::StringOr(std::string_view key,
                                std::string fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString()
                                        : std::move(fallback);
}

/// Recursive-descent JSON reader (depth-capped; see kMaxJsonDepth).
class JsonParser {
 public:
  explicit JsonParser(std::string_view input) : input_(input) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    BT_RETURN_NOT_OK(ParseValue(&v, 0));
    SkipWhitespace();
    if (pos_ != input_.size()) {
      return Error("trailing characters after JSON value");
    }
    return v;
  }

 private:
  Status Error(const std::string& msg) const {
    return Status::ParseError("json: " + msg + " at offset " +
                              std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (input_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, size_t depth) {
    if (depth > kMaxJsonDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= input_.size()) return Error("unexpected end of input");
    char c = input_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind_ = JsonValue::Kind::kString;
        return ParseString(&out->string_);
      case 't':
        if (!ConsumeLiteral("true")) return Error("invalid literal");
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = true;
        return Status::OK();
      case 'f':
        if (!ConsumeLiteral("false")) return Error("invalid literal");
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = false;
        return Status::OK();
      case 'n':
        if (!ConsumeLiteral("null")) return Error("invalid literal");
        out->kind_ = JsonValue::Kind::kNull;
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, size_t depth) {
    Consume('{');
    out->kind_ = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      if (pos_ >= input_.size() || input_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      BT_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      BT_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->object_.emplace(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, size_t depth) {
    Consume('[');
    out->kind_ = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      JsonValue value;
      BT_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->array_.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    Consume('"');
    out->clear();
    while (pos_ < input_.size()) {
      char c = input_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= input_.size()) break;
      char esc = input_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > input_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = input_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are stored as
          // two 3-byte sequences — fine for the identifiers we read).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    if (pos_ >= input_.size() ||
        !(input_[pos_] >= '0' && input_[pos_] <= '9')) {
      return Error("invalid number");
    }
    while (pos_ < input_.size() && input_[pos_] >= '0' &&
           input_[pos_] <= '9') {
      ++pos_;
    }
    if (Consume('.')) {
      if (pos_ >= input_.size() ||
          !(input_[pos_] >= '0' && input_[pos_] <= '9')) {
        return Error("invalid number");
      }
      while (pos_ < input_.size() && input_[pos_] >= '0' &&
             input_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < input_.size() &&
        (input_[pos_] == 'e' || input_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < input_.size() &&
          (input_[pos_] == '+' || input_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= input_.size() ||
          !(input_[pos_] >= '0' && input_[pos_] <= '9')) {
        return Error("invalid number");
      }
      while (pos_ < input_.size() && input_[pos_] >= '0' &&
             input_[pos_] <= '9') {
        ++pos_;
      }
    }
    // The span [start, pos_) is a validated JSON number, so strtod cannot
    // wander past it (JSON number grammar is a strtod prefix).
    std::string text(input_.substr(start, pos_ - start));
    out->kind_ = JsonValue::Kind::kNumber;
    out->number_ = std::strtod(text.c_str(), nullptr);
    return Status::OK();
  }

  std::string_view input_;
  size_t pos_ = 0;
};

Result<JsonValue> ParseJson(std::string_view input) {
  return JsonParser(input).Parse();
}

Result<JsonValue> ParseJsonFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open json file: " + path);
  }
  std::string contents;
  char buf[65536];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IOError("read failed for json file: " + path);
  }
  return ParseJson(contents);
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
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
}

}  // namespace util
}  // namespace blossomtree
