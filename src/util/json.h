#ifndef BLOSSOMTREE_UTIL_JSON_H_
#define BLOSSOMTREE_UTIL_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace blossomtree {
namespace util {

/// \brief A parsed JSON value — the minimal reader the tracing tests and
/// the bench regression gate need (objects, arrays, strings, numbers,
/// booleans, null). Not a serializer: the repo's JSON *writers* stay
/// hand-rolled per artifact, sharing AppendJsonEscaped below.
///
/// Numbers are stored as double (sufficient for the counters and
/// timestamps the artifacts carry; 2^53 exceeds every counter we emit).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }
  const std::map<std::string, JsonValue>& AsObject() const {
    return object_;
  }

  /// \brief Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// \brief Convenience: Find(key) if it is a number, else `fallback`.
  double NumberOr(std::string_view key, double fallback) const;

  /// \brief Convenience: Find(key) if it is a string, else `fallback`.
  std::string StringOr(std::string_view key, std::string fallback) const;

  static JsonValue MakeNull() { return JsonValue(); }

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// \brief Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected). Depth-limited against hostile input.
Result<JsonValue> ParseJson(std::string_view input);

/// \brief ParseJson over a file's contents.
Result<JsonValue> ParseJsonFile(const std::string& path);

/// \brief Appends `s` to `out` as the body of a JSON string literal:
/// quotes, backslashes and every control character escaped, so the result
/// always satisfies ParseJson.
void AppendJsonEscaped(std::string* out, std::string_view s);

}  // namespace util
}  // namespace blossomtree

#endif  // BLOSSOMTREE_UTIL_JSON_H_
