#include "util/strings.h"

#include <cctype>
#include <climits>
#include <cstdlib>

namespace blossomtree {

namespace {
bool IsXmlSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}
}  // namespace

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsXmlSpace(s[b])) ++b;
  while (e > b && IsXmlSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

bool IsAllWhitespace(std::string_view s) {
  for (char c : s) {
    if (!IsXmlSpace(c)) return false;
  }
  return true;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

void AppendXmlEscaped(std::string_view s, std::string* out) {
  size_t run = 0;  // Start of the pending unescaped run.
  for (size_t i = 0; i < s.size(); ++i) {
    std::string_view entity;
    switch (s[i]) {
      case '&':
        entity = "&amp;";
        break;
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '"':
        entity = "&quot;";
        break;
      case '\'':
        entity = "&apos;";
        break;
      default:
        continue;
    }
    out->append(s.data() + run, i - run);
    out->append(entity);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

long long ParseNonNegativeInt(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return -1;
  long long v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return -1;
    int d = c - '0';
    // Guard before multiplying: signed overflow is UB, so the old
    // post-hoc `v < 0` check was itself undefined.
    if (v > (LLONG_MAX - d) / 10) return -1;
    v = v * 10 + d;
  }
  return v;
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  // XPath numeric literals are plain decimal/scientific forms. strtod also
  // accepts "inf", "nan", and hex floats ("0x1p3"), which must compare as
  // strings instead — reject any character outside the decimal grammar,
  // and require at least one digit ("e" or "." alone parse as 0 otherwise).
  bool has_digit = false;
  for (char c : s) {
    if (c >= '0' && c <= '9') {
      has_digit = true;
    } else if (c != '+' && c != '-' && c != '.' && c != 'e' && c != 'E') {
      return false;
    }
  }
  if (!has_digit) return false;
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

}  // namespace blossomtree
