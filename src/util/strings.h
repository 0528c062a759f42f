#ifndef BLOSSOMTREE_UTIL_STRINGS_H_
#define BLOSSOMTREE_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace blossomtree {

/// \brief Splits `s` on `sep`, keeping empty fields.
std::vector<std::string_view> Split(std::string_view s, char sep);

/// \brief Removes leading and trailing XML whitespace (space, tab, CR, LF).
std::string_view Trim(std::string_view s);

/// \brief True if `s` consists only of XML whitespace.
bool IsAllWhitespace(std::string_view s);

/// \brief Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// \brief Appends `s` to `*out` with &, <, >, ", ' escaped for inclusion in
/// XML text/attributes, copying the runs between escapable characters whole.
void AppendXmlEscaped(std::string_view s, std::string* out);

/// \brief Parses a non-negative decimal integer; returns -1 on failure.
long long ParseNonNegativeInt(std::string_view s);

/// \brief Attempts to parse `s` as a double (XPath number()); returns
/// true and sets *out on success.
bool ParseDouble(std::string_view s, double* out);

}  // namespace blossomtree

#endif  // BLOSSOMTREE_UTIL_STRINGS_H_
