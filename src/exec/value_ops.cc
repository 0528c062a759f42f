#include "exec/value_ops.h"

#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/strings.h"

namespace blossomtree {
namespace exec {

namespace {

/// One XPath value comparison over pre-parsed operands: numeric when both
/// sides parse as doubles, string collation otherwise.
bool ComparePrepared(bool left_numeric, double ln, std::string_view left,
                     xpath::CompareOp op, bool right_numeric, double rn,
                     std::string_view right) {
  if (left_numeric && right_numeric) {
    switch (op) {
      case xpath::CompareOp::kEq:
        return ln == rn;
      case xpath::CompareOp::kNeq:
        return ln != rn;
      case xpath::CompareOp::kLt:
        return ln < rn;
      case xpath::CompareOp::kLe:
        return ln <= rn;
      case xpath::CompareOp::kGt:
        return ln > rn;
      case xpath::CompareOp::kGe:
        return ln >= rn;
    }
  }
  int cmp = left.compare(right);
  switch (op) {
    case xpath::CompareOp::kEq:
      return cmp == 0;
    case xpath::CompareOp::kNeq:
      return cmp != 0;
    case xpath::CompareOp::kLt:
      return cmp < 0;
    case xpath::CompareOp::kLe:
      return cmp <= 0;
    case xpath::CompareOp::kGt:
      return cmp > 0;
    case xpath::CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}
}  // namespace

std::string OperandValue(const xml::Document& doc, xml::NodeId n,
                         std::string_view attribute) {
  if (attribute.empty()) return doc.StringValue(n);
  std::string_view value;
  doc.AttributeValue(n, attribute, &value);
  return std::string(value);
}

bool CompareValues(std::string_view left, xpath::CompareOp op,
                   std::string_view right) {
  double ln = 0;
  double rn = 0;
  bool l_num = ParseDouble(left, &ln);
  bool r_num = ParseDouble(right, &rn);
  return ComparePrepared(l_num, ln, left, op, r_num, rn, right);
}

LiteralTest::LiteralTest(xpath::CompareOp op, std::string_view literal)
    : op_(op), literal_(literal) {
  numeric_ = ParseDouble(literal_, &num_);
}

bool LiteralTest::Matches(std::string_view value) const {
  double num = 0;
  bool numeric = ParseDouble(value, &num);
  return ComparePrepared(numeric, num, value, op_, numeric_, num_, literal_);
}

bool LiteralTest::MatchesNode(const xml::Document& doc, xml::NodeId n) const {
  std::string scratch;
  return Matches(doc.StringValueView(n, &scratch));
}

bool GeneralCompare(const xml::Document& doc,
                    std::span<const xml::NodeId> left,
                    xpath::CompareOp op,
                    std::span<const xml::NodeId> right,
                    std::string_view left_attribute,
                    std::string_view right_attribute) {
  if (left.empty() || right.empty()) return false;
  // Materialize and parse each right-side value once. The inner loop used
  // to rebuild doc.StringValue(r) (and re-parse it) for every left node —
  // O(|L|·|R|) string construction on what is already the hot path of
  // where-clause joins.
  struct RightValue {
    std::string text;
    double num = 0;
    bool numeric = false;
    uint32_t id = 0;  ///< Dictionary code of `text` (equality ops only).
  };
  std::vector<RightValue> rights;
  rights.reserve(right.size());
  for (xml::NodeId r : right) {
    RightValue rv;
    rv.text = OperandValue(doc, r, right_attribute);
    rv.numeric = ParseDouble(rv.text, &rv.num);
    rights.push_back(std::move(rv));
  }
  // Equality dictionary: intern each distinct right-side string once, so
  // the quadratic loop compares 4-byte codes instead of re-walking string
  // bytes per (l, r) pair. Exact for =/!= because two strings are equal iff
  // their codes are (numeric-vs-numeric pairs keep the numeric compare, as
  // before); ordering ops still need real collation. Same early-return
  // pair.
  constexpr uint32_t kNoId = static_cast<uint32_t>(-1);
  const bool dict =
      (op == xpath::CompareOp::kEq || op == xpath::CompareOp::kNeq) &&
      right.size() > 1;
  std::unordered_map<std::string_view, uint32_t> dict_ids;
  if (dict) {
    dict_ids.reserve(rights.size());
    for (RightValue& rv : rights) {
      // Keys view the rights' own text storage, which no longer moves.
      rv.id = dict_ids.emplace(std::string_view(rv.text),
                               static_cast<uint32_t>(dict_ids.size()))
                  .first->second;
    }
  }
  for (xml::NodeId l : left) {
    std::string lv = OperandValue(doc, l, left_attribute);
    double ln = 0;
    bool l_num = ParseDouble(lv, &ln);
    if (dict) {
      auto it = dict_ids.find(std::string_view(lv));
      uint32_t l_id = it == dict_ids.end() ? kNoId : it->second;
      for (const RightValue& rv : rights) {
        bool eq = (l_num && rv.numeric) ? ln == rv.num : l_id == rv.id;
        if (op == xpath::CompareOp::kEq ? eq : !eq) return true;
      }
      continue;
    }
    for (const RightValue& rv : rights) {
      if (ComparePrepared(l_num, ln, lv, op, rv.numeric, rv.num, rv.text)) {
        return true;
      }
    }
  }
  return false;
}

bool GeneralCompareLiteral(const xml::Document& doc,
                           std::span<const xml::NodeId> left,
                           xpath::CompareOp op, std::string_view literal,
                           std::string_view attribute) {
  double rn = 0;
  bool r_num = ParseDouble(literal, &rn);
  for (xml::NodeId l : left) {
    std::string lv = OperandValue(doc, l, attribute);
    double ln = 0;
    bool l_num = ParseDouble(lv, &ln);
    if (ComparePrepared(l_num, ln, lv, op, r_num, rn, literal)) return true;
  }
  return false;
}

bool DeepEqualNodes(const xml::Document& doc, xml::NodeId a, xml::NodeId b) {
  // Explicit work stack: deep-equal on a pathologically deep document must
  // not recurse once per level.
  std::vector<std::pair<xml::NodeId, xml::NodeId>> stack;
  stack.emplace_back(a, b);
  while (!stack.empty()) {
    auto [x, y] = stack.back();
    stack.pop_back();
    if (x == y) continue;
    if (doc.IsElement(x) != doc.IsElement(y)) return false;
    if (!doc.IsElement(x)) {
      if (doc.Text(x) != doc.Text(y)) return false;
      continue;
    }
    if (doc.Tag(x) != doc.Tag(y)) return false;
    auto attrs_x = doc.Attributes(x);
    auto attrs_y = doc.Attributes(y);
    if (attrs_x.size() != attrs_y.size()) return false;
    for (const auto& [name, value] : attrs_x) {
      std::string_view other;
      if (!doc.AttributeValue(y, name, &other) || other != value) {
        return false;
      }
    }
    xml::NodeId cx = doc.FirstChild(x);
    xml::NodeId cy = doc.FirstChild(y);
    while (cx != xml::kNullNode && cy != xml::kNullNode) {
      stack.emplace_back(cx, cy);
      cx = doc.NextSibling(cx);
      cy = doc.NextSibling(cy);
    }
    if (cx != xml::kNullNode || cy != xml::kNullNode) return false;
  }
  return true;
}

bool DeepEqualSequences(const xml::Document& doc,
                        std::span<const xml::NodeId> a,
                        std::span<const xml::NodeId> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!DeepEqualNodes(doc, a[i], b[i])) return false;
  }
  return true;
}

}  // namespace exec
}  // namespace blossomtree
