#ifndef BLOSSOMTREE_EXEC_VALUE_OPS_H_
#define BLOSSOMTREE_EXEC_VALUE_OPS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "xml/document.h"
#include "xpath/ast.h"

namespace blossomtree {
namespace exec {

/// \brief Compares two atomized values with XPath semantics: numeric
/// comparison when both parse as numbers, string comparison otherwise.
bool CompareValues(std::string_view left, xpath::CompareOp op,
                   std::string_view right);

/// \brief A vertex value constraint (`op literal`) with the literal parsed
/// once, when a matcher is built, instead of on every candidate. Its
/// callers count the tests they make (ExecStats::comparisons).
class LiteralTest {
 public:
  LiteralTest(xpath::CompareOp op, std::string_view literal);

  /// \brief CompareValues(value, op, literal).
  bool Matches(std::string_view value) const;

  /// \brief Matches(doc.StringValue(n)), reading the text in place when n's
  /// subtree holds at most one text node (a leaf's value, the common case).
  bool MatchesNode(const xml::Document& doc, xml::NodeId n) const;

 private:
  xpath::CompareOp op_;
  std::string literal_;
  double num_ = 0;  ///< The literal's number, if `numeric_`.
  bool numeric_ = false;
};

/// \brief The atomized value of node `n` of a comparison operand. An
/// operand path ending in an attribute step (`$a/@x`) yields the attributes'
/// owner elements; pass that step's name as `attribute` to get the
/// attribute's value. Empty `attribute`: `n`'s string value.
std::string OperandValue(const xml::Document& doc, xml::NodeId n,
                         std::string_view attribute);

/// \brief XQuery general comparison over node sequences: true iff some pair
/// of items satisfies `op` on their atomized values (untyped-data
/// semantics; see OperandValue for `left_attribute`/`right_attribute`).
/// `left`/`right` are nodes of `doc`; literals are handled by the overload.
bool GeneralCompare(const xml::Document& doc,
                    std::span<const xml::NodeId> left,
                    xpath::CompareOp op,
                    std::span<const xml::NodeId> right,
                    std::string_view left_attribute = {},
                    std::string_view right_attribute = {});

/// \brief General comparison of a node sequence against a literal.
bool GeneralCompareLiteral(const xml::Document& doc,
                           std::span<const xml::NodeId> left,
                           xpath::CompareOp op, std::string_view literal,
                           std::string_view attribute = {});

/// \brief fn:deep-equal on two subtrees: same tag, same attribute set, and
/// pairwise deep-equal children; text compared exactly.
bool DeepEqualNodes(const xml::Document& doc, xml::NodeId a, xml::NodeId b);

/// \brief fn:deep-equal on two sequences (paper Example 2 relies on
/// deep-equal((), ()) = true): equal lengths and pairwise deep-equal items.
bool DeepEqualSequences(const xml::Document& doc,
                        std::span<const xml::NodeId> a,
                        std::span<const xml::NodeId> b);

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_VALUE_OPS_H_
