#ifndef BLOSSOMTREE_XPATH_AST_H_
#define BLOSSOMTREE_XPATH_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace blossomtree {
namespace xpath {

/// \brief Navigation axes of the supported XPath subset.
///
/// `/` and `following-sibling::` are the *local* axes (NoK pattern trees may
/// only contain these); `//` is the *global* axis on which BlossomTrees are
/// cut into NoK pieces (paper §2.1, Algorithm 1).
enum class Axis {
  kChild,             ///< `/`
  kDescendant,        ///< `//` (descendant-or-self::node()/child:: shorthand)
  kFollowingSibling,  ///< `following-sibling::`
  kSelf,              ///< `.`
  kAttribute,         ///< `@`
  kParent,            ///< `parent::` / `..` — reverse axis; navigational only.
  kAncestor,          ///< `ancestor::` — reverse axis; navigational only.
  kFollowing,         ///< `following::` — document-order axis (§4.3's
                      ///< following-join); navigational only.
  kPreceding,         ///< `preceding::` — reverse document-order axis.
};

/// \brief Returns the surface syntax of an axis ("/", "//", ...).
const char* AxisToString(Axis axis);

/// \brief True for the axes a NoK pattern tree may contain.
inline bool IsLocalAxis(Axis axis) {
  return axis == Axis::kChild || axis == Axis::kFollowingSibling ||
         axis == Axis::kSelf || axis == Axis::kAttribute;
}

/// \brief Reverse axes cannot appear in BlossomTrees at all (pattern edges
/// point downward); queries using them are evaluated navigationally.
inline bool IsReverseAxis(Axis axis) {
  return axis == Axis::kParent || axis == Axis::kAncestor ||
         axis == Axis::kPreceding;
}

/// \brief Axes outside the BlossomTree pattern subset (reverse axes plus
/// `following::`, which relates nodes across subtrees).
inline bool IsNavigationalOnlyAxis(Axis axis) {
  return IsReverseAxis(axis) || axis == Axis::kFollowing;
}

/// \brief Value comparison operators usable in predicates.
enum class CompareOp {
  kEq,   ///< `=`
  kNeq,  ///< `!=`
  kLt,   ///< `<`
  kLe,   ///< `<=`
  kGt,   ///< `>`
  kGe,   ///< `>=`
};

const char* CompareOpToString(CompareOp op);

struct PathExpr;

/// \brief Variable slot of a reference no binding resolves (see
/// PathExpr::var_slot).
constexpr uint32_t kNoVarSlot = UINT32_MAX;

/// \brief A step predicate `[...]`.
///
/// Three forms are supported, mirroring the paper's query classes:
///  - existence:   `[rel/path]`
///  - value:       `[rel/path = "literal"]` (any CompareOp; `.` allowed)
///  - positional:  `[i]` (1-based, as in `//book[2]`)
struct Predicate {
  enum class Kind { kExists, kValueCompare, kPosition };

  Kind kind;
  std::unique_ptr<PathExpr> path;  ///< Relative path (kExists/kValueCompare).
  CompareOp op = CompareOp::kEq;   ///< kValueCompare only.
  std::string literal;             ///< kValueCompare only.
  long long position = 0;          ///< kPosition only (1-based).
};

/// \brief One location step: axis + node test + predicates.
struct Step {
  Axis axis = Axis::kChild;
  /// Element tag name, attribute name (axis kAttribute), or "*".
  std::string name;
  std::vector<Predicate> predicates;
};

/// \brief A parsed path expression.
///
/// Paths start at the document root (`/a`, `//a`, `doc("f.xml")//a`), at a
/// variable binding (`$v/a`), or at the context node (relative paths inside
/// predicates, including the bare `.`).
struct PathExpr {
  enum class StartKind { kRoot, kVariable, kContext };

  StartKind start = StartKind::kRoot;
  std::string document;  ///< doc("...") argument; may be empty.
  std::string variable;  ///< For kVariable: name without '$'.
  /// For kVariable: the tuple slot of the innermost binding of `variable`,
  /// resolved once by flwor::ParseQuery. kNoVarSlot for paths parsed by
  /// xpath::ParsePath alone.
  uint32_t var_slot = kNoVarSlot;
  std::vector<Step> steps;

  /// \brief Serializes back to XPath surface syntax (for tests/EXPLAIN).
  std::string ToString() const;
};

/// \brief Deep copy (Predicate holds a unique_ptr, so PathExpr is move-only
/// by default).
PathExpr ClonePath(const PathExpr& path);

}  // namespace xpath
}  // namespace blossomtree

#endif  // BLOSSOMTREE_XPATH_AST_H_
