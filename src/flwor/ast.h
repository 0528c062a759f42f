#ifndef BLOSSOMTREE_FLWOR_AST_H_
#define BLOSSOMTREE_FLWOR_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "xpath/ast.h"

namespace blossomtree {
namespace flwor {

/// \brief One `for $v in path` or `let $v := path` binding (paper §3.1:
/// only path expressions may appear in for/let).
struct Binding {
  enum class Kind { kFor, kLet };
  Kind kind;
  std::string var;  ///< Variable name without '$'.
  /// Tuple slot this binding writes: the number of variables in scope
  /// before it, outer FLWORs included (assigned by ParseQuery).
  uint32_t var_slot = xpath::kNoVarSlot;
  xpath::PathExpr path;
};

/// \brief Comparison operators allowed in the where-clause. These are
/// exactly the relationship kinds the paper's crossing edges carry:
/// structural (`<<`, `>>`, `is`), value-based (`=`, `!=`), and mixed
/// (`deep-equal`).
enum class WhereOp {
  kDocBefore,  ///< `<<`
  kDocAfter,   ///< `>>`
  kEq,         ///< general comparison `=` on atomized values
  kNeq,        ///< `!=`
  kIs,         ///< node identity
  kDeepEqual,  ///< deep-equal(a, b)
  kExists,     ///< exists(path) — unary; only `left` is used.
};

const char* WhereOpToString(WhereOp op);

/// \brief A comparison operand: a path (usually `$v/...`), a literal, or
/// count(path) — which atomizes to the match count.
struct Operand {
  enum class Kind { kPath, kLiteral, kCount };
  Kind kind = Kind::kPath;
  xpath::PathExpr path;  ///< kPath / kCount.
  std::string literal;   ///< kLiteral.
};

/// \brief Boolean expression tree over comparisons.
struct BoolExpr {
  enum class Kind { kAnd, kOr, kNot, kCompare };
  Kind kind = Kind::kCompare;
  std::vector<std::unique_ptr<BoolExpr>> children;  ///< kAnd / kOr / kNot.
  // kCompare:
  WhereOp op = WhereOp::kEq;
  Operand left;
  Operand right;
};

/// \brief The top-level conjuncts of a where-clause, left to right: the
/// leaves of its `and` tree (nested `and`s flattened; `or`, `not(...)` and
/// comparisons are leaves). Two where-clauses with equal canonical keys
/// (engine::CanonicalFlworKey) have equal conjunct lists position by
/// position, which is how a compiled plan names its residual conjuncts.
std::vector<const BoolExpr*> Conjuncts(const BoolExpr& where);

/// \brief Renders a where-clause in the query surface syntax (EXPLAIN).
std::string BoolExprToString(const BoolExpr& expr);

struct Expr;

/// \brief A piece of element-constructor content: literal text, an embedded
/// expression `{ ... }`, or a nested constructor.
struct ConstructorItem {
  enum class Kind { kText, kExpr, kElement };
  Kind kind;
  std::string text;                   ///< kText.
  std::unique_ptr<Expr> expr;         ///< kExpr / kElement.
};

/// \brief A direct element constructor `<name>...</name>`.
struct Constructor {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<ConstructorItem> items;
};

/// \brief A FLWOR expression per the paper's restricted grammar:
///   (for | let)+ where? (order by)? return.
struct Flwor {
  std::vector<Binding> bindings;
  std::unique_ptr<BoolExpr> where;        ///< May be null.
  std::optional<xpath::PathExpr> order_by; ///< May be absent.
  bool order_descending = false;
  std::unique_ptr<Expr> ret;
};

/// \brief Top-level query expression: a FLWOR, a constructor (possibly
/// containing FLWORs), or a bare path.
struct Expr {
  enum class Kind { kFlwor, kConstructor, kPath };
  Kind kind;
  std::unique_ptr<Flwor> flwor;
  std::unique_ptr<Constructor> ctor;
  xpath::PathExpr path;
};

}  // namespace flwor
}  // namespace blossomtree

#endif  // BLOSSOMTREE_FLWOR_AST_H_
