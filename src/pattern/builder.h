#ifndef BLOSSOMTREE_PATTERN_BUILDER_H_
#define BLOSSOMTREE_PATTERN_BUILDER_H_

#include <memory>

#include "flwor/ast.h"
#include "pattern/blossom_tree.h"
#include "util/status.h"

namespace blossomtree {
namespace pattern {

/// \brief Translates a FLWOR expression into a finalized BlossomTree
/// (paper §3.1, Figure 1):
///
///  - each `for $v in <absolute path>` starts a new pattern tree rooted at
///    the virtual document root "~"; paths rooted at `$u` extend the vertex
///    of the binding `$u` resolved to (xpath::PathExpr::var_slot), and each
///    binding path gets vertices of its own, tagged with its slot;
///  - a binding that aliases another variable (`$b in $a`) or iterates
///    below a let-bound one is kUnsupported (callers evaluate it
///    navigationally);
///  - edges contributed by for-clauses are "f" (mandatory), by let-clauses
///    "l" (optional);
///  - step predicates become non-returning subtrees ([p] existence) or
///    value constraints ([p = "v"]) and positional constraints ([i]);
///  - top-level where conjuncts `$v/p = "lit"`, `$v/p != "lit"` and
///    `exists($v/p)` on a for-bound `$v` become the constraints the step
///    predicates `[p = "lit"]` / `[p]` build under `$v`'s vertex, so the
///    scan enforces them (DESIGN.md §6);
///  - the other conjuncts' comparisons between variables become crossing
///    edges (negation via not(...) is preserved on the edge);
///  - binding variables, crossing-edge endpoints, and endpoints of global
///    (//) tree edges are marked returning, then Dewey IDs are assigned.
///
/// `residual`, when given, receives the positions (in flwor::Conjuncts
/// order) of the where conjuncts the tree does not enforce, ascending. The
/// tree's matches satisfy every other conjunct; the caller evaluates these
/// on each tuple.
Result<BlossomTree> BuildFromFlwor(const flwor::Flwor& flwor,
                                   std::vector<uint32_t>* residual = nullptr);

/// \brief Translates a standalone path expression (the Table 2/3 query
/// workloads) into a finalized BlossomTree whose result vertex is bound to
/// the variable "result".
Result<BlossomTree> BuildFromPath(const xpath::PathExpr& path);

/// \brief Builds from any parsed query expression (dispatches on kind;
/// constructors are searched for an embedded FLWOR).
Result<BlossomTree> BuildFromQuery(const flwor::Expr& expr);

}  // namespace pattern
}  // namespace blossomtree

#endif  // BLOSSOMTREE_PATTERN_BUILDER_H_
