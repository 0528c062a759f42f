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
///  - where-clause comparisons between variables become crossing edges
///    (negation via not(...) is preserved on the edge);
///  - binding variables, crossing-edge endpoints, and endpoints of global
///    (//) tree edges are marked returning, then Dewey IDs are assigned.
Result<BlossomTree> BuildFromFlwor(const flwor::Flwor& flwor);

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
