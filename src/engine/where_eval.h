#ifndef BLOSSOMTREE_ENGINE_WHERE_EVAL_H_
#define BLOSSOMTREE_ENGINE_WHERE_EVAL_H_

#include "engine/path_eval.h"
#include "flwor/ast.h"
#include "util/status.h"

namespace blossomtree {
namespace engine {

/// \brief Evaluates a where-clause boolean expression on one FLWOR tuple.
/// Operand paths are evaluated navigationally from the bound nodes;
/// comparison semantics:
///  - `=` / `!=`: XQuery general comparison (some pair satisfies the op);
///  - `<<` / `>>`: document order on singleton nodes (empty → false);
///  - `is`: node identity on singletons;
///  - `deep-equal`: sequence deep equality (deep-equal((),()) is true,
///    which Example 2 of the paper relies on).
Result<bool> EvalWhere(const flwor::BoolExpr& expr, Tuple tuple,
                       const xml::Document& doc, PathEvaluator* evaluator);

}  // namespace engine
}  // namespace blossomtree

#endif  // BLOSSOMTREE_ENGINE_WHERE_EVAL_H_
