#ifndef BLOSSOMTREE_BASELINE_NAVIGATIONAL_H_
#define BLOSSOMTREE_BASELINE_NAVIGATIONAL_H_

#include <string>
#include <vector>

#include "engine/construct.h"
#include "engine/path_eval.h"
#include "flwor/ast.h"
#include "util/status.h"

namespace blossomtree {
namespace baseline {

/// \brief The navigational whole-query evaluator — the stand-in for the
/// paper's X-Hive/DB comparator (see DESIGN.md §5):
///  - path expressions are evaluated step-by-step by direct DOM traversal,
///    with no tag indexes and no work sharing;
///  - FLWOR expressions follow their nested-loop semantics, re-evaluating
///    every embedded path per iteration (the paper's intro: "this approach
///    may be very inefficient, due to the redundancy during the loop").
class NavigationalEvaluator {
 public:
  explicit NavigationalEvaluator(const xml::Document* doc) : doc_(doc) {}

  /// \brief Evaluates a path query to its distinct document-ordered nodes.
  Result<std::vector<xml::NodeId>> EvaluatePath(const xpath::PathExpr& path);

  /// \brief Evaluates a full query expression to serialized XML.
  Result<std::string> EvaluateToXml(const flwor::Expr& expr);

  /// \brief Parses and evaluates a query string.
  Result<std::string> EvaluateQuery(std::string_view query);

  /// \brief Total navigation work across all evaluations.
  uint64_t NodesVisited() const { return nodes_visited_; }

 private:
  Status EvalExpr(const flwor::Expr& expr, engine::Tuple tuple,
                  engine::ResultBuilder* out);

  const xml::Document* doc_;
  uint64_t nodes_visited_ = 0;
};

}  // namespace baseline
}  // namespace blossomtree

#endif  // BLOSSOMTREE_BASELINE_NAVIGATIONAL_H_
