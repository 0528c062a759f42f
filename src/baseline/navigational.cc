#include "baseline/navigational.h"

#include "engine/engine.h"
#include "flwor/parser.h"

namespace blossomtree {
namespace baseline {

using engine::PathEvaluator;
using engine::ResultBuilder;

Result<std::vector<xml::NodeId>> NavigationalEvaluator::EvaluatePath(
    const xpath::PathExpr& path) {
  PathEvaluator ev(doc_);
  auto r = ev.Evaluate(path);
  nodes_visited_ += ev.NodesVisited();
  return r;
}

Result<std::string> NavigationalEvaluator::EvaluateQuery(
    std::string_view query) {
  BT_ASSIGN_OR_RETURN(std::unique_ptr<flwor::Expr> expr,
                      flwor::ParseQuery(query));
  return EvaluateToXml(*expr);
}

Result<std::string> NavigationalEvaluator::EvaluateToXml(
    const flwor::Expr& expr) {
  ResultBuilder out(doc_);
  BT_RETURN_NOT_OK(EvalExpr(expr, engine::Tuple{}, &out));
  return out.ToXml();
}

Status NavigationalEvaluator::EvalExpr(const flwor::Expr& expr,
                                       engine::Tuple tuple,
                                       ResultBuilder* out) {
  switch (expr.kind) {
    case flwor::Expr::Kind::kPath: {
      PathEvaluator ev(doc_);
      BT_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                          ev.EvaluateWith(expr.path, tuple, {}));
      nodes_visited_ += ev.NodesVisited();
      for (xml::NodeId n : nodes) out->CopyNode(n);
      return Status::OK();
    }
    case flwor::Expr::Kind::kConstructor:
      return out->Construct(*expr.ctor, [&](const flwor::Expr& item) {
        return EvalExpr(item, tuple, out);
      });
    case flwor::Expr::Kind::kFlwor: {
      PathEvaluator ev(doc_);
      BT_ASSIGN_OR_RETURN(engine::TupleTable tuples,
                          engine::NaiveFlworTuples(*expr.flwor, tuple, &ev));
      BT_ASSIGN_OR_RETURN(std::vector<uint32_t> order,
                          engine::OrderTuples(*expr.flwor, &ev, tuples));
      nodes_visited_ += ev.NodesVisited();
      for (uint32_t r : order) {
        BT_RETURN_NOT_OK(EvalExpr(*expr.flwor->ret, tuples.Row(r), out));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace baseline
}  // namespace blossomtree
