#include "baseline/navigational.h"

#include "engine/engine.h"
#include "flwor/parser.h"

namespace blossomtree {
namespace baseline {

using engine::Env;
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
  BT_RETURN_NOT_OK(EvalExpr(expr, Env{}, &out));
  return out.ToXml();
}

Status NavigationalEvaluator::EvalExpr(const flwor::Expr& expr,
                                       const Env& env, ResultBuilder* out) {
  switch (expr.kind) {
    case flwor::Expr::Kind::kPath: {
      PathEvaluator ev(doc_);
      BT_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                          ev.EvaluateWith(expr.path, env, {}));
      nodes_visited_ += ev.NodesVisited();
      for (xml::NodeId n : nodes) out->CopyNode(n);
      return Status::OK();
    }
    case flwor::Expr::Kind::kConstructor: {
      out->BeginElement(expr.ctor->name);
      for (const auto& [name, value] : expr.ctor->attributes) {
        out->AddAttribute(name, value);
      }
      for (const flwor::ConstructorItem& item : expr.ctor->items) {
        if (item.kind == flwor::ConstructorItem::Kind::kText) {
          out->AddText(item.text);
        } else {
          BT_RETURN_NOT_OK(EvalExpr(*item.expr, env, out));
        }
      }
      out->EndElement();
      return Status::OK();
    }
    case flwor::Expr::Kind::kFlwor: {
      PathEvaluator ev(doc_);
      BT_ASSIGN_OR_RETURN(std::vector<Env> tuples,
                          engine::NaiveFlworTuples(*expr.flwor, env, &ev));
      BT_RETURN_NOT_OK(engine::OrderTuples(*expr.flwor, &ev, &tuples));
      nodes_visited_ += ev.NodesVisited();
      for (const Env& t : tuples) {
        BT_RETURN_NOT_OK(EvalExpr(*expr.flwor->ret, t, out));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace baseline
}  // namespace blossomtree
