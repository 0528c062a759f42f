#include "engine/where_eval.h"

#include <optional>
#include <string>

#include "exec/value_ops.h"

namespace blossomtree {
namespace engine {

namespace {

/// One comparison operand: a node sequence, or an atomic value (a literal,
/// or the size of a count()'s sequence).
struct Operand {
  std::vector<xml::NodeId> nodes;
  std::optional<std::string> value;
};

Result<Operand> EvalOperand(const flwor::Operand& op, Tuple tuple,
                            PathEvaluator* evaluator) {
  if (op.kind == flwor::Operand::Kind::kLiteral) {
    return Operand{{}, op.literal};
  }
  BT_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                      evaluator->EvaluateWith(op.path, tuple, {}));
  if (op.kind == flwor::Operand::Kind::kCount) {
    return Operand{{}, std::to_string(nodes.size())};
  }
  return Operand{std::move(nodes), std::nullopt};
}

Result<bool> EvalCompare(const flwor::BoolExpr& expr, Tuple tuple,
                         const xml::Document& doc,
                         PathEvaluator* evaluator) {
  if (expr.op == flwor::WhereOp::kExists) {
    if (expr.left.kind != flwor::Operand::Kind::kPath) {
      return Status::InvalidArgument("exists() requires a path operand");
    }
    BT_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                        evaluator->EvaluateWith(expr.left.path, tuple, {}));
    return !nodes.empty();
  }
  BT_ASSIGN_OR_RETURN(Operand l, EvalOperand(expr.left, tuple, evaluator));
  BT_ASSIGN_OR_RETURN(Operand r, EvalOperand(expr.right, tuple, evaluator));
  if (expr.op == flwor::WhereOp::kEq || expr.op == flwor::WhereOp::kNeq) {
    xpath::CompareOp op = expr.op == flwor::WhereOp::kEq
                              ? xpath::CompareOp::kEq
                              : xpath::CompareOp::kNeq;
    if (l.value && r.value) return exec::CompareValues(*l.value, op, *r.value);
    // Operand paths ending in an attribute step compare the attribute's
    // value, not its owner element's.
    if (l.value) {
      return exec::GeneralCompareLiteral(doc, r.nodes, op, *l.value,
                                         FinalAttribute(expr.right.path));
    }
    if (r.value) {
      return exec::GeneralCompareLiteral(doc, l.nodes, op, *r.value,
                                         FinalAttribute(expr.left.path));
    }
    return exec::GeneralCompare(doc, l.nodes, op, r.nodes,
                                FinalAttribute(expr.left.path),
                                FinalAttribute(expr.right.path));
  }
  // The node operators: `<<`/`>>` and `is` on singletons, deep-equal on
  // whole sequences.
  const std::string name = expr.op == flwor::WhereOp::kDeepEqual ? "deep-equal"
                           : expr.op == flwor::WhereOp::kIs      ? "'is'"
                                                                 : "'<<'";
  if (l.value || r.value) {
    return Status::InvalidArgument(name + " requires node operands");
  }
  if (expr.op == flwor::WhereOp::kDeepEqual) {
    return exec::DeepEqualSequences(doc, l.nodes, r.nodes);
  }
  if (l.nodes.empty() || r.nodes.empty()) return false;
  if (l.nodes.size() != 1 || r.nodes.size() != 1) {
    return Status::InvalidArgument(name + " requires singleton operands");
  }
  switch (expr.op) {
    case flwor::WhereOp::kDocBefore:
      return l.nodes[0] < r.nodes[0];
    case flwor::WhereOp::kDocAfter:
      return l.nodes[0] > r.nodes[0];
    case flwor::WhereOp::kIs:
      return l.nodes[0] == r.nodes[0];
    default:
      return Status::Internal("unhandled comparison operator");
  }
}

}  // namespace

Result<bool> EvalWhere(const flwor::BoolExpr& expr, Tuple tuple,
                       const xml::Document& doc, PathEvaluator* evaluator) {
  switch (expr.kind) {
    case flwor::BoolExpr::Kind::kAnd:
      for (const auto& c : expr.children) {
        BT_ASSIGN_OR_RETURN(bool v, EvalWhere(*c, tuple, doc, evaluator));
        if (!v) return false;
      }
      return true;
    case flwor::BoolExpr::Kind::kOr:
      for (const auto& c : expr.children) {
        BT_ASSIGN_OR_RETURN(bool v, EvalWhere(*c, tuple, doc, evaluator));
        if (v) return true;
      }
      return false;
    case flwor::BoolExpr::Kind::kNot: {
      BT_ASSIGN_OR_RETURN(bool v,
                          EvalWhere(*expr.children[0], tuple, doc, evaluator));
      return !v;
    }
    case flwor::BoolExpr::Kind::kCompare:
      return EvalCompare(expr, tuple, doc, evaluator);
  }
  return Status::Internal("unhandled boolean kind");
}

}  // namespace engine
}  // namespace blossomtree
