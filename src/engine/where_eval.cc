#include "engine/where_eval.h"

#include "exec/value_ops.h"

namespace blossomtree {
namespace engine {

namespace {

/// Evaluates one operand to a node sequence; literals yield an empty node
/// list plus `*literal_out` set.
Result<std::vector<xml::NodeId>> EvalOperand(const flwor::Operand& op,
                                             const Env& env,
                                             PathEvaluator* evaluator,
                                             bool* is_literal,
                                             std::string* literal_out) {
  if (op.kind == flwor::Operand::Kind::kLiteral) {
    *is_literal = true;
    *literal_out = op.literal;
    return std::vector<xml::NodeId>{};
  }
  if (op.kind == flwor::Operand::Kind::kCount) {
    BT_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                        evaluator->EvaluateWith(op.path, env, {}));
    *is_literal = true;
    *literal_out = std::to_string(nodes.size());
    return std::vector<xml::NodeId>{};
  }
  *is_literal = false;
  return evaluator->EvaluateWith(op.path, env, {});
}

Result<bool> EvalCompare(const flwor::BoolExpr& expr, const Env& env,
                         const xml::Document& doc,
                         PathEvaluator* evaluator) {
  if (expr.op == flwor::WhereOp::kExists) {
    if (expr.left.kind != flwor::Operand::Kind::kPath) {
      return Status::InvalidArgument("exists() requires a path operand");
    }
    BT_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                        evaluator->EvaluateWith(expr.left.path, env, {}));
    return !nodes.empty();
  }
  bool l_lit = false;
  bool r_lit = false;
  std::string l_str;
  std::string r_str;
  BT_ASSIGN_OR_RETURN(std::vector<xml::NodeId> lhs,
                      EvalOperand(expr.left, env, evaluator, &l_lit, &l_str));
  BT_ASSIGN_OR_RETURN(
      std::vector<xml::NodeId> rhs,
      EvalOperand(expr.right, env, evaluator, &r_lit, &r_str));

  switch (expr.op) {
    case flwor::WhereOp::kEq:
    case flwor::WhereOp::kNeq: {
      xpath::CompareOp op = expr.op == flwor::WhereOp::kEq
                                ? xpath::CompareOp::kEq
                                : xpath::CompareOp::kNeq;
      if (l_lit && r_lit) {
        return exec::CompareValues(l_str, op, r_str);
      }
      // Operand paths ending in an attribute step compare the attribute's
      // value, not its owner element's.
      if (l_lit) {
        return exec::GeneralCompareLiteral(doc, rhs, op, l_str,
                                           FinalAttribute(expr.right.path));
      }
      if (r_lit) {
        return exec::GeneralCompareLiteral(doc, lhs, op, r_str,
                                           FinalAttribute(expr.left.path));
      }
      return exec::GeneralCompare(doc, lhs, op, rhs,
                                  FinalAttribute(expr.left.path),
                                  FinalAttribute(expr.right.path));
    }
    case flwor::WhereOp::kDocBefore:
    case flwor::WhereOp::kDocAfter: {
      if (l_lit || r_lit) {
        return Status::InvalidArgument("'<<' requires node operands");
      }
      if (lhs.empty() || rhs.empty()) return false;
      if (lhs.size() != 1 || rhs.size() != 1) {
        return Status::InvalidArgument("'<<' requires singleton operands");
      }
      return expr.op == flwor::WhereOp::kDocBefore ? lhs[0] < rhs[0]
                                                   : lhs[0] > rhs[0];
    }
    case flwor::WhereOp::kIs: {
      if (l_lit || r_lit) {
        return Status::InvalidArgument("'is' requires node operands");
      }
      if (lhs.empty() || rhs.empty()) return false;
      if (lhs.size() != 1 || rhs.size() != 1) {
        return Status::InvalidArgument("'is' requires singleton operands");
      }
      return lhs[0] == rhs[0];
    }
    case flwor::WhereOp::kDeepEqual: {
      if (l_lit || r_lit) {
        return Status::InvalidArgument("deep-equal requires node operands");
      }
      return exec::DeepEqualSequences(doc, lhs, rhs);
    }
    case flwor::WhereOp::kExists:
      break;  // Handled above.
  }
  return Status::Internal("unhandled comparison operator");
}

}  // namespace

Result<bool> EvalWhere(const flwor::BoolExpr& expr, const Env& env,
                       const xml::Document& doc, PathEvaluator* evaluator) {
  switch (expr.kind) {
    case flwor::BoolExpr::Kind::kAnd:
      for (const auto& c : expr.children) {
        BT_ASSIGN_OR_RETURN(bool v, EvalWhere(*c, env, doc, evaluator));
        if (!v) return false;
      }
      return true;
    case flwor::BoolExpr::Kind::kOr:
      for (const auto& c : expr.children) {
        BT_ASSIGN_OR_RETURN(bool v, EvalWhere(*c, env, doc, evaluator));
        if (v) return true;
      }
      return false;
    case flwor::BoolExpr::Kind::kNot: {
      BT_ASSIGN_OR_RETURN(bool v,
                          EvalWhere(*expr.children[0], env, doc, evaluator));
      return !v;
    }
    case flwor::BoolExpr::Kind::kCompare:
      return EvalCompare(expr, env, doc, evaluator);
  }
  return Status::Internal("unhandled boolean kind");
}

}  // namespace engine
}  // namespace blossomtree
