#include "flwor/ast.h"

namespace blossomtree {
namespace flwor {

namespace {

void CollectConjuncts(const BoolExpr& expr,
                      std::vector<const BoolExpr*>* out) {
  if (expr.kind != BoolExpr::Kind::kAnd) {
    out->push_back(&expr);
    return;
  }
  for (const auto& c : expr.children) CollectConjuncts(*c, out);
}

std::string OperandToString(const Operand& operand) {
  switch (operand.kind) {
    case Operand::Kind::kPath:
      return operand.path.ToString();
    case Operand::Kind::kCount:
      return "count(" + operand.path.ToString() + ")";
    case Operand::Kind::kLiteral: {
      // The parser reads literals up to the matching quote, so pick the
      // quote the literal does not contain.
      char quote =
          operand.literal.find('"') == std::string::npos ? '"' : '\'';
      return quote + operand.literal + quote;
    }
  }
  return "?";
}

}  // namespace

const char* WhereOpToString(WhereOp op) {
  switch (op) {
    case WhereOp::kDocBefore:
      return "<<";
    case WhereOp::kDocAfter:
      return ">>";
    case WhereOp::kEq:
      return "=";
    case WhereOp::kNeq:
      return "!=";
    case WhereOp::kIs:
      return "is";
    case WhereOp::kDeepEqual:
      return "deep-equal";
    case WhereOp::kExists:
      return "exists";
  }
  return "?";
}

std::vector<const BoolExpr*> Conjuncts(const BoolExpr& where) {
  std::vector<const BoolExpr*> out;
  CollectConjuncts(where, &out);
  return out;
}

std::string BoolExprToString(const BoolExpr& expr) {
  switch (expr.kind) {
    case BoolExpr::Kind::kAnd:
    case BoolExpr::Kind::kOr: {
      std::string out = "(";
      for (size_t i = 0; i < expr.children.size(); ++i) {
        if (i > 0) out += expr.kind == BoolExpr::Kind::kAnd ? " and " : " or ";
        out += BoolExprToString(*expr.children[i]);
      }
      return out + ")";
    }
    case BoolExpr::Kind::kNot:
      return "not(" + BoolExprToString(*expr.children[0]) + ")";
    case BoolExpr::Kind::kCompare:
      break;
  }
  switch (expr.op) {
    case WhereOp::kExists:
      return "exists(" + OperandToString(expr.left) + ")";
    case WhereOp::kDeepEqual:
      return "deep-equal(" + OperandToString(expr.left) + ", " +
             OperandToString(expr.right) + ")";
    default:
      return OperandToString(expr.left) + " " + WhereOpToString(expr.op) +
             " " + OperandToString(expr.right);
  }
}

}  // namespace flwor
}  // namespace blossomtree
