#include "xpath/ast.h"

namespace blossomtree {
namespace xpath {

const char* AxisToString(Axis axis) {
  switch (axis) {
    case Axis::kChild:
      return "/";
    case Axis::kDescendant:
      return "//";
    case Axis::kFollowingSibling:
      return "following-sibling::";
    case Axis::kSelf:
      return ".";
    case Axis::kAttribute:
      return "@";
    case Axis::kParent:
      return "parent::";
    case Axis::kAncestor:
      return "ancestor::";
    case Axis::kFollowing:
      return "following::";
    case Axis::kPreceding:
      return "preceding::";
  }
  return "?";
}

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNeq:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

void AppendStep(const Step& step, bool first, bool context_start,
                std::string* out) {
  switch (step.axis) {
    case Axis::kChild:
      if (!(first && context_start)) *out += "/";
      break;
    case Axis::kDescendant:
      *out += "//";
      break;
    case Axis::kFollowingSibling:
      if (!(first && context_start)) *out += "/";
      *out += "following-sibling::";
      break;
    case Axis::kSelf:
      if (step.name.empty()) {
        *out += ".";
        return;  // Bare context step.
      }
      if (!(first && context_start)) *out += "/";
      *out += "self::";
      break;
    case Axis::kAttribute:
      if (!(first && context_start)) *out += "/";
      *out += "@";
      break;
    case Axis::kParent:
      if (!(first && context_start)) *out += "/";
      *out += "parent::";
      break;
    case Axis::kAncestor:
      if (!(first && context_start)) *out += "/";
      *out += "ancestor::";
      break;
    case Axis::kFollowing:
      if (!(first && context_start)) *out += "/";
      *out += "following::";
      break;
    case Axis::kPreceding:
      if (!(first && context_start)) *out += "/";
      *out += "preceding::";
      break;
  }
  *out += step.name;
  for (const Predicate& p : step.predicates) {
    *out += "[";
    switch (p.kind) {
      case Predicate::Kind::kExists:
        *out += p.path->ToString();
        break;
      case Predicate::Kind::kValueCompare:
        *out += p.path->ToString();
        *out += " ";
        *out += CompareOpToString(p.op);
        *out += " \"";
        *out += p.literal;
        *out += "\"";
        break;
      case Predicate::Kind::kPosition:
        *out += std::to_string(p.position);
        break;
    }
    *out += "]";
  }
}

}  // namespace

std::string PathExpr::ToString() const {
  std::string out;
  bool context_start = false;
  switch (start) {
    case StartKind::kRoot:
      if (!document.empty()) {
        out += "doc(\"" + document + "\")";
      }
      break;
    case StartKind::kVariable:
      out += "$" + variable;
      break;
    case StartKind::kContext:
      context_start = true;
      break;
  }
  if (steps.empty() && context_start) return ".";
  for (size_t i = 0; i < steps.size(); ++i) {
    AppendStep(steps[i], i == 0, context_start, &out);
  }
  return out;
}

PathExpr ClonePath(const PathExpr& path) {
  PathExpr out;
  out.start = path.start;
  out.document = path.document;
  out.variable = path.variable;
  out.var_slot = path.var_slot;
  out.steps.reserve(path.steps.size());
  for (const Step& s : path.steps) {
    Step copy;
    copy.axis = s.axis;
    copy.name = s.name;
    for (const Predicate& p : s.predicates) {
      Predicate pc;
      pc.kind = p.kind;
      pc.op = p.op;
      pc.literal = p.literal;
      pc.position = p.position;
      if (p.path) {
        pc.path = std::make_unique<PathExpr>(ClonePath(*p.path));
      }
      copy.predicates.push_back(std::move(pc));
    }
    out.steps.push_back(std::move(copy));
  }
  return out;
}

}  // namespace xpath
}  // namespace blossomtree
