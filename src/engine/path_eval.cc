#include "engine/path_eval.h"

#include <algorithm>

#include "exec/value_ops.h"

namespace blossomtree {
namespace engine {

namespace {

bool TagTest(const xml::Document& doc, xml::NodeId n, const std::string& tag) {
  if (!doc.IsElement(n)) return false;
  return tag == "*" || doc.TagName(n) == tag;
}

void SortDedup(std::vector<xml::NodeId>* nodes) {
  std::sort(nodes->begin(), nodes->end());
  nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
}

}  // namespace

std::string_view FinalAttribute(const xpath::PathExpr& path) {
  if (path.steps.empty() ||
      path.steps.back().axis != xpath::Axis::kAttribute) {
    return {};
  }
  return path.steps.back().name;
}

Result<std::vector<xml::NodeId>> PathEvaluator::Evaluate(
    const xpath::PathExpr& path) {
  return EvaluateWith(path, /*env=*/{}, {});
}

Result<std::vector<xml::NodeId>> PathEvaluator::EvaluateWith(
    const xpath::PathExpr& path, const Env& env,
    const std::vector<xml::NodeId>& context) {
  switch (path.start) {
    case xpath::PathExpr::StartKind::kRoot:
      // The "virtual root" context: the first step's child axis reaches the
      // document root element, '//' reaches every element.
      if (path.steps.empty()) {
        return Status::InvalidArgument("absolute path with no steps");
      }
      if (doc_->empty()) return std::vector<xml::NodeId>{};
      {
        const xpath::Step& s0 = path.steps[0];
        std::vector<xml::NodeId> first;
        ++nodes_visited_;
        if (s0.axis == xpath::Axis::kChild) {
          if (TagTest(*doc_, doc_->Root(), s0.name)) {
            first.push_back(doc_->Root());
          }
        } else if (s0.axis == xpath::Axis::kDescendant) {
          CollectDescendants(doc_->Root(), s0.name, &first);
          if (TagTest(*doc_, doc_->Root(), s0.name)) {
            first.insert(first.begin(), doc_->Root());
          }
        } else {
          return Status::Unsupported("absolute path must start with / or //");
        }
        // Apply the first step's predicates.
        std::vector<xml::NodeId> kept;
        for (xml::NodeId n : first) {
          bool ok = true;
          for (const xpath::Predicate& p : s0.predicates) {
            if (p.kind == xpath::Predicate::Kind::kPosition) {
              if (SiblingRank(*doc_, n, s0.name) !=
                  static_cast<uint32_t>(p.position)) {
                ok = false;
                break;
              }
              continue;
            }
            BT_ASSIGN_OR_RETURN(bool pv, EvalPredicate(p, n));
            if (!pv) {
              ok = false;
              break;
            }
          }
          if (ok) kept.push_back(n);
        }
        return EvaluateSteps(path.steps, 1, kept);
      }
    case xpath::PathExpr::StartKind::kVariable:
      if (path.var_slot >= env.size()) {
        return Status::InvalidArgument("unbound variable $" + path.variable);
      }
      return EvaluateSteps(path.steps, 0, env[path.var_slot]);
    case xpath::PathExpr::StartKind::kContext:
      break;
  }
  return EvaluateSteps(path.steps, 0, context);
}

Result<std::vector<xml::NodeId>> PathEvaluator::EvaluateSteps(
    const std::vector<xpath::Step>& steps, size_t first,
    const std::vector<xml::NodeId>& context) {
  std::vector<xml::NodeId> cur = context;
  for (size_t i = first; i < steps.size(); ++i) {
    BT_ASSIGN_OR_RETURN(cur, ApplyStep(steps[i], cur));
  }
  return cur;
}

Result<std::vector<xml::NodeId>> PathEvaluator::ApplyStep(
    const xpath::Step& step, const std::vector<xml::NodeId>& context) {
  std::vector<xml::NodeId> out;
  for (xml::NodeId ctx : context) {
    if (step.axis == xpath::Axis::kSelf) {
      ++nodes_visited_;
      if (!step.name.empty() && !TagTest(*doc_, ctx, step.name)) continue;
      bool ok = true;
      for (const xpath::Predicate& p : step.predicates) {
        if (p.kind == xpath::Predicate::Kind::kPosition) {
          return Status::Unsupported("position predicate on self step");
        }
        BT_ASSIGN_OR_RETURN(bool pv, EvalPredicate(p, ctx));
        if (!pv) {
          ok = false;
          break;
        }
      }
      if (ok) out.push_back(ctx);
      continue;
    }
    if (step.axis == xpath::Axis::kAttribute) {
      // Attribute steps surface the owning element when the attribute
      // exists (matching the pattern engine's convention; see DESIGN.md).
      ++nodes_visited_;
      std::string_view v;
      if (doc_->AttributeValue(ctx, step.name, &v)) out.push_back(ctx);
      continue;
    }
    // Candidate nodes by axis.
    std::vector<xml::NodeId> candidates;
    switch (step.axis) {
      case xpath::Axis::kChild:
        for (xml::NodeId c = doc_->FirstChild(ctx); c != xml::kNullNode;
             c = doc_->NextSibling(c)) {
          ++nodes_visited_;
          if (TagTest(*doc_, c, step.name)) candidates.push_back(c);
        }
        break;
      case xpath::Axis::kDescendant:
        CollectDescendants(ctx, step.name, &candidates);
        break;
      case xpath::Axis::kFollowingSibling:
        for (xml::NodeId c = doc_->NextSibling(ctx); c != xml::kNullNode;
             c = doc_->NextSibling(c)) {
          ++nodes_visited_;
          if (TagTest(*doc_, c, step.name)) candidates.push_back(c);
        }
        break;
      case xpath::Axis::kParent: {
        xml::NodeId p = doc_->Parent(ctx);
        ++nodes_visited_;
        if (p != xml::kNullNode && TagTest(*doc_, p, step.name)) {
          candidates.push_back(p);
        }
        break;
      }
      case xpath::Axis::kAncestor:
        // Candidates in reverse document order (nearest first): positional
        // predicates on reverse axes count outward from the context.
        for (xml::NodeId p = doc_->Parent(ctx); p != xml::kNullNode;
             p = doc_->Parent(p)) {
          ++nodes_visited_;
          if (TagTest(*doc_, p, step.name)) candidates.push_back(p);
        }
        break;
      case xpath::Axis::kFollowing:
        // Everything after this subtree in document order.
        for (xml::NodeId n = doc_->SubtreeEnd(ctx) + 1; n < doc_->NumNodes();
             ++n) {
          ++nodes_visited_;
          if (TagTest(*doc_, n, step.name)) candidates.push_back(n);
        }
        break;
      case xpath::Axis::kPreceding:
        // Everything strictly before the context, excluding its ancestors,
        // in reverse document order (the axis direction).
        for (xml::NodeId n = ctx; n-- > 0;) {
          ++nodes_visited_;
          if (doc_->SubtreeEnd(n) >= ctx) continue;  // Ancestor of ctx.
          if (TagTest(*doc_, n, step.name)) candidates.push_back(n);
        }
        break;
      default:
        return Status::Unsupported("unsupported axis");
    }
    int axis_rank = 0;
    for (xml::NodeId n : candidates) {
      ++axis_rank;
      bool ok = true;
      for (const xpath::Predicate& p : step.predicates) {
        if (p.kind == xpath::Predicate::Kind::kPosition) {
          // Positions count per parent for / and // steps (XPath: the
          // predicate binds to the child step), and along the axis for
          // following-sibling and the reverse axes.
          long long rank =
              step.axis == xpath::Axis::kFollowingSibling ||
                      xpath::IsNavigationalOnlyAxis(step.axis)
                  ? axis_rank
                  : static_cast<long long>(
                        xml::SiblingRank(*doc_, n, step.name));
          if (rank != p.position) {
            ok = false;
            break;
          }
          continue;
        }
        BT_ASSIGN_OR_RETURN(bool pv, EvalPredicate(p, n));
        if (!pv) {
          ok = false;
          break;
        }
      }
      if (ok) out.push_back(n);
    }
  }
  SortDedup(&out);
  return out;
}

Result<bool> PathEvaluator::EvalPredicate(const xpath::Predicate& pred,
                                          xml::NodeId node) {
  BT_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                      EvaluateWith(*pred.path, /*env=*/{}, {node}));
  if (pred.kind == xpath::Predicate::Kind::kExists) {
    return !nodes.empty();
  }
  // Value comparison (general comparison semantics: some item matches).
  return exec::GeneralCompareLiteral(*doc_, nodes, pred.op, pred.literal,
                                     FinalAttribute(*pred.path));
}

void PathEvaluator::CollectDescendants(xml::NodeId n, const std::string& tag,
                                       std::vector<xml::NodeId>* out) {
  xml::NodeId end = doc_->SubtreeEnd(n);
  for (xml::NodeId i = n + 1; i <= end && i < doc_->NumNodes(); ++i) {
    ++nodes_visited_;
    if (TagTest(*doc_, i, tag)) out->push_back(i);
  }
}

}  // namespace engine
}  // namespace blossomtree
