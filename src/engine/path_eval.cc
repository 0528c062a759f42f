#include "engine/path_eval.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "exec/value_ops.h"

namespace blossomtree {
namespace engine {

namespace {

/// The context an absolute path starts from: the node above the document
/// root element. Only the child and descendant axes leave it.
constexpr xml::NodeId kVirtualRoot = static_cast<xml::NodeId>(-2);

/// Sorts and dedups `nodes` unless they already ascend strictly.
void SortDedup(std::vector<xml::NodeId>* nodes) {
  if (std::adjacent_find(nodes->begin(), nodes->end(),
                         std::greater_equal<>()) == nodes->end()) {
    return;
  }
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

TupleTable TupleTable::SortedDistinct() const {
  std::vector<uint32_t> order(rows);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return Compare(a, b) < 0; });
  TupleTable out{width};
  out.offsets.reserve(offsets.size());
  out.nodes.reserve(nodes.size());
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0 && Compare(order[i - 1], order[i]) == 0) continue;
    out.PushTuple(Row(order[i]));
    out.EndRow();
  }
  return out;
}

Result<std::vector<xml::NodeId>> PathEvaluator::Evaluate(
    const xpath::PathExpr& path) {
  return EvaluateWith(path, Tuple{}, {});
}

Result<std::vector<xml::NodeId>> PathEvaluator::EvaluateWith(
    const xpath::PathExpr& path, Tuple tuple,
    const std::vector<xml::NodeId>& context) {
  std::span<const xml::NodeId> start = context;
  switch (path.start) {
    case xpath::PathExpr::StartKind::kRoot:
      // From the virtual root: the first step's child axis reaches the
      // document root element, '//' reaches every element.
      if (path.steps.empty()) {
        return Status::InvalidArgument("absolute path with no steps");
      }
      if (doc_->empty()) return std::vector<xml::NodeId>{};
      if (path.steps[0].axis != xpath::Axis::kChild &&
          path.steps[0].axis != xpath::Axis::kDescendant) {
        return Status::Unsupported("absolute path must start with / or //");
      }
      start = {&kVirtualRoot, 1};
      break;
    case xpath::PathExpr::StartKind::kVariable:
      if (path.var_slot >= tuple.width()) {
        return Status::InvalidArgument("unbound variable $" + path.variable);
      }
      start = tuple.Slot(path.var_slot);
      break;
    case xpath::PathExpr::StartKind::kContext:
      break;
  }
  if (path.steps.empty()) {
    return std::vector<xml::NodeId>(start.begin(), start.end());
  }
  std::vector<xml::NodeId> cur;
  for (const xpath::Step& step : path.steps) {
    // The step reads all of `start` (possibly `cur`) before `cur` changes.
    BT_ASSIGN_OR_RETURN(cur, ApplyStep(step, start));
    start = cur;
  }
  return cur;
}

Result<std::vector<xml::NodeId>> PathEvaluator::ApplyStep(
    const xpath::Step& step, std::span<const xml::NodeId> context) {
  std::vector<xml::NodeId> out;
  // A step without predicates keeps every candidate: they go straight out.
  std::vector<xml::NodeId> candidates;
  std::vector<xml::NodeId>& hits = step.predicates.empty() ? out : candidates;
  // The name test, resolved once: "*" is any element, else an element
  // whose tag id is the name's (a name the document never interned is
  // kNullTag, which no element carries).
  const bool any = step.name == "*";
  const xml::TagId tag = any ? xml::kNullTag : doc_->tags().Lookup(step.name);
  auto name_ok = [&](xml::NodeId n) {
    return doc_->IsElement(n) && (any || doc_->Tag(n) == tag);
  };
  for (xml::NodeId ctx : context) {
    if (step.axis == xpath::Axis::kAttribute) {
      // Attribute steps surface the owning element when the attribute
      // exists (matching the pattern engine's convention; see DESIGN.md).
      ++nodes_visited_;
      std::string_view v;
      if (doc_->AttributeValue(ctx, step.name, &v)) out.push_back(ctx);
      continue;
    }
    // Candidate nodes by axis.
    candidates.clear();
    switch (step.axis) {
      case xpath::Axis::kSelf:
        ++nodes_visited_;
        if (step.name.empty() || name_ok(ctx)) {
          hits.push_back(ctx);
        }
        break;
      case xpath::Axis::kChild:
        if (ctx == kVirtualRoot) {  // Its one child: the root element.
          ++nodes_visited_;
          if (name_ok(doc_->Root())) {
            hits.push_back(doc_->Root());
          }
          break;
        }
        for (xml::NodeId c = doc_->FirstChild(ctx); c != xml::kNullNode;
             c = doc_->NextSibling(c)) {
          ++nodes_visited_;
          if (name_ok(c)) hits.push_back(c);
        }
        break;
      case xpath::Axis::kDescendant: {
        // The virtual root's descendants: the root element and its subtree.
        const bool top = ctx == kVirtualRoot;
        xml::NodeId end = doc_->SubtreeEnd(top ? doc_->Root() : ctx);
        for (xml::NodeId i = top ? doc_->Root() : ctx + 1;
             i <= end && i < doc_->NumNodes(); ++i) {
          ++nodes_visited_;
          if (name_ok(i)) hits.push_back(i);
        }
        break;
      }
      case xpath::Axis::kFollowingSibling:
        for (xml::NodeId c = doc_->NextSibling(ctx); c != xml::kNullNode;
             c = doc_->NextSibling(c)) {
          ++nodes_visited_;
          if (name_ok(c)) hits.push_back(c);
        }
        break;
      case xpath::Axis::kParent: {
        xml::NodeId p = doc_->Parent(ctx);
        ++nodes_visited_;
        if (p != xml::kNullNode && name_ok(p)) {
          hits.push_back(p);
        }
        break;
      }
      case xpath::Axis::kAncestor:
        // Candidates in reverse document order (nearest first): positional
        // predicates on reverse axes count outward from the context.
        for (xml::NodeId p = doc_->Parent(ctx); p != xml::kNullNode;
             p = doc_->Parent(p)) {
          ++nodes_visited_;
          if (name_ok(p)) hits.push_back(p);
        }
        break;
      case xpath::Axis::kFollowing:
        // Everything after this subtree in document order.
        for (xml::NodeId n = doc_->SubtreeEnd(ctx) + 1; n < doc_->NumNodes();
             ++n) {
          ++nodes_visited_;
          if (name_ok(n)) hits.push_back(n);
        }
        break;
      case xpath::Axis::kPreceding:
        // Everything strictly before the context, excluding its ancestors,
        // in reverse document order (the axis direction).
        for (xml::NodeId n = ctx; n-- > 0;) {
          ++nodes_visited_;
          if (doc_->SubtreeEnd(n) >= ctx) continue;  // Ancestor of ctx.
          if (name_ok(n)) hits.push_back(n);
        }
        break;
      default:
        return Status::Unsupported("unsupported axis");
    }
    if (step.predicates.empty()) continue;
    int axis_rank = 0;
    for (xml::NodeId n : candidates) {
      ++axis_rank;
      bool ok = true;
      for (const xpath::Predicate& p : step.predicates) {
        if (p.kind == xpath::Predicate::Kind::kPosition) {
          if (step.axis == xpath::Axis::kSelf) {
            return Status::Unsupported("position predicate on self step");
          }
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
                      EvaluateWith(*pred.path, Tuple{}, {node}));
  if (pred.kind == xpath::Predicate::Kind::kExists) {
    return !nodes.empty();
  }
  // Value comparison (general comparison semantics: some item matches).
  return exec::GeneralCompareLiteral(*doc_, nodes, pred.op, pred.literal,
                                     FinalAttribute(*pred.path));
}

}  // namespace engine
}  // namespace blossomtree
