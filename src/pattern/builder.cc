#include "pattern/builder.h"

#include <string>
#include <vector>

namespace blossomtree {
namespace pattern {

namespace {

class Builder {
 public:
  Result<BlossomTree> FromFlwor(const flwor::Flwor& flwor,
                                std::vector<uint32_t>* residual) {
    for (const flwor::Binding& b : flwor.bindings) {
      EdgeMode mode = b.kind == flwor::Binding::Kind::kLet ? EdgeMode::kLet
                                                           : EdgeMode::kFor;
      if (b.var_slot == xpath::kNoVarSlot) {
        return Status::InvalidArgument("$" + b.var + " has no resolved slot");
      }
      // Each binding gets vertices of its own: two bindings sharing a
      // prefix vertex would have to match the same node there.
      BT_ASSIGN_OR_RETURN(VertexId v, AddPath(b.path, mode, /*reuse=*/false));
      // The binder binds one variable per vertex, and a let's whole
      // sequence without iterating below it.
      VertexId u = v;
      while (u != kNoVertex && tree_.vertex(u).var_slot == xpath::kNoVarSlot) {
        u = tree_.vertex(u).parent;
      }
      bool below_let = u != kNoVertex && tree_.vertex(u).mode == EdgeMode::kLet;
      if (u == v || below_let) {
        return Status::Unsupported("$" + b.var + " aliases or nests in $" +
                                   tree_.vertex(u).variable);
      }
      tree_.MarkReturning(v, b.var);
      tree_.mutable_vertex(v).var_slot = b.var_slot;
      if (vars_.size() <= b.var_slot) vars_.resize(b.var_slot + 1, kNoVertex);
      vars_[b.var_slot] = v;
    }
    if (flwor.where != nullptr) {
      std::vector<const flwor::BoolExpr*> conjuncts =
          flwor::Conjuncts(*flwor.where);
      for (uint32_t i = 0; i < conjuncts.size(); ++i) {
        if (PushConjunct(*conjuncts[i])) continue;
        if (residual != nullptr) residual->push_back(i);
        BT_RETURN_NOT_OK(AddWhere(*conjuncts[i], /*negated=*/false));
      }
    }
    return Finish();
  }

  Result<BlossomTree> FromPath(const xpath::PathExpr& path) {
    BT_ASSIGN_OR_RETURN(VertexId v, AddPath(path, EdgeMode::kFor,
                                            /*reuse=*/true));
    tree_.MarkReturning(v, "result");
    return Finish();
  }

 private:
  Result<BlossomTree> Finish() {
    // Mark global-edge endpoints returning: decomposition (Algorithm 1)
    // cuts these edges, and the joins that reconnect the NoK pieces address
    // their inputs by Dewey ID, so both endpoints need slots. The planner
    // drops the trivial join below the virtual root (the scan subsumes it),
    // so neither end of a `~//v` edge needs one: a binding or `result`
    // still marks `v`.
    for (VertexId v = 0; v < tree_.NumVertices(); ++v) {
      const Vertex& vx = tree_.vertex(v);
      if (vx.parent != kNoVertex && !xpath::IsLocalAxis(vx.axis) &&
          !tree_.vertex(vx.parent).IsVirtualRoot()) {
        tree_.MarkReturning(v);
        tree_.MarkReturning(vx.parent);
      }
    }
    for (const CrossEdge& e : tree_.cross_edges()) {
      tree_.MarkReturning(e.left);
      tree_.MarkReturning(e.right);
    }
    BT_RETURN_NOT_OK(tree_.Finalize());
    return std::move(tree_);
  }

  /// Adds the vertices for `path`; returns the terminal vertex.
  Result<VertexId> AddPath(const xpath::PathExpr& path, EdgeMode mode,
                           bool reuse) {
    VertexId anchor = kNoVertex;
    switch (path.start) {
      case xpath::PathExpr::StartKind::kRoot:
        // Each absolute path starts its own pattern tree (Figure 1 has two
        // roots, one per doc()-rooted for-clause).
        anchor = tree_.AddRoot("~");
        break;
      case xpath::PathExpr::StartKind::kVariable: {
        BT_ASSIGN_OR_RETURN(anchor, VariableVertex(path));
        break;
      }
      case xpath::PathExpr::StartKind::kContext:
        return Status::InvalidArgument(
            "context-relative path outside a predicate");
    }
    return Extend(anchor, path, /*first_step=*/0, mode, reuse);
  }

  /// The blossom of the binding `path`'s variable reference resolved to.
  Result<VertexId> VariableVertex(const xpath::PathExpr& path) const {
    if (path.var_slot >= vars_.size() || vars_[path.var_slot] == kNoVertex) {
      return Status::InvalidArgument("unbound variable $" + path.variable);
    }
    return vars_[path.var_slot];
  }

  /// Extends the pattern from `anchor` along path.steps[first_step..];
  /// returns the terminal vertex. `anchor_owned`: the anchor was added for
  /// the step whose predicate `path` is, so a self step may narrow its name
  /// test (see SelfTest); a variable's vertex or a reused one is shared.
  Result<VertexId> Extend(VertexId anchor, const xpath::PathExpr& path,
                          size_t first_step, EdgeMode mode, bool reuse,
                          bool anchor_owned = false) {
    VertexId cur = anchor;
    bool owned = anchor_owned;
    for (size_t i = first_step; i < path.steps.size(); ++i) {
      const xpath::Step& step = path.steps[i];
      if (xpath::IsNavigationalOnlyAxis(step.axis)) {
        return Status::Unsupported(
            "axis '" + std::string(xpath::AxisToString(step.axis)) +
            "' cannot appear in a BlossomTree; evaluate navigationally");
      }
      if (step.axis == xpath::Axis::kSelf) {
        // Stay on the current vertex; predicates apply to it.
        BT_RETURN_NOT_OK(SelfTest(cur, step, owned));
        BT_RETURN_NOT_OK(ApplyPredicates(cur, step, owned));
        continue;
      }
      std::string tag = step.axis == xpath::Axis::kAttribute
                            ? "@" + step.name
                            : step.name;
      VertexId next = kNoVertex;
      if (reuse && step.predicates.empty()) {
        // Reuse an existing constraint-free child with the same tag/axis so
        // repeated references like $b/title (in where and return) share one
        // vertex, as in Figure 1.
        for (VertexId c : tree_.vertex(cur).children) {
          const Vertex& cv = tree_.vertex(c);
          if (cv.tag == tag && cv.axis == step.axis && cv.mode == mode &&
              !cv.value && cv.position == 0) {
            next = c;
            break;
          }
        }
      }
      owned = next == kNoVertex;
      if (owned) {
        next = tree_.AddChild(cur, tag, step.axis, mode);
        BT_RETURN_NOT_OK(ApplyPredicates(next, step, /*owned=*/true));
      }
      cur = next;
    }
    return cur;
  }

  /// A self step's test on vertex `v`: "." and "*" keep every node `v`
  /// matches, as does the name `v` already tests for. A named test narrows
  /// an owned "*" vertex without a positional predicate to that name. Any
  /// other test the pattern cannot express, and the navigator answers.
  Status SelfTest(VertexId v, const xpath::Step& step, bool owned) {
    Vertex& vx = tree_.mutable_vertex(v);
    for (const xpath::Predicate& pred : step.predicates) {
      if (pred.kind == xpath::Predicate::Kind::kPosition) {
        return Status::Unsupported("position predicate on self step");
      }
    }
    if (step.name.empty()) return Status::OK();
    bool element_vertex = !vx.IsVirtualRoot() && vx.tag[0] != '@';
    if (element_vertex && (step.name == "*" || vx.tag == step.name)) {
      return Status::OK();
    }
    if (owned && vx.MatchesAnyTag() && vx.position == 0) {
      vx.tag = step.name;
      return Status::OK();
    }
    return Status::Unsupported("self::" + step.name + " on '" + vx.tag + "'");
  }

  Status ApplyPredicates(VertexId v, const xpath::Step& step, bool owned) {
    for (const xpath::Predicate& pred : step.predicates) {
      // Positions count among the step's own name test (xml::SiblingRank),
      // so no self test may narrow the vertex they count on.
      if (pred.kind == xpath::Predicate::Kind::kPosition) owned = false;
    }
    auto branch = [&](const xpath::PathExpr& path) {
      return Extend(v, path, 0, EdgeMode::kFor, /*reuse=*/false, owned);
    };
    for (const xpath::Predicate& pred : step.predicates) {
      switch (pred.kind) {
        case xpath::Predicate::Kind::kPosition:
          tree_.mutable_vertex(v).position = pred.position;
          break;
        case xpath::Predicate::Kind::kExists: {
          // Existential subtree: mandatory for this vertex to match, never
          // returning.
          BT_RETURN_NOT_OK(branch(*pred.path).status());
          break;
        }
        case xpath::Predicate::Kind::kValueCompare: {
          BT_ASSIGN_OR_RETURN(VertexId target, branch(*pred.path));
          Vertex& tv = tree_.mutable_vertex(target);
          if (tv.value) {
            return Status::Unsupported(
                "multiple value constraints on one vertex");
          }
          tv.value = ValueConstraint{pred.op, pred.literal};
          break;
        }
      }
    }
    return Status::OK();
  }

  /// Turns a top-level where conjunct into the vertex constraint a step
  /// predicate would build, when the pattern can enforce it alone:
  ///  - `$v/p = "lit"` / `$v/p != "lit"` (the literal on either side)
  ///    becomes the f-mode branch of `[p op "lit"]` under $v's vertex; a
  ///    zero-step `$v op "lit"` constrains that vertex itself;
  ///  - `exists($v/p)` becomes the existential f-mode branch of `[p]`.
  /// `$v` must be for-bound in this FLWOR: a for-bound variable holds one
  /// node, so "some node of $v/p satisfies op" is exactly the branch's
  /// existential match. Returns false, changing nothing, for any other
  /// conjunct, and for one whose literal would land on a vertex that
  /// already has a value constraint (`$v/b[. = "1"] = "2"`); the engine
  /// then evaluates it on each tuple.
  bool PushConjunct(const flwor::BoolExpr& c) {
    using flwor::Operand;
    if (c.kind != flwor::BoolExpr::Kind::kCompare) return false;
    const Operand* operand = &c.left;
    const std::string* literal = nullptr;
    switch (c.op) {
      case flwor::WhereOp::kExists:
        break;
      case flwor::WhereOp::kEq:
      case flwor::WhereOp::kNeq:
        if (c.right.kind == Operand::Kind::kLiteral) {
          literal = &c.right.literal;
        } else if (c.left.kind == Operand::Kind::kLiteral) {
          literal = &c.left.literal;
          operand = &c.right;
        } else {
          return false;
        }
        break;
      default:
        return false;
    }
    if (operand->kind != Operand::Kind::kPath) return false;
    const xpath::PathExpr& path = operand->path;
    if (path.start != xpath::PathExpr::StartKind::kVariable) return false;
    Result<VertexId> var = VariableVertex(path);
    // A binding's vertex carries its clause's edge mode: kFor iff for-bound.
    if (!var.ok() || tree_.vertex(*var).mode != EdgeMode::kFor) return false;
    VertexId anchor = *var;
    const std::string& anchor_tag = tree_.vertex(anchor).tag;
    if (!anchor_tag.empty() && anchor_tag[0] == '@') return false;
    if (!PushableSteps(path, /*in_predicate=*/false)) return false;
    // Extend refuses some predicate shapes (two value constraints on one
    // vertex), and the literal must not replace a constraint the operand's
    // own predicates or the binding put on its target: extend a copy and
    // keep it only if both hold.
    BlossomTree before = tree_;
    Result<VertexId> target =
        Extend(anchor, path, 0, EdgeMode::kFor, /*reuse=*/false);
    if (!target.ok() || (literal != nullptr && tree_.vertex(*target).value)) {
      tree_ = std::move(before);
      return false;
    }
    if (literal != nullptr) {
      xpath::CompareOp op = c.op == flwor::WhereOp::kEq
                                ? xpath::CompareOp::kEq
                                : xpath::CompareOp::kNeq;
      tree_.mutable_vertex(*target).value = ValueConstraint{op, *literal};
    }
    return true;
  }

  /// Whether `path`'s steps, and the paths of their predicates, build a
  /// branch the NoK matcher evaluates as the navigational evaluator does:
  /// child and descendant steps, an attribute step only last and without
  /// predicates (the matcher checks an attribute vertex on its owner and
  /// never descends below it), and, inside predicates, the bare `.` with
  /// no positional predicate. Named self steps are left to the evaluator,
  /// as are reverse and following axes, which Extend cannot place in a
  /// pattern.
  static bool PushableSteps(const xpath::PathExpr& path, bool in_predicate) {
    for (size_t i = 0; i < path.steps.size(); ++i) {
      const xpath::Step& step = path.steps[i];
      switch (step.axis) {
        case xpath::Axis::kChild:
        case xpath::Axis::kDescendant:
          break;
        case xpath::Axis::kAttribute:
          if (i + 1 != path.steps.size() || !step.predicates.empty()) {
            return false;
          }
          break;
        case xpath::Axis::kSelf:
          if (!in_predicate || !step.name.empty()) return false;
          break;
        default:
          return false;
      }
      for (const xpath::Predicate& pred : step.predicates) {
        if (pred.kind == xpath::Predicate::Kind::kPosition) {
          if (step.axis == xpath::Axis::kSelf) return false;
          continue;
        }
        if (!PushableSteps(*pred.path, /*in_predicate=*/true)) return false;
      }
    }
    return true;
  }

  /// Walks a residual where conjunct; (possibly negated) comparisons
  /// between variable-rooted paths inside it become crossing edges. Nothing
  /// else is represented: or-branches, literal and count comparisons that
  /// PushConjunct did not take, and exists() stay with the engine, which
  /// evaluates every residual conjunct on each candidate tuple.
  Status AddWhere(const flwor::BoolExpr& expr, bool negated) {
    using flwor::BoolExpr;
    switch (expr.kind) {
      case BoolExpr::Kind::kAnd:
        if (negated) return Status::OK();  // not(a and b): not a conjunction.
        for (const auto& c : expr.children) {
          BT_RETURN_NOT_OK(AddWhere(*c, false));
        }
        return Status::OK();
      case BoolExpr::Kind::kNot:
        return AddWhere(*expr.children[0], !negated);
      case BoolExpr::Kind::kOr:
        return Status::OK();  // Residual; evaluated by the engine.
      case BoolExpr::Kind::kCompare:
        break;
    }
    if (expr.op == flwor::WhereOp::kExists ||
        expr.left.kind != flwor::Operand::Kind::kPath ||
        expr.right.kind != flwor::Operand::Kind::kPath ||
        !VariableVertex(expr.left.path).ok() ||
        !VariableVertex(expr.right.path).ok()) {
      // Unary, literal or count comparison, or an operand that is not
      // rooted at a variable of this FLWOR: no edge.
      return Status::OK();
    }
    auto lv = OperandVertex(expr.left.path);
    auto rv = OperandVertex(expr.right.path);
    if (!lv.ok() || !rv.ok()) return Status::OK();
    VertexId left = *lv;
    VertexId right = *rv;
    CrossKind kind;
    switch (expr.op) {
      case flwor::WhereOp::kDocBefore:
        kind = CrossKind::kDocBefore;
        break;
      case flwor::WhereOp::kDocAfter:
        kind = CrossKind::kDocBefore;
        std::swap(left, right);
        break;
      case flwor::WhereOp::kEq:
        kind = CrossKind::kValueEq;
        break;
      case flwor::WhereOp::kNeq:
        kind = CrossKind::kValueNeq;
        break;
      case flwor::WhereOp::kIs:
        kind = CrossKind::kIs;
        break;
      case flwor::WhereOp::kDeepEqual:
        kind = CrossKind::kDeepEqual;
        break;
      default:
        return Status::OK();
    }
    tree_.AddCrossEdge(left, right, kind, negated);
    return Status::OK();
  }

  Result<VertexId> OperandVertex(const xpath::PathExpr& path) {
    if (path.start != xpath::PathExpr::StartKind::kVariable) {
      return Status::Unsupported("operand is not variable-rooted");
    }
    BT_ASSIGN_OR_RETURN(VertexId anchor, VariableVertex(path));
    // Where-operand paths are *optional* (l-mode): a comparison operand may
    // evaluate to the empty sequence without disqualifying the tuple (e.g.
    // deep-equal over two empty author sequences is true — Example 2).
    // Figure 1 draws these edges bold, but XQuery semantics requires the
    // optional interpretation.
    return Extend(anchor, path, 0, EdgeMode::kLet, /*reuse=*/true);
  }

  BlossomTree tree_;
  /// Blossom of each variable slot bound so far (kNoVertex for slots of
  /// enclosing FLWORs).
  std::vector<VertexId> vars_;
};

const flwor::Flwor* FindFlwor(const flwor::Expr& expr) {
  switch (expr.kind) {
    case flwor::Expr::Kind::kFlwor:
      return expr.flwor.get();
    case flwor::Expr::Kind::kConstructor:
      for (const auto& item : expr.ctor->items) {
        if (item.expr != nullptr) {
          if (const flwor::Flwor* f = FindFlwor(*item.expr)) return f;
        }
      }
      return nullptr;
    case flwor::Expr::Kind::kPath:
      return nullptr;
  }
  return nullptr;
}

}  // namespace

Result<BlossomTree> BuildFromFlwor(const flwor::Flwor& flwor,
                                   std::vector<uint32_t>* residual) {
  Builder b;
  return b.FromFlwor(flwor, residual);
}

Result<BlossomTree> BuildFromPath(const xpath::PathExpr& path) {
  Builder b;
  return b.FromPath(path);
}

Result<BlossomTree> BuildFromQuery(const flwor::Expr& expr) {
  if (expr.kind == flwor::Expr::Kind::kPath) {
    return BuildFromPath(expr.path);
  }
  if (const flwor::Flwor* f = FindFlwor(expr)) {
    return BuildFromFlwor(*f);
  }
  return Status::Unsupported("query contains no FLWOR or path expression");
}

}  // namespace pattern
}  // namespace blossomtree
