#include "opt/planner.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "exec/joins.h"
#include "nestedlist/ops.h"
#include "opt/cost_model.h"
#include "pattern/fingerprint.h"
#include "pattern/paths.h"
#include "util/trace.h"

namespace blossomtree {
namespace opt {

using exec::NestedListOperator;
using exec::NokScanOperator;
using pattern::Connection;
using pattern::Decomposition;
using pattern::VertexId;

const char* JoinStrategyToString(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kAuto:
      return "auto";
    case JoinStrategy::kPipelined:
      return "pipelined";
    case JoinStrategy::kBoundedNestedLoop:
      return "bounded-nested-loop";
    case JoinStrategy::kNaiveNestedLoop:
      return "naive-nested-loop";
  }
  return "?";
}

namespace {

bool IsTrivialRootNok(const pattern::BlossomTree& tree,
                      const pattern::NokTree& nok) {
  return nok.vertices.size() == 1 && tree.vertex(nok.root).IsVirtualRoot();
}

/// True when connection `c` is an existential `//` leaf: `c.to` is a bare,
/// unbound, mandatory element leaf (its value constraint allowed), so the
/// join only asks whether some match lies under each `c.from` — a question
/// the matcher answers on `c.to`'s tag stream (NokTree::probes).
bool ProbeEligible(const pattern::BlossomTree& tree, const Connection& c) {
  const pattern::Vertex& from = tree.vertex(c.from);
  const pattern::Vertex& to = tree.vertex(c.to);
  if (from.IsVirtualRoot() || from.tag.empty() || from.tag[0] == '@') {
    return false;
  }
  if (!to.children.empty() || c.mode != pattern::EdgeMode::kFor ||
      to.position > 0) {
    return false;
  }
  if (to.tag.empty() || to.tag[0] == '@' || to.MatchesAnyTag()) return false;
  if (!to.variable.empty() || to.var_slot != xpath::kNoVarSlot) return false;
  for (const pattern::CrossEdge& e : tree.cross_edges()) {
    if (e.left == c.to || e.right == c.to) return false;
  }
  return true;
}

/// Moves every eligible connection of `d` onto its `from` NoK as a probe,
/// refreshing that NoK's fingerprint; marks in `probed` the NoKs that
/// leaves unreachable (the probes' `to`).
void FoldProbes(const pattern::BlossomTree& tree, Decomposition* d,
                std::vector<bool>* probed) {
  std::erase_if(d->connections, [&](const Connection& c) {
    if (!ProbeEligible(tree, c)) return false;
    d->noks[d->NokOf(c.from)].probes.push_back(c);
    (*probed)[d->NokOf(c.to)] = true;
    return true;
  });
  for (size_t i = 0; i < d->noks.size(); ++i) {
    if (!d->noks[i].probes.empty()) {
      d->noks[i].fingerprint = pattern::CanonicalNok(tree, d->noks[i]);
    }
  }
}

/// NoK-local cardinality estimate: EstimateVertexMatches restricted to the
/// NoK's own vertices — a bare scan does not enforce the //-connected
/// subtrees hanging off the NoK, so those children must not filter here.
double EstimateNokMatches(const CostModel& model,
                          const pattern::BlossomTree& tree,
                          const pattern::NokTree& nok, double num_elements,
                          pattern::VertexId v) {
  std::unordered_set<pattern::VertexId> members(nok.vertices.begin(),
                                                nok.vertices.end());
  std::function<double(pattern::VertexId)> est =
      [&](pattern::VertexId u) -> double {
    const pattern::Vertex& ux = tree.vertex(u);
    double base = ux.IsVirtualRoot() ? 1.0 : model.TagCount(ux.tag);
    if (base == 0) return 0;
    double selectivity = 1.0;
    if (ux.value) selectivity *= model.ValueSelectivity(ux);
    if (ux.position > 0) selectivity *= 0.5;
    double n = std::max(1.0, num_elements);
    for (pattern::VertexId c : ux.children) {
      if (members.count(c) == 0) continue;  // Cut //-edge: joined later.
      const pattern::Vertex& cx = tree.vertex(c);
      if (cx.mode == pattern::EdgeMode::kLet) continue;
      double scope = ux.IsVirtualRoot() ? n : model.AvgSubtreeSize(ux.tag);
      selectivity *= std::min(1.0, est(c) * scope / n);
    }
    return base * selectivity;
  };
  return est(v);
}

/// The planner's access-path decision for one NoK (DESIGN.md §14).
struct NokAccessPath {
  enum class Kind {
    kScan,     ///< Scan of the root tag's stream or range — the default.
    kValueEq,  ///< Scan of a value-index equality run.
    kEmpty     ///< Provably empty (DataGuide / absent tag): an empty run.
  };
  Kind kind = Kind::kScan;
  std::vector<xml::NodeId> run;  ///< kValueEq: the candidates.
  std::string detail;            ///< EXPLAIN annotation.
};

/// Gives a NoK whose root carries an index-answerable `= literal`
/// predicate its value-index run, and short-circuits NoKs whose mandatory
/// paths the DataGuide rules out. The run is a subset of the root tag's
/// stream the scan would otherwise test, so it is taken whenever usable.
/// Every choice is result-preserving: the scan re-verifies each candidate
/// with the full matcher, and kEmpty is only chosen on a structural *proof*
/// of emptiness.
std::vector<NokAccessPath> ChooseAccessPaths(
    const xml::Document* doc, const pattern::BlossomTree* tree,
    const Decomposition& d, const std::vector<bool>& probed,
    const index::StructuralIndex* index) {
  std::vector<NokAccessPath> out(d.noks.size());
  if (index == nullptr || !index->Matches(*doc)) return out;
  for (size_t i = 0; i < d.noks.size(); ++i) {
    if (probed[i]) continue;  // A probe's tag stream: never scanned.
    const pattern::NokTree& nok = d.noks[i];
    const pattern::Vertex& root = tree->vertex(nok.root);
    NokAccessPath& ap = out[i];
    bool attr_root = !root.tag.empty() && root.tag[0] == '@';
    // DataGuide short-circuit: if the NoK's mandatory child-axis paths
    // cannot all embed at one guide node, no document node matches —
    // whatever the value or positional constraints say. Attribute-rooted
    // NoKs bypass the guide (attributes are element side data, not paths).
    if (!attr_root &&
        !index->CanMatchPaths(pattern::ExtractMandatoryPaths(*tree, nok))) {
      ap.kind = NokAccessPath::Kind::kEmpty;
      ap.detail = "guide: no such path";
      continue;
    }
    for (const Connection& c : nok.probes) {
      if (doc->tags().Lookup(tree->vertex(c.to).tag) == xml::kNullTag) {
        ap.kind = NokAccessPath::Kind::kEmpty;
        ap.detail = "probe tag absent";
      }
    }
    if (ap.kind == NokAccessPath::Kind::kEmpty) continue;
    if (root.IsVirtualRoot() || root.MatchesAnyTag() || attr_root) {
      continue;  // No tag to look up ("~" matches at most once).
    }
    xml::TagId t = doc->tags().Lookup(root.tag);
    if (t == xml::kNullTag) {
      ap.kind = NokAccessPath::Kind::kEmpty;
      ap.detail = "tag absent";
      continue;
    }
    if (!root.value || root.value->op != xpath::CompareOp::kEq) continue;
    index::EqualitySeek eq = index->SeekEquality(t, root.value->literal);
    if (!eq.usable) continue;
    ap.kind = NokAccessPath::Kind::kValueEq;
    ap.detail = "value-eq, " + std::to_string(eq.nodes.size()) + " candidates";
    ap.run = std::move(eq.nodes);
  }
  return out;
}

/// Recursive plan builder for the NoK-join tree under `nok_index`.
class TreePlanner {
 public:
  TreePlanner(const xml::Document* doc, const pattern::BlossomTree* tree,
              const Decomposition* decomp, const PlanOptions& options,
              const std::vector<NokAccessPath>* access,
              PatternTreePlan* plan,
              bool* used_pipelined, bool* used_bnlj, const CostModel* cost)
      : doc_(doc),
        tree_(tree),
        decomp_(decomp),
        options_(options),
        access_(access),
        plan_(plan),
        used_pipelined_(used_pipelined),
        used_bnlj_(used_bnlj),
        cost_(cost) {}

  /// True when matches of `v`'s tag can never nest — the precondition for
  /// the pipelined join's merge discipline (Theorem 2 holds per tag: a
  /// //-join whose outer tag has nesting degree 1 behaves as on a
  /// non-recursive document, even if other tags recurse).
  bool NonNesting(VertexId v) const {
    const pattern::Vertex& vx = tree_->vertex(v);
    if (vx.IsVirtualRoot()) return true;
    if (vx.MatchesAnyTag()) return false;
    std::string tag = vx.tag;
    if (!tag.empty() && tag[0] == '@') return false;
    xml::TagId t = doc_->tags().Lookup(tag);
    if (t == xml::kNullTag) return true;  // Tag absent: zero matches.
    return doc_->TagRecursionDegree(t) <= 1;
  }

  /// Per-connection strategy (paper §5: the optimizer chooses using its
  /// knowledge of document recursion — here per tag). Where Theorem 2
  /// holds, kAuto and a forced kPipelined pipeline; elsewhere kAuto runs
  /// BNLJ and a forced kPipelined is refused. Forced nested loops are
  /// correct everywhere.
  Result<JoinStrategy> Pick(const Connection& c, uint32_t outer_nok) const {
    JoinStrategy s = options_.strategy;
    if (s != JoinStrategy::kAuto && s != JoinStrategy::kPipelined) return s;
    if (NonNesting(decomp_->noks[outer_nok].root) && NonNesting(c.from)) {
      return JoinStrategy::kPipelined;
    }
    if (s == JoinStrategy::kPipelined) {
      return Status::InvalidArgument(
          "pipelined join " + tree_->vertex(c.from).tag + " // " +
          tree_->vertex(c.to).tag +
          ": an outer vertex is a wildcard, an attribute or a recursing "
          "tag, so matches may nest (Theorem 2)");
    }
    return JoinStrategy::kBoundedNestedLoop;
  }

  Result<std::unique_ptr<NestedListOperator>> Build(uint32_t nok_index,
                                                    int depth) {
    std::unique_ptr<NestedListOperator> op;
    double est = -1.0;
    if (cost_ != nullptr) {
      est = EstimateNokMatches(
          *cost_, *tree_, decomp_->noks[nok_index],
          static_cast<double>(doc_->NumElements()),
          decomp_->noks[nok_index].root);
    }
    const NokAccessPath& ap = (*access_)[nok_index];
    const std::string nok_label = NokLabel(nok_index);
    const bool indexed = ap.kind != NokAccessPath::Kind::kScan;
    std::optional<std::vector<xml::NodeId>> run;
    if (indexed) run = ap.run;
    auto scan = std::make_unique<NokScanOperator>(
        doc_, tree_, &decomp_->noks[nok_index], options_.pool,
        options_.guard, options_.result_cache, options_.store,
        std::move(run));
    plan_->scans.push_back(scan.get());
    std::string label =
        std::string(indexed ? "IndexSeek(" : "NokScan(") + nok_label + ")";
    Indent(depth);
    plan_->explain += label;
    scan->set_label(std::move(label));
    if (indexed) {
      plan_->explain += " [";
      if (ap.kind == NokAccessPath::Kind::kEmpty) plan_->explain += "empty: ";
      plan_->explain += ap.detail + "]";
    } else if (options_.pool != nullptr && options_.pool->NumThreads() > 1) {
      plan_->explain += " [parallel x" +
                        std::to_string(options_.pool->NumThreads()) + "]";
    }
    plan_->explain += "\n";
    op = std::move(scan);
    for (const Connection& c : decomp_->noks[nok_index].probes) {
      Indent(depth);
      plan_->explain += "DescendantProbe(" + tree_->vertex(c.from).tag +
                        " // " + tree_->vertex(c.to).tag + ")\n";
      if (cost_ != nullptr) est *= ProbeSelectivity(c);
    }
    if (cost_ != nullptr) op->set_estimated_rows(est);
    for (const Connection& c : decomp_->connections) {
      if (decomp_->NokOf(c.from) != nok_index) continue;
      pattern::SlotId from_slot = tree_->SlotOfVertex(c.from);
      if (from_slot == pattern::kNoSlot) {
        return Status::Internal("connection endpoint has no slot");
      }
      BT_ASSIGN_OR_RETURN(JoinStrategy join, Pick(c, nok_index));
      const char* join_name = "BoundedNestedLoopJoin";
      if (join == JoinStrategy::kPipelined) {
        join_name = "PipelinedDescJoin";
        *used_pipelined_ = true;
      } else if (join == JoinStrategy::kNaiveNestedLoop) {
        join_name = "NaiveNestedLoopJoin";
        *used_bnlj_ = true;
      } else {
        *used_bnlj_ = true;
      }
      Indent(depth);
      plan_->explain += std::string(join_name) + "(" +
                        tree_->vertex(c.from).tag + " // " +
                        tree_->vertex(c.to).tag +
                        (c.mode == pattern::EdgeMode::kLet ? ", l)\n"
                                                           : ", f)\n");
      BT_ASSIGN_OR_RETURN(auto inner,
                          Build(decomp_->NokOf(c.to), depth + 1));
      std::string join_label = std::string(join_name) + "(" +
                               tree_->vertex(c.from).tag + " // " +
                               tree_->vertex(c.to).tag + ")";
      if (join == JoinStrategy::kPipelined) {
        op = std::make_unique<exec::PipelinedDescJoin>(
            doc_, tree_, std::move(op), std::move(inner), from_slot, c.mode,
            options_.guard);
      } else {
        op = std::make_unique<exec::BoundedNestedLoopJoin>(
            doc_, tree_, std::move(op), std::move(inner), from_slot, c.mode,
            /*bounded=*/join != JoinStrategy::kNaiveNestedLoop,
            options_.guard);
      }
      op->set_label(std::move(join_label));
      if (cost_ != nullptr) {
        // Optional edges never filter.
        if (c.mode != pattern::EdgeMode::kLet) est *= ProbeSelectivity(c);
        op->set_estimated_rows(est);
      }
    }
    return op;
  }

 private:
  /// Share of outer entries a mandatory //-edge keeps: those whose subtree
  /// holds an inner match (containment assumption, as in the cost model).
  double ProbeSelectivity(const Connection& c) const {
    double n = std::max(1.0, static_cast<double>(doc_->NumElements()));
    double inner_est = cost_->EstimateVertexMatches(*tree_, c.to);
    double scope = tree_->vertex(c.from).IsVirtualRoot()
                       ? n
                       : cost_->AvgSubtreeSize(tree_->vertex(c.from).tag);
    return std::min(1.0, inner_est * scope / n);
  }

  void Indent(int depth) {
    plan_->explain.append(static_cast<size_t>(depth) * 2, ' ');
  }

  std::string NokLabel(uint32_t nok_index) const {
    std::string out;
    for (size_t i = 0; i < decomp_->noks[nok_index].vertices.size(); ++i) {
      if (i > 0) out += ",";
      out += tree_->vertex(decomp_->noks[nok_index].vertices[i]).tag;
    }
    return out;
  }

  const xml::Document* doc_;
  const pattern::BlossomTree* tree_;
  const Decomposition* decomp_;
  const PlanOptions& options_;
  const std::vector<NokAccessPath>* access_;
  PatternTreePlan* plan_;
  bool* used_pipelined_;
  bool* used_bnlj_;
  const CostModel* cost_;
};

}  // namespace

const char* QueryPlan::StrategyName() const {
  return chosen ? JoinStrategyToString(*chosen) : "none";
}

std::string QueryPlan::Explain() const {
  std::string out = "strategy: ";
  out += StrategyName();
  out += "\n";
  for (size_t i = 0; i < trees.size(); ++i) {
    out += "pattern tree " + std::to_string(i) + ":\n";
    out += trees[i].explain;
  }
  return out;
}

void QueryPlan::FinishAll() {
  for (PatternTreePlan& tp : trees) {
    if (tp.root != nullptr) tp.root->Finish();
  }
}

void ForEachOperator(
    const QueryPlan& plan,
    const std::function<void(const exec::NestedListOperator&, int depth)>&
        fn) {
  std::function<void(const exec::NestedListOperator&, int)> walk =
      [&](const exec::NestedListOperator& op, int depth) {
        fn(op, depth);
        for (size_t i = 0; i < op.NumChildren(); ++i) {
          if (op.Child(i) != nullptr) walk(*op.Child(i), depth + 1);
        }
      };
  for (const PatternTreePlan& tp : plan.trees) {
    if (tp.root != nullptr) walk(*tp.root, 0);
  }
}

Result<QueryPlan> PlanQuery(const xml::Document* doc,
                            const pattern::BlossomTree* tree,
                            const PlanOptions& options,
                            const pattern::Decomposition* precomputed) {
  util::TraceSpan span("plan", "opt::PlanQuery");
  if (!tree->finalized()) {
    return Status::InvalidArgument("BlossomTree must be finalized");
  }
  QueryPlan plan;
  plan.tree = tree;
  // Decompose is deterministic, so a plan built from a cached decomposition
  // is identical to one that re-runs Algorithm 1 here.
  const Decomposition* decomp = precomputed;
  if (decomp == nullptr) {
    plan.decomposition = pattern::Decompose(*tree);
    decomp = &plan.decomposition;
  }

  // Rule: pipelined joins need document-order preservation (Theorem 2).
  // That is decided *per connection* using the per-tag nesting statistics
  // (TreePlanner::Pick): kAuto falls back to BNLJ, a forced kPipelined is
  // refused; the forced nested loops apply uniformly.
  JoinStrategy strategy = options.strategy;

  // Rule: under kAuto an existential `//` leaf is a probe of its parent's
  // NoK, not a join (DESIGN.md §14). Forced strategies keep every join, so
  // Table 3 still measures the paper's operators. Only the plan's own copy
  // of the decomposition changes; a cached one stays Algorithm 1's.
  std::vector<bool> probed(decomp->noks.size(), false);
  if (strategy == JoinStrategy::kAuto &&
      std::any_of(decomp->connections.begin(), decomp->connections.end(),
                  [&](const Connection& c) {
                    return ProbeEligible(*tree, c);
                  })) {
    if (decomp != &plan.decomposition) plan.decomposition = *decomp;
    decomp = &plan.decomposition;
    FoldProbes(*tree, &plan.decomposition, &probed);
  }
  const Decomposition& d = *decomp;

  // Find each pattern tree's base NoK: the root NoK itself, or — when the
  // root NoK is the bare virtual root "~" connected by // — its single
  // connection target (the sequential scan subsumes the trivial //-join
  // from the document root).
  std::vector<uint32_t> bases;
  for (VertexId r : tree->roots()) {
    uint32_t root_nok = d.NokOf(r);
    if (IsTrivialRootNok(*tree, d.noks[root_nok])) {
      uint32_t target = static_cast<uint32_t>(-1);
      for (const Connection& c : d.connections) {
        if (d.NokOf(c.from) == root_nok) {
          if (target != static_cast<uint32_t>(-1)) {
            return Status::Unsupported(
                "virtual root with multiple //-connections");
          }
          target = d.NokOf(c.to);
        }
      }
      if (target == static_cast<uint32_t>(-1)) {
        return Status::Unsupported("pattern tree with no matchable NoK");
      }
      bases.push_back(target);
    } else {
      bases.push_back(root_nok);
    }
  }

  // Per-NoK access paths: value-index runs plus DataGuide emptiness
  // proofs.
  std::vector<NokAccessPath> access =
      ChooseAccessPaths(doc, tree, d, probed, options.index);

  // Emptiness composes: a mandatory (kFor) //-edge to a provably-empty
  // inner NoK empties the join, so an empty proof anywhere below the base
  // empties the whole pattern tree — mark every reachable NoK kEmpty and
  // the plan runs with zero scanned nodes.
  {
    std::function<bool(uint32_t)> composed_empty = [&](uint32_t n) -> bool {
      if (access[n].kind == NokAccessPath::Kind::kEmpty) return true;
      for (const Connection& c : d.connections) {
        if (d.NokOf(c.from) != n) continue;
        if (c.mode != pattern::EdgeMode::kLet &&
            composed_empty(d.NokOf(c.to))) {
          return true;
        }
      }
      return false;
    };
    std::function<void(uint32_t)> mark_empty = [&](uint32_t n) {
      if (access[n].kind != NokAccessPath::Kind::kEmpty) {
        access[n] = NokAccessPath{};
        access[n].kind = NokAccessPath::Kind::kEmpty;
        access[n].detail = "short-circuit: empty subplan";
      }
      for (const Connection& c : d.connections) {
        if (d.NokOf(c.from) == n) mark_empty(d.NokOf(c.to));
      }
    };
    for (uint32_t base : bases) {
      if (composed_empty(base)) mark_empty(base);
    }
  }

  bool used_pipelined = false;
  bool used_bnlj = false;
  std::unique_ptr<CostModel> cost;
  if (options.estimate_cardinalities) {
    cost = std::make_unique<CostModel>(doc, options.index);
  }
  for (uint32_t base : bases) {
    PatternTreePlan tp;
    TreePlanner builder(doc, tree, &d, options, &access, &tp,
                        &used_pipelined, &used_bnlj, cost.get());
    BT_ASSIGN_OR_RETURN(tp.root, builder.Build(base, 1));
    tp.tops = tp.root->top_slots();
    plan.trees.push_back(std::move(tp));
  }
  // Summarize: the single strategy used, kAuto for mixed plans, none for
  // a plan without a join.
  if (used_pipelined && used_bnlj) {
    plan.chosen = JoinStrategy::kAuto;
  } else if (used_bnlj) {
    plan.chosen = strategy == JoinStrategy::kNaiveNestedLoop
                      ? JoinStrategy::kNaiveNestedLoop
                      : JoinStrategy::kBoundedNestedLoop;
  } else if (used_pipelined) {
    plan.chosen = JoinStrategy::kPipelined;
  }
  return plan;
}

Result<std::vector<xml::NodeId>> DrainPathPlan(QueryPlan* plan,
                                               const PlanOptions& options) {
  if (plan->trees.size() != 1) {
    return Status::InvalidArgument("path queries have one pattern tree");
  }
  const pattern::BlossomTree& tree = *plan->tree;
  pattern::SlotId result = tree.SlotOfVariable("result");
  if (result == pattern::kNoSlot) {
    return Status::InvalidArgument("no result slot; not a path query");
  }
  PatternTreePlan& tp = plan->trees[0];
  std::vector<xml::NodeId> out;
  // Batch-at-a-time drain (DESIGN.md §16): one virtual call and one trace
  // span per batch; the result slot's path is resolved once, and each row
  // is projected by walking its arena offsets.
  const nestedlist::SlotPath path = nestedlist::PathTo(tree, tp.tops, result);
  exec::Batch batch;
  while (tp.root->GetNextBatch(&batch, options.exec.batch_rows) > 0) {
    for (nestedlist::NestedList nl : batch) {
      nestedlist::AppendProjection(nl, path, &out);
    }
  }
  // Operators end their streams early when the guard trips; distinguish
  // that from genuine exhaustion before claiming a complete result.
  if (options.guard != nullptr && options.guard->Tripped()) {
    return options.guard->status();
  }
  // Projections of a document-ordered stream are already ascending and
  // distinct (Theorem 1) unless matches nest, as on recursive documents:
  // one pass checks, and only an out-of-order pair pays for sort + dedup.
  if (std::adjacent_find(out.begin(), out.end(), std::greater_equal<>()) !=
      out.end()) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

Result<std::vector<xml::NodeId>> EvaluatePathQuery(
    const xml::Document* doc, const pattern::BlossomTree* tree,
    const PlanOptions& options) {
  BT_ASSIGN_OR_RETURN(QueryPlan plan, PlanQuery(doc, tree, options));
  return DrainPathPlan(&plan, options);
}

}  // namespace opt
}  // namespace blossomtree
