#include "exec/twig_semijoin.h"

#include "exec/structural_join.h"
#include "exec/value_ops.h"
#include "util/trace.h"

namespace blossomtree {
namespace exec {

using pattern::VertexId;

ExecStats ToExecStats(const TwigSemijoinStats& s) {
  ExecStats out;
  out.wall_nanos = s.wall_nanos;
  out.index_entries = s.candidates_loaded;
  out.comparisons = s.join.entries_consumed + s.value_cmps;
  out.matches = s.join.pairs_emitted;
  return out;
}

TwigSemijoin::TwigSemijoin(const xml::Document* doc,
                           const pattern::BlossomTree* tree,
                           util::ThreadPool* pool,
                           util::ResourceGuard* guard)
    : doc_(doc), tree_(tree), pool_(pool), guard_(guard) {}

Status TwigSemijoin::GuardOk() const {
  if (guard_ == nullptr) return Status::OK();
  if (guard_->Check()) return Status::OK();
  return guard_->status();
}

Status TwigSemijoin::Validate(VertexId v) const {
  const pattern::Vertex& vx = tree_->vertex(v);
  if (!vx.IsVirtualRoot()) {
    if (vx.axis == xpath::Axis::kFollowingSibling ||
        vx.axis == xpath::Axis::kAttribute ||
        (!vx.tag.empty() && vx.tag[0] == '@')) {
      return Status::Unsupported("semijoin supports only / and // axes");
    }
    if (vx.position > 0) {
      return Status::Unsupported("semijoin cannot apply positions");
    }
  }
  for (VertexId c : vx.children) {
    BT_RETURN_NOT_OK(Validate(c));
  }
  return Status::OK();
}

std::vector<xml::NodeId> TwigSemijoin::Candidates(VertexId v) {
  const pattern::Vertex& vx = tree_->vertex(v);
  std::vector<xml::NodeId> out;
  if (vx.MatchesAnyTag()) {
    for (xml::NodeId n = 0; n < doc_->NumNodes(); ++n) {
      if (doc_->IsElement(n)) out.push_back(n);
    }
  } else {
    xml::TagId t = doc_->tags().Lookup(vx.tag);
    auto index = doc_->TagIndex(t);
    out.assign(index.begin(), index.end());
  }
  // The edge from the virtual root: '/' pins the document root element.
  if (vx.parent != pattern::kNoVertex &&
      tree_->vertex(vx.parent).IsVirtualRoot() &&
      vx.axis == xpath::Axis::kChild) {
    std::vector<xml::NodeId> rooted;
    for (xml::NodeId n : out) {
      if (doc_->Level(n) == 0) rooted.push_back(n);
    }
    out = std::move(rooted);
  }
  if (vx.value) {
    LiteralTest value(vx.value->op, vx.value->literal);
    std::vector<xml::NodeId> filtered;
    for (xml::NodeId n : out) {
      if (value.MatchesNode(*doc_, n)) filtered.push_back(n);
    }
    stats_.value_cmps += out.size();
    out = std::move(filtered);
  }
  stats_.candidates_loaded += out.size();
  return out;
}

Status TwigSemijoin::BottomUp(VertexId v) {
  // Batch boundary (DESIGN.md §9): one guard check per candidate load /
  // per-edge semijoin; the joins themselves sample the guard inside long
  // merges.
  BT_RETURN_NOT_OK(GuardOk());
  candidates_[v] = Candidates(v);
  for (VertexId c : tree_->vertex(v).children) {
    BT_RETURN_NOT_OK(BottomUp(c));
    const pattern::Vertex& cx = tree_->vertex(c);
    if (cx.mode == pattern::EdgeMode::kLet) continue;  // Optional edge.
    BT_RETURN_NOT_OK(GuardOk());
    ++stats_.semijoins;
    candidates_[v] =
        cx.axis == xpath::Axis::kChild
            ? ParentsWithChild(*doc_, candidates_[v], candidates_[c], pool_,
                               &stats_.join, guard_)
            : AncestorsWithDescendant(*doc_, candidates_[v], candidates_[c],
                                      pool_, &stats_.join, guard_);
  }
  return Status::OK();
}

void TwigSemijoin::TopDown(VertexId v) {
  for (VertexId c : tree_->vertex(v).children) {
    if (guard_ != nullptr && !guard_->Check()) return;
    const pattern::Vertex& cx = tree_->vertex(c);
    ++stats_.semijoins;
    candidates_[c] =
        cx.axis == xpath::Axis::kChild
            ? ChildrenWithParent(*doc_, candidates_[v], candidates_[c],
                                 pool_, &stats_.join, guard_)
            : DescendantsWithAncestor(*doc_, candidates_[v], candidates_[c],
                                      pool_, &stats_.join, guard_);
    TopDown(c);
  }
}

Status TwigSemijoin::Run(VertexId result_vertex,
                         std::vector<xml::NodeId>* result) {
  ScopedTimer timer(&stats_.wall_nanos);
  util::TraceSpan span("exec", "TwigSemijoin.run");
  if (tree_->roots().size() != 1) {
    return Status::Unsupported("semijoin requires a single pattern tree");
  }
  VertexId root = tree_->roots()[0];
  if (!tree_->vertex(root).IsVirtualRoot()) {
    return Status::Unsupported("semijoin requires a '~'-anchored tree");
  }
  if (tree_->vertex(root).children.size() != 1) {
    return Status::Unsupported("semijoin requires a single query root");
  }
  VertexId qroot = tree_->vertex(root).children[0];
  BT_RETURN_NOT_OK(Validate(qroot));

  candidates_.assign(tree_->NumVertices(), {});
  // Bottom-up semijoins make every candidate extensible downward; the
  // top-down pass then removes candidates without a valid ancestor chain.
  // On tree patterns the two passes leave exactly the nodes participating
  // in at least one full embedding (acyclic-join dangling-tuple
  // elimination).
  BT_RETURN_NOT_OK(BottomUp(qroot));
  TopDown(qroot);
  // A trip anywhere above leaves partial candidate lists: surface the
  // guard's status instead of a truncated result.
  if (guard_ != nullptr && guard_->Tripped()) return guard_->status();
  *result = candidates_[result_vertex];
  return Status::OK();
}

}  // namespace exec
}  // namespace blossomtree
