#include "exec/twigstack.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>

#include "exec/value_ops.h"
#include "util/trace.h"

namespace blossomtree {
namespace exec {

using pattern::VertexId;

namespace {
constexpr xml::NodeId kInf = std::numeric_limits<xml::NodeId>::max();
}  // namespace

TwigStack::TwigStack(const xml::Document* doc,
                     const pattern::BlossomTree* tree,
                     util::ResourceGuard* guard)
    : doc_(doc), tree_(tree), guard_(guard) {}

Status TwigStack::BuildQueryTree() {
  if (tree_->roots().size() != 1) {
    return Status::Unsupported("TwigStack requires a single pattern tree");
  }
  VertexId root = tree_->roots()[0];
  if (!tree_->vertex(root).IsVirtualRoot()) {
    return Status::Unsupported("TwigStack requires a '~'-anchored tree");
  }
  if (tree_->vertex(root).children.size() != 1) {
    return Status::Unsupported("TwigStack requires a single query root");
  }
  // DFS over the pattern tree building qnodes.
  struct Frame {
    VertexId v;
    int parent;
  };
  std::vector<Frame> work;
  work.push_back({tree_->vertex(root).children[0], -1});
  while (!work.empty()) {
    Frame f = work.back();
    work.pop_back();
    const pattern::Vertex& vx = tree_->vertex(f.v);
    if (vx.axis == xpath::Axis::kFollowingSibling ||
        vx.axis == xpath::Axis::kAttribute ||
        (!vx.tag.empty() && vx.tag[0] == '@')) {
      return Status::Unsupported("TwigStack supports only / and // axes");
    }
    if (vx.position > 0) {
      return Status::Unsupported("TwigStack cannot apply positional "
                                 "predicates");
    }
    QNode q;
    q.vertex = f.v;
    q.parent = f.parent;
    q.parent_edge_is_child =
        f.parent >= 0 && vx.axis == xpath::Axis::kChild;
    int qi = static_cast<int>(qnodes_.size());
    qnodes_.push_back(std::move(q));
    if (f.parent >= 0) qnodes_[f.parent].children.push_back(qi);
    for (VertexId c : tree_->vertex(f.v).children) {
      work.push_back({c, qi});
    }
  }
  for (size_t i = 0; i < qnodes_.size(); ++i) {
    if (qnodes_[i].children.empty()) leaves_.push_back(static_cast<int>(i));
  }
  leaf_solutions_.resize(qnodes_.size());
  return Status::OK();
}

void TwigStack::BuildStreams() {
  for (QNode& q : qnodes_) {
    const pattern::Vertex& vx = tree_->vertex(q.vertex);
    std::vector<xml::NodeId> nodes;
    if (vx.MatchesAnyTag()) {
      for (xml::NodeId n = 0; n < doc_->NumNodes(); ++n) {
        if (doc_->IsElement(n)) nodes.push_back(n);
      }
    } else {
      xml::TagId t = doc_->tags().Lookup(vx.tag);
      auto index = doc_->TagIndex(t);
      nodes.assign(index.begin(), index.end());
    }
    // The query root connected to "~" by '/' must be the document root.
    bool must_be_doc_root =
        q.parent < 0 && vx.axis == xpath::Axis::kChild;
    std::optional<LiteralTest> value;
    if (vx.value) value.emplace(vx.value->op, vx.value->literal);
    for (xml::NodeId n : nodes) {
      if (must_be_doc_root && doc_->Level(n) != 0) continue;
      if (value) {
        ++stats_.value_cmps;
        if (!value->MatchesNode(*doc_, n)) continue;
      }
      q.stream.push_back(n);
    }
  }
}

xml::NodeId TwigStack::Head(const QNode& q) const {
  return HeadEnded(q) ? kInf : q.stream[q.cursor];
}

int TwigStack::GetNextNode(int qi) {
  QNode& q = qnodes_[qi];
  if (q.children.empty()) return qi;
  xml::NodeId min_start = kInf;
  xml::NodeId max_start = 0;
  int min_child = q.children[0];  // Falls back to an exhausted child, which
                                  // terminates the main loop.
  for (int ci : q.children) {
    int r = GetNextNode(ci);
    // Propagate a descendant that needs processing first — but not an
    // exhausted subtree: once a leaf stream under ci is dry, no *future*
    // q-match can complete a twig through it, yet leaves under other
    // children may still pair with already-stacked ancestors, so the scan
    // must go on (the q-subtree simply stops constraining the merge).
    if (r != ci && !HeadEnded(qnodes_[r])) return r;
    xml::NodeId h = Head(qnodes_[ci]);
    if (h < min_start) {
      min_start = h;
      min_child = ci;
    }
    if (h != kInf) max_start = std::max(max_start, h);
  }
  // Advance q past heads that cannot contain all live child heads.
  while (!HeadEnded(q) && doc_->SubtreeEnd(Head(q)) < max_start) {
    ++q.cursor;
    ++stats_.stream_elements;
  }
  if (Head(q) < min_start) return qi;
  return min_child;
}

void TwigStack::CleanStack(QNode* q, xml::NodeId until_start) {
  while (!q->stack.empty() &&
         doc_->SubtreeEnd(q->stack.back().first) < until_start) {
    q->stack.pop_back();
  }
}

void TwigStack::ExpandPathSolutions(int leaf_qi) {
  // Chain of qnode indices from root to leaf.
  std::vector<int> chain;
  for (int qi = leaf_qi; qi >= 0; qi = qnodes_[qi].parent) {
    chain.push_back(qi);
  }
  std::reverse(chain.begin(), chain.end());

  std::vector<xml::NodeId> tuple(chain.size());
  // Recursive expansion from the leaf's just-pushed entry upward; '/'
  // edges are verified by level difference (ancestorship is implied by the
  // stack invariant).
  auto rec = [&](auto&& self, size_t pos, int stack_index) -> void {
    const QNode& q = qnodes_[chain[pos]];
    tuple[pos] = q.stack[stack_index].first;
    if (pos == 0) {
      leaf_solutions_[leaf_qi].push_back(tuple);
      ++stats_.path_solutions;
      return;
    }
    int parent_limit = q.stack[stack_index].second;
    const QNode& p = qnodes_[chain[pos - 1]];
    for (int j = 0; j <= parent_limit; ++j) {
      if (q.parent_edge_is_child &&
          doc_->Level(tuple[pos]) != doc_->Level(p.stack[j].first) + 1) {
        continue;
      }
      self(self, pos - 1, j);
    }
  };
  rec(rec, chain.size() - 1,
      static_cast<int>(qnodes_[leaf_qi].stack.size()) - 1);
}

void TwigStack::MergePhase(VertexId result_vertex,
                           std::vector<xml::NodeId>* result) {
  // Staged hash join of the per-leaf path-solution relations on their
  // shared ancestor columns, projecting each stage to the columns still
  // needed (remaining leaves' paths + the result column).
  std::vector<std::vector<VertexId>> leaf_columns;
  for (int leaf : leaves_) {
    std::vector<VertexId> cols;
    std::vector<int> chain;
    for (int qi = leaf; qi >= 0; qi = qnodes_[qi].parent) chain.push_back(qi);
    std::reverse(chain.begin(), chain.end());
    for (int qi : chain) cols.push_back(qnodes_[qi].vertex);
    leaf_columns.push_back(std::move(cols));
  }

  // Project a relation to a column subset, deduplicating rows. Shrinking
  // both join inputs *before* the join keeps intermediate sizes bounded by
  // the distinct value combinations actually needed downstream (without
  // this, a branching query whose shared ancestor is the document root
  // joins all leaf pairs — quadratic blowup).
  auto project = [](std::vector<VertexId>* columns,
                    std::vector<std::vector<xml::NodeId>>* rel,
                    const std::vector<VertexId>& wanted) {
    std::vector<size_t> keep;
    std::vector<VertexId> kept_columns;
    for (size_t i = 0; i < columns->size(); ++i) {
      if (std::find(wanted.begin(), wanted.end(), (*columns)[i]) !=
          wanted.end()) {
        keep.push_back(i);
        kept_columns.push_back((*columns)[i]);
      }
    }
    if (keep.size() == columns->size()) {
      std::sort(rel->begin(), rel->end());
      rel->erase(std::unique(rel->begin(), rel->end()), rel->end());
      return;
    }
    std::vector<std::vector<xml::NodeId>> projected;
    projected.reserve(rel->size());
    for (const auto& row : *rel) {
      std::vector<xml::NodeId> out;
      out.reserve(keep.size());
      for (size_t k : keep) out.push_back(row[k]);
      projected.push_back(std::move(out));
    }
    std::sort(projected.begin(), projected.end());
    projected.erase(std::unique(projected.begin(), projected.end()),
                    projected.end());
    *columns = std::move(kept_columns);
    *rel = std::move(projected);
  };

  // Columns needed from stage li onward: leaves li.. plus the result.
  auto needed_from = [&](size_t li) {
    std::vector<VertexId> needed;
    for (size_t lj = li; lj < leaves_.size(); ++lj) {
      for (VertexId v : leaf_columns[lj]) {
        if (std::find(needed.begin(), needed.end(), v) == needed.end()) {
          needed.push_back(v);
        }
      }
    }
    if (std::find(needed.begin(), needed.end(), result_vertex) ==
        needed.end()) {
      needed.push_back(result_vertex);
    }
    return needed;
  };

  std::vector<VertexId> columns = leaf_columns[0];
  std::vector<std::vector<xml::NodeId>> rel = leaf_solutions_[leaves_[0]];
  project(&columns, &rel, needed_from(1));

  for (size_t li = 1; li < leaves_.size(); ++li) {
    std::vector<VertexId> lcols = leaf_columns[li];
    std::vector<std::vector<xml::NodeId>> lrel =
        leaf_solutions_[leaves_[li]];
    // Shrink the incoming leaf relation to what the join and the remaining
    // stages need: its shared columns with `columns` plus needed_from.
    std::vector<VertexId> wanted = needed_from(li + 1);
    for (VertexId v : columns) {
      if (std::find(wanted.begin(), wanted.end(), v) == wanted.end()) {
        wanted.push_back(v);
      }
    }
    project(&lcols, &lrel, wanted);

    // Common columns.
    std::vector<size_t> rel_key;   // Indices into columns.
    std::vector<size_t> leaf_key;  // Indices into lcols.
    for (size_t i = 0; i < columns.size(); ++i) {
      auto it = std::find(lcols.begin(), lcols.end(), columns[i]);
      if (it != lcols.end()) {
        rel_key.push_back(i);
        leaf_key.push_back(static_cast<size_t>(it - lcols.begin()));
      }
    }
    std::map<std::vector<xml::NodeId>, std::vector<size_t>> index;
    for (size_t r = 0; r < lrel.size(); ++r) {
      std::vector<xml::NodeId> key;
      for (size_t k : leaf_key) key.push_back(lrel[r][k]);
      index[key].push_back(r);
    }
    std::vector<VertexId> new_columns = columns;
    std::vector<size_t> extra;  // Indices into lcols appended.
    for (size_t i = 0; i < lcols.size(); ++i) {
      if (std::find(columns.begin(), columns.end(), lcols[i]) ==
          columns.end()) {
        new_columns.push_back(lcols[i]);
        extra.push_back(i);
      }
    }
    std::vector<std::vector<xml::NodeId>> joined;
    for (const auto& row : rel) {
      std::vector<xml::NodeId> key;
      for (size_t k : rel_key) key.push_back(row[k]);
      auto it = index.find(key);
      if (it == index.end()) continue;
      for (size_t r : it->second) {
        std::vector<xml::NodeId> out = row;
        for (size_t k : extra) out.push_back(lrel[r][k]);
        joined.push_back(std::move(out));
      }
    }
    columns = std::move(new_columns);
    rel = std::move(joined);
    project(&columns, &rel, needed_from(li + 1));
  }
  stats_.merged_matches = rel.size();

  // Extract the result column.
  auto it = std::find(columns.begin(), columns.end(), result_vertex);
  if (it == columns.end()) {
    return;  // Result vertex not bound by any leaf path (cannot happen for
             // well-formed queries: every vertex lies on some root-leaf
             // path).
  }
  size_t col = static_cast<size_t>(it - columns.begin());
  result->clear();
  for (const auto& row : rel) result->push_back(row[col]);
  std::sort(result->begin(), result->end());
  result->erase(std::unique(result->begin(), result->end()), result->end());
}

ExecStats ToExecStats(const TwigStackStats& s) {
  ExecStats out;
  out.wall_nanos = s.wall_nanos;
  out.index_entries = s.stream_elements;
  out.comparisons = s.path_solutions + s.value_cmps;
  out.matches = s.merged_matches;
  return out;
}

Status TwigStack::Run(VertexId result_vertex,
                      std::vector<xml::NodeId>* result) {
  ScopedTimer timer(&stats_.wall_nanos);
  util::TraceSpan span("exec", "TwigStack.run");
  BT_RETURN_NOT_OK(BuildQueryTree());
  BuildStreams();

  while (true) {
    // Batch-boundary guard sample (DESIGN.md §9): full check every ~512
    // consumed stream elements, cheap probe otherwise.
    if (guard_ != nullptr &&
        (guard_->Tripped() ||
         ((stats_.stream_elements & 0x1FF) == 0x1FF && !guard_->Check()))) {
      return guard_->status();
    }
    int qi = GetNextNode(0);
    QNode& q = qnodes_[qi];
    if (HeadEnded(q)) break;
    xml::NodeId node = Head(q);
    if (q.parent >= 0) {
      CleanStack(&qnodes_[q.parent], node);
    }
    if (q.parent < 0 || !qnodes_[q.parent].stack.empty()) {
      CleanStack(&q, node);
      int parent_top =
          q.parent < 0
              ? -1
              : static_cast<int>(qnodes_[q.parent].stack.size()) - 1;
      q.stack.emplace_back(node, parent_top);
      ++q.cursor;
      ++stats_.stream_elements;
      if (q.children.empty()) {
        ExpandPathSolutions(qi);
        q.stack.pop_back();
      }
    } else {
      ++q.cursor;
      ++stats_.stream_elements;
    }
  }

  MergePhase(result_vertex, result);
  return Status::OK();
}

}  // namespace exec
}  // namespace blossomtree
