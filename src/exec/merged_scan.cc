#include "exec/merged_scan.h"

#include "exec/value_ops.h"

namespace blossomtree {
namespace exec {

MergedNokScan::MergedNokScan(const xml::Document* doc,
                             const pattern::BlossomTree* tree,
                             std::vector<const pattern::NokTree*> noks,
                             util::ResourceGuard* guard)
    : doc_(doc), guard_(guard) {
  for (const pattern::NokTree* nok : noks) {
    matchers_.push_back(std::make_unique<NokMatcher>(doc, tree, nok));
    matchers_.back()->set_guard(guard);
    const pattern::Vertex& root = tree->vertex(nok->root);
    virtual_root_.push_back(root.IsVirtualRoot());
    match_any_.push_back(root.MatchesAnyTag() || root.IsVirtualRoot());
    root_tag_.push_back(root.tag);
  }
  for (size_t i = 0; i < matchers_.size(); ++i) {
    results_.push_back(std::make_shared<nestedlist::Arena>());
  }
}

void MergedNokScan::Run() {
  if (ran_) return;
  ran_ = true;
  ScopedTimer timer(&wall_nanos_);
  util::TraceSpan span("exec", "MergedNokScan.run");
  // Virtual-root NoKs fire once, before the node scan.
  for (size_t i = 0; i < matchers_.size(); ++i) {
    if (!virtual_root_[i]) continue;
    matchers_[i]->MatchAt(kVirtualRootNode, results_[i].get());
  }
  // Dispatch table: which matchers can start at a given tag. Match-any
  // roots ("*", and defensively any other non-concrete root tag such as
  // "~") are probed on every element (the NFA's always-active states);
  // concrete roots only fire on their own tag. Dispatching a match-any
  // root through tags().Lookup() would resolve to kNullTag and silently
  // drop the NoK, so anything non-concrete goes to the wildcard set —
  // probe() re-applies RootTest, so over-dispatch is safe, under-dispatch
  // is not.
  std::vector<std::vector<size_t>> by_tag(doc_->tags().size());
  std::vector<size_t> wildcard;
  for (size_t i = 0; i < matchers_.size(); ++i) {
    if (virtual_root_[i]) continue;
    if (match_any_[i]) {
      wildcard.push_back(i);
      continue;
    }
    xml::TagId t = doc_->tags().Lookup(root_tag_[i]);
    if (t != xml::kNullTag) by_tag[t].push_back(i);
  }
  // One shared pass: each node is fetched once, the NoKs whose root can
  // match it are probed.
  auto probe = [&](size_t i, xml::NodeId x) {
    if (matchers_[i]->RootTest(x)) {
      matchers_[i]->MatchAt(x, results_[i].get());
    }
  };
  if (wildcard.empty()) {
    // All roots concrete: one walk of each distinct root tag's stream
    // replaces the per-node dispatch loop. Per-NoK result arenas are
    // filled in ascending NodeId (each stream ascends) and the probes
    // re-verify every candidate, so streams and untripped-run comparisons
    // match the per-node pass bitwise. The pass counts the stream entries
    // it walks: the nodes whose root tests ran.
    bool tripped = false;
    for (xml::TagId t = 0; t < by_tag.size() && !tripped; ++t) {
      if (by_tag[t].empty()) continue;
      for (xml::NodeId x : doc_->TagIndex(t)) {
        if (guard_ != nullptr &&
            (guard_->Tripped() ||
             ((nodes_scanned_ & 0x1FF) == 0x1FF && !guard_->Check()))) {
          tripped = true;
          break;
        }
        ++nodes_scanned_;
        for (size_t i : by_tag[t]) probe(i, x);
      }
    }
  } else {
    for (xml::NodeId x = 0; x < doc_->NumNodes(); ++x) {
      // Batch-boundary guard sample (DESIGN.md §9): cheap probe per node,
      // full clock check every ~512 nodes.
      if (guard_ != nullptr &&
          (guard_->Tripped() ||
           ((nodes_scanned_ & 0x1FF) == 0x1FF && !guard_->Check()))) {
        break;
      }
      ++nodes_scanned_;
      if (!doc_->IsElement(x)) continue;
      for (size_t i : by_tag[doc_->Tag(x)]) probe(i, x);
      for (size_t i : wildcard) probe(i, x);
    }
  }
}

ExecStats MergedNokScan::ScanStats() const {
  ExecStats s;
  s.wall_nanos = wall_nanos_;
  s.nodes_scanned = nodes_scanned_;
  s.comparisons = MatchWork();
  for (const auto& lists : results_) {
    s.matches += lists->size();
    // Each row owns exactly its cells, so the entry array is their count.
    s.nl_cells += lists->entries.size();
  }
  return s;
}

uint64_t MergedNokScan::MatchWork() const {
  uint64_t total = 0;
  for (const auto& m : matchers_) total += m->MatchWork();
  return total;
}

std::unique_ptr<MaterializedOperator> MergedNokScan::MakeOperator(size_t i) {
  return std::make_unique<MaterializedOperator>(
      matchers_[i]->top_slots(), results_[i], guard_);
}

}  // namespace exec
}  // namespace blossomtree
