#include "exec/joins.h"

#include <algorithm>

#include "exec/kernels.h"

namespace blossomtree {
namespace exec {

using nestedlist::Entry;
using nestedlist::NestedList;
using pattern::EdgeMode;
using pattern::SlotId;

namespace {

/// Rewrites outer row `m` into `dst`, grafting into group `child` of every
/// entry at the end of `path` the inner entries `graft(node)` stages on
/// `w`. Under an f-mode edge (`prune`), an entry left without an inner
/// match is pruned as it is written (EnforceMandatory's rule), and a row
/// whose mandatory top group empties is not written at all.
template <typename Graft>
void GraftRow(nestedlist::RowWriter* w, const NestedList& m,
              const nestedlist::SlotPath& path, uint32_t child, bool prune,
              nestedlist::Arena* dst, Graft graft) {
  w->Rewrite(m, path, prune, dst, [&](const Entry& e, Entry* copy) {
    auto fill = [&] { graft(e.node); };
    bool empty = false;
    *copy = w->CopyEntryGrafting(m.arena(), e, child, dst, fill, &empty);
    return !(prune && empty);
  });
}

}  // namespace

PipelinedDescJoin::PipelinedDescJoin(const xml::Document* doc,
                                     const pattern::BlossomTree* tree,
                                     std::unique_ptr<NestedListOperator> outer,
                                     std::unique_ptr<NestedListOperator> inner,
                                     SlotId from_slot, EdgeMode mode,
                                     util::ResourceGuard* guard)
    : NestedListOperator(guard),
      doc_(doc),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      mode_(mode),
      outer_rows_(outer_.get()),
      inner_rows_(inner_.get()) {
  child_index_ = static_cast<uint32_t>(
      nestedlist::ChildIndex(*tree, from_slot, inner_->top_slots()[0]));
  path_ = nestedlist::PathTo(*tree, outer_->top_slots(), from_slot);
}

bool PipelinedDescJoin::FetchInner(size_t batch_rows) {
  // Only ever called with the live run empty, so the run never holds more
  // than one inner row (the §4.2 memory bound), and the previous row may
  // go with the batch that held it.
  inner_nodes_.clear();
  inner_head_ = 0;
  if (!inner_rows_.Next(&inner_row_, batch_rows)) return false;
  // Inner streams carry one top group (the NoK root's slot); each match is
  // one entry. Region labels are mirrored into the flat sorted NodeId
  // array the counting searches run over.
  for (const Entry& e : inner_row_.entries(inner_row_.tops()[0])) {
    inner_nodes_.push_back(e.node);
  }
  peak_buffered_ = std::max(peak_buffered_, inner_nodes_.size());
  return true;
}

void PipelinedDescJoin::MergeInto(xml::NodeId node, nestedlist::Arena* dst,
                                  size_t batch_rows) {
  xml::NodeId start = node;
  xml::NodeId end = doc_->SubtreeEnd(node);
  // Merge step (paper GetNext lines 7-9): discard inner matches that
  // precede this outer entry; on a non-recursive document they can
  // belong to no later outer entry either. The live run is sorted by
  // NodeId, so "drop everything <= start, graft everything <= end, stop at
  // the first entry beyond" are two branch-free counting searches per
  // refill. merge_comparisons_ ticks once per entry disposition, plus the
  // probe that finds the first entry beyond the region.
  while (true) {
    size_t avail = inner_nodes_.size() - inner_head_;
    if (avail == 0) {
      if (FetchInner(batch_rows)) continue;
      break;
    }
    size_t npop = CountLessEq(inner_nodes_.data() + inner_head_, avail, start);
    merge_comparisons_ += npop;
    inner_head_ += npop;
    if (npop == avail) continue;  // Run drained by stale entries: refill.
    avail -= npop;
    size_t ngraft = CountLessEq(inner_nodes_.data() + inner_head_, avail, end);
    merge_comparisons_ += ngraft;
    const nestedlist::Arena& run = inner_row_.arena();
    const uint32_t first = inner_row_.tops()[0].begin +
                           static_cast<uint32_t>(inner_head_);
    for (uint32_t i = first; i < first + ngraft; ++i) {
      writer_.Stage(writer_.CopyEntry(run, run.entries[i], dst));
    }
    inner_head_ += ngraft;
    if (ngraft == avail) continue;  // More of the region may follow.
    ++merge_comparisons_;           // The probe that found n > end.
    break;
  }
}

void PipelinedDescJoin::FillBatch(Batch* out, size_t max_rows) {
  out_.clear();
  auto merge = [&](xml::NodeId node) { MergeInto(node, &out_, max_rows); };
  NestedList m;
  while (out_.size() < max_rows && outer_rows_.Next(&m, max_rows)) {
    // Batch boundary (DESIGN.md §9): one guard check per outer tuple — the
    // children sample their own guards inside longer stretches of work.
    if (guard() != nullptr && !guard()->Check()) break;
    GraftRow(&writer_, m, path_, child_index_, mode_ == EdgeMode::kFor,
             &out_, merge);
  }
  out->Lend(&out_, 0, static_cast<uint32_t>(out_.size()));
}

ExecStats PipelinedDescJoin::Stats() const {
  ExecStats s = NestedListOperator::Stats();
  s.comparisons = merge_comparisons_;
  // The §4.2 memory requirement: peak inner entries buffered awaiting their
  // containing outer entry, at the fixed per-cell price.
  s.peak_buffer_bytes = peak_buffered_ * nestedlist::kCellBytes;
  return s;
}

void PipelinedDescJoin::Rewind() {
  outer_->Rewind();
  inner_->Rewind();
  outer_rows_.Reset();
  inner_rows_.Reset();
  inner_nodes_.clear();
  inner_head_ = 0;
}

BoundedNestedLoopJoin::BoundedNestedLoopJoin(
    const xml::Document* doc, const pattern::BlossomTree* tree,
    std::unique_ptr<NestedListOperator> outer,
    std::unique_ptr<NestedListOperator> inner, SlotId from_slot, EdgeMode mode,
    bool bounded, util::ResourceGuard* guard)
    : NestedListOperator(guard),
      doc_(doc),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      mode_(mode),
      bounded_(bounded),
      outer_rows_(outer_.get()) {
  child_index_ = static_cast<uint32_t>(
      nestedlist::ChildIndex(*tree, from_slot, inner_->top_slots()[0]));
  path_ = nestedlist::PathTo(*tree, outer_->top_slots(), from_slot);
}

void BoundedNestedLoopJoin::FillBatch(Batch* out, size_t max_rows) {
  out_.clear();
  NestedList m;
  // The piggybacked (p1, p2] range of §4.3: the inner NoK scans only
  // within the outer match's subtree. The unbounded variant re-scans
  // everything and filters, as a naive nested loop would.
  auto graft = [&](xml::NodeId node) {
    xml::NodeId end = doc_->SubtreeEnd(node);
    if (end == node) return;  // Leaf: no descendants.
    if (bounded_) inner_->Restrict(node + 1, end);
    inner_->Rewind();
    ++inner_rescans_;
    while (inner_->GetNextBatch(&inner_batch_, max_rows) > 0) {
      for (NestedList nl : inner_batch_) {
        for (const Entry& ie : nl.entries(nl.tops()[0])) {
          if (!bounded_ && !(ie.node > node && ie.node <= end)) continue;
          writer_.Stage(writer_.CopyEntry(nl.arena(), ie, &out_));
        }
      }
    }
  };
  while (out_.size() < max_rows && outer_rows_.Next(&m, max_rows)) {
    // One check per outer tuple; each inner re-scan is a governed NokScan
    // that samples the guard itself, so even the naive variant's
    // whole-document re-scans observe a trip within ~512 nodes.
    if (guard() != nullptr && !guard()->Check()) break;
    GraftRow(&writer_, m, path_, child_index_, mode_ == EdgeMode::kFor,
             &out_, graft);
  }
  out->Lend(&out_, 0, static_cast<uint32_t>(out_.size()));
}

ExecStats BoundedNestedLoopJoin::Stats() const {
  ExecStats s = NestedListOperator::Stats();
  s.rescans = inner_rescans_;
  return s;
}

void BoundedNestedLoopJoin::Rewind() {
  outer_->Rewind();
  outer_rows_.Reset();
}

}  // namespace exec
}  // namespace blossomtree
