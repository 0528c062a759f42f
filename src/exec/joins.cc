#include "exec/joins.h"

#include <algorithm>
#include <iterator>

#include "exec/kernels.h"
#include "nestedlist/ops.h"

namespace blossomtree {
namespace exec {

using nestedlist::Entry;
using nestedlist::Group;
using nestedlist::NestedList;
using pattern::EdgeMode;
using pattern::SlotId;

PipelinedDescJoin::PipelinedDescJoin(const xml::Document* doc,
                                     const pattern::BlossomTree* tree,
                                     std::unique_ptr<NestedListOperator> outer,
                                     std::unique_ptr<NestedListOperator> inner,
                                     SlotId from_slot, EdgeMode mode,
                                     util::ResourceGuard* guard)
    : NestedListOperator(guard),
      doc_(doc),
      tree_(tree),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      from_slot_(from_slot),
      mode_(mode),
      outer_rows_(outer_.get()),
      inner_rows_(inner_.get()) {
  inner_top_ = inner_->top_slots()[0];
  child_index_ = nestedlist::ChildIndex(*tree, from_slot, inner_top_);
}

bool PipelinedDescJoin::FetchInner(size_t batch_rows) {
  // Only ever called with the live run empty: reclaim the consumed prefix
  // so the buffer never grows beyond one in-flight inner run (the §4.2
  // memory bound).
  if (inner_head_ > 0) {
    inner_buf_.clear();
    inner_nodes_.clear();
    inner_head_ = 0;
  }
  NestedList nl;
  if (!inner_rows_.Next(&nl, batch_rows)) return false;
  // Inner streams carry one top group (the NoK root's slot); each match is
  // one entry. Region labels are mirrored into the flat sorted NodeId
  // array the counting searches run over.
  for (Entry& e : nl.tops[0]) {
    inner_nodes_.push_back(e.node);
    inner_buf_.push_back(std::move(e));
  }
  peak_buffered_ = std::max(peak_buffered_, inner_buf_.size() - inner_head_);
  return true;
}

void PipelinedDescJoin::MergeInto(Entry* e, size_t batch_rows) {
  xml::NodeId start = e->node;
  xml::NodeId end = doc_->SubtreeEnd(e->node);
  // Merge step (paper GetNext lines 7-9): discard inner matches that
  // precede this outer entry; on a non-recursive document they can
  // belong to no later outer entry either. The live run is sorted by
  // NodeId, so "drop everything <= start, graft everything <= end, stop at
  // the first entry beyond" are two branch-free counting searches per
  // refill. merge_comparisons_ ticks once per entry disposition, plus the
  // probe that finds the first entry beyond the region.
  while (true) {
    size_t avail = inner_buf_.size() - inner_head_;
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
    Group& dst = e->groups[child_index_];
    dst.insert(dst.end(),
               std::make_move_iterator(inner_buf_.begin() + inner_head_),
               std::make_move_iterator(inner_buf_.begin() + inner_head_ +
                                       ngraft));
    inner_head_ += ngraft;
    if (ngraft == avail) continue;  // More of the region may follow.
    ++merge_comparisons_;           // The probe that found n > end.
    break;
  }
}

void PipelinedDescJoin::FillBatch(Batch* out, size_t max_rows) {
  NestedList m;
  while (out->rows.size() < max_rows && outer_rows_.Next(&m, max_rows)) {
    // Batch boundary (DESIGN.md §9): one guard check per outer tuple — the
    // children sample their own guards inside longer stretches of work.
    if (guard() != nullptr && !guard()->Check()) return;
    nestedlist::ForEachEntryMutable(*tree_, outer_->top_slots(), &m,
                                    from_slot_, [&](Entry* e) {
                                      if (e->IsPlaceholder()) return;
                                      MergeInto(e, max_rows);
                                    });
    if (mode_ == EdgeMode::kFor &&
        !nestedlist::EnforceMandatory(*tree_, outer_->top_slots(), &m,
                                      from_slot_, child_index_)) {
      continue;
    }
    out->rows.push_back(std::move(m));
  }
}

ExecStats PipelinedDescJoin::Stats() const {
  ExecStats s = NestedListOperator::Stats();
  s.comparisons = merge_comparisons_;
  // The §4.2 memory requirement: peak inner entries buffered awaiting their
  // containing outer entry, costed at the fixed per-entry footprint.
  s.peak_buffer_bytes = peak_buffered_ * sizeof(Entry);
  return s;
}

void PipelinedDescJoin::Rewind() {
  outer_->Rewind();
  inner_->Rewind();
  outer_rows_.Reset();
  inner_rows_.Reset();
  inner_buf_.clear();
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
      tree_(tree),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      from_slot_(from_slot),
      mode_(mode),
      bounded_(bounded),
      outer_rows_(outer_.get()) {
  inner_top_ = inner_->top_slots()[0];
  child_index_ = nestedlist::ChildIndex(*tree, from_slot, inner_top_);
}

void BoundedNestedLoopJoin::FillBatch(Batch* out, size_t max_rows) {
  NestedList m;
  while (out->rows.size() < max_rows && outer_rows_.Next(&m, max_rows)) {
    // One check per outer tuple; each inner re-scan below is a governed
    // NokScan that samples the guard itself, so even the naive variant's
    // whole-document re-scans observe a trip within ~512 nodes.
    if (guard() != nullptr && !guard()->Check()) return;
    nestedlist::ForEachEntryMutable(
        *tree_, outer_->top_slots(), &m, from_slot_, [&](Entry* e) {
          if (e->IsPlaceholder()) return;
          xml::NodeId end = doc_->SubtreeEnd(e->node);
          if (end == e->node) return;  // Leaf: no descendants.
          // The piggybacked (p1, p2] range of §4.3: the inner NoK scans
          // only within this outer match's subtree. The unbounded variant
          // re-scans everything and filters, as a naive nested loop would.
          if (bounded_) {
            inner_->Restrict(e->node + 1, end);
          }
          inner_->Rewind();
          ++inner_rescans_;
          while (inner_->GetNextBatch(&inner_batch_, max_rows) > 0) {
            for (NestedList& nl : inner_batch_.rows) {
              for (Entry& ie : nl.tops[0]) {
                if (!bounded_ && !(ie.node > e->node && ie.node <= end)) {
                  continue;
                }
                e->groups[child_index_].push_back(std::move(ie));
              }
            }
          }
        });
    if (mode_ == EdgeMode::kFor &&
        !nestedlist::EnforceMandatory(*tree_, outer_->top_slots(), &m,
                                      from_slot_, child_index_)) {
      continue;
    }
    out->rows.push_back(std::move(m));
  }
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
