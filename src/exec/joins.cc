#include "exec/joins.h"

#include <algorithm>
#include <iterator>

#include "exec/kernels.h"
#include "exec/value_ops.h"
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

NestedLoopJoin::NestedLoopJoin(
    std::vector<SlotId> tops, std::unique_ptr<NestedListOperator> left,
    std::unique_ptr<NestedListOperator> right, std::vector<bool> owns_left,
    std::function<bool(const NestedList&, const NestedList&)> pred,
    util::ResourceGuard* guard)
    : NestedListOperator(guard),
      tops_(std::move(tops)),
      left_(std::move(left)),
      right_(std::move(right)),
      owns_left_(std::move(owns_left)),
      pred_(std::move(pred)),
      left_rows_(left_.get()) {}

void NestedLoopJoin::FillBatch(Batch* out, size_t max_rows) {
  if (!right_materialized_) {
    right_mat_ = Drain(right_.get(), max_rows);
    right_materialized_ = true;
  }
  while (out->rows.size() < max_rows) {
    if (!left_valid_) {
      if (!left_rows_.Next(&cur_left_, max_rows)) return;
      left_valid_ = true;
      right_pos_ = 0;
    }
    if (right_pos_ == right_mat_.size()) {
      left_valid_ = false;
      continue;
    }
    // This join is quadratic: sample the clock every ~1k predicate
    // evaluations, with a cheap tripped probe in between.
    if (guard() != nullptr &&
        (guard()->Tripped() ||
         ((pred_calls_ & 0x3FF) == 0x3FF && !guard()->Check()))) {
      return;
    }
    const NestedList& r = right_mat_[right_pos_++];
    // Value comparisons inside the predicate (general compares,
    // deep-equal prefilters) run on this thread: attribute the
    // thread-local delta here (DESIGN.md §8).
    uint64_t cmp_before = ValueComparisonCount();
    ++pred_calls_;
    bool hit = pred_(cur_left_, r);
    value_cmps_ += ValueComparisonCount() - cmp_before;
    if (!hit) continue;
    out->rows.push_back(nestedlist::Combine(cur_left_, r, owns_left_));
  }
}

ExecStats NestedLoopJoin::Stats() const {
  ExecStats s = NestedListOperator::Stats();
  s.comparisons = pred_calls_ + value_cmps_;
  return s;
}

void NestedLoopJoin::Rewind() {
  left_->Rewind();
  left_rows_.Reset();
  left_valid_ = false;
  right_pos_ = 0;
}

FrameOperator::FrameOperator(const pattern::BlossomTree* tree,
                             std::vector<SlotId> frame_tops, size_t position,
                             std::unique_ptr<NestedListOperator> input)
    : tree_(tree),
      frame_tops_(std::move(frame_tops)),
      position_(position),
      input_(std::move(input)) {}

void FrameOperator::FillBatch(Batch* out, size_t max_rows) {
  input_->GetNextBatch(&in_, max_rows);
  for (NestedList& in : in_.rows) {
    NestedList framed;
    framed.tops.reserve(frame_tops_.size());
    for (size_t i = 0; i < frame_tops_.size(); ++i) {
      if (i == position_) {
        framed.tops.push_back(std::move(in.tops[0]));
      } else {
        Group g;
        g.push_back(nestedlist::MakePlaceholderEntry(*tree_, frame_tops_[i]));
        framed.tops.push_back(std::move(g));
      }
    }
    out->rows.push_back(std::move(framed));
  }
}

void FrameOperator::Rewind() { input_->Rewind(); }

}  // namespace exec
}  // namespace blossomtree
