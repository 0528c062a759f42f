#ifndef BLOSSOMTREE_EXEC_JOINS_H_
#define BLOSSOMTREE_EXEC_JOINS_H_

#include <memory>
#include <vector>

#include "exec/batch.h"
#include "exec/nok_scan.h"
#include "exec/operator.h"
#include "nestedlist/ops.h"
#include "util/resource_guard.h"

namespace blossomtree {
namespace exec {

/// \brief Pipelined //-join (paper §4.2 GetNext algorithm): merge-join of an
/// outer NestedList stream with an inner NoK stream, grafting each inner
/// match under the outer entry (at `from_slot`) whose subtree contains it.
///
/// Correct only when projections are document-order preserving, i.e. on
/// non-recursive documents (Theorem 2); the optimizer enforces that
/// precondition. No intermediate results are materialized: the join holds
/// one in-flight inner run plus one staged batch per child. The run is the
/// current inner row's top group, read in place in the staged batch, so
/// PeakBuffered() measures the §4.2 run alone. Each output row is the outer
/// row rewritten into the join's output arena with the run's entries
/// copied into the grafted group.
class PipelinedDescJoin : public NestedListOperator {
 public:
  /// \param from_slot the outer slot the cut //-edge leaves from.
  /// \param mode f: outer entries without any inner match are pruned
  ///        (cascading); l: they are kept with an empty group.
  /// \param guard optional per-query resource guard, checked once per outer
  ///        tuple (DESIGN.md §9).
  PipelinedDescJoin(const xml::Document* doc,
                    const pattern::BlossomTree* tree,
                    std::unique_ptr<NestedListOperator> outer,
                    std::unique_ptr<NestedListOperator> inner,
                    pattern::SlotId from_slot, pattern::EdgeMode mode,
                    util::ResourceGuard* guard = nullptr);

  const std::vector<pattern::SlotId>& top_slots() const override {
    return outer_->top_slots();
  }
  void Rewind() override;
  void Restrict(xml::NodeId begin, xml::NodeId end) override {
    outer_->Restrict(begin, end);
    inner_->Restrict(begin, end);
  }

  /// \brief Peak number of buffered inner entries (the §4.2 memory-
  /// requirement metric: grows with document recursion).
  size_t PeakBuffered() const { return peak_buffered_; }

  const char* Name() const override { return "PipelinedDescJoin"; }
  ExecStats Stats() const override;
  size_t NumChildren() const override { return 2; }
  const NestedListOperator* Child(size_t i) const override {
    return i == 0 ? outer_.get() : inner_.get();
  }
  NestedListOperator* MutableChild(size_t i) override {
    return i == 0 ? outer_.get() : inner_.get();
  }

 protected:
  void FillBatch(Batch* out, size_t max_rows) override;

 private:
  /// Makes the next inner row the run, pulling a staged batch of
  /// `batch_rows` when needed; false at the end of the inner.
  bool FetchInner(size_t batch_rows);
  /// Grafts the run's entries inside `node`'s subtree into the group being
  /// written to `dst` (the paper GetNext lines 7-9), fetching more inner
  /// as the run drains.
  void MergeInto(xml::NodeId node, nestedlist::Arena* dst, size_t batch_rows);

  const xml::Document* doc_;
  std::unique_ptr<NestedListOperator> outer_;
  std::unique_ptr<NestedListOperator> inner_;
  /// The grafted group: the inner top slot's index among from_slot's
  /// child slots.
  uint32_t child_index_;
  pattern::EdgeMode mode_;
  /// Where from_slot's entries sit in an outer row, resolved once.
  nestedlist::SlotPath path_;
  nestedlist::RowWriter writer_;
  /// The current batch's rows, lent to the consumer.
  nestedlist::Arena out_;
  BatchReader outer_rows_;
  BatchReader inner_rows_;

  /// The inner run: entries [inner_head_, inner_nodes_.size()) of
  /// `inner_row_`'s top group are live, with their region labels mirrored
  /// in inner_nodes_ so the merge can binary-search a flat sorted NodeId
  /// array (the CountLessEq containment test) without touching the
  /// entries.
  nestedlist::NestedList inner_row_;
  std::vector<xml::NodeId> inner_nodes_;
  size_t inner_head_ = 0;
  size_t peak_buffered_ = 0;

  uint64_t merge_comparisons_ = 0;
};

/// \brief Bounded nested-loop //-join (paper §4.3): for every outer entry,
/// re-scan the inner NoK restricted to the entry's subtree range (p1, p2].
/// Works on recursive documents (unlike the pipelined join) at the price of
/// repeated scans — NokScanOperator::NodesScanned exposes that cost.
class BoundedNestedLoopJoin : public NestedListOperator {
 public:
  /// \param bounded true: restrict each inner re-scan to the outer match's
  ///        subtree range (the paper's BNLJ); false: re-scan the whole
  ///        document per outer entry (the naive nested-loop strawman the
  ///        ablation bench compares against).
  /// \param guard optional per-query resource guard, checked once per outer
  ///        tuple (the inner re-scan is governed by the inner operator's
  ///        own guard).
  BoundedNestedLoopJoin(const xml::Document* doc,
                        const pattern::BlossomTree* tree,
                        std::unique_ptr<NestedListOperator> outer,
                        std::unique_ptr<NestedListOperator> inner,
                        pattern::SlotId from_slot, pattern::EdgeMode mode,
                        bool bounded = true,
                        util::ResourceGuard* guard = nullptr);

  const std::vector<pattern::SlotId>& top_slots() const override {
    return outer_->top_slots();
  }
  void Rewind() override;
  void Restrict(xml::NodeId begin, xml::NodeId end) override {
    outer_->Restrict(begin, end);
  }

  /// \brief Number of inner re-scans performed (one per outer entry).
  uint64_t InnerRescans() const { return inner_rescans_; }

  const char* Name() const override {
    return bounded_ ? "BoundedNestedLoopJoin" : "NaiveNestedLoopJoin";
  }
  ExecStats Stats() const override;
  size_t NumChildren() const override { return 2; }
  const NestedListOperator* Child(size_t i) const override {
    return i == 0 ? outer_.get() : inner_.get();
  }
  NestedListOperator* MutableChild(size_t i) override {
    return i == 0 ? outer_.get() : inner_.get();
  }

 protected:
  void FillBatch(Batch* out, size_t max_rows) override;

 private:
  const xml::Document* doc_;
  std::unique_ptr<NestedListOperator> outer_;
  std::unique_ptr<NestedListOperator> inner_;
  /// The grafted group: the inner top slot's index among from_slot's
  /// child slots.
  uint32_t child_index_;
  pattern::EdgeMode mode_;
  bool bounded_;
  /// Where from_slot's entries sit in an outer row, resolved once.
  nestedlist::SlotPath path_;
  nestedlist::RowWriter writer_;
  /// The current batch's rows, lent to the consumer.
  nestedlist::Arena out_;
  BatchReader outer_rows_;
  /// Reused across the per-entry inner re-scans.
  Batch inner_batch_;
  uint64_t inner_rescans_ = 0;
};

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_JOINS_H_
