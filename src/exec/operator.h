#ifndef BLOSSOMTREE_EXEC_OPERATOR_H_
#define BLOSSOMTREE_EXEC_OPERATOR_H_

#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/exec_stats.h"
#include "nestedlist/nested_list.h"
#include "pattern/blossom_tree.h"
#include "util/resource_guard.h"
#include "util/trace.h"
#include "xml/document.h"

namespace blossomtree {
namespace exec {

/// \brief Pull-based iterator over NestedLists (paper §4.2: operators
/// compose GetNext streams; pipelined joins consume them without
/// materialization). The one production call is GetNextBatch, which hands
/// over up to a batch of rows per call (DESIGN.md §16).
///
/// GetNextBatch is also the one emission point (DESIGN.md §8, §9): every
/// row an operator hands over is charged to its guard there, then counted
/// in the base-class `matches`/`nl_cells` totals. Subclasses only produce
/// rows; none charges or counts its own output.
///
/// Every operator additionally exposes the observability surface of
/// DESIGN.md §8: a name/label, ExecStats counters, and child links so
/// engine::BuildQueryProfile can walk the executed plan tree.
class NestedListOperator {
 public:
  virtual ~NestedListOperator() = default;

  /// \brief The slot context of emitted NestedLists.
  virtual const std::vector<pattern::SlotId>& top_slots() const = 0;

  /// \brief Clears `out` and refills it with up to `max_rows` NestedLists
  /// (clamped to [1, kMaxBatchRows]). Returns the number delivered; 0 ⟺
  /// end of stream. Each filled row is charged to the guard in order, and
  /// the batch is cut at the first refused charge: a row that trips the
  /// budget is never delivered and never counted. The operator's wall
  /// timer and trace span cover each call once, however many rows it
  /// produces.
  size_t GetNextBatch(Batch* out, size_t max_rows);

  /// \brief Restarts the stream from the beginning.
  virtual void Rewind() = 0;

  /// \brief Scan-range push-down: restricts the underlying document scan to
  /// nodes in [begin, end]. Joins propagate this to their outer scan; the
  /// BNLJ uses it to bound its inner side per outer match (paper §4.3).
  /// No-op by default. Call Rewind() afterwards to take effect.
  virtual void Restrict(xml::NodeId begin, xml::NodeId end) {
    (void)begin;
    (void)end;
  }

  // -- Observability (DESIGN.md §8) -----------------------------------------

  /// \brief Operator-class name ("NokScan", "PipelinedDescJoin", ...).
  virtual const char* Name() const { return "Operator"; }

  /// \brief Execution counters accumulated so far. Profile collectors call
  /// Finish() first so lazily-consumed streams report run-to-completion
  /// totals (identical across thread counts). The base fills `wall_nanos`,
  /// `matches` and `nl_cells`; overrides add their own counters to it.
  virtual ExecStats Stats() const;

  /// \brief Runs this operator's stream to completion without emitting to a
  /// consumer, then finishes its children. EXPLAIN ANALYZE semantics: after
  /// Finish(), counters cover the whole input, whether the stream was
  /// consumed lazily (serial scans) or materialized eagerly (parallel
  /// scans) — the normalization the cross-thread determinism tests rely on.
  void Finish();

  /// \brief Plan-tree links for renderers (0 children by default).
  virtual size_t NumChildren() const { return 0; }
  virtual const NestedListOperator* Child(size_t i) const {
    (void)i;
    return nullptr;
  }
  virtual NestedListOperator* MutableChild(size_t i) {
    (void)i;
    return nullptr;
  }

  /// \brief Display label set by the planner ("NokScan(section,figure)");
  /// falls back to Name() when unset.
  std::string Label() const { return label_.empty() ? Name() : label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  /// \brief Planner cardinality estimate for estimated-vs-actual EXPLAIN;
  /// negative when the plan was built without a cost model.
  double estimated_rows() const { return estimated_rows_; }
  void set_estimated_rows(double rows) { estimated_rows_ = rows; }

 protected:
  /// \param guard optional per-query resource guard (DESIGN.md §9):
  ///        GetNextBatch charges every delivered row's cells to it.
  explicit NestedListOperator(util::ResourceGuard* guard = nullptr)
      : guard_(guard) {}

  /// \brief The operator's fill loop: lends the empty `out` up to
  /// `max_rows` (already clamped) rows of an arena it holds (Batch::Lend).
  /// Producing none ends the stream.
  virtual void FillBatch(Batch* out, size_t max_rows) = 0;

  /// \brief The guard passed at construction (nullptr = ungoverned), for
  /// the batch-boundary checks inside FillBatch.
  util::ResourceGuard* guard() const { return guard_; }

 private:
  util::ResourceGuard* guard_;
  std::string label_;
  double estimated_rows_ = -1.0;
  uint64_t wall_nanos_ = 0;
  uint64_t rows_delivered_ = 0;
  uint64_t cells_delivered_ = 0;
};

/// \brief Row-at-a-time view of a child's batch stream, for consumers
/// whose per-row logic (the joins' merge and probe loops) reads one input
/// row at a time. Stages one child batch and refills it when drained.
class BatchReader {
 public:
  explicit BatchReader(NestedListOperator* op) : op_(op) {}

  /// \brief Points `*out` at the next row, refilling the staged batch
  /// with up to `batch_rows` rows when it is drained; false at end of
  /// stream. The row stays valid until the next call. Once the child
  /// reports end, later calls return false without pulling again.
  bool Next(nestedlist::NestedList* out, size_t batch_rows) {
    if (pos_ == batch_.size()) {
      pos_ = 0;
      if (done_ || op_->GetNextBatch(&batch_, batch_rows) == 0) {
        done_ = true;
        return false;
      }
    }
    *out = batch_[pos_++];
    return true;
  }

  /// \brief Drops the staged rows; call after rewinding the child.
  void Reset() {
    batch_.clear();
    pos_ = 0;
    done_ = false;
  }

 private:
  NestedListOperator* op_;
  Batch batch_;
  size_t pos_ = 0;
  bool done_ = false;
};

/// \brief Span name for an operator's timeline events: the planner label
/// when tracing is on, and a free empty string otherwise — call sites pay
/// for the label string only on traced runs (DESIGN.md §10).
inline std::string TraceName(const NestedListOperator& op) {
  return util::Tracer::Get().enabled() ? op.Label() : std::string();
}

/// \brief Drains an operator into one arena, pulling `batch_rows` rows per
/// call (pass the plan's `exec.batch_rows`).
nestedlist::Arena Drain(NestedListOperator* op,
                        size_t batch_rows = ExecOptions{}.batch_rows);

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_OPERATOR_H_
