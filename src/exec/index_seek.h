#ifndef BLOSSOMTREE_EXEC_INDEX_SEEK_H_
#define BLOSSOMTREE_EXEC_INDEX_SEEK_H_

#include <optional>
#include <span>
#include <vector>

#include "exec/nok_scan.h"
#include "exec/operator.h"
#include "storage/disk_store.h"
#include "util/resource_guard.h"
#include "xml/document.h"

namespace blossomtree {
namespace exec {

/// \brief Index-driven NoK access path (DESIGN.md §14): instead of testing
/// the NoK at every document node, probe only the candidate NodeIds the
/// planner chose — the root tag's stream (xml::Document::TagIndex,
/// borrowed), an exact value-index equality run (owned), or the empty set
/// when the DataGuide proved the NoK's mandatory paths absent.
///
/// Each candidate is re-verified with the full NokMatcher (RootTest +
/// MatchAt), so a candidate *superset* is always safe; the index layer
/// guarantees no candidate is missing. Candidates are in document order, so
/// the emitted stream is byte-identical to the sequential scan's — the
/// planner may swap access paths without changing any result.
///
/// Counters: every probed candidate counts as one `nodes_scanned` (the same
/// I/O proxy the scan reports, making seek-vs-scan reductions directly
/// comparable) and one `index_entries` (the seek's own work metric). All
/// probing happens on the consumer thread, so the counters are
/// deterministic at every thread count.
class IndexSeekOperator : public NestedListOperator {
 public:
  /// \param candidates NodeIds to probe, ascending document order; the
  ///        planner's access-path choice (empty = provably-empty NoK).
  ///        Borrowed: they must outlive the operator, as a tag stream of
  ///        `doc` does...
  /// \param owned ...unless `owned` is set (a value-index run): then the
  ///        operator keeps that run and probes it instead.
  /// \param guard optional per-query resource guard, sampled every ~512
  ///        probes.
  /// \param store optional DiskStore whose image `doc` is: probed
  ///        candidates count their blocks through it, so block-read
  ///        counters see the seek's access pattern.
  IndexSeekOperator(const xml::Document* doc,
                    const pattern::BlossomTree* tree,
                    const pattern::NokTree* nok,
                    std::span<const xml::NodeId> candidates,
                    std::optional<std::vector<xml::NodeId>> owned =
                        std::nullopt,
                    util::ResourceGuard* guard = nullptr,
                    const storage::DiskStore* store = nullptr);

  const std::vector<pattern::SlotId>& top_slots() const override {
    return matcher_.top_slots();
  }

  void Rewind() override;

  /// \brief Restricts probing to candidates in [begin, end] (the BNLJ
  /// inner-side push-down); a binary search skips the out-of-range prefix.
  void Restrict(xml::NodeId begin, xml::NodeId end) override;

  const char* Name() const override { return "IndexSeek"; }
  ExecStats Stats() const override;

  /// \brief Candidates probed so far — the seek's `nodes_scanned`.
  uint64_t NodesScanned() const { return probed_; }

 protected:
  void FillBatch(Batch* out, size_t max_rows) override;

 private:
  const xml::Document* doc_;
  NokMatcher matcher_;
  /// The current batch's rows, lent to the consumer.
  nestedlist::Arena out_;
  std::vector<xml::NodeId> owned_;  ///< Backs `candidates_` when given.
  std::span<const xml::NodeId> candidates_;
  size_t pos_ = 0;
  xml::NodeId range_begin_ = 0;
  xml::NodeId range_end_;

  uint64_t probed_ = 0;

  const storage::DiskStore* store_;
  storage::BlockCursor io_cursor_;
};

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_INDEX_SEEK_H_
