#ifndef BLOSSOMTREE_EXEC_MERGED_SCAN_H_
#define BLOSSOMTREE_EXEC_MERGED_SCAN_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "exec/nok_scan.h"
#include "exec/operator.h"

namespace blossomtree {
namespace exec {

/// \brief A stream over a frozen arena of NestedLists (the per-NoK output
/// view of the merged scan): lends its rows batch by batch, charged to
/// `guard` at handout like every operator's (DESIGN.md §9).
class MaterializedOperator : public NestedListOperator {
 public:
  MaterializedOperator(std::vector<pattern::SlotId> tops,
                       std::shared_ptr<const nestedlist::Arena> lists,
                       util::ResourceGuard* guard = nullptr)
      : NestedListOperator(guard),
        tops_(std::move(tops)),
        lists_(std::move(lists)) {}

  const std::vector<pattern::SlotId>& top_slots() const override {
    return tops_;
  }
  void Rewind() override { pos_ = 0; }

  const char* Name() const override { return "Materialized"; }

 protected:
  void FillBatch(Batch* out, size_t max_rows) override {
    uint32_t n = static_cast<uint32_t>(
        std::min<size_t>(max_rows, lists_->size() - pos_));
    if (n > 0) out->Lend(lists_.get(), pos_, n);
    pos_ += n;
  }

 private:
  std::vector<pattern::SlotId> tops_;
  std::shared_ptr<const nestedlist::Arena> lists_;
  uint32_t pos_ = 0;
};

/// \brief Merged NoK evaluation (paper §4.2 "merging NoK operators"): runs
/// several NoK pattern matchers over ONE pass over the document — the
/// DFA→NFA-style frontier merging that reduces k scans to one whenever
/// multiple NoK operators read the same document. With a wildcard root
/// that saves k-1 full passes; with concrete roots, whose scans test only
/// their root tag's stream, it saves the re-walks of a root tag that
/// several NoKs share.
///
/// Usage: construct with the NoKs, call Run() once, then take per-NoK
/// operator views with MakeOperator(i).
class MergedNokScan {
 public:
  /// \param guard optional per-query resource guard; the shared pass
  ///        samples it every ~512 nodes and stops scanning once tripped
  ///        (the partial materialization is then discarded by the caller,
  ///        which must check guard->status()). The per-NoK views charge
  ///        it for every row they hand out.
  /// When every root tag is concrete, the pass walks each distinct root
  /// tag's stream (xml::Document::TagIndex) once instead of dispatching per
  /// node — the same per-NoK streams and comparisons (probes re-verify
  /// every candidate). Any wildcard root selects the per-node pass.
  MergedNokScan(const xml::Document* doc, const pattern::BlossomTree* tree,
                std::vector<const pattern::NokTree*> noks,
                util::ResourceGuard* guard = nullptr);

  /// \brief Performs the single scan, materializing every NoK's matches.
  void Run();

  /// \brief Nodes the single shared pass tested: the entries of each
  /// distinct root tag's stream, or every node for the per-node pass
  /// (compare with the sum over k separate scans — the ablation bench's
  /// metric).
  uint64_t NodesScanned() const { return nodes_scanned_; }

  /// \brief Matcher work (constraint checks), which is *not* shared.
  uint64_t MatchWork() const;

  size_t NumNoks() const { return matchers_.size(); }

  /// \brief Stream view over NoK i's matches (valid after Run()), governed
  /// by the scan's guard.
  std::unique_ptr<MaterializedOperator> MakeOperator(size_t i);

  /// \brief Counters of the one shared pass (DESIGN.md §8): the scan cost
  /// is reported once here, not multiplied into the per-NoK views.
  ExecStats ScanStats() const;

 private:
  const xml::Document* doc_;
  util::ResourceGuard* guard_;
  std::vector<std::unique_ptr<NokMatcher>> matchers_;
  std::vector<bool> virtual_root_;
  std::vector<bool> match_any_;
  std::vector<std::string> root_tag_;
  /// Per NoK, its matches in document order (frozen after Run()).
  std::vector<std::shared_ptr<nestedlist::Arena>> results_;
  uint64_t nodes_scanned_ = 0;
  uint64_t wall_nanos_ = 0;
  bool ran_ = false;
};

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_MERGED_SCAN_H_
