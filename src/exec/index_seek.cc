#include "exec/index_seek.h"

#include <algorithm>

#include "exec/value_ops.h"

namespace blossomtree {
namespace exec {

IndexSeekOperator::IndexSeekOperator(
    const xml::Document* doc, const pattern::BlossomTree* tree,
    const pattern::NokTree* nok, std::span<const xml::NodeId> candidates,
    std::optional<std::vector<xml::NodeId>> owned, util::ResourceGuard* guard,
    const storage::DiskStore* store)
    : NestedListOperator(guard),
      doc_(doc),
      matcher_(doc, tree, nok),
      candidates_(candidates),
      range_end_(doc->NumNodes() == 0
                     ? 0
                     : static_cast<xml::NodeId>(doc->NumNodes() - 1)),
      store_(store) {
  matcher_.set_guard(guard);
  if (owned) {
    owned_ = std::move(*owned);
    candidates_ = owned_;
  }
}

void IndexSeekOperator::FillBatch(Batch* out, size_t max_rows) {
  util::ResourceGuard* g = guard();
  out_.clear();
  while (out_.size() < max_rows && pos_ < candidates_.size() &&
         candidates_[pos_] <= range_end_) {
    if (g != nullptr &&
        (g->Tripped() || ((probed_ & 0x1FF) == 0x1FF && !g->Check()))) {
      break;
    }
    if (pos_ + kPrefetchAhead < candidates_.size()) {
      doc_->PrefetchRecords(candidates_[pos_ + kPrefetchAhead],
                            kPrefetchLines);
    }
    xml::NodeId x = candidates_[pos_++];
    ++probed_;
    if (store_ != nullptr) store_->Touch(x, x, &io_cursor_);
    if (matcher_.RootTest(x)) matcher_.MatchAt(x, &out_);
  }
  out->Lend(&out_, 0, static_cast<uint32_t>(out_.size()));
}

void IndexSeekOperator::Rewind() {
  pos_ = static_cast<size_t>(
      std::lower_bound(candidates_.begin(), candidates_.end(), range_begin_) -
      candidates_.begin());
  io_cursor_ = storage::BlockCursor();
}

void IndexSeekOperator::Restrict(xml::NodeId begin, xml::NodeId end) {
  range_begin_ = begin;
  range_end_ = end;
}

ExecStats IndexSeekOperator::Stats() const {
  ExecStats s = NestedListOperator::Stats();
  s.nodes_scanned = probed_;
  s.index_entries = probed_;
  s.comparisons = matcher_.MatchWork();
  return s;
}

}  // namespace exec
}  // namespace blossomtree
