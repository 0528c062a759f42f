#include "storage/page_store.h"

#include "util/trace.h"

namespace blossomtree {
namespace storage {

std::vector<NodeRange> PartitionSubtrees(const xml::Document& doc,
                                         size_t max_partitions) {
  util::TraceSpan span("storage", "PartitionSubtrees");
  std::vector<xml::NodeId> cuts;
  if (!doc.empty()) {
    cuts.push_back(doc.Root());
    for (xml::NodeId c = doc.FirstChild(doc.Root()); c != xml::kNullNode;
         c = doc.NextSibling(c)) {
      cuts.push_back(c);
    }
  }
  return GroupSubtreeCuts(cuts, doc.NumNodes(), max_partitions);
}

std::vector<NodeRange> PageStore::Partition(size_t max_partitions) const {
  util::TraceSpan span("storage", "PageStore::Partition");
  std::vector<xml::NodeId> cuts;
  if (!records_.empty()) {
    cuts.push_back(0);
    // Children of the root are the level-1 records; each one's subtree_end
    // jumps to the next. A store built from an empty or failed document can
    // carry a root whose subtree_end points past the record array, so every
    // index is bounds-checked: out-of-range walks terminate (yielding the
    // single whole-store range) instead of reading out of bounds.
    xml::NodeId c = (records_[0].subtree_end > 0 && records_.size() > 1)
                        ? 1
                        : xml::kNullNode;
    while (c != xml::kNullNode && c < records_.size()) {
      cuts.push_back(c);
      xml::NodeId next = records_[c].subtree_end + 1;
      c = (next > c && next < records_.size() && records_[next].level == 1)
              ? next
              : xml::kNullNode;
    }
  }
  return GroupSubtreeCuts(cuts, records_.size(), max_partitions);
}

PageStore::PageStore(const xml::Document& doc, size_t page_bytes)
    : records_(doc.Records()), generation_(doc.generation()) {
  nodes_per_page_ = std::max<size_t>(page_bytes / sizeof(NodeRecord), 1);
  num_pages_ = (records_.size() + nodes_per_page_ - 1) / nodes_per_page_;
}

}  // namespace storage
}  // namespace blossomtree
