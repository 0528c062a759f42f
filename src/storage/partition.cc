#include "storage/partition.h"

#include <span>

#include "util/trace.h"

namespace blossomtree {
namespace storage {

std::vector<NodeRange> PartitionSubtrees(const xml::Document& doc,
                                         size_t max_partitions) {
  util::TraceSpan span("storage", "PartitionSubtrees");
  std::span<const xml::PackedNodeRecord> records = doc.Records();
  std::vector<xml::NodeId> cuts;
  if (!records.empty()) {
    cuts.push_back(0);
    // Children of the root are the level-1 records; each one's subtree_end
    // jumps to the next. A document abandoned mid-build can carry a root
    // whose subtree_end points past the record array, and an unvalidated
    // image anything at all, so every jump must move forward and stay in
    // bounds.
    xml::NodeId c = (records[0].subtree_end > 0 && records.size() > 1)
                        ? 1
                        : xml::kNullNode;
    while (c != xml::kNullNode && c < records.size()) {
      cuts.push_back(c);
      xml::NodeId next = records[c].subtree_end + 1;
      c = (next > c && next < records.size() && records[next].level == 1)
              ? next
              : xml::kNullNode;
    }
  }
  return GroupSubtreeCuts(cuts, records.size(), max_partitions);
}

std::vector<NodeRange> GroupSubtreeCuts(const std::vector<xml::NodeId>& cuts,
                                        size_t total, size_t max_partitions) {
  std::vector<NodeRange> out;
  if (total == 0) return out;
  xml::NodeId last = static_cast<xml::NodeId>(total - 1);
  if (max_partitions <= 1 || cuts.size() <= 1) {
    out.push_back({0, last});
    return out;
  }
  size_t target = (total + max_partitions - 1) / max_partitions;
  xml::NodeId begin = 0;
  for (size_t i = 1; i < cuts.size(); ++i) {
    // cuts[i] starts a new top-level subtree: a legal cut point.
    size_t acc = cuts[i] - begin;
    if (acc >= target && out.size() + 1 < max_partitions) {
      out.push_back({begin, static_cast<xml::NodeId>(cuts[i] - 1)});
      begin = cuts[i];
    }
  }
  out.push_back({begin, last});
  return out;
}

}  // namespace storage
}  // namespace blossomtree
