#ifndef BLOSSOMTREE_STORAGE_PARTITION_H_
#define BLOSSOMTREE_STORAGE_PARTITION_H_

#include <cstddef>
#include <vector>

#include "xml/document.h"

namespace blossomtree {
namespace storage {

/// \brief A contiguous, inclusive range [begin, end] of NodeIds — one
/// partition of a document for intra-query parallel scanning.
struct NodeRange {
  xml::NodeId begin;
  xml::NodeId end;

  size_t size() const { return static_cast<size_t>(end) - begin + 1; }
  bool operator==(const NodeRange& o) const {
    return begin == o.begin && end == o.end;
  }
};

/// \brief Splits a document into at most `max_partitions` contiguous node
/// ranges, cutting only at *top-level subtree boundaries* — the subtrees
/// rooted at the children of the document root — balanced by node count.
///
/// Every match of a NoK rooted inside a partition lies entirely within one
/// top-level subtree, so per-partition matching is independent, and the
/// partitions' ascending NodeId ranges mean concatenating per-partition
/// results in partition order yields exact document order (Theorem 1's
/// Dewey-order argument; see DESIGN.md §7). The root node itself falls in
/// the first partition. Returns an empty vector for an empty document and a
/// single full-document range when no useful cut exists.
///
/// The walk reads `doc.Records()` only and bounds-checks every jump: a
/// mapped image is header-validated by default, so a record whose
/// subtree_end points backwards or past the array ends the walk (one
/// whole-document range) instead of looping or reading out of bounds.
std::vector<NodeRange> PartitionSubtrees(const xml::Document& doc,
                                         size_t max_partitions);

/// \brief Greedy balanced grouping of consecutive top-level subtrees
/// [cuts[i], cuts[i+1]) into at most `max_partitions` contiguous ranges.
/// `cuts` holds the NodeId where each top-level subtree starts (the first
/// entry is the document root itself, which precedes its first child), and
/// `total` is the number of nodes in the document.
std::vector<NodeRange> GroupSubtreeCuts(const std::vector<xml::NodeId>& cuts,
                                        size_t total, size_t max_partitions);

}  // namespace storage
}  // namespace blossomtree

#endif  // BLOSSOMTREE_STORAGE_PARTITION_H_
