#ifndef BLOSSOMTREE_STORAGE_PAGE_STORE_H_
#define BLOSSOMTREE_STORAGE_PAGE_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "storage/node_store.h"
#include "xml/document.h"

namespace blossomtree {
namespace storage {

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
std::vector<NodeRange> PartitionSubtrees(const xml::Document& doc,
                                         size_t max_partitions);

/// \brief A document-order, page-partitioned in-RAM node store with access
/// counting.
///
/// Models the paper's secondary-storage scans: every page touched is counted,
/// so benches can report scan/I-O proxies (e.g. merged-NoK saves scans;
/// BNLJ touches only the outer match's subtree range). The one-page
/// sequential-reader cache lives in the caller's ScanCursor — one per scan —
/// so a linear scan of N nodes costs ~N / nodes_per_page page reads, random
/// re-reads cost a page each, and concurrent scans over one shared store
/// (the service::CorpusDocument regime) each account their own reads
/// exactly: totals are the interleaving-independent sum of per-cursor
/// counts, not a function of how readers happened to ping-pong one shared
/// "current page" slot.
class PageStore : public NodeStore {
 public:
  /// \brief Serves `doc`'s own record stream (no copy): the document must
  /// outlive the store and take no further appends.
  /// \param page_bytes page size in bytes (default 4 KiB).
  explicit PageStore(const xml::Document& doc, size_t page_bytes = 4096);

  size_t NumNodes() const override { return records_.size(); }
  size_t NumPages() const override { return num_pages_; }
  size_t NodesPerPage() const override { return nodes_per_page_; }
  uint64_t generation() const override { return generation_; }

  /// \brief Fetches the record for `n`, counting a page read on the
  /// cursor's page switch (aggregated into the store-wide total).
  NodeRecord Get(xml::NodeId n, ScanCursor* cursor) const override {
    Page(n, cursor);
    return records_[n];
  }

  /// \brief Zero-copy span over the records of n's page, clipped to
  /// `last`; same per-page read accounting as sequential Gets.
  std::span<const NodeRecord> NextBlock(xml::NodeId n, xml::NodeId last,
                                        ScanCursor* cursor) const override {
    size_t page = Page(n, cursor);
    size_t end = std::min<size_t>(
        {static_cast<size_t>(last), (page + 1) * nodes_per_page_ - 1,
         records_.size() - 1});
    return {records_.data() + n, end - n + 1};
  }

  // -- I/O accounting --------------------------------------------------------

  uint64_t PageReads() const override {
    return page_reads_.load(std::memory_order_relaxed);
  }
  void ResetCounters() const override {
    page_reads_.store(0, std::memory_order_relaxed);
  }

  /// \brief Partitions the stored document into at most `max_partitions`
  /// contiguous node ranges cut at top-level subtree boundaries (see
  /// PartitionSubtrees above), using the store's own records. Does not
  /// count page reads: partitioning is planning, not scan I/O.
  std::vector<NodeRange> Partition(size_t max_partitions) const override;

 private:
  /// Moves the cursor onto n's page, counting the switch (unless the
  /// cursor is a non-counting planning walk); returns the page index.
  size_t Page(xml::NodeId n, ScanCursor* cursor) const {
    size_t page = n / nodes_per_page_;
    if (page != cursor->page) {
      cursor->page = page;
      if (cursor->count_reads) {
        ++cursor->reads;
        page_reads_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return page;
  }

  std::span<const NodeRecord> records_;  ///< The document's Records().
  size_t nodes_per_page_;
  size_t num_pages_;
  mutable std::atomic<uint64_t> page_reads_{0};
  uint64_t generation_ = 0;  ///< Copied from the source document.
};

}  // namespace storage
}  // namespace blossomtree

#endif  // BLOSSOMTREE_STORAGE_PAGE_STORE_H_
