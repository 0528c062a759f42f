#ifndef BLOSSOMTREE_STORAGE_DISK_STORE_H_
#define BLOSSOMTREE_STORAGE_DISK_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "index/structural_index.h"
#include "storage/btsx2.h"
#include "util/cache.h"
#include "util/status.h"
#include "xml/document.h"

namespace blossomtree {
namespace storage {

/// \brief Open-time knobs for a DiskStore.
struct DiskStoreOptions {
  /// Block granularity of the read accounting; rounded up to a 4 KiB
  /// multiple (which is also a record multiple, so records never straddle
  /// blocks). One block read is counted per block a scan enters.
  size_t block_bytes = 64 << 10;
  /// Inert: the store keeps no block cache (the OS page cache owns the
  /// mapping's residency; see ResidentBytes()). Kept only so the benchmark
  /// harness, which sets it, still compiles.
  uint64_t cache_budget_bytes = 8ull << 20;
  /// Run ValidateBtsx2Deep (O(n)) at open — for untrusted files and tests.
  /// Off by default: trusted reopen stays O(open).
  bool full_validation = false;
  /// Load the `.btsi` structural-index sidecar next to the corpus file
  /// (DESIGN.md §14). A missing sidecar is fine (the store just serves
  /// scans); a sidecar is *ignored* — never an open error — when its
  /// generation stamp differs from the file's on-disk generation (the corpus
  /// was re-ingested without `--index`) or when it fails structural
  /// validation against the adopted document.
  bool load_index = true;
};

/// \brief A scan's or seek's position for block-read accounting: the block
/// it last entered. One cursor belongs to exactly one serial scan, parallel
/// partition or seek, so per-query totals do not depend on how concurrent
/// readers interleave.
struct BlockCursor {
  size_t block = static_cast<size_t>(-1);
};

/// \brief A BTSX v2 file served as a document (DESIGN.md §13): opening is
/// O(open) — header parse, map, adopt — with no XML parse and no index
/// build.
///
/// The file is mapped read-only (or, when mapping fails, read onto the heap)
/// and adopted zero-copy as an xml::Document; the engine runs on it
/// unchanged, and results are byte-identical to the in-RAM path. The OS page
/// cache decides what stays resident, and ResidentBytes() measures it.
///
/// A block read is arithmetic, not I/O the store performs: it is a change of
/// `NodeId / nodes_per_block` along the ids a scan tests, counted
/// through Touch() into one relaxed store-wide total (PageReads()).
/// Thread-safe for concurrent readers.
class DiskStore {
 public:
  static Result<std::unique_ptr<DiskStore>> Open(const std::string& path,
                                                 DiskStoreOptions options = {});

  ~DiskStore();
  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;

  size_t NumNodes() const { return num_nodes_; }
  size_t NumBlocks() const { return num_blocks_; }
  size_t NodesPerBlock() const { return nodes_per_block_; }

  /// \brief The adopted document's (fresh, process-unique) generation.
  uint64_t generation() const { return doc_->generation(); }

  /// \brief Records a visit of ids first..last (ascending, first <= last)
  /// through `cursor`: one block read per block entered, the first one only
  /// if the cursor is not already on it.
  void Touch(xml::NodeId first, xml::NodeId last, BlockCursor* cursor) const {
    size_t begin = first / nodes_per_block_;
    size_t end = last / nodes_per_block_;
    uint64_t reads = end - begin + (begin != cursor->block ? 1 : 0);
    cursor->block = end;
    if (reads != 0) block_reads_.fetch_add(reads, std::memory_order_relaxed);
  }

  /// \brief Block reads across all cursors since the store was opened — the
  /// I/O proxy metric.
  uint64_t PageReads() const {
    return block_reads_.load(std::memory_order_relaxed);
  }

  /// \brief The zero-copy document view over the image — hand it to the
  /// engine like any parsed document. Never null.
  const xml::Document* document() const { return doc_.get(); }

  /// \brief The generation the source document carried when `btingest`
  /// wrote the file — the on-disk version stamp.
  uint64_t on_disk_generation() const { return view_.generation; }

  /// \brief The `.btsi` structural index loaded alongside the corpus file;
  /// nullptr when there was no valid generation-matching sidecar (plans
  /// then fall back to sequential scans). Immutable and safe to share
  /// across concurrent queries.
  const index::StructuralIndex* index() const { return index_.get(); }

  // -- Introspection ---------------------------------------------------------

  uint64_t FileBytes() const { return file_bytes_; }
  uint64_t RecordBytes() const { return view_.records_bytes; }
  bool mmap_backed() const { return heap_image_ == nullptr; }
  /// Always empty: the store keeps no block cache. Kept only so the
  /// benchmark harness, which reads it, still compiles.
  util::CacheStats BlockCacheStats() const { return {}; }

  /// \brief Bytes of this corpus held in memory, as measured: the
  /// page-cache residency of the mapped file's pages (mincore), or the whole
  /// image for the heap fallback. For a file the process may neither write
  /// nor own, Linux's mincore counts only the pages this process has mapped
  /// in.
  uint64_t ResidentBytes() const;

 private:
  DiskStore() = default;

  /// Maps (or, failing that, reads) the open file `fd` and adopts it.
  Status LoadImage(int fd, const std::string& path, bool full_validation);

  const char* image_ = nullptr;
  /// Heap fallback storage when mmap fails: operator new[] so the image
  /// base is 16-byte aligned like an mmap'd one — MapBtsx2 rejects
  /// misaligned bases. Null for a mapped image.
  std::unique_ptr<char[]> heap_image_;
  uint64_t file_bytes_ = 0;

  size_t num_nodes_ = 0;
  size_t nodes_per_block_ = 0;
  size_t num_blocks_ = 0;
  mutable std::atomic<uint64_t> block_reads_{0};

  Btsx2View view_;
  /// Declared after the image members: destroyed before munmap runs.
  std::unique_ptr<xml::Document> doc_;
  std::unique_ptr<index::StructuralIndex> index_;
};

}  // namespace storage
}  // namespace blossomtree

#endif  // BLOSSOMTREE_STORAGE_DISK_STORE_H_
