#ifndef BLOSSOMTREE_STORAGE_DISK_STORE_H_
#define BLOSSOMTREE_STORAGE_DISK_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "index/structural_index.h"
#include "storage/btsx2.h"
#include "storage/node_store.h"
#include "util/cache.h"
#include "util/status.h"
#include "xml/document.h"

namespace blossomtree {
namespace storage {

/// \brief Open-time knobs for a DiskStore.
struct DiskStoreOptions {
  /// Map the file read-only (MAP_SHARED) and serve everything zero-copy;
  /// when mapping fails the store falls back to reading the image onto the
  /// heap. false = explicit pread block I/O: nothing is mapped, only the
  /// header is read eagerly, and record blocks are fetched on demand into
  /// the cache — the mode for files larger than address-space comfort, at
  /// the price of serving only the NodeStore scan API (no document()).
  bool use_mmap = true;
  /// Block granularity of record reads; rounded up to a 4 KiB multiple
  /// (which is also a record multiple, so records never straddle blocks).
  /// In the mapped modes it is only the read-accounting unit (one read per
  /// block entered); in pread mode it is also the I/O and caching unit.
  size_t block_bytes = 64 << 10;
  /// Pread mode only: ResourceGuard byte budget for resident record blocks
  /// (the ShardedLruCache charges every cached block against it and evicts
  /// LRU to stay under). Pinned blocks of in-flight cursors live outside
  /// the budget, so a scan always makes progress even with a budget smaller
  /// than one block. The mapped modes keep no block cache: the OS page
  /// cache owns their residency (see ResidentBytes()).
  uint64_t cache_budget_bytes = 8ull << 20;
  /// Pread mode only: shard count of the block cache.
  size_t cache_shards = 8;
  /// Run ValidateBtsx2Deep (O(n)) at open — for untrusted files and tests.
  /// Off by default: trusted reopen stays O(open).
  bool full_validation = false;
  /// Load the `.btsi` structural-index sidecar next to the corpus file
  /// (DESIGN.md §14), mapped modes only. A missing sidecar is fine (the
  /// store just serves scans); a sidecar is *ignored* — never an open
  /// error — when its generation stamp differs from the file's on-disk
  /// generation (the corpus was re-ingested without `--index`) or when it
  /// fails structural validation against the adopted document.
  bool load_index = true;
};

/// \brief A NodeStore served straight from a BTSX v2 file (DESIGN.md §13):
/// opening is O(open) — header parse, map, adopt — with no XML parse and no
/// index build.
///
/// In the mapped modes (mmap, or the heap image when mapping fails) every
/// record read is a span straight into the image; the OS page cache decides
/// what stays resident, and ResidentBytes() measures it. The store also
/// exposes a full xml::Document facade (AdoptExternal over the image) — the
/// engine runs on it unchanged, and results are byte-identical to the
/// in-RAM path. In pread mode the store owns every record read: blocks are
/// fetched into a util::ShardedLruCache charged against a ResourceGuard
/// byte budget, so a corpus larger than the budget stays scannable as
/// blocks fall out and are re-read on demand.
///
/// Thread-safe for concurrent readers: per-scan state lives in caller-owned
/// ScanCursors.
class DiskStore : public NodeStore {
 public:
  static Result<std::unique_ptr<DiskStore>> Open(const std::string& path,
                                                 DiskStoreOptions options = {});

  ~DiskStore() override;
  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;

  // -- NodeStore -------------------------------------------------------------

  size_t NumNodes() const override { return num_nodes_; }
  size_t NumPages() const override { return num_blocks_; }
  size_t NodesPerPage() const override { return nodes_per_block_; }

  /// \brief The adopted document's (fresh, process-unique) generation in
  /// the mapped modes; the on-disk ingest stamp in pread mode (which has no
  /// document and must not be used as a result-cache identity).
  uint64_t generation() const override { return generation_; }

  NodeRecord Get(xml::NodeId n, ScanCursor* cursor) const override {
    return PageTo(n, cursor)[n - cursor->page * nodes_per_block_];
  }

  /// \brief Zero-copy span over the block holding `n`, clipped to `last`;
  /// same per-block read accounting as sequential Gets. The typed view is
  /// well-formed in every mode: MapBtsx2 admits only 16-byte-aligned
  /// record sections, and pread blocks are NodeRecord vectors.
  std::span<const NodeRecord> NextBlock(xml::NodeId n, xml::NodeId last,
                                        ScanCursor* cursor) const override {
    std::span<const NodeRecord> block = PageTo(n, cursor);
    size_t first = cursor->page * nodes_per_block_;
    size_t end = std::min<size_t>(last, first + block.size() - 1);
    return block.subspan(n - first, end - n + 1);
  }

  std::vector<NodeRange> Partition(size_t max_partitions) const override {
    return PartitionFromRecords(max_partitions);
  }

  uint64_t PageReads() const override {
    return block_reads_.load(std::memory_order_relaxed);
  }
  void ResetCounters() const override {
    block_reads_.store(0, std::memory_order_relaxed);
  }

  // -- Document facade (mapped modes only) -----------------------------------

  /// \brief The zero-copy document view over the mapped image — hand it to
  /// the engine like any parsed document. nullptr in pread mode.
  const xml::Document* document() const { return doc_.get(); }

  /// \brief The generation the source document carried when `btingest`
  /// wrote the file — the on-disk version stamp.
  uint64_t on_disk_generation() const { return on_disk_generation_; }

  /// \brief The `.btsi` structural index loaded alongside the corpus file;
  /// nullptr when there was no valid generation-matching sidecar (plans
  /// then fall back to sequential scans). Immutable and safe to share
  /// across concurrent queries.
  const index::StructuralIndex* index() const { return index_.get(); }

  // -- Introspection ---------------------------------------------------------

  uint64_t FileBytes() const { return file_bytes_; }
  uint64_t RecordBytes() const { return records_bytes_; }
  /// The pread block-cache budget (bounds nothing in the mapped modes).
  uint64_t budget_bytes() const { return budget_bytes_; }
  bool mmap_backed() const { return mode_ == Mode::kMmap; }
  /// The pread block cache's counters; all zero in the mapped modes, which
  /// keep no block cache.
  util::CacheStats BlockCacheStats() const {
    return cache_ != nullptr ? cache_->Stats() : util::CacheStats{};
  }

  /// \brief Bytes of this corpus held in memory, as measured: the
  /// page-cache residency of the mapped file's pages (mincore) in mmap
  /// mode, the whole image in heap mode, the cached blocks in pread mode.
  /// For a file the process may neither write nor own, Linux's mincore
  /// counts only the pages this process has mapped in.
  uint64_t ResidentBytes() const;

 private:
  enum class Mode { kMmap, kHeap, kPread };

  /// One pread-mode record block.
  using Block = std::vector<NodeRecord>;

  DiskStore() = default;

  /// Moves the cursor onto n's block — counting the switch (unless the
  /// cursor is a non-counting planning walk) — and returns the block's
  /// records. Mapped modes slice the image; pread mode pins the cached
  /// block on the cursor.
  std::span<const NodeRecord> PageTo(xml::NodeId n,
                                     ScanCursor* cursor) const {
    size_t block = n / nodes_per_block_;
    if (block != cursor->page) {
      if (mode_ == Mode::kPread) cursor->pin = PinBlock(block);
      cursor->page = block;
      if (cursor->count_reads) {
        ++cursor->reads;
        block_reads_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (mode_ == Mode::kPread) {
      return *static_cast<const Block*>(cursor->pin.get());
    }
    size_t first = block * nodes_per_block_;
    return {view_.records + first,
            std::min(nodes_per_block_, num_nodes_ - first)};
  }

  /// Pread mode: returns the cached block, reading + inserting on miss. The
  /// returned pin keeps the block alive even if the cache refuses it
  /// (budget smaller than one block) or evicts it concurrently.
  std::shared_ptr<const Block> PinBlock(size_t index) const;

  Status LoadImage(const std::string& path, const DiskStoreOptions& options);
  Status LoadPreadHeader(const std::string& path);

  Mode mode_ = Mode::kMmap;
  int fd_ = -1;
  const char* image_ = nullptr;
  size_t image_bytes_ = 0;  ///< Mapped length (0 when nothing is mapped).
  /// kHeap fallback storage: operator new[] so the image base is 16-byte
  /// aligned like an mmap'd one — MapBtsx2 rejects misaligned bases.
  std::unique_ptr<char[]> heap_image_;
  uint64_t file_bytes_ = 0;

  uint64_t records_offset_ = 0;
  uint64_t records_bytes_ = 0;
  size_t num_nodes_ = 0;
  size_t nodes_per_block_ = 0;
  size_t num_blocks_ = 0;
  uint64_t generation_ = 0;
  uint64_t on_disk_generation_ = 0;
  uint64_t budget_bytes_ = 0;

  /// Pread mode only; null in the mapped modes.
  mutable std::unique_ptr<util::ShardedLruCache<uint64_t, Block>> cache_;
  mutable std::atomic<uint64_t> block_reads_{0};

  Btsx2View view_;
  /// Declared after the image members: destroyed before munmap runs.
  std::unique_ptr<xml::Document> doc_;
  std::unique_ptr<index::StructuralIndex> index_;
};

}  // namespace storage
}  // namespace blossomtree

#endif  // BLOSSOMTREE_STORAGE_DISK_STORE_H_
