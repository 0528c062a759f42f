#ifndef BLOSSOMTREE_EXEC_NOK_SCAN_H_
#define BLOSSOMTREE_EXEC_NOK_SCAN_H_

#include <cstdint>
#include <vector>

#include <string>

#include "exec/batch.h"
#include "exec/operator.h"
#include "exec/result_cache.h"
#include "nestedlist/nested_list.h"
#include "pattern/decompose.h"
#include "storage/node_store.h"
#include "storage/page_store.h"
#include "util/resource_guard.h"
#include "util/thread_pool.h"
#include "xml/document.h"

namespace blossomtree {
namespace exec {

/// \brief Sentinel NodeId for the virtual document root "~" (the node above
/// the root element that anchors absolute paths).
constexpr xml::NodeId kVirtualRootNode = static_cast<xml::NodeId>(-2);

/// \brief NoK pattern-tree matcher (paper Algorithm 2): matches one NoK
/// pattern tree (local axes only) against the subtree rooted at a given
/// XML node, building the NestedList groups for every returning node in
/// one depth-first pass.
class NokMatcher {
 public:
  NokMatcher(const xml::Document* doc, const pattern::BlossomTree* tree,
             const pattern::NokTree* nok);

  /// \brief The NoK's local top slots: the slots its output NestedLists'
  /// `tops` are aligned with.
  const std::vector<pattern::SlotId>& top_slots() const { return top_slots_; }

  /// \brief Attempts to match the NoK rooted at `x` (kVirtualRootNode for a
  /// "~"-rooted NoK). On success fills `out` and returns true.
  bool MatchAt(xml::NodeId x, nestedlist::NestedList* out);

  /// \brief True if `x` can possibly match the NoK root (tag + value test);
  /// the scan driver uses this as a cheap prefilter.
  bool RootTest(xml::NodeId x) const;

  /// \brief Pattern-vertex/node constraint checks performed so far (a
  /// work metric for the ablation benches).
  uint64_t MatchWork() const { return match_work_; }

  /// \brief Attaches a resource guard: MatchVertex samples it every ~1k
  /// work units (DESIGN.md §9) so a deadline fires even inside one deep
  /// recursive match. After a trip MatchAt returns false; its partial
  /// output is garbage and callers must consult guard->status().
  void set_guard(util::ResourceGuard* guard) { guard_ = guard; }

 private:
  struct LocalVertex {
    pattern::VertexId vertex;
    std::vector<uint32_t> local_children;  ///< Indices into locals_.
    /// Slots this vertex contributes upward: [slot(v)] if returning, else
    /// the concatenation over local children.
    std::vector<pattern::SlotId> next_slots;
    /// For returning vertices: for each local child's next slot, its index
    /// within slot(v).children (global child-slot layout).
    std::vector<size_t> child_slot_index;
  };

  bool ConstraintsOk(const pattern::Vertex& v, xml::NodeId x) const;
  bool TagOk(const pattern::Vertex& v, xml::NodeId x) const;
  bool MatchVertex(uint32_t local_index, xml::NodeId x,
                   std::vector<nestedlist::Group>* out_groups);

  const xml::Document* doc_;
  const pattern::BlossomTree* tree_;
  const pattern::NokTree* nok_;
  std::vector<LocalVertex> locals_;  ///< locals_[0] is the NoK root.
  std::vector<pattern::SlotId> top_slots_;
  uint64_t match_work_ = 0;
  util::ResourceGuard* guard_ = nullptr;
};

/// \brief Sequential-scan driver (paper §3.3's "sequential scan of the XML
/// tree against the blossom tree"): tries the NoK at every node in document
/// order and emits one NestedList per match, as a pull iterator. A "~"-rooted
/// NoK is a one-node range: one MatchAt(kVirtualRootNode) per scan.
///
/// Two drivers produce the stream:
///  - the *lazy* chunk loop (uncached serial scans) scans ≤kScanChunk nodes
///    at a time, only as far as the consumer pulls;
///  - the *materializing* driver (cache- or parallel-eligible scans) splits
///    the range into partitions — storage::PartitionSubtrees at the pool's
///    thread count in parallel mode, else the one whole range — probes each
///    partition in the result cache, scans the misses (across the pool, or
///    inline for one partition), fills the cache and concatenates in
///    partition order.
/// Partition ranges ascend in NodeId (= Dewey/document order), and every
/// match is local to its partition, so the concatenation is bitwise-
/// identical to the lazy driver's stream (Theorem 1; DESIGN.md §7).
/// Range-restricted scans (the BNLJ inner side) always take the lazy path.
/// Neither driver charges or counts its output: GetNextBatch does, at
/// handout, for both (DESIGN.md §9).
class NokScanOperator : public NestedListOperator {
 public:
  /// \param pool optional worker pool; nullptr (or a restricted range)
  ///        selects the exact serial scan.
  /// \param guard optional per-query resource guard, sampled at batch
  ///        boundaries (every ~512 nodes, per partition in parallel mode);
  ///        once tripped the stream ends early and the caller must check
  ///        guard->status().
  /// \param cache optional NoK sub-result cache (DESIGN.md §11): full-range
  ///        scans probe it by (document generation, canonical NoK, range)
  ///        and replay a hit's materialized matches without scanning;
  ///        complete cold scans fill it. Range-restricted scans (the BNLJ
  ///        inner side) bypass it. nullptr = the exact uncached scan.
  /// \param store optional paged node store backing `doc` (an in-RAM
  ///        PageStore or an out-of-core DiskStore): the scan drivers touch
  ///        every visited node through it with a per-scan cursor, so
  ///        page/block-read counts reflect the scan's real access
  ///        pattern — deterministically, independent of concurrent readers.
  ///        Partitioning also goes through the store when attached.
  /// \param exec execution knobs (DESIGN.md §16); `exec.simd` picks the
  ///        kernel backend of the tag-id candidate prefilter.
  NokScanOperator(const xml::Document* doc, const pattern::BlossomTree* tree,
                  const pattern::NokTree* nok,
                  util::ThreadPool* pool = nullptr,
                  util::ResourceGuard* guard = nullptr,
                  NokResultCache* cache = nullptr,
                  const storage::NodeStore* store = nullptr,
                  ExecOptions exec = {});

  const std::vector<pattern::SlotId>& top_slots() const override {
    return matcher_.top_slots();
  }

  /// \brief Restricts the scan to nodes in [begin, end] (inclusive) — the
  /// bounded range of the BNLJ inner side (paper §4.3). Call before the
  /// first GetNextBatch or after Rewind.
  void SetRange(xml::NodeId begin, xml::NodeId end);

  void Restrict(xml::NodeId begin, xml::NodeId end) override {
    SetRange(begin, end);
  }

  void Rewind() override;

  /// \brief Nodes the driver has scanned (the I/O proxy: one sequential
  /// pass costs NumNodes). Parallel partitions contribute their counts.
  uint64_t NodesScanned() const { return nodes_scanned_; }
  uint64_t MatchWork() const { return matcher_.MatchWork() + parallel_work_; }

  /// \brief Partitions used by the last parallel scan (0 = serial path).
  size_t PartitionsUsed() const { return partitions_used_; }

  const char* Name() const override { return "NokScan"; }

  /// \brief Counters (DESIGN.md §8): the lazy driver accumulates scan work
  /// as the stream is consumed; the materializing driver merges
  /// per-partition counts in partition order. After Finish() both report
  /// identical totals.
  ExecStats Stats() const override;

 protected:
  /// Emits matches in document order of the match root.
  void FillBatch(Batch* out, size_t max_rows) override;

 private:
  /// Chunk granularity of the batched scan drivers: guard checks, kernel
  /// candidate prefilters, and bulk nodes_scanned accounting all happen at
  /// this stride (DESIGN.md §16).
  static constexpr size_t kScanChunk = 512;

  /// Lazy driver: refills the buffer with the next chunk(s) of the range
  /// until it holds a match; false at the end of the range or on a trip.
  bool ScanNextChunk();

  /// Scans nodes [begin, end] with matcher `m`, touching `store_` through
  /// `io`, bulk-counting scanned nodes / value comparisons into *scanned /
  /// *vcmps and appending matches to *out. Chunked: the guard is sampled at
  /// every ≤kScanChunk-node chunk top; Check() never mutates counters, and
  /// a tripped run discards its results. A "~"-rooted NoK ignores the range
  /// and matches once. Returns false iff the guard tripped mid-scan.
  bool ScanRange(NokMatcher* m, xml::NodeId begin, xml::NodeId end,
                 storage::ScanCursor* io, uint64_t* scanned, uint64_t* vcmps,
                 std::vector<nestedlist::NestedList>* out) const;

  /// Collects NodeIds in [first, last] whose tag id equals target_tag_
  /// (the SIMD kernels; scalar fallback when exec_.simd is off). Touches
  /// the store block-at-a-time through `io` with the same read accounting
  /// as per-node Gets.
  void GatherCandidates(xml::NodeId first, xml::NodeId last,
                        storage::ScanCursor* io,
                        std::vector<xml::NodeId>* out) const;

  /// True when the pending scan may run partitioned: a pool is attached and
  /// the range covers the whole document (the BNLJ's restricted inner
  /// re-scans stay serial — their ranges are single subtrees).
  bool ParallelEligible() const;

  /// True when the pending scan may use the result cache: a cache is
  /// attached and the range covers the whole finished document.
  bool CacheEligible() const;

  /// Materializing driver: fills the buffer with every match of the range,
  /// one partition per pool thread in parallel mode, else one partition.
  /// With a cache, hit partitions replay their stored matches and only miss
  /// partitions scan (each complete miss fills its entry).
  void RunMaterializedScan();

  /// Looks `key` up in the result cache, counting the hit or miss.
  std::shared_ptr<const CachedNokScan> ProbeCache(const NokCacheKey& key);

  /// Stores a complete match list under `key` unless the guard tripped
  /// mid-scan (a partial list must never be cached).
  void FillCache(const NokCacheKey& key,
                 const std::vector<nestedlist::NestedList>& matches);

  const xml::Document* doc_;
  const pattern::BlossomTree* tree_;
  const pattern::NokTree* nok_;
  NokMatcher matcher_;
  bool virtual_root_;
  xml::NodeId cursor_ = 0;
  xml::NodeId range_begin_ = 0;
  xml::NodeId range_end_;
  uint64_t nodes_scanned_ = 0;
  uint64_t value_cmps_ = 0;
  CacheProbes cache_probes_;

  util::ThreadPool* pool_;
  /// Match buffer, handed out by move: the materializing driver fills it
  /// with the whole stream (`buffered_`), the lazy driver one chunk at a
  /// time.
  bool buffered_ = false;
  std::vector<nestedlist::NestedList> buffer_;
  size_t buffer_pos_ = 0;
  uint64_t parallel_work_ = 0;
  size_t partitions_used_ = 0;

  NokResultCache* cache_;
  /// Canonical NoK fingerprint (computed once at construction when a cache
  /// is attached): the pattern half of every cache key this scan uses.
  std::string canonical_nok_;

  /// Optional paged store behind the document; the serial drivers thread
  /// `io_cursor_` through it (parallel partitions use private cursors).
  const storage::NodeStore* store_;
  storage::ScanCursor io_cursor_;

  ExecOptions exec_;
  /// Root tag id for kernel candidate prefiltering; kNullTag when the tag
  /// is absent from the document (zero candidates, hence zero matches).
  xml::TagId target_tag_ = xml::kNullTag;
  /// Prefiltering is sound only for a concrete element root: wildcard /
  /// attribute roots take ScanRange's per-node body.
  bool kernel_eligible_ = false;
};

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_NOK_SCAN_H_
