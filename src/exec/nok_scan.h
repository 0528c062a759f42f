#ifndef BLOSSOMTREE_EXEC_NOK_SCAN_H_
#define BLOSSOMTREE_EXEC_NOK_SCAN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/operator.h"
#include "exec/result_cache.h"
#include "exec/value_ops.h"
#include "nestedlist/nested_list.h"
#include "pattern/decompose.h"
#include "storage/disk_store.h"
#include "storage/partition.h"
#include "util/resource_guard.h"
#include "util/thread_pool.h"
#include "xml/document.h"

namespace blossomtree {
namespace exec {

/// \brief Sentinel NodeId for the virtual document root "~" (the node above
/// the root element that anchors absolute paths).
constexpr xml::NodeId kVirtualRootNode = static_cast<xml::NodeId>(-2);

/// \brief The scan's candidate loop knows its candidate ids in advance: it
/// prefetches the first kPrefetchLines cache lines of the record run of the
/// candidate kPrefetchAhead places on, so the matcher's misses overlap
/// (DESIGN.md §16).
constexpr size_t kPrefetchAhead = 8;
constexpr int kPrefetchLines = 4;

/// \brief The slots a NoK's output rows' top groups align with (what
/// NokMatcher::top_slots() holds), without building a matcher: on every
/// local path down from the root, the first returning vertex's slot, in the
/// NoK's DFS order.
std::vector<pattern::SlotId> NokTopSlots(const pattern::BlossomTree& tree,
                                         const pattern::NokTree& nok);

/// \brief NoK pattern-tree matcher (paper Algorithm 2): matches one NoK
/// pattern tree (local axes only) against the subtree rooted at a given
/// XML node, building the NestedList groups for every returning node in
/// one depth-first pass, straight into a Figure 6 arena. Each pattern
/// vertex has at most one active frame, so the per-child accumulators live
/// on the vertex and are reused from match to match.
class NokMatcher {
 public:
  NokMatcher(const xml::Document* doc, const pattern::BlossomTree* tree,
             const pattern::NokTree* nok);

  /// \brief The NoK's local top slots: the slots its output NestedLists'
  /// top groups are aligned with.
  const std::vector<pattern::SlotId>& top_slots() const { return top_slots_; }

  /// \brief Attempts to match the NoK rooted at `x` (kVirtualRootNode for a
  /// "~"-rooted NoK). On success appends one row to `out` and returns true;
  /// on failure `out` is left as it was.
  ///
  /// Precondition: RootTest(x) passed. MatchAt does not repeat the root's
  /// tag and value tests, so each candidate's root literal is compared (and
  /// counted) once. A "~" root carries no value test, so kVirtualRootNode
  /// needs no RootTest.
  bool MatchAt(xml::NodeId x, nestedlist::Arena* out);

  /// \brief True if `x` can possibly match the NoK root (tag + value test):
  /// every driver calls it before MatchAt (see there).
  bool RootTest(xml::NodeId x);

  /// \brief Pattern-vertex/node constraint checks performed so far, value
  /// comparisons included: the matcher's ExecStats::comparisons.
  uint64_t MatchWork() const { return match_work_ + value_tests_; }

  /// \brief Attaches a resource guard: MatchVertex samples it every ~1k
  /// work units (DESIGN.md §9) so a deadline fires even inside one deep
  /// recursive match. After a trip MatchAt returns false; its partial
  /// output is garbage and callers must consult guard->status().
  void set_guard(util::ResourceGuard* guard) { guard_ = guard; }

 private:
  /// How a vertex's tag test is decided, resolved once at construction.
  enum class TagTest : uint8_t {
    kTag,          ///< Tag id equality (kNullTag: absent, matches nothing).
    kAny,          ///< "*": any element.
    kVirtualRoot,  ///< "~": only the virtual document root.
    kAttribute,    ///< "@name": a constraint on the parent's node.
  };

  /// A `//` leaf the planner turned into a test on its parent's node (a
  /// pattern::NokTree probe): some `tag` element after x and at most
  /// SubtreeEnd(x) (meeting `value`, if set) must exist. The cursor
  /// `next` is the upper bound of the last x tested in the tag stream:
  /// it gallops forward while x ascends and re-seeks when x goes back.
  struct Probe {
    std::span<const xml::NodeId> stream;  ///< TagIndex(tag); empty if absent.
    std::optional<LiteralTest> value;
    size_t next = 0;
    xml::NodeId last = 0;
  };

  struct LocalVertex {
    pattern::VertexId vertex;
    // The pattern vertex's fields a match reads, copied at construction.
    long long position = 0;
    pattern::EdgeMode mode = pattern::EdgeMode::kFor;
    bool returning = false;
    xpath::Axis axis = xpath::Axis::kChild;
    TagTest test = TagTest::kTag;
    xml::TagId tag = xml::kNullTag;
    std::string attribute;  ///< kAttribute: the name without "@".
    /// The vertex's value constraint, its literal parsed once.
    std::optional<LiteralTest> value;
    std::vector<uint32_t> local_children;  ///< Indices into locals_.
    /// Slots this vertex contributes upward: [slot(v)] if returning, else
    /// the concatenation over local children.
    std::vector<pattern::SlotId> next_slots;
    std::vector<Probe> probes;
    /// For returning vertices: for each local child's next slot, its index
    /// within slot(v).children (global child-slot layout).
    std::vector<size_t> child_slot_index;
    /// Groups per entry: slot(v).children.size() for returning vertices.
    uint32_t num_child_slots = 0;
    /// Per local child: its first accumulator (children contribute
    /// next_slots.size() accumulators each, concatenated).
    std::vector<uint32_t> acc_begin;

    // Scratch of the vertex's one active MatchVertex frame.
    /// Finished entries per contributed child slot, in document order.
    std::vector<std::vector<nestedlist::Entry>> acc;
    std::vector<uint8_t> matched;  ///< Per local child.
    std::vector<int> tag_count;    ///< Per local child (positional tests).
  };

  bool TagOk(const LocalVertex& lv, xml::NodeId x) const;
  /// The value test alone (counted as a comparison); "~" has none.
  bool ValueOk(const LocalVertex& lv, xml::NodeId x);
  /// Probe `p` at `x` (one comparison, plus one per value test).
  bool ProbeOk(Probe* p, xml::NodeId x);
  /// Matches local vertex `local_index` at `x`, whose tag and value tests
  /// the caller has passed. On success appends its contribution to
  /// dst[0 .. next_slots.size()); on failure writes nothing and leaves the
  /// arena as it found it.
  bool MatchVertex(uint32_t local_index, xml::NodeId x,
                   std::vector<nestedlist::Entry>* dst);
  /// Places `lv`'s accumulated child groups and returns its entry for `x`.
  nestedlist::Entry CloseEntry(const LocalVertex& lv, xml::NodeId x);

  const xml::Document* doc_;
  const pattern::BlossomTree* tree_;
  const pattern::NokTree* nok_;
  std::vector<LocalVertex> locals_;  ///< locals_[0] is the NoK root.
  std::vector<pattern::SlotId> top_slots_;
  uint64_t match_work_ = 0;
  uint64_t value_tests_ = 0;  ///< LiteralTest calls.
  util::ResourceGuard* guard_ = nullptr;
  /// The arena the current MatchAt writes into.
  nestedlist::Arena* arena_ = nullptr;
  /// The root's contribution: one accumulator per top slot.
  std::vector<std::vector<nestedlist::Entry>> top_acc_;
  std::vector<nestedlist::Group> group_scratch_;
};

/// \brief The NoK access operator (paper §3.3's "sequential scan of the XML
/// tree against the blossom tree"): tries the NoK at every node of its range
/// that can be its root, in document order, and emits one NestedList per
/// match, as a pull iterator. Its candidates are
///  - the planner's `run` when it passes one: a value-index equality run,
///    or the empty run of a NoK the DataGuide proves empty;
///  - else, for a concrete element root, the slice of the root tag's stream
///    (xml::Document::TagIndex) inside the range;
///  - every node of the range for wildcard and attribute roots;
///  - kVirtualRootNode, once, for a "~" root.
/// `nodes_scanned` counts the nodes whose root test ran, and the block
/// reads count the blocks those nodes enter.
///
/// Two drivers produce the stream:
///  - the *lazy* driver (uncached serial scans) tests candidates, or
///    ≤kScanChunk-node chunks of the per-node body, only until it holds
///    the rows the consumer asked for;
///  - the *materializing* driver (cache- or parallel-eligible scans) splits
///    the range into partitions — storage::PartitionSubtrees at the pool's
///    thread count in parallel mode, else the one whole range — probes each
///    partition in the result cache, scans the misses (across the pool, or
///    inline for one partition) into one arena each, shares those with the
///    cache and streams the arenas in partition order.
/// Partition ranges ascend in NodeId (= Dewey/document order), and every
/// match is local to its partition, so the partition-ordered stream is
/// bitwise-identical to the lazy driver's (Theorem 1; DESIGN.md §7).
/// Range-restricted scans (the BNLJ inner side) and scans of a planner's
/// run always take the lazy path.
/// Both drivers lend their rows to the batch instead of copying them: the
/// lazy one from its chunk arena, the materializing one from each
/// partition's frozen arena — the very arena the result cache holds, so a
/// hit replays with no copy at all. Neither driver charges or counts its
/// output: GetNextBatch does, at handout, for both (DESIGN.md §9).
class NokScanOperator : public NestedListOperator {
 public:
  /// \param pool optional worker pool; nullptr (or a restricted range)
  ///        selects the exact serial scan.
  /// \param guard optional per-query resource guard, sampled every ~512
  ///        candidates (or per ≤kScanChunk-node chunk of the per-node body);
  ///        once tripped the stream ends early and the caller must check
  ///        guard->status().
  /// \param cache optional NoK sub-result cache (DESIGN.md §11): full-range
  ///        scans probe it by (document generation, canonical NoK, range)
  ///        and lend a hit's frozen arena without scanning; complete cold
  ///        scans share theirs with it. Range-restricted scans (the BNLJ
  ///        inner side) bypass it. nullptr = the exact uncached scan.
  /// \param store optional DiskStore whose image `doc` is: the drivers
  ///        count, through a per-scan cursor, the blocks the tested nodes
  ///        enter — deterministically, independent of concurrent readers.
  /// \param run optional candidates from the structural index, ascending:
  ///        the scan tests only these, serially and uncached, and reports
  ///        each as one `index_entries` too. Every candidate is re-verified
  ///        by the matcher, so a superset of the match roots is safe.
  NokScanOperator(const xml::Document* doc, const pattern::BlossomTree* tree,
                  const pattern::NokTree* nok,
                  util::ThreadPool* pool = nullptr,
                  util::ResourceGuard* guard = nullptr,
                  NokResultCache* cache = nullptr,
                  const storage::DiskStore* store = nullptr,
                  std::optional<std::vector<xml::NodeId>> run = std::nullopt);

  const std::vector<pattern::SlotId>& top_slots() const override {
    return top_slots_;
  }

  /// \brief Restricts the scan to nodes in [begin, end] (inclusive) — the
  /// bounded range of the BNLJ inner side (paper §4.3). Call before the
  /// first GetNextBatch or after Rewind.
  void SetRange(xml::NodeId begin, xml::NodeId end);

  void Restrict(xml::NodeId begin, xml::NodeId end) override {
    SetRange(begin, end);
  }

  void Rewind() override;

  /// \brief Nodes whose root test ran (the I/O proxy). Parallel partitions
  /// contribute their counts.
  uint64_t NodesScanned() const { return nodes_scanned_; }
  uint64_t MatchWork() const {
    return (matcher_ ? matcher_->MatchWork() : 0) + parallel_work_;
  }

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
  /// Chunk granularity of the per-node body: guard checks and block reads
  /// happen at this stride (DESIGN.md §16).
  static constexpr size_t kScanChunk = 512;

  /// Lazy driver: refills the chunk arena until it holds `want` rows or the
  /// range ends; false if it holds none (end of range, or a trip).
  bool ScanNextChunk(size_t want);

  /// Tests candidates candidates_[*pos ..] up to id `last` with matcher
  /// `m` until `out` holds `want` rows, advancing *pos, counting each
  /// candidate into *scanned and its block through `io`. The guard is
  /// sampled every 512 tested nodes; Check() never mutates counters, and
  /// callers discard a tripped run's results. Returns false iff the guard
  /// tripped.
  bool ProbeCandidates(NokMatcher* m, size_t* pos, xml::NodeId last,
                       size_t want, storage::BlockCursor* io,
                       uint64_t* scanned, nestedlist::Arena* out) const;

  /// Scans nodes [begin, end] with matcher `m`, counting `store_` block
  /// reads through `io` and tested nodes into *scanned, and appending
  /// matches to *out: the candidates in the range, or every node in
  /// ≤kScanChunk-node chunks with a guard sample at each chunk top. A
  /// "~"-rooted NoK ignores the range and matches once. Returns false iff
  /// the guard tripped mid-scan.
  bool ScanRange(NokMatcher* m, xml::NodeId begin, xml::NodeId end,
                 storage::BlockCursor* io, uint64_t* scanned,
                 nestedlist::Arena* out) const;

  /// Index of the first candidate at or after `first`.
  size_t FirstCandidate(xml::NodeId first) const;

  /// True when the pending scan may run partitioned: a pool is attached, the
  /// candidates are not an index run, and the range covers the whole
  /// document (the BNLJ's restricted inner re-scans stay serial — their
  /// ranges are single subtrees).
  bool ParallelEligible() const;

  /// True when the pending scan may use the result cache: a cache is
  /// attached, the candidates are not an index run, and the range covers
  /// the whole finished document.
  bool CacheEligible() const;

  /// Materializing driver: freezes every match of the range into one arena
  /// per partition (one per pool thread in parallel mode, else one). With a
  /// cache, hit partitions take the cached arena and only miss partitions
  /// scan (each complete miss shares its arena with the cache).
  void RunMaterializedScan();

  /// Looks `key` up in the result cache, counting the hit or miss.
  std::shared_ptr<const nestedlist::Arena> ProbeCache(const NokCacheKey& key);

  /// Shares a complete partition arena with the cache under `key` unless
  /// the guard tripped mid-scan (a partial list must never be cached).
  void FillCache(const NokCacheKey& key,
                 std::shared_ptr<const nestedlist::Arena> matches);

  const xml::Document* doc_;
  const pattern::BlossomTree* tree_;
  const pattern::NokTree* nok_;
  std::vector<pattern::SlotId> top_slots_;
  /// The lazy driver's matcher, built by its first chunk: a scan served
  /// from the result cache never matches, so it never pays for one.
  std::optional<NokMatcher> matcher_;
  bool virtual_root_;
  xml::NodeId cursor_ = 0;
  xml::NodeId range_begin_ = 0;
  xml::NodeId range_end_;
  uint64_t nodes_scanned_ = 0;
  CacheProbes cache_probes_;

  util::ThreadPool* pool_;
  /// Lazy driver: the rows of the current chunk(s), lent out from
  /// `chunk_pos_` on.
  nestedlist::Arena chunk_;
  uint32_t chunk_pos_ = 0;
  /// Materializing driver (`buffered_`): the frozen partition arenas in
  /// partition order, lent out from row `part_pos_` of `parts_[part_]`.
  bool buffered_ = false;
  std::vector<std::shared_ptr<const nestedlist::Arena>> parts_;
  size_t part_ = 0;
  uint32_t part_pos_ = 0;
  uint64_t parallel_work_ = 0;
  size_t partitions_used_ = 0;

  NokResultCache* cache_;

  /// Optional DiskStore behind the document; the serial drivers count
  /// through `io_cursor_` (parallel partitions use private cursors).
  const storage::DiskStore* store_;
  storage::BlockCursor io_cursor_;

  /// The planner's index run, which `candidates_` then views.
  std::optional<std::vector<xml::NodeId>> run_;
  /// The candidates: the index run, or the root tag's stream (empty when
  /// the tag is absent from the document: zero candidates, hence zero
  /// matches). Wildcard and attribute roots have none and take the
  /// per-node body (`per_node_`); a virtual root matches once.
  std::span<const xml::NodeId> candidates_;
  bool per_node_ = false;
  /// Lazy driver: the next candidate to test.
  size_t next_ = 0;
};

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_NOK_SCAN_H_
