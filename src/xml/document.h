#ifndef BLOSSOMTREE_XML_DOCUMENT_H_
#define BLOSSOMTREE_XML_DOCUMENT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace blossomtree {
namespace xml {

/// \brief Index of a node inside a Document. Node ids are assigned in
/// *document (preorder) order*, so `a < b` iff node a precedes node b in
/// document order — the `<<` operator of XPath is integer comparison.
using NodeId = uint32_t;

/// \brief Interned tag-name identifier (see TagDictionary).
using TagId = uint32_t;

constexpr NodeId kNullNode = static_cast<NodeId>(-1);
constexpr TagId kNullTag = static_cast<TagId>(-1);

/// \brief Kind of a tree node. Attributes are stored out-of-band on their
/// owning element, not as tree nodes, matching the region-encoding papers.
enum class NodeKind : uint8_t {
  kElement = 0,
  kText = 1,
};

/// \brief Bidirectional map between tag names and dense TagIds.
class TagDictionary {
 public:
  /// \brief Returns the id for `name`, interning it if new.
  TagId Intern(std::string_view name);

  /// \brief Returns the id for `name`, or kNullTag if never interned.
  TagId Lookup(std::string_view name) const;

  /// \brief Returns the name for a valid id.
  const std::string& Name(TagId id) const { return names_[id]; }

  size_t size() const { return names_.size(); }

 private:
  /// Hashes every string type as its string_view, so a lookup by view
  /// builds no key.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, TagId, NameHash, std::equal_to<>> ids_;
};

/// \brief One attribute of an element: both strings live in the document's
/// text pool.
struct Attribute {
  uint32_t name_offset;
  uint32_t name_len;
  uint32_t value_offset;
  uint32_t value_len;
};

/// \brief One fixed-width node record of the document layout (the packed
/// form the BTSX v2 file persists; see DESIGN.md §13): everything the
/// structural accessors need, 16 bytes per node in document order.
/// First-child / next-sibling are derived from subtree extents, so no tree
/// pointers are stored.
struct PackedNodeRecord {
  TagId tag;           ///< kNullTag for text nodes.
  NodeId subtree_end;  ///< Largest NodeId in this node's subtree.
  uint32_t level;      ///< Depth (root = 0).
  uint32_t text_ref;   ///< Text-span index for text nodes, else UINT32_MAX.
};
static_assert(sizeof(PackedNodeRecord) == 16, "on-disk record is 16 bytes");
static_assert(std::is_trivially_copyable_v<PackedNodeRecord>,
              "records are memcpy'd out of mapped files");

/// \brief PackedNodeRecord::text_ref of an element record.
constexpr uint32_t kNoTextRef = static_cast<uint32_t>(-1);

/// \brief (offset, length) of one text node's payload in the text pool;
/// one entry per text node, indexed by PackedNodeRecord::text_ref.
struct ExternalTextSpan {
  uint32_t offset;
  uint32_t length;
};
static_assert(sizeof(ExternalTextSpan) == 8, "on-disk text span is 8 bytes");

/// \brief Attribute ownership: element `node` owns attrs [first, last).
/// Sorted by `node` for binary search.
struct ExternalAttrOwner {
  NodeId node;
  uint32_t first;
  uint32_t last;
};
static_assert(sizeof(ExternalAttrOwner) == 12, "on-disk owner is 12 bytes");

/// \brief The sections of one document image in the BTSX v2 layout — the
/// view every Document reads through. All pointers are *borrowed*: a built
/// Document points them at its own vectors, an adopted one at an external
/// image that must outlive it (storage::DiskStore owns both the mapping and
/// the Document).
///
/// AdoptExternal trusts these arrays to be internally consistent (record
/// extents nested, spans inside the pool, streams sorted); callers mapping
/// untrusted bytes must run storage::ValidateBtsx2Deep first.
struct ExternalLayout {
  size_t num_nodes = 0;
  const PackedNodeRecord* records = nullptr;  ///< num_nodes entries.
  const NodeId* parent = nullptr;             ///< num_nodes entries.
  const ExternalTextSpan* text_spans = nullptr;
  size_t num_text_spans = 0;
  const char* text_pool = nullptr;
  size_t text_pool_bytes = 0;
  const ExternalAttrOwner* attr_owners = nullptr;  ///< Sorted by node.
  size_t num_attr_owners = 0;
  const Attribute* attrs = nullptr;
  size_t num_attrs = 0;
  /// Tags the three per-tag arrays cover; 0 until they exist (a built
  /// document fills them in Finish()).
  size_t num_tags = 0;
  const uint32_t* tag_recursion = nullptr;       ///< num_tags entries.
  const uint64_t* tag_stream_offsets = nullptr;  ///< num_tags + 1 entries.
  const NodeId* tag_streams = nullptr;           ///< num_elements entries.
  /// Tag dictionary in TagId order (interned on adopt).
  std::vector<std::string> tag_names;
  /// Precomputed statistics (ComputeStats equivalents, stored in the file).
  size_t num_elements = 0;
  uint32_t max_depth = 0;
  double avg_depth = 0;
  uint32_t max_recursion = 0;
};

/// \brief An XML document in the packed BTSX v2 layout (DESIGN.md §13).
///
/// Each node is one PackedNodeRecord plus a parent id, in document
/// (preorder) order: its tag id (kNullTag for text nodes), its region label
/// — `start` = its own NodeId (preorder rank), `end` = the largest NodeId in
/// its subtree, `level` = depth from the root (root is level 0) — and, for a
/// text node, the index of its span in the text pool. Attribute tables and
/// per-tag node streams sit beside the records.
///
/// Region labels make the classic structural predicates O(1):
///  - `IsAncestor(a, d)`  ⇔  a < d && d <= end(a)
///  - document order      ⇔  NodeId comparison
///
/// Documents come into existence one of two ways:
///  - *built* in document order via BeginElement/AddText/EndElement (the
///    parser and the data generators), which append straight into owned
///    vectors of the layout's sections, and frozen by Finish(), which adds
///    the statistics and the per-tag streams; or
///  - *adopted* from an external BTSX v2 image via AdoptExternal(): the
///    sections stay in the (typically mmap'd) image, so opening is
///    O(open), not O(parse).
/// Either way every accessor reads through one ExternalLayout view, the
/// document is immutable afterwards, and the engine cannot tell the two
/// apart. Because the view points into the document's own vectors, a
/// Document can be neither copied nor moved.
class Document {
 public:
  Document() = default;
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = delete;
  Document& operator=(Document&&) = delete;

  // -- Construction (document order) ----------------------------------------

  /// \brief Opens a new element with tag `name`; returns its NodeId.
  NodeId BeginElement(std::string_view name);

  /// \brief Adds an attribute to the most recently opened element. The
  /// parser adds them right after BeginElement; Finish() rejects an
  /// element whose attributes are split around another element's.
  void AddAttribute(std::string_view name, std::string_view value);

  /// \brief Adds a text node under the currently open element.
  NodeId AddText(std::string_view text);

  /// \brief Closes the most recently opened element.
  void EndElement();

  /// \brief Verifies the builder stack is empty and the document fits the
  /// layout's 32-bit node ids and pool offsets, then computes statistics
  /// and per-tag streams. Also stamps the document's generation (below).
  Status Finish();

  /// \brief Adopts an external (disk-resident) image instead of building:
  /// the document becomes a zero-copy view over `layout`'s arrays, which
  /// must stay alive and unchanged for this object's lifetime. Only valid
  /// on a fresh Document (nothing built, not finished). Stamps a fresh
  /// process generation — reopening the same file twice yields two
  /// generations, exactly like re-parsing the same bytes does.
  Status AdoptExternal(ExternalLayout layout);

  /// \brief Process-unique generation stamp, assigned by Finish() (or
  /// AdoptExternal()) from a monotonically increasing process-wide counter
  /// starting at 1; 0 means "not finished". Two Document objects never
  /// share a generation, so (generation, node range) is a stable identity
  /// for cached NoK scan results (DESIGN.md §11): rebuilding or reloading a
  /// document — even from identical bytes — yields a fresh generation and
  /// thereby invalidates every cached result keyed to the old one.
  uint64_t generation() const { return generation_; }

  // -- Structure accessors ---------------------------------------------------

  size_t NumNodes() const { return view_.num_nodes; }
  bool empty() const { return NumNodes() == 0; }

  /// \brief The document root element (first node), or kNullNode if empty.
  NodeId Root() const { return empty() ? kNullNode : 0; }

  NodeKind Kind(NodeId n) const {
    return view_.records[n].tag == kNullTag ? NodeKind::kText
                                            : NodeKind::kElement;
  }
  bool IsElement(NodeId n) const { return Kind(n) == NodeKind::kElement; }

  /// \brief Tag id of an element node; kNullTag for text nodes.
  TagId Tag(NodeId n) const { return view_.records[n].tag; }

  /// \brief Tag name of an element node.
  const std::string& TagName(NodeId n) const { return tags_.Name(Tag(n)); }

  NodeId Parent(NodeId n) const { return view_.parent[n]; }

  /// \brief First child in document order, derived from the subtree extent
  /// (the paper's succinct-navigation identity: a non-leaf's first child is
  /// the next node in preorder). An element still open in the builder has
  /// no extent yet, so it reports no children until EndElement().
  NodeId FirstChild(NodeId n) const {
    return view_.records[n].subtree_end > n ? n + 1 : kNullNode;
  }

  /// \brief Next sibling in document order: the node just past this
  /// subtree, iff it sits at the same level.
  NodeId NextSibling(NodeId n) const {
    NodeId next = view_.records[n].subtree_end + 1;
    if (next >= view_.num_nodes) return kNullNode;
    return view_.records[next].level == view_.records[n].level ? next
                                                               : kNullNode;
  }

  /// \brief Largest NodeId inside n's subtree (n itself if leaf).
  NodeId SubtreeEnd(NodeId n) const { return view_.records[n].subtree_end; }

  /// \brief Depth of n; the root has level 0.
  uint32_t Level(NodeId n) const { return view_.records[n].level; }

  /// \brief True iff `anc` is a proper ancestor of `desc`.
  bool IsAncestor(NodeId anc, NodeId desc) const {
    return anc < desc && desc <= SubtreeEnd(anc);
  }

  /// \brief True iff `anc` is `desc` or a proper ancestor of it.
  bool IsAncestorOrSelf(NodeId anc, NodeId desc) const {
    return anc <= desc && desc <= SubtreeEnd(anc);
  }

  /// \brief Text payload of a text node.
  std::string_view Text(NodeId n) const;

  // -- Prefetch hints (DESIGN.md §16): they change no result -----------------

  /// \brief Asks the CPU for the first `lines` cache lines of the record run
  /// that starts at `n` (n's subtree in document order).
  void PrefetchRecords(NodeId n, int lines) const {
    const char* p = reinterpret_cast<const char*>(view_.records + n);
    for (int i = 0; i < lines; ++i) __builtin_prefetch(p + 64 * i);
  }

  /// \brief Asks for text node `n`'s span, or, with `payload`, for the
  /// first line of its bytes in the pool (which reads the span). Element
  /// nodes are ignored. Reads n's record.
  void PrefetchText(NodeId n, bool payload) const {
    const uint32_t ref = view_.records[n].text_ref;
    if (ref == kNoTextRef) return;
    if (!payload) {
      __builtin_prefetch(view_.text_spans + ref);
    } else {
      __builtin_prefetch(view_.text_pool + view_.text_spans[ref].offset);
    }
  }

  /// \brief Concatenation of all descendant text (XPath string-value).
  std::string StringValue(NodeId n) const;

  /// \brief StringValue(n) as a view: of the text itself when n's subtree
  /// holds at most one text node, else of the concatenation, which is built
  /// in `*scratch`.
  std::string_view StringValueView(NodeId n, std::string* scratch) const;

  /// \brief Attributes of an element, as (name, value) views.
  std::vector<std::pair<std::string_view, std::string_view>> Attributes(
      NodeId n) const;

  /// \brief Value of attribute `name` on element `n`; empty view + false if
  /// absent.
  bool AttributeValue(NodeId n, std::string_view name,
                      std::string_view* value) const;

  const TagDictionary& tags() const { return tags_; }

  /// \brief The view every accessor reads: all sections of the layout,
  /// owned or mapped — what storage::EncodeBtsx2 writes out.
  const ExternalLayout& Layout() const { return view_; }

  /// \brief The record stream, one PackedNodeRecord per node in document
  /// order — what storage::PartitionSubtrees walks, and what a BTSX v2
  /// file persists.
  std::span<const PackedNodeRecord> Records() const {
    return {view_.records, view_.num_nodes};
  }

  /// \brief All element nodes with tag id `t`, in document order.
  ///
  /// This is the one tag index: the NoK scan's candidates, the probes'
  /// streams, and the input of the join-based approaches (TwigStack,
  /// structural merge join). A zero-copy span over the per-tag node-id
  /// streams, which Finish() builds and a BTSX v2 file persists. Empty
  /// before Finish().
  std::span<const NodeId> TagIndex(TagId t) const;

  // -- Statistics (valid after Finish) ---------------------------------------

  /// \brief Number of element nodes.
  size_t NumElements() const { return view_.num_elements; }
  /// \brief Maximum element depth (root = 1), matching Table 1's convention.
  uint32_t MaxDepth() const { return view_.max_depth; }
  /// \brief Average element depth.
  double AvgDepth() const { return view_.avg_depth; }
  /// \brief Maximum same-tag nesting degree over all tags: 1 means
  /// non-recursive (no element is a descendant of a same-tag element).
  uint32_t MaxRecursionDegree() const { return view_.max_recursion; }
  /// \brief True iff some element has a same-tag proper ancestor.
  bool IsRecursive() const { return MaxRecursionDegree() > 1; }
  /// \brief Per-tag nesting degree: 1 = elements of this tag never nest.
  /// The optimizer's fine-grained rule uses this — pipelined //-joins are
  /// order-preserving whenever the *outer* tag does not nest, even if the
  /// document is recursive elsewhere.
  uint32_t TagRecursionDegree(TagId t) const {
    return t < view_.num_tags ? view_.tag_recursion[t] : 0;
  }
  /// \brief Size of the structural arrays (records and parent ids) in
  /// bytes: 20 per node.
  size_t StructureBytes() const {
    return view_.num_nodes * (sizeof(PackedNodeRecord) + sizeof(NodeId));
  }
  /// \brief Total bytes of text payload (attribute strings included).
  size_t TextBytes() const { return view_.text_pool_bytes; }

 private:
  /// Appends one record (and its parent id) under the open element.
  NodeId AppendNode(TagId tag, uint32_t text_ref);
  /// Points the view at the owned vectors; called after every append, as
  /// any append may reallocate.
  void PointViewAtOwned();
  /// Fills the statistics, per-tag recursion degrees and per-tag streams.
  void ComputeStats();
  /// Binary-searches the attr-owner table; empty when `n` owns none.
  std::span<const Attribute> AttributesOf(NodeId n) const;

  TagDictionary tags_;

  // Owned sections of a built document (all empty for an adopted one).
  std::vector<PackedNodeRecord> records_;
  std::vector<NodeId> parent_;
  std::vector<ExternalTextSpan> text_spans_;
  std::string text_pool_;
  std::vector<ExternalAttrOwner> attr_owners_;
  std::vector<Attribute> attrs_;
  std::vector<uint32_t> tag_recursion_;
  std::vector<uint64_t> tag_stream_offsets_;
  std::vector<NodeId> tag_streams_;

  std::vector<NodeId> open_stack_;  ///< Builder-only: open elements.

  /// What every accessor reads: the owned sections above, or an adopted
  /// image.
  ExternalLayout view_;

  uint64_t generation_ = 0;  ///< Stamped by Finish(); 0 = unfinished.
};

/// \brief 1-based rank of element `n` among its parent's element children
/// that match `tag` ("*" = any element) — the counting positional
/// predicates use (`//book[2]` selects each parent's second book child).
/// The document root has rank 1.
uint32_t SiblingRank(const Document& doc, NodeId n, std::string_view tag);

}  // namespace xml
}  // namespace blossomtree

#endif  // BLOSSOMTREE_XML_DOCUMENT_H_
