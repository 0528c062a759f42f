#ifndef BLOSSOMTREE_INDEX_STRUCTURAL_INDEX_H_
#define BLOSSOMTREE_INDEX_STRUCTURAL_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pattern/paths.h"
#include "util/status.h"
#include "xml/document.h"

namespace blossomtree {
namespace index {

/// \brief Per-tag statistics persisted with the index.
struct TagStats {
  /// Elements of this tag whose string-value exceeded kMaxIndexedValueBytes
  /// and were therefore left out of the value index. A nonzero count
  /// disables *numeric* equality seeks on the tag (an unindexed over-long
  /// value such as "000...07" can still compare numerically equal), while
  /// byte-equality seeks stay exact: string equality needs equal lengths,
  /// and every over-long value is longer than any indexable literal.
  uint64_t overlong_values = 0;
};

/// \brief One node of the path summary (DataGuide): a distinct root-to-
/// element tag path in the document, with the number of elements sharing
/// it. Node 0 is the super-root — the virtual node "~" above the document
/// root that anchors absolute paths.
struct GuideNode {
  xml::TagId tag = xml::kNullTag;  ///< kNullTag only for the super-root.
  uint32_t parent = 0;             ///< kNoGuideNode for the super-root.
  uint64_t count = 0;              ///< Elements with this path (1 for "~").
  std::vector<uint32_t> children;  ///< Rebuilt after decode, not persisted.
};

inline constexpr uint32_t kNoGuideNode = static_cast<uint32_t>(-1);

/// \brief String-value size cap of the value index. Elements whose value
/// exceeds it are counted in TagStats::overlong_values instead of indexed.
inline constexpr size_t kMaxIndexedValueBytes = 256;

/// \brief An equality-seek answer: whether the value index can answer the
/// probe *exactly* under exec::CompareValues semantics, and if so the
/// matching elements in document order.
struct EqualitySeek {
  bool usable = false;
  std::vector<xml::NodeId> nodes;
};

/// \brief Persistent secondary index over one document (DESIGN.md §14):
///  - a path summary (DataGuide) of every distinct root-to-element tag
///    path, for provably-empty short-circuits,
///  - per-tag counts of over-long values, which decide whether an equality
///    probe is answerable,
///  - a sorted value index (byte order + numeric order views) answering
///    equality predicates exactly and sizing range predicates.
/// Where the tag-t elements are is not the index's business: every
/// document carries its per-tag streams (xml::Document::TagIndex), and the
/// NoK scan reads those.
///
/// Built in one pass by Build(), persisted as a `.btsi` sidecar
/// (index/btsi.h), and attached to plans through opt::PlanOptions::index.
/// The index is immutable after construction and safe to share across
/// concurrent queries.
class StructuralIndex {
 public:
  /// \brief Builds the index from a finished document (one preorder pass
  /// plus the value sorts).
  static std::unique_ptr<StructuralIndex> Build(const xml::Document& doc);

  // -- Identity --------------------------------------------------------------

  /// \brief Generation stamp of the source document at build time. For a
  /// sidecar this is compared against the BTSX2 file's on-disk generation:
  /// replacing the corpus file changes the stamp and auto-invalidates the
  /// index (DESIGN.md §14).
  uint64_t generation() const { return generation_; }
  uint64_t num_nodes() const { return num_nodes_; }
  uint64_t num_elements() const { return num_elements_; }
  const std::vector<std::string>& tag_names() const { return tag_names_; }

  /// \brief True iff this index structurally describes `doc`: node/element
  /// counts and the tag dictionary (names in TagId order) match. The
  /// attach-time compatibility check — TagIds in the index are only
  /// meaningful against a matching dictionary.
  bool Matches(const xml::Document& doc) const;

  // -- Tag statistics --------------------------------------------------------

  const TagStats& Stats(xml::TagId t) const;

  // -- Value index -----------------------------------------------------------

  /// \brief Answers `string-value(element with tag t) = literal` from the
  /// value index. `usable` is false when the probe cannot be answered
  /// exactly (over-long literal, or a numeric literal on a tag with
  /// over-long values); callers must then fall back to scanning.
  EqualitySeek SeekEquality(xml::TagId t, std::string_view literal) const;

  /// \brief Exact match count of an equality probe; -1.0 when not exactly
  /// answerable. The cost model's replacement for the fixed 0.1 guess.
  double CountEquality(xml::TagId t, std::string_view literal) const;

  /// \brief Estimated fraction of tag-`t` elements satisfying `op literal`,
  /// in (0, 1]: exact for answerable equality probes, bounded by the
  /// numeric-view order statistics for range operators, 0.1 otherwise.
  double EstimateValueSelectivity(xml::TagId t, xpath::CompareOp op,
                                  std::string_view literal) const;

  // -- Path summary (DataGuide) ----------------------------------------------

  const std::vector<GuideNode>& guide() const { return guide_; }

  /// \brief True iff some document path could satisfy every mandatory path
  /// of a NoK (all anchored at one guide node whose tag matches the shared
  /// first step; "~" anchors at the super-root, "*" anywhere). False is a
  /// *proof* of emptiness; true proves nothing (value/positional
  /// constraints and cross-NoK joins still apply).
  bool CanMatchPaths(const std::vector<pattern::NokPath>& paths) const;

  // -- Persistence raw views (used by index/btsi.cc) -------------------------

  /// One value-index entry: `tag`'s element `node` has the string-value at
  /// [offset, offset+len) of the value pool. Sorted by (tag, bytes, node).
  struct ValueEntry {
    xml::TagId tag;
    xml::NodeId node;
    uint32_t offset;
    uint32_t len;
  };
  /// Numeric view: entries whose value parses as a double, sorted by
  /// (tag, key, node) — the exact-seek substrate for numeric literals.
  struct NumericEntry {
    xml::TagId tag;
    xml::NodeId node;
    double key;
  };

  const std::vector<TagStats>& raw_stats() const { return stats_; }
  const std::vector<ValueEntry>& raw_values() const { return values_; }
  const std::vector<NumericEntry>& raw_numerics() const { return numerics_; }
  const std::string& raw_value_pool() const { return value_pool_; }

  /// \brief Assembles an index from decoded parts (index/btsi.cc only;
  /// trusts the caller to have validated them — DecodeBtsi does).
  static std::unique_ptr<StructuralIndex> FromParts(
      uint64_t generation, uint64_t num_nodes, uint64_t num_elements,
      std::vector<std::string> tag_names, std::vector<GuideNode> guide,
      std::vector<TagStats> stats,
      std::vector<ValueEntry> values, std::vector<NumericEntry> numerics,
      std::string value_pool);

 private:
  StructuralIndex() = default;

  std::string_view ValueOf(const ValueEntry& e) const {
    return std::string_view(value_pool_).substr(e.offset, e.len);
  }

  /// Rebuilds guide children lists and the per-tag guide-node lists.
  void LinkGuide();

  bool EmbedFrom(uint32_t g, const std::vector<std::string>& steps,
                 size_t i) const;

  uint64_t generation_ = 0;
  uint64_t num_nodes_ = 0;
  uint64_t num_elements_ = 0;
  std::vector<std::string> tag_names_;

  std::vector<GuideNode> guide_;
  std::vector<std::vector<uint32_t>> guide_by_tag_;  ///< Per TagId.

  std::vector<TagStats> stats_;  ///< Per TagId.

  std::vector<ValueEntry> values_;
  std::vector<NumericEntry> numerics_;
  std::string value_pool_;
};

}  // namespace index
}  // namespace blossomtree

#endif  // BLOSSOMTREE_INDEX_STRUCTURAL_INDEX_H_
