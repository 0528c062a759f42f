#ifndef BLOSSOMTREE_PATTERN_BLOSSOM_TREE_H_
#define BLOSSOMTREE_PATTERN_BLOSSOM_TREE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pattern/dewey.h"
#include "util/status.h"
#include "xpath/ast.h"

namespace blossomtree {
namespace pattern {

using VertexId = uint32_t;
constexpr VertexId kNoVertex = static_cast<VertexId>(-1);

/// \brief Dense index of a returning node; the runtime addressing of a
/// DeweyId inside NestedLists.
using SlotId = uint32_t;
constexpr SlotId kNoSlot = static_cast<SlotId>(-1);

/// \brief Matching mode of a tree edge (paper Definition 1): "f" edges come
/// from for-clauses (mandatory — a match must exist), "l" edges from
/// let-clauses (optional — an empty sequence is a valid binding).
enum class EdgeMode : uint8_t {
  kFor,  ///< "f": mandatory.
  kLet,  ///< "l": optional.
};

/// \brief Value constraint attached to a vertex (from `[. = "v"]` etc.).
struct ValueConstraint {
  xpath::CompareOp op;
  std::string literal;
};

/// \brief One vertex of a BlossomTree: a tag-name test plus optional value
/// constraint, positional constraint, and blossom (variable binding).
struct Vertex {
  /// Tag name; "*" matches any element; "~" is the virtual document root
  /// (the node above the root element) used to anchor absolute paths.
  std::string tag;
  std::optional<ValueConstraint> value;
  long long position = 0;  ///< 1-based positional predicate; 0 = none.
  std::string variable;    ///< Blossom; empty if unbound.
  /// Tuple slot of the blossom's FLWOR binding (flwor::Binding::var_slot);
  /// xpath::kNoVarSlot for unbound vertices and path results.
  uint32_t var_slot = xpath::kNoVarSlot;
  bool returning = false;

  // Incoming tree edge (kNoVertex parent for pattern-tree roots).
  VertexId parent = kNoVertex;
  xpath::Axis axis = xpath::Axis::kChild;
  EdgeMode mode = EdgeMode::kFor;

  std::vector<VertexId> children;

  bool IsVirtualRoot() const { return tag == "~"; }
  bool MatchesAnyTag() const { return tag == "*"; }
};

/// \brief Kinds of crossing-edge relationships (paper Definition 1: the
/// where-clause contributes structural, value-based, or mixed predicates
/// between blossoms).
enum class CrossKind : uint8_t {
  kDocBefore,  ///< `<<` (left precedes right in document order).
  kValueEq,    ///< `=` on atomized string values.
  kValueNeq,   ///< `!=`
  kDeepEqual,  ///< deep-equal(subtrees).
  kIs,         ///< node identity.
  kDescendant, ///< structural //-relationship stated in the where-clause.
};

const char* CrossKindToString(CrossKind kind);

/// \brief A crossing edge between two vertices.
struct CrossEdge {
  VertexId left;
  VertexId right;
  CrossKind kind;
  bool negated = false;  ///< Wrapped in not(...).
};

/// \brief Per-returning-node metadata derived by AssignDeweyIds.
struct Slot {
  VertexId vertex = kNoVertex;
  DeweyId dewey;
  SlotId parent = kNoSlot;        ///< Parent slot in the returning tree.
  std::vector<SlotId> children;   ///< Child slots, in Dewey order.
  /// Mode of the returning-tree edge from the parent slot: kLet if any
  /// pattern edge on the chain between the two vertices is an l-edge
  /// (optional matching / whole-sequence binding), else kFor.
  EdgeMode mode = EdgeMode::kFor;
};

/// \brief The BlossomTree (paper Definition 1): a forest of pattern trees
/// whose vertices carry constraints and blossoms, connected by crossing
/// edges.
///
/// Lifecycle: build vertices/edges (AddRoot/AddChild/AddCrossEdge, or via
/// pattern::BuildFromFlwor / BuildFromPath), then call Finalize() once to
/// compute the returning tree, Dewey IDs, and slots.
class BlossomTree {
 public:
  // -- Construction ----------------------------------------------------------

  /// \brief Adds a pattern-tree root. `tag` is "~" for absolute paths.
  VertexId AddRoot(std::string tag);

  /// \brief Adds a vertex under `parent` with the given incoming edge.
  VertexId AddChild(VertexId parent, std::string tag, xpath::Axis axis,
                    EdgeMode mode);

  void AddCrossEdge(VertexId left, VertexId right, CrossKind kind,
                    bool negated = false);

  /// \brief Marks `v` as a returning node, optionally binding a variable.
  void MarkReturning(VertexId v, std::string variable = "");

  /// \brief Computes the returning tree, assigns Dewey IDs and slots
  /// (paper §3.3: returning nodes are Dewey-numbered globally, with an
  /// artificial super-root when the forest has several top returning
  /// nodes). Idempotent; must be called before slot accessors.
  Status Finalize();

  // -- Accessors ---------------------------------------------------------------

  size_t NumVertices() const { return vertices_.size(); }
  const Vertex& vertex(VertexId v) const { return vertices_[v]; }
  Vertex& mutable_vertex(VertexId v) { return vertices_[v]; }
  const std::vector<VertexId>& roots() const { return roots_; }
  const std::vector<CrossEdge>& cross_edges() const { return cross_edges_; }

  bool finalized() const { return finalized_; }
  size_t NumSlots() const { return slots_.size(); }
  const Slot& slot(SlotId s) const { return slots_[s]; }

  /// \brief Slot of a returning vertex; kNoSlot if not returning.
  SlotId SlotOfVertex(VertexId v) const { return vertex_slot_[v]; }

  /// \brief Slot with the given Dewey ID, or kNoSlot.
  SlotId SlotOfDewey(const DeweyId& id) const;

  /// \brief Slot of the vertex bound to `variable`, or kNoSlot.
  SlotId SlotOfVariable(const std::string& variable) const;

  /// \brief Vertex bound to `variable`, or kNoVertex.
  VertexId VertexOfVariable(const std::string& variable) const;

  /// \brief Top-level slots (children of the artificial super-root, or the
  /// single root slot).
  const std::vector<SlotId>& top_slots() const { return top_slots_; }

  /// \brief Multi-line debug rendering of the whole tree.
  std::string ToString() const;

 private:
  void AppendVertexString(VertexId v, int indent, std::string* out) const;

  std::vector<Vertex> vertices_;
  std::vector<VertexId> roots_;
  std::vector<CrossEdge> cross_edges_;

  bool finalized_ = false;
  std::vector<Slot> slots_;
  std::vector<SlotId> vertex_slot_;
  std::vector<SlotId> top_slots_;
};

}  // namespace pattern
}  // namespace blossomtree

#endif  // BLOSSOMTREE_PATTERN_BLOSSOM_TREE_H_
