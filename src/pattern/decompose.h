#ifndef BLOSSOMTREE_PATTERN_DECOMPOSE_H_
#define BLOSSOMTREE_PATTERN_DECOMPOSE_H_

#include <string>
#include <vector>

#include "pattern/blossom_tree.h"

namespace blossomtree {
namespace pattern {

/// \brief One NoK pattern tree: a maximal fragment of the BlossomTree whose
/// internal edges are all *local* axes (child / following-sibling), per the
/// hybrid approach of [22] (paper §2.1).
/// \brief A global tree edge cut by the decomposition: `from` (inside one
/// NoK) connects to `to` (the root of another NoK) via a non-local axis.
struct Connection {
  VertexId from;
  VertexId to;
  xpath::Axis axis;   ///< Always kDescendant in the supported subset.
  EdgeMode mode;      ///< Mandatory (f) or optional (l) join semantics.
};

struct NokTree {
  VertexId root = kNoVertex;
  /// All member vertices (root first, then in DFS order).
  std::vector<VertexId> vertices;
  /// Existential `//` leaves the planner took out of the connections
  /// (opt::PlanQuery, kAuto only): each `from` here matches only if some
  /// `to`-tagged descendant (meeting `to`'s value constraint) exists. The
  /// matcher tests them on the tag stream; Decompose leaves this empty.
  std::vector<Connection> probes;
  /// CanonicalNok(tree, *this), the NoK's result-cache identity: Decompose
  /// sets it and whoever changes the NoK (the planner, when it folds
  /// probes) refreshes it, so a plan built from a cached decomposition
  /// never re-derives it.
  std::string fingerprint;

  bool Contains(VertexId v) const;
};

/// \brief The result of Algorithm 1: interconnected NoK pattern trees.
struct Decomposition {
  std::vector<NokTree> noks;
  std::vector<Connection> connections;
  /// nok_of_vertex[v] = index into `noks` containing vertex v.
  std::vector<uint32_t> nok_of_vertex;

  /// \brief Index of the NoK containing `v`.
  uint32_t NokOf(VertexId v) const { return nok_of_vertex[v]; }

  std::string ToString(const BlossomTree& tree) const;
};

/// \brief Decomposes a finalized BlossomTree into interconnected NoK pattern
/// trees (paper Algorithm 1): a DFS from each root that keeps local-axis
/// edges and re-roots the target of every global-axis edge as a new NoK.
/// Crossing edges are untouched (they connect vertices across NoKs and are
/// handled by the value/structural join operators).
Decomposition Decompose(const BlossomTree& tree);

}  // namespace pattern
}  // namespace blossomtree

#endif  // BLOSSOMTREE_PATTERN_DECOMPOSE_H_
