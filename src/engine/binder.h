#ifndef BLOSSOMTREE_ENGINE_BINDER_H_
#define BLOSSOMTREE_ENGINE_BINDER_H_

#include <cstdint>
#include <vector>

#include "engine/path_eval.h"
#include "flwor/ast.h"
#include "nestedlist/nested_list.h"
#include "pattern/blossom_tree.h"
#include "util/resource_guard.h"

namespace blossomtree {
namespace engine {

/// \brief Variable-binding metadata per pattern slot (derived from the
/// FLWOR bindings): the tuple slot the slot's blossom writes, and whether
/// it is for-bound (one tuple per match) or let-bound (the whole match
/// sequence in one binding).
struct SlotBinding {
  uint32_t var_slot = xpath::kNoVarSlot;  ///< kNoVarSlot: no blossom.
  bool is_let = false;
};

/// \brief Computes per-slot binding metadata from the FLWOR clause list.
std::vector<SlotBinding> ComputeSlotBindings(const pattern::BlossomTree& tree,
                                             const flwor::Flwor& flwor);

/// \brief One pattern tree's bindings: `rows.Slot(i, j)` is the node
/// sequence row `i` binds to tuple slot `slots[j]`.
struct TreeTuples {
  std::vector<uint32_t> slots;  ///< The tree's own tuple slots, ascending.
  TupleTable rows;              ///< Distinct, in ascending order.
};

/// \brief The variable-binding step of Figure 2 (NestedList → tuples) for
/// one pattern tree, as one backtracking walk that writes slots into a
/// scratch tuple (a stack of node runs):
///  - a for-bound blossom branches per match;
///  - a let-bound blossom binds its whole group, possibly empty, as one
///    document-ordered sequence;
///  - a non-blossom returning slot (a join endpoint) does not branch: its
///    children are expanded over the groups of all its matches, as the
///    path that runs through it would reach them. The tree's top slots are
///    expanded the same way over all of `lists`.
///
/// Rows are deduplicated (path expressions bind node *sets*, so a node
/// reachable through two embeddings binds once) and sorted, which is the
/// order of the FLWOR's nested loops: one sort of row indexes, then one
/// compaction. `guard` is checked every 512 rows.
Status EnumerateBindings(const pattern::BlossomTree& tree,
                         const std::vector<pattern::SlotId>& tops,
                         const nestedlist::Arena& lists,
                         const std::vector<SlotBinding>& bindings,
                         size_t num_vars, util::ResourceGuard* guard,
                         TreeTuples* out);

}  // namespace engine
}  // namespace blossomtree

#endif  // BLOSSOMTREE_ENGINE_BINDER_H_
