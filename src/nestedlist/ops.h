#ifndef BLOSSOMTREE_NESTEDLIST_OPS_H_
#define BLOSSOMTREE_NESTEDLIST_OPS_H_

#include <functional>
#include <vector>

#include "nestedlist/nested_list.h"
#include "util/status.h"

namespace blossomtree {
namespace nestedlist {

/// \brief The logical operators on NestedList (paper §3.3): projection,
/// selection, and the entry-level plumbing the physical joins build on.
/// All functions take the list's top-slot context (`tops`) because a
/// NestedList's shape depends on whether it is a NoK-local or global result.

/// \brief π_ID: unnests to the document-ordered list of nodes matched at
/// `target` (paper: π_{1.1}(t) = [b1, b2, b3]). Returns empty if `target`
/// is not reachable from `tops`.
std::vector<xml::NodeId> Project(const pattern::BlossomTree& tree,
                                 const std::vector<pattern::SlotId>& tops,
                                 const NestedList& list,
                                 pattern::SlotId target);

/// \brief Projection over a sequence of NestedLists (concatenation in
/// order, per §3.3).
std::vector<xml::NodeId> ProjectSequence(
    const pattern::BlossomTree& tree,
    const std::vector<pattern::SlotId>& tops,
    const std::vector<NestedList>& lists, pattern::SlotId target);

/// \brief Visits every entry matched at `target` (const).
void ForEachEntry(const pattern::BlossomTree& tree,
                  const std::vector<pattern::SlotId>& tops,
                  const NestedList& list, pattern::SlotId target,
                  const std::function<void(const Entry&)>& fn);

/// \brief Visits every entry matched at `target` (mutable; used by the
/// grafting joins to fill child groups in place).
void ForEachEntryMutable(const pattern::BlossomTree& tree,
                         const std::vector<pattern::SlotId>& tops,
                         NestedList* list, pattern::SlotId target,
                         const std::function<void(Entry*)>& fn);

/// \brief σ_φ(ID): removes entries at `target` for which `pred` returns
/// false (pred receives the node and its 1-based position in the projected
/// list), then restores validity: an entry whose mandatory (f-mode) child
/// group became empty is removed, cascading upward.
///
/// \return true if the list is still a valid match; false means the caller
/// must treat the result as the empty sequence (paper: "return empty
/// sequence").
bool Select(const pattern::BlossomTree& tree,
            const std::vector<pattern::SlotId>& tops, NestedList* list,
            pattern::SlotId target,
            const std::function<bool(xml::NodeId, size_t)>& pred);

/// \brief Positional selection σ_{position(ID)=k} (e.g. //book[2]).
bool SelectPosition(const pattern::BlossomTree& tree,
                    const std::vector<pattern::SlotId>& tops,
                    NestedList* list, pattern::SlotId target, size_t position);

/// \brief Removes entries at `target` whose mandatory child group at
/// `child_index` is empty, cascading mandatory-emptiness upward; returns
/// false if the whole list became invalid. Used by the structural joins
/// after grafting (f-mode connections).
bool EnforceMandatory(const pattern::BlossomTree& tree,
                      const std::vector<pattern::SlotId>& tops,
                      NestedList* list, pattern::SlotId target,
                      size_t child_index);

/// \brief Returns the chain of slots from a member of `tops` down to
/// `target` (inclusive), or empty if unreachable.
std::vector<pattern::SlotId> SlotChain(
    const pattern::BlossomTree& tree,
    const std::vector<pattern::SlotId>& tops, pattern::SlotId target);

/// \brief Index of `child` within `parent`'s slot children.
size_t ChildIndex(const pattern::BlossomTree& tree, pattern::SlotId parent,
                  pattern::SlotId child);

}  // namespace nestedlist
}  // namespace blossomtree

#endif  // BLOSSOMTREE_NESTEDLIST_OPS_H_
