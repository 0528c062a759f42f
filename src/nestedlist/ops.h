#ifndef BLOSSOMTREE_NESTEDLIST_OPS_H_
#define BLOSSOMTREE_NESTEDLIST_OPS_H_

#include <cstddef>
#include <vector>

#include "nestedlist/nested_list.h"
#include "pattern/blossom_tree.h"

namespace blossomtree {
namespace nestedlist {

/// \brief The logical operators on NestedList (paper §3.3): projection,
/// selection, and the row rewriting the physical joins build on. All take
/// the list's top-slot context (`tops`) because a NestedList's shape
/// depends on whether it is a NoK-local or global result.

/// \brief Where the entries matched at one slot sit in a NestedList whose
/// tops are aligned with a given top-slot list: top group `top`, then child
/// group `child[d]` at each level below it. Operators resolve it once per
/// plan, not once per row.
struct SlotPath {
  bool valid = false;  ///< False: the slot is unreachable from the tops.
  uint32_t top = 0;
  std::vector<uint32_t> child;
  /// Per slot on the chain, top slot first (child.size() + 1 flags): its
  /// incoming edge is mandatory (f-mode).
  std::vector<bool> mandatory;
};

/// \brief Resolves the path from `tops` down to `target` (invalid if
/// `target` is not reachable).
SlotPath PathTo(const pattern::BlossomTree& tree,
                const std::vector<pattern::SlotId>& tops,
                pattern::SlotId target);

/// \brief π_ID over one NestedList, appending the nodes matched at the
/// path's slot in document order (paper: π_{1.1}(t) = [b1, b2, b3]).
void AppendProjection(const NestedList& list, const SlotPath& path,
                      std::vector<xml::NodeId>* out);

/// \brief π_ID: the document-ordered list of nodes matched at `target`;
/// empty if `target` is not reachable from `tops`.
std::vector<xml::NodeId> Project(const pattern::BlossomTree& tree,
                                 const std::vector<pattern::SlotId>& tops,
                                 const NestedList& list,
                                 pattern::SlotId target);

/// \brief Projection over a sequence of NestedLists (concatenation in
/// order, per §3.3).
std::vector<xml::NodeId> ProjectSequence(
    const pattern::BlossomTree& tree,
    const std::vector<pattern::SlotId>& tops, const Arena& lists,
    pattern::SlotId target);

/// \brief Copies NestedLists into an arena bottom-up, keeping Figure 6's
/// layout: finished entries and groups wait on two scratch stacks until
/// their parent closes, so each group's entries and each entry's groups
/// land contiguously. Anything dropped on the way is truncated from the
/// destination, so every row it writes owns exactly its cells. The stacks
/// keep their capacity, so a long-lived writer stops allocating.
///
/// Source and destination may be the same arena: the writer reads the
/// source by index and only ever appends past where it started.
class RowWriter {
 public:
  /// \brief Deep-copies `e`, an entry of `src`, into `dst`: its groups are
  /// placed, the returned entry itself is not (Stage it or place it).
  Entry CopyEntry(const Arena& src, Entry e, Arena* dst);

  /// \brief CopyEntry, except that group `child` of the copy continues with
  /// the entries `fill()` stages (the joins' graft). `*child_empty` reports
  /// whether that group came out empty.
  template <typename Fill>
  Entry CopyEntryGrafting(const Arena& src, Entry e, uint32_t child,
                          Arena* dst, Fill&& fill, bool* child_empty);

  /// \brief Adds a finished entry to the group being grafted.
  void Stage(const Entry& e) { entry_stack_.push_back(e); }

  /// \brief Rewrites `list` as a new row of `dst`. Every entry at the end
  /// of `path` goes through `at_target(entry, &copy)`, which writes its copy
  /// (through this writer) and returns whether to keep it; entries off the
  /// path are copied as they are. With `prune`, an entry whose mandatory
  /// group on the path came out empty is dropped as well, cascading up
  /// (the paper's validity rule), and a mandatory top group that comes out
  /// empty invalidates the whole list: nothing is appended and the result
  /// is false. Entries at the path's end are visited in document order.
  template <typename AtTarget>
  bool Rewrite(const NestedList& list, const SlotPath& path, bool prune,
               Arena* dst, AtTarget&& at_target);

 private:
  Group CopyGroup(const Arena& src, Group g, Arena* dst);
  template <typename AtTarget>
  Group RewriteGroup(const Arena& src, Group g, const SlotPath& path,
                     size_t depth, bool prune, Arena* dst,
                     AtTarget& at_target);
  /// Places the entries staged since `mark` as one group and unstages them.
  Group PlaceStaged(size_t mark, Arena* dst);
  /// Places the groups staged since `mark` under a new entry for `node`.
  Entry PlaceStagedGroups(xml::NodeId node, size_t mark, Arena* dst);

  std::vector<Entry> entry_stack_;
  std::vector<Group> group_stack_;
};

/// \brief σ_φ(ID): removes entries at `target` for which `pred(node,
/// position)` returns false (positions are 1-based over the whole projected
/// list), then restores validity: an entry whose mandatory (f-mode) child
/// group became empty is removed, cascading upward. The row is rewritten at
/// the arena's end and `lists->rows[row]` repointed to it.
///
/// \return true if the list is still a valid match; false means the caller
/// must treat the result as the empty sequence (paper: "return empty
/// sequence").
template <typename Pred>
bool Select(const pattern::BlossomTree& tree,
            const std::vector<pattern::SlotId>& tops, Arena* lists,
            size_t row, pattern::SlotId target, Pred pred);

/// \brief Positional selection σ_{position(ID)=k} (e.g. //book[2]).
bool SelectPosition(const pattern::BlossomTree& tree,
                    const std::vector<pattern::SlotId>& tops, Arena* lists,
                    size_t row, pattern::SlotId target, size_t position);

/// \brief Removes entries at `target` whose mandatory child group at
/// `child_index` is empty, cascading mandatory-emptiness upward, rewriting
/// the row as Select does; returns false if the whole list became invalid.
/// The structural joins apply the same rule while they graft (f-mode
/// connections).
bool EnforceMandatory(const pattern::BlossomTree& tree,
                      const std::vector<pattern::SlotId>& tops, Arena* lists,
                      size_t row, pattern::SlotId target, size_t child_index);

/// \brief Returns the chain of slots from a member of `tops` down to
/// `target` (inclusive), or empty if unreachable.
std::vector<pattern::SlotId> SlotChain(
    const pattern::BlossomTree& tree,
    const std::vector<pattern::SlotId>& tops, pattern::SlotId target);

/// \brief Index of `child` within `parent`'s slot children.
size_t ChildIndex(const pattern::BlossomTree& tree, pattern::SlotId parent,
                  pattern::SlotId child);

// -- Implementation -----------------------------------------------------------

template <typename Fill>
Entry RowWriter::CopyEntryGrafting(const Arena& src, Entry e, uint32_t child,
                                   Arena* dst, Fill&& fill,
                                   bool* child_empty) {
  const size_t gmark = group_stack_.size();
  bool empty = false;
  for (uint32_t j = 0; j < e.num_groups; ++j) {
    Group g = src.groups[e.first_group + j];
    if (j == child) {
      const size_t mark = entry_stack_.size();
      for (uint32_t i = g.begin; i < g.end; ++i) {
        entry_stack_.push_back(CopyEntry(src, src.entries[i], dst));
      }
      fill();
      g = PlaceStaged(mark, dst);
      empty = g.empty();
    } else {
      g = CopyGroup(src, g, dst);
    }
    group_stack_.push_back(g);
  }
  *child_empty = empty;
  return PlaceStagedGroups(e.node, gmark, dst);
}

template <typename AtTarget>
bool RowWriter::Rewrite(const NestedList& list, const SlotPath& path,
                        bool prune, Arena* dst, AtTarget&& at_target) {
  const Arena& src = list.arena();
  const Row r = list.row();  // By value: `src` may be `dst`.
  if (!path.valid || path.top >= r.num_tops) {
    // Nothing lies on the path: a pruning rewrite finds the list invalid,
    // a plain one copies it.
    if (prune) return false;
    dst->AppendRow(list);
    return true;
  }
  const Arena::Mark start = dst->GetMark();
  const size_t mark = group_stack_.size();
  const uint32_t first_top = r.first_group + r.num_groups - r.num_tops;
  for (uint32_t t = 0; t < r.num_tops; ++t) {
    Group g = src.groups[first_top + t];
    if (t == path.top) {
      g = RewriteGroup(src, g, path, 0, prune, dst, at_target);
      if (prune && g.empty() && path.mandatory[0]) {
        dst->Truncate(start);
        group_stack_.resize(mark);
        return false;
      }
    } else {
      g = CopyGroup(src, g, dst);
    }
    group_stack_.push_back(g);
  }
  dst->PlaceRow({group_stack_.data() + mark, r.num_tops}, start);
  group_stack_.resize(mark);
  return true;
}

template <typename AtTarget>
Group RowWriter::RewriteGroup(const Arena& src, Group g, const SlotPath& path,
                              size_t depth, bool prune, Arena* dst,
                              AtTarget& at_target) {
  const size_t mark = entry_stack_.size();
  for (uint32_t i = g.begin; i < g.end; ++i) {
    const Entry e = src.entries[i];
    const Arena::Mark undo = dst->GetMark();
    Entry copy;
    bool keep = true;
    if (depth == path.child.size()) {
      keep = at_target(e, &copy);
    } else {
      const uint32_t on_path = path.child[depth];
      const size_t gmark = group_stack_.size();
      bool path_empty = false;
      for (uint32_t j = 0; j < e.num_groups; ++j) {
        Group cg = src.groups[e.first_group + j];
        if (j == on_path) {
          cg = RewriteGroup(src, cg, path, depth + 1, prune, dst, at_target);
          path_empty = cg.empty();
        } else {
          cg = CopyGroup(src, cg, dst);
        }
        group_stack_.push_back(cg);
      }
      keep = !(prune && path_empty && path.mandatory[depth + 1]);
      if (keep) {
        copy = PlaceStagedGroups(e.node, gmark, dst);
      } else {
        group_stack_.resize(gmark);
      }
    }
    if (keep) {
      entry_stack_.push_back(copy);
    } else {
      dst->Truncate(undo);  // Drops the subtree written for `e`.
    }
  }
  return PlaceStaged(mark, dst);
}

namespace internal {

/// Rewrites row `row` of `lists` in place, keeping the entries at `target`
/// that `keep` accepts and restoring validity (see Select).
template <typename Keep>
bool PruneRow(const pattern::BlossomTree& tree,
              const std::vector<pattern::SlotId>& tops, Arena* lists,
              size_t row, pattern::SlotId target, Keep keep) {
  RowWriter w;
  auto at_target = [&](const Entry& e, Entry* copy) {
    if (!keep(e)) return false;
    *copy = w.CopyEntry(*lists, e, lists);
    return true;
  };
  bool valid = w.Rewrite((*lists)[row], PathTo(tree, tops, target), true,
                         lists, at_target);
  if (valid) {
    lists->rows[row] = lists->rows.back();
    lists->rows.pop_back();
  }
  return valid;
}

}  // namespace internal

template <typename Pred>
bool Select(const pattern::BlossomTree& tree,
            const std::vector<pattern::SlotId>& tops, Arena* lists,
            size_t row, pattern::SlotId target, Pred pred) {
  size_t position = 0;
  auto keep = [&](const Entry& e) { return pred(e.node, ++position); };
  return internal::PruneRow(tree, tops, lists, row, target, keep);
}

}  // namespace nestedlist
}  // namespace blossomtree

#endif  // BLOSSOMTREE_NESTEDLIST_OPS_H_
