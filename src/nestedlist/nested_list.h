#ifndef BLOSSOMTREE_NESTEDLIST_NESTED_LIST_H_
#define BLOSSOMTREE_NESTEDLIST_NESTED_LIST_H_

#include <string>
#include <vector>

#include "pattern/blossom_tree.h"
#include "xml/document.h"

namespace blossomtree {
namespace nestedlist {

struct Entry;

/// \brief The "[]" grouping of the paper's NestedList notation: all matches
/// of one returning node under one parent match, in document order.
using Group = std::vector<Entry>;

/// \brief One matched node of a returning (Dewey-numbered) pattern vertex,
/// together with the groups of matches for each child slot — the concrete
/// realization of Figure 6's sibling/child pointers: `groups[i]` is the
/// child-pointer array entry for the i-th child slot, and the entries inside
/// a Group form the sibling list.
struct Entry {
  /// The matched XML node; kNullNode marks a placeholder (paper Example 4:
  /// the part of the global structure another NoK will fill).
  xml::NodeId node = xml::kNullNode;

  /// Aligned with pattern::Slot::children of this entry's slot.
  std::vector<Group> groups;

  bool IsPlaceholder() const { return node == xml::kNullNode; }
};

/// \brief A NestedList (paper Definition 2): the nested-list representation
/// of one pattern-tree match, leveraged by the grouping notation "[]".
///
/// `tops` is aligned with a context-dependent list of top slots: the global
/// returning tree's top slots for full results, or a NoK pattern tree's
/// local top slots for NoK-operator outputs. Operators carry that slot list
/// alongside the data.
struct NestedList {
  std::vector<Group> tops;
};

/// \brief Labels nodes with the paper's t_i convention: the i-th occurrence
/// of tag t in document order is "t" + i (e.g. "b2").
class OccurrenceLabeler {
 public:
  explicit OccurrenceLabeler(const xml::Document* doc) : doc_(doc) {}
  std::string operator()(xml::NodeId n) const;

 private:
  const xml::Document* doc_;
};

/// \brief Serializes a NestedList in the paper's exact notation:
/// groups render as "()" (empty), the bare entry (singleton), or
/// "[e1,e2,...]"; entries render as "(label,group,group,...)" with the
/// label omitted for placeholders. A single top group renders undecorated;
/// multiple top groups are wrapped in "(...)".
template <typename Labeler>
std::string ToString(const NestedList& list, const Labeler& label);

/// \brief Serializes one entry (see ToString).
template <typename Labeler>
std::string EntryToString(const Entry& entry, const Labeler& label);

// -- Implementation -----------------------------------------------------------

namespace internal {

template <typename Labeler>
void RenderEntry(const Entry& e, const Labeler& label, std::string* out);

template <typename Labeler>
void RenderGroup(const Group& g, const Labeler& label, std::string* out) {
  if (g.empty()) {
    out->append("()");
    return;
  }
  if (g.size() == 1) {
    RenderEntry(g[0], label, out);
    return;
  }
  out->push_back('[');
  for (size_t i = 0; i < g.size(); ++i) {
    if (i > 0) out->push_back(',');
    RenderEntry(g[i], label, out);
  }
  out->push_back(']');
}

template <typename Labeler>
void RenderEntry(const Entry& e, const Labeler& label, std::string* out) {
  out->push_back('(');
  bool first = true;
  if (!e.IsPlaceholder()) {
    out->append(label(e.node));
    first = false;
  }
  for (const Group& g : e.groups) {
    if (!first) out->push_back(',');
    first = false;
    RenderGroup(g, label, out);
  }
  out->push_back(')');
}

}  // namespace internal

template <typename Labeler>
std::string EntryToString(const Entry& entry, const Labeler& label) {
  std::string out;
  internal::RenderEntry(entry, label, &out);
  return out;
}

template <typename Labeler>
std::string ToString(const NestedList& list, const Labeler& label) {
  std::string out;
  if (list.tops.size() == 1) {
    internal::RenderGroup(list.tops[0], label, &out);
    return out;
  }
  out.push_back('(');
  for (size_t i = 0; i < list.tops.size(); ++i) {
    if (i > 0) out.push_back(',');
    internal::RenderGroup(list.tops[i], label, &out);
  }
  out.push_back(')');
  return out;
}

}  // namespace nestedlist
}  // namespace blossomtree

#endif  // BLOSSOMTREE_NESTEDLIST_NESTED_LIST_H_
