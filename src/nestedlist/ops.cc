#include "nestedlist/ops.h"

#include <algorithm>

namespace blossomtree {
namespace nestedlist {

using pattern::BlossomTree;
using pattern::EdgeMode;
using pattern::SlotId;

std::vector<SlotId> SlotChain(const BlossomTree& tree,
                              const std::vector<SlotId>& tops,
                              SlotId target) {
  std::vector<SlotId> chain;
  SlotId s = target;
  while (s != pattern::kNoSlot) {
    chain.push_back(s);
    if (std::find(tops.begin(), tops.end(), s) != tops.end()) {
      std::reverse(chain.begin(), chain.end());
      return chain;
    }
    s = tree.slot(s).parent;
  }
  return {};  // target not reachable from tops
}

size_t ChildIndex(const BlossomTree& tree, SlotId parent, SlotId child) {
  const auto& kids = tree.slot(parent).children;
  auto it = std::find(kids.begin(), kids.end(), child);
  return static_cast<size_t>(it - kids.begin());
}

SlotPath PathTo(const BlossomTree& tree, const std::vector<SlotId>& tops,
                SlotId target) {
  SlotPath path;
  std::vector<SlotId> chain = SlotChain(tree, tops, target);
  if (chain.empty()) return path;
  path.valid = true;
  path.top = static_cast<uint32_t>(
      std::find(tops.begin(), tops.end(), chain[0]) - tops.begin());
  for (size_t d = 0; d < chain.size(); ++d) {
    if (d > 0) {
      path.child.push_back(
          static_cast<uint32_t>(ChildIndex(tree, chain[d - 1], chain[d])));
    }
    path.mandatory.push_back(tree.slot(chain[d]).mode == EdgeMode::kFor);
  }
  return path;
}

namespace {

void ProjectGroup(const Arena& a, Group g, const SlotPath& path, size_t depth,
                  std::vector<xml::NodeId>* out) {
  if (depth == path.child.size()) {
    for (uint32_t i = g.begin; i < g.end; ++i) {
      out->push_back(a.entries[i].node);
    }
    return;
  }
  const uint32_t c = path.child[depth];
  for (uint32_t i = g.begin; i < g.end; ++i) {
    const Entry& e = a.entries[i];
    if (c < e.num_groups) {
      ProjectGroup(a, a.groups[e.first_group + c], path, depth + 1, out);
    }
  }
}

}  // namespace

void AppendProjection(const NestedList& list, const SlotPath& path,
                      std::vector<xml::NodeId>* out) {
  if (!path.valid) return;
  std::span<const Group> tops = list.tops();
  if (path.top >= tops.size()) return;
  ProjectGroup(list.arena(), tops[path.top], path, 0, out);
}

std::vector<xml::NodeId> Project(const BlossomTree& tree,
                                 const std::vector<SlotId>& tops,
                                 const NestedList& list, SlotId target) {
  std::vector<xml::NodeId> out;
  AppendProjection(list, PathTo(tree, tops, target), &out);
  return out;
}

std::vector<xml::NodeId> ProjectSequence(const BlossomTree& tree,
                                         const std::vector<SlotId>& tops,
                                         const Arena& lists, SlotId target) {
  std::vector<xml::NodeId> out;
  SlotPath path = PathTo(tree, tops, target);
  for (NestedList l : lists) AppendProjection(l, path, &out);
  return out;
}

Entry RowWriter::CopyEntry(const Arena& src, Entry e, Arena* dst) {
  const size_t gmark = group_stack_.size();
  for (uint32_t j = 0; j < e.num_groups; ++j) {
    group_stack_.push_back(CopyGroup(src, src.groups[e.first_group + j], dst));
  }
  return PlaceStagedGroups(e.node, gmark, dst);
}

Group RowWriter::CopyGroup(const Arena& src, Group g, Arena* dst) {
  const size_t mark = entry_stack_.size();
  for (uint32_t i = g.begin; i < g.end; ++i) {
    entry_stack_.push_back(CopyEntry(src, src.entries[i], dst));
  }
  return PlaceStaged(mark, dst);
}

Group RowWriter::PlaceStaged(size_t mark, Arena* dst) {
  Group g = dst->PlaceGroup(
      {entry_stack_.data() + mark, entry_stack_.size() - mark});
  entry_stack_.resize(mark);
  return g;
}

Entry RowWriter::PlaceStagedGroups(xml::NodeId node, size_t mark,
                                   Arena* dst) {
  Entry e = dst->PlaceEntry(
      node, {group_stack_.data() + mark, group_stack_.size() - mark});
  group_stack_.resize(mark);
  return e;
}

bool SelectPosition(const BlossomTree& tree, const std::vector<SlotId>& tops,
                    Arena* lists, size_t row, SlotId target,
                    size_t position) {
  return Select(tree, tops, lists, row, target,
                [position](xml::NodeId, size_t pos) {
                  return pos == position;
                });
}

bool EnforceMandatory(const BlossomTree& tree,
                      const std::vector<SlotId>& tops, Arena* lists,
                      size_t row, SlotId target, size_t child_index) {
  auto keep = [&](const Entry& e) {
    return child_index >= e.num_groups ||
           !lists->groups[e.first_group + child_index].empty();
  };
  return internal::PruneRow(tree, tops, lists, row, target, keep);
}

}  // namespace nestedlist
}  // namespace blossomtree
