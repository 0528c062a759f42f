#include "nestedlist/ops.h"

#include <algorithm>
#include <unordered_map>

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

namespace {

/// Walks `group` down the slot chain, calling fn on entries at the end.
void VisitConst(const BlossomTree& tree, const Group& group,
                const std::vector<SlotId>& chain, size_t depth,
                const std::function<void(const Entry&)>& fn) {
  if (depth + 1 == chain.size()) {
    for (const Entry& e : group) fn(e);
    return;
  }
  size_t idx = ChildIndex(tree, chain[depth], chain[depth + 1]);
  for (const Entry& e : group) {
    if (idx < e.groups.size()) {
      VisitConst(tree, e.groups[idx], chain, depth + 1, fn);
    }
  }
}

void VisitMutable(const BlossomTree& tree, Group* group,
                  const std::vector<SlotId>& chain, size_t depth,
                  const std::function<void(Entry*)>& fn) {
  if (depth + 1 == chain.size()) {
    for (Entry& e : *group) fn(&e);
    return;
  }
  size_t idx = ChildIndex(tree, chain[depth], chain[depth + 1]);
  for (Entry& e : *group) {
    if (idx < e.groups.size()) {
      VisitMutable(tree, &e.groups[idx], chain, depth + 1, fn);
    }
  }
}

/// Removes entries at the chain end for which `keep` is false; then removes
/// ancestors whose mandatory group at the pruned child became empty.
/// Returns false iff `group` itself became empty while the edge into
/// chain[depth] is mandatory.
bool PruneRec(const BlossomTree& tree, Group* group,
              const std::vector<SlotId>& chain, size_t depth,
              const std::function<bool(const Entry&)>& keep) {
  if (depth + 1 == chain.size()) {
    group->erase(std::remove_if(group->begin(), group->end(),
                                [&](const Entry& e) { return !keep(e); }),
                 group->end());
  } else {
    size_t idx = ChildIndex(tree, chain[depth], chain[depth + 1]);
    bool child_mandatory =
        tree.slot(chain[depth + 1]).mode == EdgeMode::kFor;
    group->erase(
        std::remove_if(group->begin(), group->end(),
                       [&](Entry& e) {
                         if (idx >= e.groups.size()) return false;
                         bool ok = PruneRec(tree, &e.groups[idx], chain,
                                            depth + 1, keep);
                         // A placeholder frame never fails mandatory checks:
                         // its slots are simply not filled yet.
                         if (e.IsPlaceholder()) return false;
                         return child_mandatory && !ok;
                       }),
        group->end());
  }
  return !group->empty();
}

}  // namespace

void ForEachEntry(const BlossomTree& tree, const std::vector<SlotId>& tops,
                  const NestedList& list, SlotId target,
                  const std::function<void(const Entry&)>& fn) {
  std::vector<SlotId> chain = SlotChain(tree, tops, target);
  if (chain.empty()) return;
  size_t top_index = static_cast<size_t>(
      std::find(tops.begin(), tops.end(), chain[0]) - tops.begin());
  if (top_index >= list.tops.size()) return;
  VisitConst(tree, list.tops[top_index], chain, 0, fn);
}

void ForEachEntryMutable(const BlossomTree& tree,
                         const std::vector<SlotId>& tops, NestedList* list,
                         SlotId target,
                         const std::function<void(Entry*)>& fn) {
  std::vector<SlotId> chain = SlotChain(tree, tops, target);
  if (chain.empty()) return;
  size_t top_index = static_cast<size_t>(
      std::find(tops.begin(), tops.end(), chain[0]) - tops.begin());
  if (top_index >= list->tops.size()) return;
  VisitMutable(tree, &list->tops[top_index], chain, 0, fn);
}

std::vector<xml::NodeId> Project(const BlossomTree& tree,
                                 const std::vector<SlotId>& tops,
                                 const NestedList& list, SlotId target) {
  std::vector<xml::NodeId> out;
  ForEachEntry(tree, tops, list, target, [&](const Entry& e) {
    if (!e.IsPlaceholder()) out.push_back(e.node);
  });
  return out;
}

std::vector<xml::NodeId> ProjectSequence(const BlossomTree& tree,
                                         const std::vector<SlotId>& tops,
                                         const std::vector<NestedList>& lists,
                                         SlotId target) {
  std::vector<xml::NodeId> out;
  for (const NestedList& l : lists) {
    auto part = Project(tree, tops, l, target);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

bool Select(const BlossomTree& tree, const std::vector<SlotId>& tops,
            NestedList* list, SlotId target,
            const std::function<bool(xml::NodeId, size_t)>& pred) {
  std::vector<SlotId> chain = SlotChain(tree, tops, target);
  if (chain.empty()) return false;
  size_t top_index = static_cast<size_t>(
      std::find(tops.begin(), tops.end(), chain[0]) - tops.begin());
  if (top_index >= list->tops.size()) return false;

  // Positions are 1-based over the whole projected list (paper's
  // σ_{position(1.1)=2} example), so number entries before pruning.
  size_t counter = 0;
  std::unordered_map<const Entry*, size_t> positions;
  VisitConst(tree, list->tops[top_index], chain, 0,
             [&](const Entry& e) { positions.emplace(&e, ++counter); });

  auto keep = [&](const Entry& e) {
    auto it = positions.find(&e);
    if (it == positions.end()) return true;
    return e.IsPlaceholder() || pred(e.node, it->second);
  };
  bool ok = PruneRec(tree, &list->tops[top_index], chain, 0, keep);
  bool top_mandatory = tree.slot(chain[0]).mode == EdgeMode::kFor;
  return ok || !top_mandatory;
}

bool SelectPosition(const BlossomTree& tree, const std::vector<SlotId>& tops,
                    NestedList* list, SlotId target, size_t position) {
  return Select(tree, tops, list, target,
                [position](xml::NodeId, size_t pos) {
                  return pos == position;
                });
}

bool EnforceMandatory(const BlossomTree& tree,
                      const std::vector<SlotId>& tops, NestedList* list,
                      SlotId target, size_t child_index) {
  std::vector<SlotId> chain = SlotChain(tree, tops, target);
  if (chain.empty()) return false;
  size_t top_index = static_cast<size_t>(
      std::find(tops.begin(), tops.end(), chain[0]) - tops.begin());
  if (top_index >= list->tops.size()) return false;
  auto keep = [&](const Entry& e) {
    return e.IsPlaceholder() || child_index >= e.groups.size() ||
           !e.groups[child_index].empty();
  };
  bool ok = PruneRec(tree, &list->tops[top_index], chain, 0, keep);
  bool top_mandatory = tree.slot(chain[0]).mode == EdgeMode::kFor;
  return ok || !top_mandatory;
}

}  // namespace nestedlist
}  // namespace blossomtree
