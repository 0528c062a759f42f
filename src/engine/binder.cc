#include "engine/binder.h"

#include <algorithm>
#include <span>

#include "util/trace.h"

namespace blossomtree {
namespace engine {

using nestedlist::Entry;
using nestedlist::Group;
using nestedlist::NestedList;
using pattern::SlotId;

std::vector<SlotBinding> ComputeSlotBindings(const pattern::BlossomTree& tree,
                                             const flwor::Flwor& flwor) {
  std::vector<SlotBinding> out(tree.NumSlots());
  if (flwor.bindings.empty()) return out;
  uint32_t first = flwor.bindings.front().var_slot;
  for (SlotId s = 0; s < tree.NumSlots(); ++s) {
    uint32_t var = tree.vertex(tree.slot(s).vertex).var_slot;
    if (var == xpath::kNoVarSlot) continue;
    out[s].var_slot = var;
    out[s].is_let =
        flwor.bindings[var - first].kind == flwor::Binding::Kind::kLet;
  }
  return out;
}

namespace {

/// One pattern tree's binding walk over the drained lists' arena. Pending
/// work is a stack of (slot, groups) items, a group being an entry range of
/// the arena; a walk that empties it emits the tree's slots of the scratch
/// tuple as one row.
struct Expander {
  struct Item {
    SlotId slot;
    std::vector<Group> groups;
  };

  Status Run(const std::vector<SlotId>& tops) {
    for (SlotId top : tops) CollectVars(top);
    std::sort(out->slots.begin(), out->slots.end());
    // The tops behave as the children of a non-blossom root whose matches
    // are the lists.
    for (size_t t = 0; t < tops.size(); ++t) {
      Item item{tops[t], {}};
      for (NestedList nl : lists) {
        std::span<const Group> list_tops = nl.tops();
        if (t < list_tops.size()) item.groups.push_back(list_tops[t]);
      }
      pending.push_back(std::move(item));
    }
    BT_RETURN_NOT_OK(Walk());
    std::sort(out->rows.begin(), out->rows.end());
    out->rows.erase(std::unique(out->rows.begin(), out->rows.end()),
                    out->rows.end());
    return Status::OK();
  }

  void CollectVars(SlotId s) {
    if (bindings[s].var_slot != xpath::kNoVarSlot) {
      out->slots.push_back(bindings[s].var_slot);
    }
    for (SlotId c : tree.slot(s).children) CollectVars(c);
  }

  Status Walk() {
    if (pending.empty()) {
      if ((++emitted & 0x1FF) == 0 && !guard->Check()) {
        return guard->status();
      }
      Env& row = out->rows.emplace_back();
      for (uint32_t var : out->slots) row.push_back(scratch[var]);
      return Status::OK();
    }
    Item item = std::move(pending.back());
    pending.pop_back();
    std::vector<const Entry*> matches;
    for (Group g : item.groups) {
      for (const Entry& e : lists.EntriesOf(g)) matches.push_back(&e);
    }
    const SlotBinding& sb = bindings[item.slot];
    Status st;
    if (sb.var_slot == xpath::kNoVarSlot) {
      // Non-blossom slot: no branching; its children see every match's
      // groups, as the path through it reaches them.
      st = Descend(item.slot, matches);
    } else if (sb.is_let) {
      // let-binding: the whole (possibly empty) sequence, in document
      // order; groups merged through a non-blossom slot can repeat nodes.
      std::vector<xml::NodeId>& seq = scratch[sb.var_slot];
      seq.clear();
      for (const Entry* e : matches) seq.push_back(e->node);
      std::sort(seq.begin(), seq.end());
      seq.erase(std::unique(seq.begin(), seq.end()), seq.end());
      st = Walk();
    } else {
      // for-binding: one branch per match; no match, no tuple.
      for (const Entry* e : matches) {
        scratch[sb.var_slot].assign(1, e->node);
        st = Descend(item.slot, {e});
        if (!st.ok()) break;
      }
    }
    pending.push_back(std::move(item));
    return st;
  }

  /// Walks on with each child slot of `s` queued over its groups in
  /// `matches`.
  Status Descend(SlotId s, const std::vector<const Entry*>& matches) {
    size_t mark = pending.size();
    const std::vector<SlotId>& kids = tree.slot(s).children;
    for (size_t i = 0; i < kids.size(); ++i) {
      Item child{kids[i], {}};
      for (const Entry* e : matches) {
        if (i < e->num_groups) child.groups.push_back(lists.GroupsOf(*e)[i]);
      }
      pending.push_back(std::move(child));
    }
    Status st = Walk();
    pending.resize(mark);
    return st;
  }

  const pattern::BlossomTree& tree;
  const nestedlist::Arena& lists;
  const std::vector<SlotBinding>& bindings;
  util::ResourceGuard* guard;
  TreeTuples* out;
  Env scratch;  ///< Sized to every slot in scope; this tree writes its own.
  std::vector<Item> pending = {};
  uint64_t emitted = 0;
};

}  // namespace

Status EnumerateBindings(const pattern::BlossomTree& tree,
                         const std::vector<SlotId>& tops,
                         const nestedlist::Arena& lists,
                         const std::vector<SlotBinding>& bindings,
                         size_t num_vars, util::ResourceGuard* guard,
                         TreeTuples* out) {
  util::TraceSpan span("engine", "bind");
  *out = TreeTuples{};
  Expander expander{tree, lists, bindings, guard, out, Env(num_vars), {}, 0};
  return expander.Run(tops);
}

}  // namespace engine
}  // namespace blossomtree
