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
    out[s] = {var,
              flwor.bindings[var - first].kind == flwor::Binding::Kind::kLet};
  }
  return out;
}

namespace {

/// One pattern tree's binding walk over the drained lists' arena. Pending
/// work is a stack of (slot, groups) items, a group being an entry range of
/// the arena; a walk that empties it emits the tree's slots of the scratch
/// tuple as one row.
struct Expander {
  struct Item { SlotId slot; std::vector<Group> groups; };

  Status Run(const std::vector<SlotId>& tops, size_t num_vars) {
    runs.resize(num_vars);
    for (SlotId top : tops) CollectVars(top);
    std::sort(out->slots.begin(), out->slots.end());
    out->rows = TupleTable{out->slots.size()};
    // The tops behave as the children of a non-blossom root whose matches
    // are the lists.
    for (size_t t = 0; t < tops.size(); ++t) {
      Item& item = pending.emplace_back(Item{tops[t], {}});
      for (NestedList nl : lists) {
        if (t < nl.tops().size()) item.groups.push_back(nl.tops()[t]);
      }
    }
    BT_RETURN_NOT_OK(Walk());
    // Rows of a non-recursive document's lists arrive in order and
    // distinct; only nesting matches pay for the sort.
    if (!out->rows.StrictlyAscending()) {
      out->rows = out->rows.SortedDistinct();
    }
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
      for (uint32_t var : out->slots) {
        out->rows.Push({pool.data() + runs[var].first,
                        pool.data() + runs[var].second});
      }
      out->rows.EndRow();
      return Status::OK();
    }
    Item item = std::move(pending.back());
    pending.pop_back();
    std::vector<const Entry*> matches;
    for (Group g : item.groups) {
      for (const Entry& e : lists.EntriesOf(g)) matches.push_back(&e);
    }
    const SlotBinding& sb = bindings[item.slot];
    const size_t mark = pool.size();  // This level's runs start here.
    Status st;
    if (sb.var_slot == xpath::kNoVarSlot) {
      // Non-blossom slot: no branching; its children see every match's
      // groups, as the path through it reaches them.
      st = Descend(item.slot, matches);
    } else if (sb.is_let) {
      // let-binding: the whole (possibly empty) sequence, in document
      // order; groups merged through a non-blossom slot can repeat nodes.
      for (const Entry* e : matches) pool.push_back(e->node);
      std::sort(pool.begin() + mark, pool.end());
      pool.erase(std::unique(pool.begin() + mark, pool.end()), pool.end());
      runs[sb.var_slot] = {mark, pool.size()};
      st = Walk();
    } else {
      // for-binding: one branch per match; no match, no tuple.
      runs[sb.var_slot] = {mark, mark + 1};
      pool.push_back(xml::kNullNode);
      for (const Entry* e : matches) {
        pool[mark] = e->node;  // Deeper runs start past it.
        st = Descend(item.slot, {&e, 1});
        if (!st.ok()) break;
      }
    }
    pool.resize(mark);
    pending.push_back(std::move(item));
    return st;
  }

  /// Walks on with each child slot of `s` queued over its `matches`' groups.
  Status Descend(SlotId s, std::span<const Entry* const> matches) {
    size_t mark = pending.size();
    const std::vector<SlotId>& kids = tree.slot(s).children;
    for (size_t i = 0; i < kids.size(); ++i) {
      Item& child = pending.emplace_back(Item{kids[i], {}});
      for (const Entry* e : matches) {
        if (i < e->num_groups) child.groups.push_back(lists.GroupsOf(*e)[i]);
      }
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
  /// The scratch tuple: slot `v` binds `pool[runs[v].first, .second)`, a
  /// run pushed as the walk descends and popped as it backtracks.
  std::vector<std::pair<size_t, size_t>> runs = {};
  std::vector<xml::NodeId> pool = {};
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
  Expander expander{tree, lists, bindings, guard, out};
  return expander.Run(tops, num_vars);
}

}  // namespace engine
}  // namespace blossomtree
