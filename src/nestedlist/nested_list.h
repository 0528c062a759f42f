#ifndef BLOSSOMTREE_NESTEDLIST_NESTED_LIST_H_
#define BLOSSOMTREE_NESTEDLIST_NESTED_LIST_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "xml/document.h"

namespace blossomtree {
namespace nestedlist {

/// \brief One matched node of a returning (Dewey-numbered) pattern vertex,
/// with its slice of Figure 6's child-pointer array: `num_groups`
/// consecutive groups of the arena starting at `first_group`, one per child
/// slot, aligned with pattern::Slot::children of this entry's slot.
struct Entry {
  xml::NodeId node = xml::kNullNode;
  uint32_t first_group = 0;
  uint32_t num_groups = 0;
};

/// \brief The "[]" grouping of the paper's NestedList notation: all matches
/// of one returning node under one parent match — Figure 6's sibling list,
/// stored as the arena entries [begin, end), in document order.
struct Group {
  uint32_t begin = 0;
  uint32_t end = 0;

  uint32_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
};

/// \brief One NestedList of an arena (paper Definition 2). A row owns one
/// contiguous run of entries and one of groups, and every index inside it
/// points into those runs, so a row copies as two block moves. Its top
/// groups are the last `num_tops` of its groups; they are aligned with a
/// context-dependent list of top slots (the global returning tree's for
/// full results, a NoK's local ones for NoK-operator outputs), which
/// operators carry alongside the data.
struct Row {
  uint32_t first_entry = 0;
  uint32_t num_entries = 0;  ///< The row's cells.
  uint32_t first_group = 0;
  uint32_t num_groups = 0;
  uint32_t num_tops = 0;
};

/// \brief The fixed price of one NestedList cell in bytes (DESIGN.md §9):
/// what the resource guard's byte budget and `peak_buffer_bytes` charge per
/// cell. It is the footprint of the pointer-tree entry (a node id plus a
/// vector of groups) the arena replaced, kept so that budgets and recorded
/// baselines keep their meaning.
inline constexpr uint64_t kCellBytes = 32;

class NestedList;

/// \brief Figure 6 as flat arrays: a sequence of NestedLists sharing one
/// entry array, one group array and a per-row index. Built bottom-up —
/// an entry's groups are placed before the entry, a group's entries before
/// the group — so each group's entries and each entry's groups are
/// contiguous. Once frozen (held as shared_ptr<const Arena>), any number of
/// readers may share it.
class Arena {
 public:
  /// Position of the append ends, for rolling back a partial build.
  struct Mark {
    uint32_t entries = 0;
    uint32_t groups = 0;
  };

  /// Forward iterator over the rows, yielding NestedList views.
  class Iterator {
   public:
    Iterator(const Arena* arena, uint32_t row) : arena_(arena), row_(row) {}
    NestedList operator*() const;
    Iterator& operator++() {
      ++row_;
      return *this;
    }
    bool operator==(const Iterator& o) const { return row_ == o.row_; }
    bool operator!=(const Iterator& o) const { return row_ != o.row_; }

   private:
    const Arena* arena_;
    uint32_t row_;
  };

  std::vector<Entry> entries;
  std::vector<Group> groups;
  std::vector<Row> rows;

  size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }
  NestedList operator[](size_t row) const;
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const {
    return Iterator(this, static_cast<uint32_t>(rows.size()));
  }

  std::span<const Entry> EntriesOf(Group g) const {
    return {entries.data() + g.begin, g.size()};
  }
  std::span<const Group> GroupsOf(const Entry& e) const {
    return {groups.data() + e.first_group, e.num_groups};
  }

  /// \brief Exact footprint of the three arrays, from element counts (not
  /// capacities), so equal contents always report equal bytes.
  uint64_t Bytes() const {
    return entries.size() * sizeof(Entry) + groups.size() * sizeof(Group) +
           rows.size() * sizeof(Row);
  }

  /// \brief Drops the spare capacity doubling left, so an arena kept for
  /// long (a result-cache entry) holds what Bytes() reports.
  void ShrinkToFit() {
    entries.shrink_to_fit();
    groups.shrink_to_fit();
    rows.shrink_to_fit();
  }

  void clear() {
    entries.clear();
    groups.clear();
    rows.clear();
  }

  Mark GetMark() const {
    return {static_cast<uint32_t>(entries.size()),
            static_cast<uint32_t>(groups.size())};
  }
  /// Drops everything placed since `m` (rows must not reference it).
  void Truncate(Mark m) {
    entries.resize(m.entries);
    groups.resize(m.groups);
  }

  /// \brief Places `members` as one contiguous sibling list and returns its
  /// range. `members` must not alias `entries`.
  Group PlaceGroup(std::span<const Entry> members) {
    Group g{static_cast<uint32_t>(entries.size()), 0};
    entries.insert(entries.end(), members.begin(), members.end());
    g.end = static_cast<uint32_t>(entries.size());
    return g;
  }

  /// \brief Places `child_groups` contiguously and returns the entry for
  /// `node` that owns them (not yet placed in a group). `child_groups` must
  /// not alias `groups`.
  Entry PlaceEntry(xml::NodeId node, std::span<const Group> child_groups) {
    Entry e{node, static_cast<uint32_t>(groups.size()),
            static_cast<uint32_t>(child_groups.size())};
    groups.insert(groups.end(), child_groups.begin(), child_groups.end());
    return e;
  }

  /// \brief Closes a row: places `tops` and appends a row owning everything
  /// placed since `start`.
  void PlaceRow(std::span<const Group> tops, Mark start) {
    groups.insert(groups.end(), tops.begin(), tops.end());
    Row r;
    r.first_entry = start.entries;
    r.num_entries = static_cast<uint32_t>(entries.size()) - start.entries;
    r.first_group = start.groups;
    r.num_groups = static_cast<uint32_t>(groups.size()) - start.groups;
    r.num_tops = static_cast<uint32_t>(tops.size());
    rows.push_back(r);
  }

  /// \brief Appends a copy of `list` (of any arena, this one included): two
  /// block copies with every index shifted by the runs' new offsets.
  void AppendRow(const NestedList& list);
};

/// \brief A view of one row of an arena: the NestedList the paper's
/// operators consume. Cheap to copy; valid while the arena is.
class NestedList {
 public:
  NestedList() = default;
  NestedList(const Arena* arena, uint32_t row) : arena_(arena), row_(row) {}

  const Arena& arena() const { return *arena_; }
  uint32_t index() const { return row_; }
  const Row& row() const { return arena_->rows[row_]; }

  std::span<const Group> tops() const {
    const Row& r = row();
    return {arena_->groups.data() + r.first_group + r.num_groups - r.num_tops,
            r.num_tops};
  }
  std::span<const Entry> entries(Group g) const { return arena_->EntriesOf(g); }
  std::span<const Group> groups(const Entry& e) const {
    return arena_->GroupsOf(e);
  }
  /// \brief Cells (entries) of this NestedList: an array length.
  uint64_t cells() const { return row().num_entries; }

 private:
  const Arena* arena_ = nullptr;
  uint32_t row_ = 0;
};

inline NestedList Arena::Iterator::operator*() const {
  return NestedList(arena_, row_);
}

inline NestedList Arena::operator[](size_t row) const {
  return NestedList(this, static_cast<uint32_t>(row));
}

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
/// "[e1,e2,...]"; entries render as "(label,group,group,...)". A single top
/// group renders undecorated; multiple top groups are wrapped in "(...)".
template <typename Labeler>
std::string ToString(const NestedList& list, const Labeler& label);

// -- Implementation -----------------------------------------------------------

namespace internal {

template <typename Labeler>
void RenderGroup(const Arena& a, Group g, const Labeler& label,
                 std::string* out);

template <typename Labeler>
void RenderEntry(const Arena& a, const Entry& e, const Labeler& label,
                 std::string* out) {
  out->push_back('(');
  out->append(label(e.node));
  for (Group g : a.GroupsOf(e)) {
    out->push_back(',');
    RenderGroup(a, g, label, out);
  }
  out->push_back(')');
}

template <typename Labeler>
void RenderGroup(const Arena& a, Group g, const Labeler& label,
                 std::string* out) {
  if (g.empty()) {
    out->append("()");
    return;
  }
  if (g.size() == 1) {
    RenderEntry(a, a.entries[g.begin], label, out);
    return;
  }
  out->push_back('[');
  for (uint32_t i = g.begin; i < g.end; ++i) {
    if (i > g.begin) out->push_back(',');
    RenderEntry(a, a.entries[i], label, out);
  }
  out->push_back(']');
}

}  // namespace internal

template <typename Labeler>
std::string ToString(const NestedList& list, const Labeler& label) {
  std::string out;
  std::span<const Group> tops = list.tops();
  if (tops.size() == 1) {
    internal::RenderGroup(list.arena(), tops[0], label, &out);
    return out;
  }
  out.push_back('(');
  for (size_t i = 0; i < tops.size(); ++i) {
    if (i > 0) out.push_back(',');
    internal::RenderGroup(list.arena(), tops[i], label, &out);
  }
  out.push_back(')');
  return out;
}

}  // namespace nestedlist
}  // namespace blossomtree

#endif  // BLOSSOMTREE_NESTEDLIST_NESTED_LIST_H_
