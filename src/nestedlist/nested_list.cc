#include "nestedlist/nested_list.h"

#include <algorithm>

namespace blossomtree {
namespace nestedlist {

void Arena::AppendRow(const NestedList& list) {
  const Arena& src = list.arena();
  const Row r = list.row();  // By value: `src` may be this arena.
  const uint32_t entry_base = static_cast<uint32_t>(entries.size());
  const uint32_t group_base = static_cast<uint32_t>(groups.size());
  // Unsigned shifts: an index i of the row moves to i + shift (mod 2^32).
  const uint32_t entry_shift = entry_base - r.first_entry;
  const uint32_t group_shift = group_base - r.first_group;
  // No exact reserve per row: it would reallocate on every append and make
  // draining N rows one at a time quadratic; push_back grows geometrically.
  for (uint32_t i = 0; i < r.num_entries; ++i) {
    Entry e = src.entries[r.first_entry + i];
    e.first_group += group_shift;
    entries.push_back(e);
  }
  for (uint32_t i = 0; i < r.num_groups; ++i) {
    Group g = src.groups[r.first_group + i];
    g.begin += entry_shift;
    g.end += entry_shift;
    groups.push_back(g);
  }
  Row copy = r;
  copy.first_entry = entry_base;
  copy.first_group = group_base;
  rows.push_back(copy);
}

std::string OccurrenceLabeler::operator()(xml::NodeId n) const {
  if (!doc_->IsElement(n)) return "#text";
  const std::string& tag = doc_->TagName(n);
  const auto& index = doc_->TagIndex(doc_->Tag(n));
  auto it = std::lower_bound(index.begin(), index.end(), n);
  size_t rank = static_cast<size_t>(it - index.begin()) + 1;
  return tag + std::to_string(rank);
}

}  // namespace nestedlist
}  // namespace blossomtree
