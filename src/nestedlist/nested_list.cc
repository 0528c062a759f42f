#include "nestedlist/nested_list.h"

#include <algorithm>

namespace blossomtree {
namespace nestedlist {

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
