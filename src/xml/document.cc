#include "xml/document.h"

#include <algorithm>
#include <atomic>

namespace blossomtree {
namespace xml {

namespace {

/// Process-wide generation counter shared by Finish() and AdoptExternal():
/// never reused, so every finished/adopted document has a distinct cache
/// identity (DESIGN.md §11).
uint64_t NextGeneration() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TagId TagDictionary::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  TagId id = static_cast<TagId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

TagId TagDictionary::Lookup(std::string_view name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kNullTag : it->second;
}

NodeId Document::AppendNode(TagId tag, uint32_t text_ref) {
  NodeId id = static_cast<NodeId>(records_.size());
  NodeId parent = open_stack_.empty() ? kNullNode : open_stack_.back();
  uint32_t level = parent == kNullNode ? 0 : records_[parent].level + 1;
  records_.push_back(PackedNodeRecord{tag, id, level, text_ref});
  parent_.push_back(parent);
  return id;
}

void Document::PointViewAtOwned() {
  view_.num_nodes = records_.size();
  view_.records = records_.data();
  view_.parent = parent_.data();
  view_.text_spans = text_spans_.data();
  view_.num_text_spans = text_spans_.size();
  view_.text_pool = text_pool_.data();
  view_.text_pool_bytes = text_pool_.size();
  view_.attr_owners = attr_owners_.data();
  view_.num_attr_owners = attr_owners_.size();
  view_.attrs = attrs_.data();
  view_.num_attrs = attrs_.size();
  view_.tag_recursion = tag_recursion_.data();
  view_.tag_stream_offsets = tag_stream_offsets_.data();
  view_.tag_streams = tag_streams_.data();
}

NodeId Document::BeginElement(std::string_view name) {
  NodeId id = AppendNode(tags_.Intern(name), kNoTextRef);
  open_stack_.push_back(id);
  PointViewAtOwned();
  return id;
}

void Document::AddAttribute(std::string_view name, std::string_view value) {
  // Attribute strings go into the pool right behind their element's record,
  // interleaved in node order with the text payloads.
  NodeId owner = open_stack_.back();
  uint32_t index = static_cast<uint32_t>(attrs_.size());
  if (attr_owners_.empty() || attr_owners_.back().node != owner) {
    attr_owners_.push_back(ExternalAttrOwner{owner, index, index});
  }
  Attribute a;
  a.name_offset = static_cast<uint32_t>(text_pool_.size());
  a.name_len = static_cast<uint32_t>(name.size());
  text_pool_.append(name);
  a.value_offset = static_cast<uint32_t>(text_pool_.size());
  a.value_len = static_cast<uint32_t>(value.size());
  text_pool_.append(value);
  attrs_.push_back(a);
  attr_owners_.back().last = index + 1;
  PointViewAtOwned();
}

NodeId Document::AddText(std::string_view text) {
  uint32_t ref = static_cast<uint32_t>(text_spans_.size());
  text_spans_.push_back(ExternalTextSpan{
      static_cast<uint32_t>(text_pool_.size()),
      static_cast<uint32_t>(text.size())});
  text_pool_.append(text);
  NodeId id = AppendNode(kNullTag, ref);
  PointViewAtOwned();
  return id;
}

void Document::EndElement() {
  NodeId id = open_stack_.back();
  open_stack_.pop_back();
  records_[id].subtree_end = static_cast<NodeId>(records_.size() - 1);
}

Status Document::Finish() {
  if (!open_stack_.empty()) {
    return Status::Internal("Document::Finish with unclosed elements");
  }
  // The builder stores ids and pool offsets in 32 bits; refuse a document
  // that outgrew them rather than serve truncated offsets.
  if (records_.size() >= static_cast<size_t>(kNullNode)) {
    return Status::InvalidArgument("Document: too many nodes for 32-bit ids");
  }
  if (text_pool_.size() > static_cast<size_t>(kNoTextRef)) {
    return Status::InvalidArgument(
        "Document: text pool exceeds 32-bit offsets");
  }
  for (size_t i = 1; i < attr_owners_.size(); ++i) {
    if (attr_owners_[i].node <= attr_owners_[i - 1].node) {
      return Status::Internal(
          "Document::Finish with an element's attributes split around "
          "another element's");
    }
  }
  ComputeStats();
  PointViewAtOwned();
  // Process-wide, never reused: identical bytes re-parsed into a new
  // Document get a new generation, which is what invalidates NoK result
  // cache entries keyed to the old object (DESIGN.md §11).
  generation_ = NextGeneration();
  return Status::OK();
}

Status Document::AdoptExternal(ExternalLayout layout) {
  if (!records_.empty() || generation_ != 0) {
    return Status::Internal("AdoptExternal on a non-empty document");
  }
  if (layout.num_nodes > 0 &&
      (layout.records == nullptr || layout.parent == nullptr)) {
    return Status::InvalidArgument("AdoptExternal: missing node arrays");
  }
  if (!layout.tag_names.empty() &&
      (layout.tag_stream_offsets == nullptr ||
       layout.tag_recursion == nullptr)) {
    return Status::InvalidArgument("AdoptExternal: missing per-tag arrays");
  }
  if (layout.num_text_spans > 0 && layout.text_spans == nullptr) {
    return Status::InvalidArgument("AdoptExternal: missing text spans");
  }
  if ((layout.num_attrs > 0 && layout.attrs == nullptr) ||
      (layout.num_attr_owners > 0 && layout.attr_owners == nullptr)) {
    return Status::InvalidArgument("AdoptExternal: missing attribute arrays");
  }
  // Intern the persisted dictionary in TagId order, so on-disk TagIds and
  // in-memory TagIds coincide and the per-tag streams index directly.
  for (const std::string& name : layout.tag_names) tags_.Intern(name);
  if (tags_.size() != layout.tag_names.size()) {
    return Status::InvalidArgument(
        "AdoptExternal: duplicate names in tag dictionary");
  }
  view_ = std::move(layout);
  view_.num_tags = tags_.size();
  // Names now live in tags_; keep the layout copy from doubling memory.
  view_.tag_names.clear();
  view_.tag_names.shrink_to_fit();
  generation_ = NextGeneration();
  return Status::OK();
}

std::string_view Document::Text(NodeId n) const {
  uint32_t ref = view_.records[n].text_ref;
  if (ref == kNoTextRef) return {};
  const ExternalTextSpan& span = view_.text_spans[ref];
  return std::string_view(view_.text_pool + span.offset, span.length);
}

std::string Document::StringValue(NodeId n) const {
  if (Kind(n) == NodeKind::kText) return std::string(Text(n));
  std::string out;
  NodeId end = SubtreeEnd(n);
  for (NodeId i = n; i <= end; ++i) {
    if (Kind(i) == NodeKind::kText) {
      auto t = Text(i);
      out.append(t.data(), t.size());
    }
  }
  return out;
}

std::string_view Document::StringValueView(NodeId n,
                                           std::string* scratch) const {
  NodeId end = SubtreeEnd(n);
  NodeId first = n;
  while (first <= end && IsElement(first)) ++first;
  if (first > end) return {};
  NodeId next = first + 1;
  while (next <= end && IsElement(next)) ++next;
  if (next > end) return Text(first);
  scratch->assign(Text(first));
  for (NodeId i = next; i <= end; ++i) {
    if (!IsElement(i)) scratch->append(Text(i));
  }
  return *scratch;
}

std::span<const Attribute> Document::AttributesOf(NodeId n) const {
  const ExternalAttrOwner* begin = view_.attr_owners;
  const ExternalAttrOwner* end = begin + view_.num_attr_owners;
  const ExternalAttrOwner* it = std::lower_bound(
      begin, end, n,
      [](const ExternalAttrOwner& o, NodeId node) { return o.node < node; });
  if (it == end || it->node != n) return {};
  return {view_.attrs + it->first, static_cast<size_t>(it->last - it->first)};
}

std::vector<std::pair<std::string_view, std::string_view>>
Document::Attributes(NodeId n) const {
  std::vector<std::pair<std::string_view, std::string_view>> out;
  std::string_view pool(view_.text_pool, view_.text_pool_bytes);
  for (const Attribute& a : AttributesOf(n)) {
    out.emplace_back(pool.substr(a.name_offset, a.name_len),
                     pool.substr(a.value_offset, a.value_len));
  }
  return out;
}

bool Document::AttributeValue(NodeId n, std::string_view name,
                              std::string_view* value) const {
  std::string_view pool(view_.text_pool, view_.text_pool_bytes);
  for (const Attribute& a : AttributesOf(n)) {
    if (pool.substr(a.name_offset, a.name_len) == name) {
      *value = pool.substr(a.value_offset, a.value_len);
      return true;
    }
  }
  return false;
}

std::span<const NodeId> Document::TagIndex(TagId t) const {
  if (t >= view_.num_tags) return {};
  uint64_t begin = view_.tag_stream_offsets[t];
  uint64_t end = view_.tag_stream_offsets[t + 1];
  return {view_.tag_streams + begin, static_cast<size_t>(end - begin)};
}

void Document::ComputeStats() {
  size_t num_elements = 0;
  uint32_t max_depth = 0;
  uint32_t max_recursion = 0;
  uint64_t depth_sum = 0;
  // Same-tag nesting degree via a DFS with per-tag counters: the ancestor
  // chain of node n is exactly the elements a with a <= n <= SubtreeEnd(a),
  // which we track with an explicit stack during the linear scan. The same
  // pass counts each tag's elements, which sizes the per-tag streams.
  std::vector<NodeId> stack;
  std::vector<uint32_t> tag_depth(tags_.size(), 0);
  tag_recursion_.assign(tags_.size(), 0);
  tag_stream_offsets_.assign(tags_.size() + 1, 0);
  for (NodeId n = 0; n < records_.size(); ++n) {
    while (!stack.empty() && records_[stack.back()].subtree_end < n) {
      --tag_depth[records_[stack.back()].tag];
      stack.pop_back();
    }
    TagId tag = records_[n].tag;
    if (tag == kNullTag) continue;
    ++num_elements;
    ++tag_stream_offsets_[tag + 1];
    uint32_t depth = records_[n].level + 1;  // Table 1: the root is depth 1.
    depth_sum += depth;
    max_depth = std::max(max_depth, depth);
    uint32_t deg = ++tag_depth[tag];
    max_recursion = std::max(max_recursion, deg);
    tag_recursion_[tag] = std::max(tag_recursion_[tag], deg);
    stack.push_back(n);
  }
  // Counts → prefix offsets; then one counting pass places every element in
  // its tag's stream, in document order.
  for (size_t t = 0; t < tags_.size(); ++t) {
    tag_stream_offsets_[t + 1] += tag_stream_offsets_[t];
  }
  tag_streams_.resize(num_elements);
  std::vector<uint64_t> next(tag_stream_offsets_.begin(),
                             tag_stream_offsets_.end() - 1);
  for (NodeId n = 0; n < records_.size(); ++n) {
    TagId tag = records_[n].tag;
    if (tag != kNullTag) tag_streams_[next[tag]++] = n;
  }
  view_.num_tags = tags_.size();
  view_.num_elements = num_elements;
  view_.max_depth = max_depth;
  view_.max_recursion = max_recursion;
  view_.avg_depth = num_elements == 0
                        ? 0.0
                        : static_cast<double>(depth_sum) / num_elements;
}

uint32_t SiblingRank(const Document& doc, NodeId n, std::string_view tag) {
  NodeId parent = doc.Parent(n);
  if (parent == kNullNode) return 1;
  uint32_t rank = 0;
  for (NodeId c = doc.FirstChild(parent); c != kNullNode;
       c = doc.NextSibling(c)) {
    if (!doc.IsElement(c)) continue;
    if (tag == "*" || doc.TagName(c) == tag) ++rank;
    if (c == n) return rank;
  }
  return rank;
}

}  // namespace xml
}  // namespace blossomtree
