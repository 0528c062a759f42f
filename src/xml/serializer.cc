#include "xml/serializer.h"

#include <algorithm>
#include <vector>

#include "util/strings.h"

namespace blossomtree {
namespace xml {

namespace {

/// Whether `n`, an element with children, holds element-only content. Only
/// that content is indented: injected whitespace around a text child would
/// become part of the element's text on re-parse.
bool ElementOnly(const Document& doc, NodeId n) {
  for (NodeId c = n + 1; c <= doc.SubtreeEnd(n); c = doc.SubtreeEnd(c) + 1) {
    if (!doc.IsElement(c)) return false;
  }
  return true;
}

void NewLine(size_t depth, std::string* out) {
  out->push_back('\n');
  out->append(depth * 2, ' ');
}

}  // namespace

void SubtreeWriter::SeekOwner(NodeId n) {
  const ExternalAttrOwner* owners = doc_->Layout().attr_owners;
  const size_t count = doc_->Layout().num_attr_owners;
  auto before = [](const ExternalAttrOwner& o, NodeId node) {
    return o.node < node;
  };
  if (owner_ > 0 && owners[owner_ - 1].node >= n) {
    // `n` precedes the cursor: search the owners behind it.
    owner_ = std::lower_bound(owners, owners + owner_, n, before) - owners;
    return;
  }
  // Gallop forward: the next root is usually a few owners on.
  const size_t left = count - owner_;
  size_t bound = 1;
  while (bound <= left && owners[owner_ + bound - 1].node < n) bound *= 2;
  owner_ = std::lower_bound(owners + owner_ + bound / 2,
                            owners + owner_ + std::min(bound, left), n,
                            before) -
           owners;
}

void SubtreeWriter::Close(std::string* out) {
  const OpenElement& e = open_.back();
  if (e.block) NewLine(open_.size() - 1, out);
  out->append("</");
  out->append(doc_->tags().Name(e.tag));
  out->push_back('>');
  open_.pop_back();
}

void SubtreeWriter::PrefetchFirstText(NodeId n, bool payload) const {
  const NodeId last = doc_->SubtreeEnd(n);
  if (last == n) return;
  NodeId t = n + 1;
  if (doc_->IsElement(t) && t < last) ++t;
  doc_->PrefetchText(t, payload);
}

void SubtreeWriter::AppendAll(std::span<const NodeId> roots,
                              std::string* out) {
  const size_t count = roots.size();
  for (size_t i = 0; i < count; ++i) {
    if (i + kRecordsAhead < count) {
      doc_->PrefetchRecords(roots[i + kRecordsAhead], 2);
    }
    if (i + kSpanAhead < count) PrefetchFirstText(roots[i + kSpanAhead], false);
    if (i + kTextAhead < count) PrefetchFirstText(roots[i + kTextAhead], true);
    Append(roots[i], out);
  }
}

void SubtreeWriter::Append(NodeId root, std::string* out) {
  const Document& doc = *doc_;
  const ExternalLayout& layout = doc.Layout();
  const char* pool = layout.text_pool;
  SeekOwner(root);
  const NodeId last = doc.SubtreeEnd(root);
  for (NodeId n = root; n <= last; ++n) {
    // Large subtrees hold many text nodes: fetch their bytes a few nodes
    // ahead of the walk.
    if (n + kTextAhead <= last) doc.PrefetchText(n + kTextAhead, true);
    while (!open_.empty() && open_.back().end < n) Close(out);
    if (!open_.empty() && open_.back().block) NewLine(open_.size(), out);
    if (!doc.IsElement(n)) {
      AppendXmlEscaped(doc.Text(n), out);
      continue;
    }
    out->push_back('<');
    out->append(doc.TagName(n));
    // The walk visits ids in ascending order, so the cursor only advances.
    while (owner_ < layout.num_attr_owners &&
           layout.attr_owners[owner_].node < n) {
      ++owner_;
    }
    if (owner_ < layout.num_attr_owners &&
        layout.attr_owners[owner_].node == n) {
      const ExternalAttrOwner& owner = layout.attr_owners[owner_];
      for (uint32_t i = owner.first; i < owner.last; ++i) {
        const Attribute& a = layout.attrs[i];
        out->push_back(' ');
        out->append(pool + a.name_offset, a.name_len);
        out->append("=\"");
        AppendXmlEscaped({pool + a.value_offset, a.value_len}, out);
        out->push_back('"');
      }
    }
    NodeId end = doc.SubtreeEnd(n);
    if (end == n) {
      out->append("/>");
      continue;
    }
    out->push_back('>');
    open_.push_back({end, doc.Tag(n), options_.indent && ElementOnly(doc, n)});
  }
  while (!open_.empty()) Close(out);
}

void AppendSubtree(const Document& doc, NodeId n, std::string* out,
                   const SerializeOptions& options) {
  SubtreeWriter(&doc, options).Append(n, out);
}

std::string SerializeSubtree(const Document& doc, NodeId n,
                             const SerializeOptions& options) {
  std::string out;
  AppendSubtree(doc, n, &out, options);
  return out;
}

std::string Serialize(const Document& doc, const SerializeOptions& options) {
  if (doc.empty()) return "";
  return SerializeSubtree(doc, doc.Root(), options);
}

}  // namespace xml
}  // namespace blossomtree
