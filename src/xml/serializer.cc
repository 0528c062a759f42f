#include "xml/serializer.h"

#include <algorithm>
#include <vector>

#include "util/strings.h"

namespace blossomtree {
namespace xml {

namespace {

/// An element whose end tag is still due: the walk emits it once it passes
/// `end`, the element's SubtreeEnd.
struct OpenElement {
  NodeId end;
  TagId tag;
  bool block;  ///< Element-only content: each child on its own line.
};

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

void AppendSubtree(const Document& doc, NodeId root, std::string* out,
                   const SerializeOptions& opts) {
  const ExternalLayout& layout = doc.Layout();
  const char* pool = layout.text_pool;
  // Attribute owners are sorted by node and the walk visits ids in
  // ascending order, so one cursor, placed once, finds every owner.
  const ExternalAttrOwner* owner = layout.attr_owners;
  const ExternalAttrOwner* owners_end = owner + layout.num_attr_owners;
  owner = std::lower_bound(
      owner, owners_end, root,
      [](const ExternalAttrOwner& o, NodeId node) { return o.node < node; });
  std::vector<OpenElement> open;
  auto close = [&] {
    const OpenElement& e = open.back();
    if (e.block) NewLine(open.size() - 1, out);
    out->append("</");
    out->append(doc.tags().Name(e.tag));
    out->push_back('>');
    open.pop_back();
  };
  const NodeId last = doc.SubtreeEnd(root);
  for (NodeId n = root; n <= last; ++n) {
    while (!open.empty() && open.back().end < n) close();
    if (!open.empty() && open.back().block) NewLine(open.size(), out);
    if (!doc.IsElement(n)) {
      AppendXmlEscaped(doc.Text(n), out);
      continue;
    }
    out->push_back('<');
    out->append(doc.TagName(n));
    while (owner != owners_end && owner->node < n) ++owner;
    if (owner != owners_end && owner->node == n) {
      for (uint32_t i = owner->first; i < owner->last; ++i) {
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
    open.push_back({end, doc.Tag(n), opts.indent && ElementOnly(doc, n)});
  }
  while (!open.empty()) close();
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
