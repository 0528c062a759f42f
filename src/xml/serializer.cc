#include "xml/serializer.h"

#include <vector>

#include "util/strings.h"

namespace blossomtree {
namespace xml {

namespace {

bool HasElementChild(const Document& doc, NodeId n) {
  for (NodeId c = doc.FirstChild(n); c != kNullNode; c = doc.NextSibling(c)) {
    if (doc.IsElement(c)) return true;
  }
  return false;
}

bool HasTextChild(const Document& doc, NodeId n) {
  for (NodeId c = doc.FirstChild(n); c != kNullNode; c = doc.NextSibling(c)) {
    if (!doc.IsElement(c)) return true;
  }
  return false;
}

/// One pending unit of output. `close` frames emit the element's end tag;
/// open frames emit the node itself (and, for elements, push the close
/// frame plus the children). `indent` carries the parent's block decision:
/// whether a newline + indentation precedes this frame's output.
struct Frame {
  NodeId node;
  int depth;
  bool close;
  bool indent;
};

}  // namespace

void AppendSubtree(const Document& doc, NodeId root, std::string* out,
                   const SerializeOptions& opts) {
  std::vector<Frame> stack;
  stack.push_back(Frame{root, 0, false, false});
  std::vector<NodeId> children;  // Scratch for reverse-order pushes.
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (f.indent) {
      out->push_back('\n');
      out->append(static_cast<size_t>(f.depth) * 2, ' ');
    }
    if (f.close) {
      out->append("</");
      out->append(doc.TagName(f.node));
      out->push_back('>');
      continue;
    }
    if (!doc.IsElement(f.node)) {
      out->append(XmlEscape(doc.Text(f.node)));
      continue;
    }
    out->push_back('<');
    out->append(doc.TagName(f.node));
    for (const auto& [name, value] : doc.Attributes(f.node)) {
      out->push_back(' ');
      out->append(name);
      out->append("=\"");
      out->append(XmlEscape(value));
      out->push_back('"');
    }
    NodeId child = doc.FirstChild(f.node);
    if (child == kNullNode) {
      out->append("/>");
      continue;
    }
    out->push_back('>');
    // Indent only element-only content. Mixed content (any text child)
    // must serialize inline: injected whitespace would become part of the
    // element's text on re-parse.
    bool block = opts.indent && HasElementChild(doc, f.node) &&
                 !HasTextChild(doc, f.node);
    stack.push_back(Frame{f.node, f.depth, true, block});
    children.clear();
    for (NodeId c = child; c != kNullNode; c = doc.NextSibling(c)) {
      children.push_back(c);
    }
    for (size_t i = children.size(); i-- > 0;) {
      stack.push_back(Frame{children[i], f.depth + 1, false, block});
    }
  }
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
