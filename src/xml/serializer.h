#ifndef BLOSSOMTREE_XML_SERIALIZER_H_
#define BLOSSOMTREE_XML_SERIALIZER_H_

#include <string>

#include "xml/document.h"

namespace blossomtree {
namespace xml {

/// \brief Serialization options.
struct SerializeOptions {
  /// Pretty-print with 2-space indentation; text-only elements stay inline.
  bool indent = false;
};

/// \brief Appends the subtree rooted at `n` to `out` as XML text: one walk
/// over the ids n..SubtreeEnd(n) in document order, with end tags due on an
/// explicit stack of open elements, so document depth never grows the call
/// stack and pathologically deep documents serialize instead of overflowing.
/// Text and attribute values are escaped straight into `out`.
void AppendSubtree(const Document& doc, NodeId n, std::string* out,
                   const SerializeOptions& options = {});

/// \brief Serializes the subtree rooted at `n` back to XML text.
std::string SerializeSubtree(const Document& doc, NodeId n,
                             const SerializeOptions& options = {});

/// \brief Serializes the whole document.
std::string Serialize(const Document& doc, const SerializeOptions& options = {});

}  // namespace xml
}  // namespace blossomtree

#endif  // BLOSSOMTREE_XML_SERIALIZER_H_
