#ifndef BLOSSOMTREE_XML_SERIALIZER_H_
#define BLOSSOMTREE_XML_SERIALIZER_H_

#include <span>
#include <string>
#include <vector>

#include "xml/document.h"

namespace blossomtree {
namespace xml {

/// \brief Serialization options.
struct SerializeOptions {
  /// Pretty-print with 2-space indentation; text-only elements stay inline.
  bool indent = false;
};

/// \brief The serialization walk, kept across the subtrees of one result.
/// Append(n) walks the ids n..SubtreeEnd(n) in document order, with end
/// tags due on an explicit stack of open elements, so document depth never
/// grows the call stack and pathologically deep documents serialize instead
/// of overflowing. Text and attribute values are escaped straight into the
/// output. The stack's storage and a cursor into the document's attribute
/// owners (sorted by node) carry over from one Append to the next: roots in
/// ascending order move the cursor forward only, and a root before it
/// (nested roots, a descending `order by`) re-seeks it. The document must
/// outlive the writer.
class SubtreeWriter {
 public:
  explicit SubtreeWriter(const Document* doc,
                         const SerializeOptions& options = {})
      : doc_(doc), options_(options) {}

  /// \brief Appends the subtree rooted at `n` to `out` as XML text.
  void Append(NodeId n, std::string* out);

  /// \brief Appends the subtree of every root in `roots`, in order: the
  /// walk of Append, with its memory misses staged ahead across the roots
  /// (DESIGN.md §6). Writes the bytes of one Append per root.
  void AppendAll(std::span<const NodeId> roots, std::string* out);

 private:
  /// Prefetch stages of AppendAll, in roots ahead of the one written: the
  /// records, then the first text's span, then its bytes, each stage
  /// reading what the one before fetched.
  static constexpr size_t kRecordsAhead = 16;
  static constexpr size_t kSpanAhead = 8;
  static constexpr size_t kTextAhead = 4;

  /// Prefetches the span (or, with `payload`, the bytes) of the first text
  /// node among root `n`'s first two descendants, if there is one.
  void PrefetchFirstText(NodeId n, bool payload) const;

  /// An element whose end tag is still due: the walk emits it once it
  /// passes `end`, the element's SubtreeEnd.
  struct OpenElement {
    NodeId end;
    TagId tag;
    bool block;  ///< Element-only content: each child on its own line.
  };

  /// Points owner_ at the first attribute owner at or after `n`.
  void SeekOwner(NodeId n);
  void Close(std::string* out);

  const Document* doc_;
  SerializeOptions options_;
  std::vector<OpenElement> open_;
  /// Cursor into the attribute owners: every owner before it precedes the
  /// walk's position.
  size_t owner_ = 0;
};

/// \brief Appends the subtree rooted at `n` to `out` as XML text: a
/// one-shot SubtreeWriter.
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
