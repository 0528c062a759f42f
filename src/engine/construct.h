#ifndef BLOSSOMTREE_ENGINE_CONSTRUCT_H_
#define BLOSSOMTREE_ENGINE_CONSTRUCT_H_

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "flwor/ast.h"
#include "util/status.h"
#include "xml/document.h"
#include "xml/serializer.h"

namespace blossomtree {
namespace engine {

/// \brief Builds the query result: a sequence of constructed elements /
/// copied source subtrees (the paper's "construction" arrow out of the
/// tuples in Figure 2), written straight to XML text as the calls arrive,
/// with xml::Serialize's bytes. One-shot: build, then ToXml().
class ResultBuilder {
 public:
  explicit ResultBuilder(const xml::Document* source);

  /// \brief Opens element `name`, which must outlive the builder (the
  /// engines pass constructor names from the query AST).
  void BeginElement(std::string_view name);
  /// \brief Valid directly after BeginElement (or another AddAttribute);
  /// elsewhere there is no open start tag and the attribute is dropped.
  void AddAttribute(std::string_view name, std::string_view value);
  void AddText(std::string_view text);
  void EndElement();

  /// \brief Writes element constructor `ctor`: its attributes and text
  /// items directly, each enclosed expression through `eval`.
  Status Construct(const flwor::Constructor& ctor,
                   const std::function<Status(const flwor::Expr&)>& eval);

  /// \brief Appends the subtree of source node `n` at the current position.
  void CopyNode(xml::NodeId n);

  /// \brief CopyNode for each of `nodes`, in order, through one batch walk
  /// (xml::SubtreeWriter::AppendAll). An empty `nodes` writes nothing: an
  /// open start tag stays open, so `<n>{()}</n>` still gives `<n/>`.
  void CopyNodes(std::span<const xml::NodeId> nodes);

  /// \brief Hands out the constructed top-level sequence (no wrapper).
  Result<std::string> ToXml();

 private:
  /// Ends a start tag still open for attributes: its element has content.
  void CloseStartTag();

  /// One serialization walk for every copied node of the result.
  xml::SubtreeWriter writer_;
  std::string out_;
  std::vector<std::string_view> open_;  // Names of the open elements.
  bool start_tag_open_ = false;
};

}  // namespace engine
}  // namespace blossomtree

#endif  // BLOSSOMTREE_ENGINE_CONSTRUCT_H_
