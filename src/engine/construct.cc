#include "engine/construct.h"

#include "util/strings.h"

namespace blossomtree {
namespace engine {

ResultBuilder::ResultBuilder(const xml::Document* source)
    : writer_(source) {}

void ResultBuilder::CloseStartTag() {
  if (!start_tag_open_) return;
  out_.push_back('>');
  start_tag_open_ = false;
}

void ResultBuilder::BeginElement(std::string_view name) {
  CloseStartTag();
  out_.push_back('<');
  out_.append(name);
  open_.push_back(name);
  start_tag_open_ = true;
}

void ResultBuilder::AddAttribute(std::string_view name,
                                 std::string_view value) {
  if (!start_tag_open_) return;
  out_.push_back(' ');
  out_.append(name);
  out_.append("=\"");
  AppendXmlEscaped(value, &out_);
  out_.push_back('"');
}

void ResultBuilder::AddText(std::string_view text) {
  CloseStartTag();
  AppendXmlEscaped(text, &out_);
}

void ResultBuilder::EndElement() {
  if (start_tag_open_) {
    // No content: the serializer's empty-element form.
    out_.append("/>");
    start_tag_open_ = false;
  } else {
    out_.append("</");
    out_.append(open_.back());
    out_.push_back('>');
  }
  open_.pop_back();
}

Status ResultBuilder::Construct(
    const flwor::Constructor& ctor,
    const std::function<Status(const flwor::Expr&)>& eval) {
  BeginElement(ctor.name);
  for (const auto& [name, value] : ctor.attributes) AddAttribute(name, value);
  for (const flwor::ConstructorItem& item : ctor.items) {
    if (item.kind == flwor::ConstructorItem::Kind::kText) {
      AddText(item.text);
    } else {
      BT_RETURN_NOT_OK(eval(*item.expr));
    }
  }
  EndElement();
  return Status::OK();
}

void ResultBuilder::CopyNode(xml::NodeId n) {
  CloseStartTag();
  writer_.Append(n, &out_);
}

void ResultBuilder::CopyNodes(std::span<const xml::NodeId> nodes) {
  if (nodes.empty()) return;
  CloseStartTag();
  writer_.AppendAll(nodes, &out_);
}

Result<std::string> ResultBuilder::ToXml() {
  if (!open_.empty()) {
    return Status::Internal("ResultBuilder::ToXml with unclosed elements");
  }
  return std::move(out_);
}

}  // namespace engine
}  // namespace blossomtree
