#include "engine/construct.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "baseline/navigational.h"
#include "engine/engine.h"
#include "util/rng.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace blossomtree {
namespace engine {
namespace {

std::unique_ptr<xml::Document> Parse(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

TEST(ConstructTest, BuildElementWithText) {
  auto src = Parse("<r/>");
  ResultBuilder b(src.get());
  b.BeginElement("out");
  b.AddText("hello");
  b.EndElement();
  auto xml = b.ToXml();
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, "<out>hello</out>");
}

TEST(ConstructTest, TopLevelSequence) {
  auto src = Parse("<r/>");
  ResultBuilder b(src.get());
  b.BeginElement("a");
  b.EndElement();
  b.BeginElement("b");
  b.AddText("x");
  b.EndElement();
  auto xml = b.ToXml();
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, "<a/><b>x</b>");
}

TEST(ConstructTest, CopySubtreePreservesEverything) {
  auto src = Parse(R"(<r><k id="7">te<b/>xt</k></r>)");
  ResultBuilder b(src.get());
  b.CopyNode(1);
  auto xml = b.ToXml();
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, R"(<k id="7">te<b/>xt</k>)");
}

TEST(ConstructTest, CopyTextNode) {
  auto src = Parse("<r>hello</r>");
  ResultBuilder b(src.get());
  b.CopyNode(1);  // The text node.
  auto xml = b.ToXml();
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, "hello");
}

TEST(ConstructTest, NestedConstructionAroundCopies) {
  auto src = Parse("<r><k>v</k></r>");
  ResultBuilder b(src.get());
  b.BeginElement("wrap");
  b.AddAttribute("n", "1");
  b.CopyNode(1);
  b.CopyNode(1);
  b.EndElement();
  auto xml = b.ToXml();
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, R"(<wrap n="1"><k>v</k><k>v</k></wrap>)");
}

TEST(ConstructTest, EscapingInConstructedText) {
  auto src = Parse("<r/>");
  ResultBuilder b(src.get());
  b.BeginElement("o");
  b.AddText("a<b>&c");
  b.EndElement();
  auto xml = b.ToXml();
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, "<o>a&lt;b&gt;&amp;c</o>");
}

TEST(ConstructTest, EmptyResult) {
  auto src = Parse("<r/>");
  ResultBuilder b(src.get());
  auto xml = b.ToXml();
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, "");
}

TEST(ConstructTest, EmptyTextKeepsTheEndTag) {
  auto src = Parse("<r/>");
  ResultBuilder b(src.get());
  b.BeginElement("a");
  b.AddText("");
  b.EndElement();
  b.BeginElement("b");
  b.EndElement();
  auto xml = b.ToXml();
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, "<a></a><b/>");
}

TEST(ConstructTest, UnclosedElementIsAnError) {
  auto src = Parse("<r/>");
  ResultBuilder b(src.get());
  b.BeginElement("a");
  b.BeginElement("b");
  b.EndElement();
  auto xml = b.ToXml();
  ASSERT_FALSE(xml.ok());
  EXPECT_EQ(xml.status().code(), StatusCode::kInternal);
}

// -- Writer byte-identity ---------------------------------------------------

/// The builder's previous algorithm, kept here as the reference: build the
/// result under a "#seq" wrapper in a second Document (copies recurse),
/// Finish() it, then serialize each top-level child and concatenate.
class DocumentResultBuilder {
 public:
  explicit DocumentResultBuilder(const xml::Document* source)
      : source_(source) {
    out_.BeginElement("#seq");
  }

  void BeginElement(std::string_view name) { out_.BeginElement(name); }
  void AddAttribute(std::string_view name, std::string_view value) {
    out_.AddAttribute(name, value);
  }
  void AddText(std::string_view text) { out_.AddText(text); }
  void EndElement() { out_.EndElement(); }

  void CopyNode(xml::NodeId n) {
    if (!source_->IsElement(n)) {
      out_.AddText(source_->Text(n));
      return;
    }
    out_.BeginElement(source_->TagName(n));
    for (const auto& [name, value] : source_->Attributes(n)) {
      out_.AddAttribute(name, value);
    }
    for (xml::NodeId c = source_->FirstChild(n); c != xml::kNullNode;
         c = source_->NextSibling(c)) {
      CopyNode(c);
    }
    out_.EndElement();
  }

  std::string ToXml() {
    out_.EndElement();  // #seq wrapper.
    EXPECT_TRUE(out_.Finish().ok());
    std::string result;
    for (xml::NodeId c = out_.FirstChild(out_.Root()); c != xml::kNullNode;
         c = out_.NextSibling(c)) {
      result += xml::SerializeSubtree(out_, c);
    }
    return result;
  }

 private:
  const xml::Document* source_;
  xml::Document out_;
};

/// One builder call: `a`/`b` are the name and value, or the text; `node`
/// is the copied source node.
struct Op {
  enum class Kind { kBegin, kAttr, kText, kEnd, kCopy };
  explicit Op(Kind k, std::string a = "", std::string b = "",
              xml::NodeId node = xml::kNullNode)
      : kind(k), a(std::move(a)), b(std::move(b)), node(node) {}
  Kind kind;
  std::string a;
  std::string b;
  xml::NodeId node;
};

/// Short strings over a small alphabet heavy in characters that need
/// escaping; empty about one time in seven.
std::string RandomText(Rng* rng) {
  static constexpr char kAlphabet[] = "ab <>&\"'";
  std::string s;
  for (uint64_t i = rng->Uniform(7); i > 0; --i) {
    s.push_back(kAlphabet[rng->Uniform(sizeof(kAlphabet) - 1)]);
  }
  return s;
}

/// Appends a random sequence of items at one nesting level: constructed
/// elements (attributes first, as the engine emits them), text, and copies
/// of any source node (elements with attributes and mixed content, or
/// bare text nodes).
void GenerateItems(Rng* rng, const xml::Document& src, int depth,
                   std::vector<Op>* ops) {
  for (uint64_t i = rng->Uniform(5); i > 0; --i) {
    switch (rng->Uniform(depth < 4 ? 3 : 2)) {
      case 0:
        ops->emplace_back(Op::Kind::kText, RandomText(rng));
        break;
      case 1: {
        auto node = static_cast<xml::NodeId>(rng->Uniform(src.NumNodes()));
        ops->emplace_back(Op::Kind::kCopy, "", "", node);
        break;
      }
      default: {
        std::string name = "e" + std::to_string(rng->Uniform(3));
        ops->emplace_back(Op::Kind::kBegin, name);
        for (uint64_t k = rng->Uniform(3); k > 0; --k) {
          std::string attr = "at" + std::to_string(k);
          ops->emplace_back(Op::Kind::kAttr, attr, RandomText(rng));
        }
        GenerateItems(rng, src, depth + 1, ops);
        ops->emplace_back(Op::Kind::kEnd);
        break;
      }
    }
  }
}

template <typename Builder>
void Apply(const std::vector<Op>& ops, Builder* b) {
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::Kind::kBegin:
        b->BeginElement(op.a);
        break;
      case Op::Kind::kAttr:
        b->AddAttribute(op.a, op.b);
        break;
      case Op::Kind::kText:
        b->AddText(op.a);
        break;
      case Op::Kind::kEnd:
        b->EndElement();
        break;
      case Op::Kind::kCopy:
        b->CopyNode(op.node);
        break;
    }
  }
}

TEST(ConstructTest, WriterMatchesDocumentBuilderOnRandomSequences) {
  auto src = Parse(
      R"(<r><k id="7" q="a&amp;b&lt;&quot;">te<b/>xt<c x="&gt;'"><d/>)"
      R"(mid &amp; &lt;end&gt;</c></k><e/>tail<f g="">only</f></r>)");
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    Rng rng(seed);
    std::vector<Op> ops;
    GenerateItems(&rng, *src, 0, &ops);
    DocumentResultBuilder reference(src.get());
    Apply(ops, &reference);
    ResultBuilder writer(src.get());
    Apply(ops, &writer);
    auto got = writer.ToXml();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(*got, reference.ToXml()) << "seed " << seed;
  }
}

// -- Deep results -------------------------------------------------------------

/// A `depth`-deep chain of <a> elements, built through the Document API,
/// which (unlike the parser) has no nesting cap.
std::unique_ptr<xml::Document> DeepChain(int depth) {
  auto doc = std::make_unique<xml::Document>();
  for (int i = 0; i < depth; ++i) doc->BeginElement("a");
  for (int i = 0; i < depth; ++i) doc->EndElement();
  EXPECT_TRUE(doc->Finish().ok());
  return doc;
}

TEST(DeepResultTest, EngineAndOracleCopyA200000DeepResult) {
  auto doc = DeepChain(200000);
  const std::string expected = xml::Serialize(*doc);

  EngineOptions opts;
  opts.num_threads = 1;
  BlossomTreeEngine eng(doc.get(), opts);
  auto got = eng.EvaluateQuery("/a");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(*got == expected) << got->size() << " vs " << expected.size();

  baseline::NavigationalEvaluator nav(doc.get());
  auto oracle = nav.EvaluateQuery("/a");
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_TRUE(*oracle == expected)
      << oracle->size() << " vs " << expected.size();
}

}  // namespace
}  // namespace engine
}  // namespace blossomtree
