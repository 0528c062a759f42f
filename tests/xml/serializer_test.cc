#include "xml/serializer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "datagen/datagen.h"
#include "xml/parser.h"

namespace blossomtree {
namespace xml {
namespace {

std::unique_ptr<Document> Parse(std::string_view s) {
  auto r = ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

TEST(SerializerTest, RoundTripSimple) {
  auto doc = Parse("<a><b>x</b><c/></a>");
  EXPECT_EQ(Serialize(*doc), "<a><b>x</b><c/></a>");
}

TEST(SerializerTest, EscapesText) {
  auto doc = Parse("<a>&lt;&amp;&gt;</a>");
  EXPECT_EQ(Serialize(*doc), "<a>&lt;&amp;&gt;</a>");
}

TEST(SerializerTest, Attributes) {
  auto doc = Parse(R"(<a x="1" y="a&amp;b"><c/></a>)");
  EXPECT_EQ(Serialize(*doc), R"(<a x="1" y="a&amp;b"><c/></a>)");
}

TEST(SerializerTest, SubtreeOnly) {
  auto doc = Parse("<a><b>x</b><c>y</c></a>");
  EXPECT_EQ(SerializeSubtree(*doc, 1), "<b>x</b>");
}

TEST(SerializerTest, IndentedOutput) {
  auto doc = Parse("<a><b>x</b><c/></a>");
  SerializeOptions opts;
  opts.indent = true;
  EXPECT_EQ(Serialize(*doc, opts), "<a>\n  <b>x</b>\n  <c/>\n</a>");
}

TEST(SerializerTest, ReparseRoundTripIsStable) {
  std::string original = "<bib><book id=\"1\"><title>T&amp;A</title>"
                         "<author><last>K</last></author></book></bib>";
  auto doc = Parse(original);
  std::string once = Serialize(*doc);
  auto doc2 = Parse(once);
  EXPECT_EQ(Serialize(*doc2), once);
}

TEST(SerializerTest, EmptyDocument) {
  Document doc;
  ASSERT_TRUE(doc.Finish().ok());
  EXPECT_EQ(Serialize(doc), "");
}

TEST(SerializerTest, IndentPreservesMixedContent) {
  // Indented serialization once injected newline + indentation around the
  // text children of any element that also had an element child, so mixed
  // content came back from a parse → serialize(indent) → parse round trip
  // with corrupted text.
  std::string original = "<p>hello <b>world</b> tail</p>";
  auto doc = Parse(original);
  SerializeOptions opts;
  opts.indent = true;
  std::string pretty = Serialize(*doc, opts);
  auto doc2 = Parse(pretty);
  EXPECT_EQ(doc2->StringValue(doc2->Root()), doc->StringValue(doc->Root()));
  EXPECT_EQ(Serialize(*doc2), original);
}

TEST(SerializerTest, IndentRoundTripNestedMixedContent) {
  // Mixed content stays inline while the element-only levels around it
  // still pretty-print.
  std::string original = "<a><b>x<c>y</c>z</b><d><e>q</e></d></a>";
  auto doc = Parse(original);
  SerializeOptions opts;
  opts.indent = true;
  std::string pretty = Serialize(*doc, opts);
  EXPECT_EQ(pretty,
            "<a>\n  <b>x<c>y</c>z</b>\n  <d>\n    <e>q</e>\n  </d>\n</a>");
  auto doc2 = Parse(pretty);
  EXPECT_EQ(Serialize(*doc2), original);
}

TEST(SerializerTest, DeepDocumentDoesNotOverflowStack) {
  // The serializer walks an explicit stack, so document depth must not be
  // bounded by the thread stack.
  constexpr size_t kDepth = 200000;
  Document doc;
  doc.BeginElement("r");
  for (size_t i = 0; i < kDepth; ++i) doc.BeginElement("d");
  doc.AddText("x");
  for (size_t i = 0; i < kDepth; ++i) doc.EndElement();
  doc.EndElement();
  ASSERT_TRUE(doc.Finish().ok());
  std::string out = Serialize(doc);
  // "<r>" + kDepth * "<d>" + "x" + kDepth * "</d>" + "</r>".
  EXPECT_EQ(out.size(), 3 + kDepth * 3 + 1 + kDepth * 4 + 4);
  EXPECT_EQ(out.substr(0, 9), "<r><d><d>");
}

TEST(SerializerTest, EscapesAllFiveCharactersInTextAndAttributes) {
  auto doc = Parse(R"(<a v="&lt;&amp;&gt;&quot;&apos;x">&lt;&amp;&gt;"'y</a>)");
  std::string all = "&lt;&amp;&gt;&quot;&apos;";
  EXPECT_EQ(Serialize(*doc), "<a v=\"" + all + "x\">" + all + "y</a>");
}

TEST(SerializerTest, EmptyElementVersusTextChild) {
  auto doc = Parse("<r><a/><a>t</a><a></a></r>");
  EXPECT_EQ(Serialize(*doc), "<r><a/><a>t</a><a/></r>");
  SerializeOptions opts;
  opts.indent = true;
  EXPECT_EQ(Serialize(*doc, opts), "<r>\n  <a/>\n  <a>t</a>\n  <a/>\n</r>");
}

TEST(SerializerTest, MixedContentAndAttributesOnEveryLevel) {
  std::string b = R"(<b x="&amp;" y="2">b<c z="3"/>c</b>)";
  std::string original = R"(<r k="1">a)" + b + "d<e/></r>";
  auto doc = Parse(original);
  EXPECT_EQ(Serialize(*doc), original);
  SerializeOptions opts;
  opts.indent = true;
  EXPECT_EQ(Serialize(*doc, opts), original);
  // The subtree of <b> carries its own and its descendants' attributes only.
  EXPECT_EQ(SerializeSubtree(*doc, 2), b);
}

TEST(SerializerTest, TextNodeAsSubtreeRoot) {
  auto doc = Parse("<a><b>x&amp;y</b>tail&lt;</a>");
  // Node 2 is the text under <b>, node 3 the tail text of <a>.
  EXPECT_EQ(SerializeSubtree(*doc, 2), "x&amp;y");
  EXPECT_EQ(SerializeSubtree(*doc, 3), "tail&lt;");
  std::string out = "<p>";
  AppendSubtree(*doc, 2, &out);
  EXPECT_EQ(out, "<p>x&amp;y");
}

TEST(SerializerTest, IndentedSubtreeStartsAtDepthZero) {
  auto doc = Parse("<r><a><b><c/></b></a></r>");
  SerializeOptions opts;
  opts.indent = true;
  std::string expected = "<a>\n  <b>\n    <c/>\n  </b>\n</a>";
  EXPECT_EQ(SerializeSubtree(*doc, 1, opts), expected);
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The serializer outputs pinned below: a whole document flat or indented,
/// or the concatenated AppendSubtree of every depth-2 element (the root's
/// element children, in Table 1's root = 1 convention), the shape a query
/// result takes.
enum class Kind { kFlat, kIndented, kSubtrees };

std::string OutputOf(const Document& doc, Kind kind) {
  if (kind == Kind::kSubtrees) {
    std::string out;
    for (NodeId n = 0; n < doc.NumNodes(); ++n) {
      if (doc.IsElement(n) && doc.Level(n) == 1) AppendSubtree(doc, n, &out);
    }
    return out;
  }
  SerializeOptions opts;
  opts.indent = kind == Kind::kIndented;
  return Serialize(doc, opts);
}

TEST(SerializerTest, GeneratedDatasetOutputsArePinned) {
  // Size and FNV-1a recorded with the earlier frame-stack serializer, so
  // they hold every rewrite to its bytes.
  struct Pinned {
    datagen::Dataset dataset;
    Kind kind;
    size_t size;
    uint64_t fnv;
  };
  using D = datagen::Dataset;
  const Pinned pinned[] = {
      {D::kD1Recursive, Kind::kFlat, 51433, 0x1e96c6aaa1bb6938ull},
      {D::kD1Recursive, Kind::kIndented, 159405, 0x16a69cf9039fe8e0ull},
      {D::kD1Recursive, Kind::kSubtrees, 51426, 0x359cd300343417afull},
      {D::kD2Address, Kind::kFlat, 52220, 0xccb94f352cb35bb1ull},
      {D::kD2Address, Kind::kIndented, 60921, 0x3100ad020e38463full},
      {D::kD2Address, Kind::kSubtrees, 52197, 0xef43d5a7a1239722ull},
      {D::kD3Catalog, Kind::kFlat, 102649, 0xd62a995e9872de8eull},
      {D::kD3Catalog, Kind::kIndented, 142475, 0x89553b4b56b05e0aull},
      {D::kD3Catalog, Kind::kSubtrees, 102630, 0x902346ad11db2091ull},
      {D::kD4Treebank, Kind::kFlat, 154720, 0xd743dcf170bb2d71ull},
      {D::kD4Treebank, Kind::kIndented, 565651, 0xf9f53bc96229eef5ull},
      {D::kD4Treebank, Kind::kSubtrees, 154699, 0x144285933cc0a7caull},
      {D::kD5Dblp, Kind::kFlat, 364384, 0xfcb3b462fe40c930ull},
      {D::kD5Dblp, Kind::kIndented, 448322, 0xe4c6838016689324ull},
      {D::kD5Dblp, Kind::kSubtrees, 364371, 0x617293bef940dfb1ull},
  };
  for (const Pinned& p : pinned) {
    datagen::GenOptions o;
    o.scale = 0.05;
    o.seed = 42;
    auto doc = datagen::GenerateDataset(p.dataset, o);
    std::string out = OutputOf(*doc, p.kind);
    EXPECT_EQ(out.size(), p.size) << datagen::DatasetName(p.dataset);
    EXPECT_EQ(Fnv1a(out), p.fnv) << datagen::DatasetName(p.dataset);
  }
}

}  // namespace
}  // namespace xml
}  // namespace blossomtree
