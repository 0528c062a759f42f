#include "exec/value_ops.h"

#include <gtest/gtest.h>

#include <vector>

#include "xml/parser.h"

namespace blossomtree {
namespace exec {
namespace {

using Seq = std::vector<xml::NodeId>;

using xpath::CompareOp;

std::unique_ptr<xml::Document> Parse(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

TEST(CompareValuesTest, StringComparisons) {
  EXPECT_TRUE(CompareValues("abc", CompareOp::kEq, "abc"));
  EXPECT_FALSE(CompareValues("abc", CompareOp::kEq, "abd"));
  EXPECT_TRUE(CompareValues("abc", CompareOp::kNeq, "abd"));
  EXPECT_TRUE(CompareValues("apple", CompareOp::kLt, "banana"));
  EXPECT_TRUE(CompareValues("b", CompareOp::kGt, "a"));
  EXPECT_TRUE(CompareValues("a", CompareOp::kLe, "a"));
  EXPECT_TRUE(CompareValues("a", CompareOp::kGe, "a"));
}

TEST(CompareValuesTest, NumericWhenBothParse) {
  // "07" == "7" numerically, though not as strings.
  EXPECT_TRUE(CompareValues("07", CompareOp::kEq, "7"));
  EXPECT_TRUE(CompareValues("2", CompareOp::kLt, "10"));
  // Lexicographic would say "2" > "10".
  EXPECT_FALSE(CompareValues("2", CompareOp::kGt, "10"));
  EXPECT_TRUE(CompareValues("3.5", CompareOp::kGt, "3.25"));
  EXPECT_TRUE(CompareValues("-1", CompareOp::kLt, "0"));
}

TEST(CompareValuesTest, MixedFallsBackToString) {
  EXPECT_FALSE(CompareValues("7x", CompareOp::kEq, "7"));
  EXPECT_TRUE(CompareValues("7x", CompareOp::kNeq, "7"));
}

TEST(GeneralCompareTest, ExistentialSemantics) {
  auto doc = Parse("<r><k>1</k><k>2</k><j>2</j><j>3</j></r>");
  auto ks = doc->TagIndex(doc->tags().Lookup("k"));
  auto js = doc->TagIndex(doc->tags().Lookup("j"));
  // Some pair equal (2 = 2).
  EXPECT_TRUE(GeneralCompare(*doc, ks, CompareOp::kEq, js));
  // Some pair unequal too — XQuery general comparison allows both.
  EXPECT_TRUE(GeneralCompare(*doc, ks, CompareOp::kNeq, js));
  // Empty sequence never compares.
  EXPECT_FALSE(GeneralCompare(*doc, Seq{}, CompareOp::kEq, js));
  EXPECT_FALSE(GeneralCompare(*doc, ks, CompareOp::kEq, Seq{}));
}

TEST(GeneralCompareTest, LiteralVariant) {
  auto doc = Parse("<r><k>a</k><k>b</k></r>");
  auto ks = doc->TagIndex(doc->tags().Lookup("k"));
  EXPECT_TRUE(GeneralCompareLiteral(*doc, ks, CompareOp::kEq, "b"));
  EXPECT_FALSE(GeneralCompareLiteral(*doc, ks, CompareOp::kEq, "c"));
  EXPECT_FALSE(GeneralCompareLiteral(*doc, {}, CompareOp::kEq, "a"));
}

TEST(GeneralCompareTest, NumericSemanticsWithHoistedRights) {
  // The hoisted right-side materialization must keep numeric comparison
  // semantics: 2 < 10 numerically even though "2" > "10" lexicographically.
  auto doc = Parse("<r><k>2</k><j>10</j><j>07</j></r>");
  auto ks = doc->TagIndex(doc->tags().Lookup("k"));
  auto js = doc->TagIndex(doc->tags().Lookup("j"));
  EXPECT_TRUE(GeneralCompare(*doc, ks, CompareOp::kLt, js));
  EXPECT_FALSE(GeneralCompare(*doc, ks, CompareOp::kGt, js));
  // "07" == "7" numerically.
  EXPECT_TRUE(GeneralCompare(*doc, js, CompareOp::kEq,
                             doc->TagIndex(doc->tags().Lookup("j"))));
}

TEST(GeneralCompareTest, SomePairDecides) {
  // General comparison: true iff some (left, right) pair satisfies the op.
  auto doc = Parse("<r><k>a</k><k>b</k><j>c</j><j>d</j></r>");
  auto ks = doc->TagIndex(doc->tags().Lookup("k"));
  auto js = doc->TagIndex(doc->tags().Lookup("j"));
  EXPECT_FALSE(GeneralCompare(*doc, ks, CompareOp::kEq, js));
  EXPECT_TRUE(GeneralCompare(*doc, ks, CompareOp::kNeq, js));
  EXPECT_FALSE(GeneralCompareLiteral(*doc, ks, CompareOp::kEq, "z"));
  EXPECT_TRUE(GeneralCompareLiteral(*doc, ks, CompareOp::kEq, "b"));
}

TEST(DeepEqualTest, IdenticalSubtrees) {
  auto doc = Parse(
      "<r><a><x>1</x><y/></a><a><x>1</x><y/></a><a><x>2</x><y/></a></r>");
  auto as = doc->TagIndex(doc->tags().Lookup("a"));
  EXPECT_TRUE(DeepEqualNodes(*doc, as[0], as[1]));
  EXPECT_FALSE(DeepEqualNodes(*doc, as[0], as[2]));
  EXPECT_TRUE(DeepEqualNodes(*doc, as[0], as[0]));
}

TEST(DeepEqualTest, TagMismatch) {
  auto doc = Parse("<r><a>x</a><b>x</b></r>");
  EXPECT_FALSE(DeepEqualNodes(*doc, 1, 3));
}

TEST(DeepEqualTest, ChildCountMismatch) {
  auto doc = Parse("<r><a><x/></a><a><x/><x/></a></r>");
  auto as = doc->TagIndex(doc->tags().Lookup("a"));
  EXPECT_FALSE(DeepEqualNodes(*doc, as[0], as[1]));
}

TEST(DeepEqualTest, AttributesMatter) {
  auto doc = Parse(R"(<r><a k="1"/><a k="2"/><a k="1"/><a/></r>)");
  auto as = doc->TagIndex(doc->tags().Lookup("a"));
  EXPECT_FALSE(DeepEqualNodes(*doc, as[0], as[1]));
  EXPECT_TRUE(DeepEqualNodes(*doc, as[0], as[2]));
  EXPECT_FALSE(DeepEqualNodes(*doc, as[0], as[3]));
}

TEST(DeepEqualTest, TextExactness) {
  auto doc = Parse("<r><a>x</a><a>x </a></r>");
  auto as = doc->TagIndex(doc->tags().Lookup("a"));
  EXPECT_FALSE(DeepEqualNodes(*doc, as[0], as[1]));
}

TEST(DeepEqualTest, DeepChainsDoNotOverflowStack) {
  // DeepEqualNodes iterates an explicit stack; two parallel ~100k-deep
  // chains must compare without exhausting the thread stack.
  constexpr size_t kDepth = 100000;
  auto build = [](std::string_view leaf_text) {
    auto doc = std::make_unique<xml::Document>();
    doc->BeginElement("r");
    for (int chain = 0; chain < 2; ++chain) {
      doc->BeginElement("a");
      for (size_t i = 0; i < kDepth; ++i) doc->BeginElement("d");
      doc->AddText(chain == 0 ? "x" : leaf_text);
      for (size_t i = 0; i < kDepth; ++i) doc->EndElement();
      doc->EndElement();
    }
    doc->EndElement();
    EXPECT_TRUE(doc->Finish().ok());
    return doc;
  };
  auto equal_doc = build("x");
  auto as = equal_doc->TagIndex(equal_doc->tags().Lookup("a"));
  ASSERT_EQ(as.size(), 2u);
  EXPECT_TRUE(DeepEqualNodes(*equal_doc, as[0], as[1]));
  auto differing_doc = build("y");  // Chains differ only at the deepest leaf.
  as = differing_doc->TagIndex(differing_doc->tags().Lookup("a"));
  ASSERT_EQ(as.size(), 2u);
  EXPECT_FALSE(DeepEqualNodes(*differing_doc, as[0], as[1]));
}

TEST(DeepEqualSequencesTest, EmptyEqualsEmpty) {
  // The property paper Example 2 relies on.
  auto doc = Parse("<r/>");
  EXPECT_TRUE(DeepEqualSequences(*doc, Seq{}, Seq{}));
}

TEST(DeepEqualSequencesTest, LengthMismatch) {
  auto doc = Parse("<r><a/><a/></r>");
  auto as = doc->TagIndex(doc->tags().Lookup("a"));
  EXPECT_FALSE(DeepEqualSequences(*doc, Seq{as[0]}, Seq{}));
  EXPECT_FALSE(DeepEqualSequences(*doc, Seq{as[0]}, Seq{as[0], as[1]}));
}

TEST(DeepEqualSequencesTest, PairwiseSemantics) {
  auto doc = Parse("<r><a>1</a><a>1</a><a>2</a></r>");
  auto as = doc->TagIndex(doc->tags().Lookup("a"));
  EXPECT_TRUE(DeepEqualSequences(*doc, Seq{as[0]}, Seq{as[1]}));
  EXPECT_FALSE(DeepEqualSequences(*doc, Seq{as[0]}, Seq{as[2]}));
  EXPECT_TRUE(
      DeepEqualSequences(*doc, Seq{as[0], as[2]}, Seq{as[1], as[2]}));
  // Order matters.
  EXPECT_FALSE(
      DeepEqualSequences(*doc, Seq{as[0], as[2]}, Seq{as[2], as[1]}));
}

}  // namespace
}  // namespace exec
}  // namespace blossomtree
