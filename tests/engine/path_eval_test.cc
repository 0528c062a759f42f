#include "engine/path_eval.h"

#include <gtest/gtest.h>

#include "xml/parser.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace engine {
namespace {

std::unique_ptr<xml::Document> Parse(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

std::vector<xml::NodeId> Eval(const xml::Document& doc,
                              std::string_view query) {
  auto p = xpath::ParsePath(query);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  PathEvaluator ev(&doc);
  auto r = ev.Evaluate(*p);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.MoveValue() : std::vector<xml::NodeId>{};
}

TEST(PathEvalTest, RootChild) {
  auto doc = Parse("<a><b/><b/><c/></a>");
  EXPECT_EQ(Eval(*doc, "/a/b").size(), 2u);
  EXPECT_EQ(Eval(*doc, "/a").size(), 1u);
  EXPECT_TRUE(Eval(*doc, "/b").empty());
}

TEST(PathEvalTest, DescendantFromRoot) {
  auto doc = Parse("<a><b/><x><b/></x></a>");
  EXPECT_EQ(Eval(*doc, "//b").size(), 2u);
  // Descendant-or-self: //a matches the root itself.
  EXPECT_EQ(Eval(*doc, "//a").size(), 1u);
}

TEST(PathEvalTest, ResultsAreDocOrderedAndDistinct) {
  auto doc = Parse("<a><x><b/><b/></x><x><b/></x></a>");
  auto out = Eval(*doc, "//x//b");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(PathEvalTest, RecursiveDedup) {
  // b under two nested x's must appear once.
  auto doc = Parse("<a><x><x><b/></x></x></a>");
  EXPECT_EQ(Eval(*doc, "//x//b").size(), 1u);
}

TEST(PathEvalTest, ExistencePredicate) {
  auto doc = Parse("<r><a><b/></a><a><c/></a></r>");
  auto out = Eval(*doc, "//a[b]");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1u);
}

TEST(PathEvalTest, NestedDescendantPredicate) {
  auto doc = Parse("<r><a><x><b/></x></a><a><b/></a><a><c/></a></r>");
  EXPECT_EQ(Eval(*doc, "//a[//b]").size(), 2u);
}

TEST(PathEvalTest, ValuePredicate) {
  auto doc = Parse("<r><k><v>x</v></k><k><v>y</v></k></r>");
  auto out = Eval(*doc, "//k[v = \"y\"]");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(doc->StringValue(out[0]), "y");
}

// An attribute step surfaces its owner element, but a comparison on it
// compares the attribute's value, as the NoK matcher does: the owner's text
// must not decide `[@x = "v"]`.
TEST(PathEvalTest, AttributeValuePredicateComparesTheAttribute) {
  // Nodes: r=0, a=1, "w"=2, a=3, "v"=4 (attributes are out of band).
  auto doc = Parse(R"(<r><a x="v">w</a><a x="w">v</a></r>)");
  EXPECT_EQ(Eval(*doc, "//a[@x = \"v\"]"), (std::vector<xml::NodeId>{1}));
  EXPECT_EQ(Eval(*doc, "//a[@x != \"v\"]"), (std::vector<xml::NodeId>{3}));
  EXPECT_EQ(Eval(*doc, "/r[a/@x = \"w\"]").size(), 1u);
  EXPECT_TRUE(Eval(*doc, "//a[@y = \"v\"]").empty());
}

TEST(PathEvalTest, SelfValuePredicate) {
  auto doc = Parse("<r><k>x</k><k>y</k></r>");
  EXPECT_EQ(Eval(*doc, "//k[. = \"x\"]").size(), 1u);
}

TEST(PathEvalTest, PositionPredicate) {
  auto doc = Parse("<r><k>1</k><k>2</k><k>3</k></r>");
  auto out = Eval(*doc, "/r/k[2]");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(doc->StringValue(out[0]), "2");
}

TEST(PathEvalTest, Wildcard) {
  auto doc = Parse("<r><x><t/></x><y><t/></y></r>");
  EXPECT_EQ(Eval(*doc, "/r/*/t").size(), 2u);
  EXPECT_EQ(Eval(*doc, "/r/*").size(), 2u);
}

TEST(PathEvalTest, VariableStart) {
  auto doc = Parse("<r><a><t/></a><a><t/><t/></a></r>");
  auto p = xpath::ParsePath("$v/t");
  ASSERT_TRUE(p.ok());
  PathEvaluator ev(doc.get());
  p->var_slot = 0;  // As flwor::ParseQuery resolves it under one binding.
  TupleTable tuples{1};
  tuples.Push(std::vector<xml::NodeId>{3});  // Second a.
  tuples.EndRow();
  auto r = ev.EvaluateWith(*p, tuples.Row(0), {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(PathEvalTest, UnboundVariableErrors) {
  auto doc = Parse("<r/>");
  auto p = xpath::ParsePath("$v/t");
  ASSERT_TRUE(p.ok());
  PathEvaluator ev(doc.get());
  auto r = ev.EvaluateWith(*p, Tuple{}, {});
  EXPECT_FALSE(r.ok());
}

TEST(PathEvalTest, FollowingSibling) {
  auto doc = Parse("<r><a/><x/><b/><b/></r>");
  auto out = Eval(*doc, "/r/a/following-sibling::b");
  EXPECT_EQ(out.size(), 2u);
}

TEST(PathEvalTest, NodesVisitedGrows) {
  auto doc = Parse("<r><a><b/></a><a><b/></a></r>");
  auto p = xpath::ParsePath("//b");
  ASSERT_TRUE(p.ok());
  PathEvaluator ev(doc.get());
  ASSERT_TRUE(ev.Evaluate(*p).ok());
  EXPECT_GE(ev.NodesVisited(), doc->NumNodes() - 1);
}

}  // namespace
}  // namespace engine
}  // namespace blossomtree
