#include "exec/nok_scan.h"

#include <gtest/gtest.h>

#include "nestedlist/ops.h"
#include "pattern/builder.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace exec {
namespace {

using nestedlist::NestedList;
using nestedlist::OccurrenceLabeler;
using pattern::BlossomTree;
using pattern::Decompose;
using pattern::Decomposition;
using pattern::EdgeMode;
using pattern::SlotId;
using pattern::VertexId;

std::unique_ptr<xml::Document> Parse(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

/// Paper Example 3: NoK a(b(d))(c), a-b mandatory, others optional.
BlossomTree Example3Pattern() {
  BlossomTree t;
  VertexId a = t.AddRoot("a");
  VertexId b = t.AddChild(a, "b", xpath::Axis::kChild, EdgeMode::kFor);
  t.AddChild(b, "d", xpath::Axis::kChild, EdgeMode::kLet);
  t.AddChild(a, "c", xpath::Axis::kChild, EdgeMode::kLet);
  for (VertexId v = 0; v < t.NumVertices(); ++v) t.MarkReturning(v);
  EXPECT_TRUE(t.Finalize().ok());
  return t;
}

TEST(NokScanTest, ReproducesExample3Figure4) {
  auto doc = Parse("<a><b/><c/><b><d/><d/></b><c/><b><d/></b></a>");
  BlossomTree t = Example3Pattern();
  Decomposition d = Decompose(t);
  ASSERT_EQ(d.noks.size(), 1u);
  NokScanOperator scan(doc.get(), &t, &d.noks[0]);
  nestedlist::Arena rows = Drain(&scan);
  ASSERT_EQ(rows.size(), 1u);
  const NestedList& out = rows[0];
  OccurrenceLabeler label(doc.get());
  EXPECT_EQ(nestedlist::ToString(out, label),
            "(a1,[(b1,()),(b2,[(d1),(d2)]),(b3,(d3))],[(c1),(c2)])");
}

TEST(NokScanTest, MandatoryChildFailsMatch) {
  // a requires a b child: the second a (no b) does not match.
  auto doc = Parse("<r><a><b/></a><a><c/></a></r>");
  BlossomTree t = Example3Pattern();
  Decomposition d = Decompose(t);
  NokScanOperator scan(doc.get(), &t, &d.noks[0]);
  nestedlist::Arena rows = Drain(&scan);
  ASSERT_EQ(rows.size(), 1u);
  const NestedList& out = rows[0];
  std::vector<SlotId> tops(scan.top_slots());
  auto as = nestedlist::Project(t, tops, out, 0);
  ASSERT_EQ(as.size(), 1u);
  EXPECT_EQ(doc->TagName(as[0]), "a");
}

TEST(NokScanTest, OptionalChildrenMayBeMissing) {
  auto doc = Parse("<a><b/></a>");
  BlossomTree t = Example3Pattern();
  Decomposition d = Decompose(t);
  NokScanOperator scan(doc.get(), &t, &d.noks[0]);
  nestedlist::Arena rows = Drain(&scan);
  ASSERT_FALSE(rows.empty());
  const NestedList& out = rows[0];
  OccurrenceLabeler label(doc.get());
  EXPECT_EQ(nestedlist::ToString(out, label), "(a1,(b1,()),())");
}

TEST(NokScanTest, EmitsOneListPerRootMatchInDocOrder) {
  auto doc = Parse("<r><a><b/></a><x><a><b/><b/></a></x></r>");
  BlossomTree t = Example3Pattern();
  Decomposition d = Decompose(t);
  NokScanOperator scan(doc.get(), &t, &d.noks[0]);
  std::vector<xml::NodeId> roots;
  for (const NestedList& out : Drain(&scan)) {
    auto as = nestedlist::Project(t, scan.top_slots(), out, 0);
    roots.insert(roots.end(), as.begin(), as.end());
  }
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_TRUE(roots[0] < roots[1]);
}

TEST(NokScanTest, RecursiveMatchesNestAndAllEmit) {
  // a inside a: both match (sequential scan tries every node).
  auto doc = Parse("<a><b/><a><b/></a></a>");
  BlossomTree t = Example3Pattern();
  Decomposition d = Decompose(t);
  NokScanOperator scan(doc.get(), &t, &d.noks[0]);
  EXPECT_EQ(Drain(&scan).size(), 2u);
}

TEST(NokScanTest, VirtualRootAnchorsAbsolutePaths) {
  auto doc = Parse("<a><b/></a>");
  auto p = xpath::ParsePath("/a/b");
  ASSERT_TRUE(p.ok());
  auto tr = pattern::BuildFromPath(*p);
  ASSERT_TRUE(tr.ok());
  Decomposition d = Decompose(*tr);
  ASSERT_EQ(d.noks.size(), 1u);
  NokScanOperator scan(doc.get(), &*tr, &d.noks[0]);
  nestedlist::Arena rows = Drain(&scan);
  ASSERT_EQ(rows.size(), 1u);
  const NestedList& out = rows[0];
  auto nodes = nestedlist::Project(*tr, scan.top_slots(), out,
                                   tr->SlotOfVariable("result"));
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(doc->TagName(nodes[0]), "b");
}

TEST(NokScanTest, AbsolutePathDoesNotMatchNonRootElements) {
  // /b must not match the nested b.
  auto doc = Parse("<a><b/></a>");
  auto p = xpath::ParsePath("/b");
  ASSERT_TRUE(p.ok());
  auto tr = pattern::BuildFromPath(*p);
  ASSERT_TRUE(tr.ok());
  Decomposition d = Decompose(*tr);
  NokScanOperator scan(doc.get(), &*tr, &d.noks[0]);
  EXPECT_TRUE(Drain(&scan).empty());
}

TEST(NokScanTest, ValueConstraint) {
  auto doc = Parse("<r><k>x</k><k>y</k></r>");
  auto p = xpath::ParsePath("/r/k[. = \"y\"]");
  ASSERT_TRUE(p.ok());
  auto tr = pattern::BuildFromPath(*p);
  ASSERT_TRUE(tr.ok());
  Decomposition d = Decompose(*tr);
  NokScanOperator scan(doc.get(), &*tr, &d.noks[0]);
  nestedlist::Arena rows = Drain(&scan);
  ASSERT_FALSE(rows.empty());
  const NestedList& out = rows[0];
  auto nodes = nestedlist::Project(*tr, scan.top_slots(), out,
                                   tr->SlotOfVariable("result"));
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(doc->StringValue(nodes[0]), "y");
}

TEST(NokScanTest, NumericValueConstraint) {
  auto doc = Parse("<r><k>07</k><k>8</k></r>");
  auto p = xpath::ParsePath("/r/k[. = 7]");
  ASSERT_TRUE(p.ok());
  auto tr = pattern::BuildFromPath(*p);
  ASSERT_TRUE(tr.ok());
  Decomposition d = Decompose(*tr);
  NokScanOperator scan(doc.get(), &*tr, &d.noks[0]);
  nestedlist::Arena rows = Drain(&scan);
  ASSERT_FALSE(rows.empty());  // "07" == 7 numerically.
  const NestedList& out = rows[0];
  auto nodes = nestedlist::Project(*tr, scan.top_slots(), out,
                                   tr->SlotOfVariable("result"));
  EXPECT_EQ(doc->StringValue(nodes[0]), "07");
}

TEST(NokScanTest, PositionPredicate) {
  auto doc = Parse("<r><k>1</k><k>2</k><k>3</k></r>");
  auto p = xpath::ParsePath("/r/k[2]");
  ASSERT_TRUE(p.ok());
  auto tr = pattern::BuildFromPath(*p);
  ASSERT_TRUE(tr.ok());
  Decomposition d = Decompose(*tr);
  NokScanOperator scan(doc.get(), &*tr, &d.noks[0]);
  nestedlist::Arena rows = Drain(&scan);
  ASSERT_FALSE(rows.empty());
  const NestedList& out = rows[0];
  auto nodes = nestedlist::Project(*tr, scan.top_slots(), out,
                                   tr->SlotOfVariable("result"));
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(doc->StringValue(nodes[0]), "2");
}

TEST(NokScanTest, WildcardStep) {
  auto doc = Parse("<r><x><t/></x><y><t/></y></r>");
  auto p = xpath::ParsePath("/r/*/t");
  ASSERT_TRUE(p.ok());
  auto tr = pattern::BuildFromPath(*p);
  ASSERT_TRUE(tr.ok());
  Decomposition d = Decompose(*tr);
  NokScanOperator scan(doc.get(), &*tr, &d.noks[0]);
  nestedlist::Arena rows = Drain(&scan);
  ASSERT_FALSE(rows.empty());
  const NestedList& out = rows[0];
  auto nodes = nestedlist::Project(*tr, scan.top_slots(), out,
                                   tr->SlotOfVariable("result"));
  EXPECT_EQ(nodes.size(), 2u);
}

TEST(NokScanTest, ExistencePredicateSubtree) {
  auto doc = Parse("<r><a><b/><c/></a><a><c/></a></r>");
  auto p = xpath::ParsePath("/r/a[b]/c");
  ASSERT_TRUE(p.ok());
  auto tr = pattern::BuildFromPath(*p);
  ASSERT_TRUE(tr.ok());
  Decomposition d = Decompose(*tr);
  NokScanOperator scan(doc.get(), &*tr, &d.noks[0]);
  nestedlist::Arena rows = Drain(&scan);
  ASSERT_FALSE(rows.empty());
  const NestedList& out = rows[0];
  auto nodes = nestedlist::Project(*tr, scan.top_slots(), out,
                                   tr->SlotOfVariable("result"));
  // Only the first a (which has a b) contributes its c.
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], 3u);
}

TEST(NokScanTest, FollowingSiblingAxis) {
  auto doc = Parse("<r><a/><x/><b/><b/></r>");
  BlossomTree t;
  VertexId r = t.AddRoot("r");
  VertexId a = t.AddChild(r, "a", xpath::Axis::kChild, EdgeMode::kFor);
  VertexId b =
      t.AddChild(a, "b", xpath::Axis::kFollowingSibling, EdgeMode::kFor);
  t.MarkReturning(b, "result");
  ASSERT_TRUE(t.Finalize().ok());
  Decomposition d = Decompose(t);
  ASSERT_EQ(d.noks.size(), 1u);
  NokScanOperator scan(doc.get(), &t, &d.noks[0]);
  nestedlist::Arena rows = Drain(&scan);
  ASSERT_FALSE(rows.empty());
  const NestedList& out = rows[0];
  auto nodes =
      nestedlist::Project(t, scan.top_slots(), out, t.SlotOfVariable("result"));
  EXPECT_EQ(nodes.size(), 2u);  // Both b's follow a.
}

TEST(NokScanTest, AttributeConstraint) {
  auto doc = Parse(R"(<r><k id="1"/><k/></r>)");
  auto p = xpath::ParsePath("/r/k[@id]");
  ASSERT_TRUE(p.ok());
  auto tr = pattern::BuildFromPath(*p);
  ASSERT_TRUE(tr.ok());
  Decomposition d = Decompose(*tr);
  NokScanOperator scan(doc.get(), &*tr, &d.noks[0]);
  EXPECT_EQ(Drain(&scan).size(), 1u);
}

TEST(NokScanTest, AttributeValueConstraint) {
  auto doc = Parse(R"(<r><k id="1"/><k id="2"/></r>)");
  auto p = xpath::ParsePath("/r/k[@id = \"2\"]");
  ASSERT_TRUE(p.ok());
  auto tr = pattern::BuildFromPath(*p);
  ASSERT_TRUE(tr.ok());
  Decomposition d = Decompose(*tr);
  NokScanOperator scan(doc.get(), &*tr, &d.noks[0]);
  nestedlist::Arena rows = Drain(&scan);
  ASSERT_FALSE(rows.empty());
  const NestedList& out = rows[0];
  auto nodes = nestedlist::Project(*tr, scan.top_slots(), out,
                                   tr->SlotOfVariable("result"));
  ASSERT_EQ(nodes.size(), 1u);
  std::string_view v;
  ASSERT_TRUE(doc->AttributeValue(nodes[0], "id", &v));
  EXPECT_EQ(v, "2");
}

TEST(NokScanTest, SetRangeBoundsTheScan) {
  auto doc = Parse("<r><a><b/></a><a><b/></a></r>");
  BlossomTree t = Example3Pattern();
  Decomposition d = Decompose(t);
  NokScanOperator scan(doc.get(), &t, &d.noks[0]);
  // Restrict to the second a's subtree (nodes 3..4).
  scan.SetRange(3, 4);
  nestedlist::Arena rows = Drain(&scan);
  ASSERT_EQ(rows.size(), 1u);
  const NestedList& out = rows[0];
  auto as = nestedlist::Project(t, scan.top_slots(), out, 0);
  EXPECT_EQ(as[0], 3u);
}

TEST(NokScanTest, RewindRestartsAndCountsWork) {
  auto doc = Parse("<r><a><b/></a></r>");
  BlossomTree t = Example3Pattern();
  Decomposition d = Decompose(t);
  NokScanOperator scan(doc.get(), &t, &d.noks[0]);
  Drain(&scan);
  // The root test ran on the one <a>, not on <r> or <b>.
  EXPECT_EQ(scan.NodesScanned(), 1u);
  scan.Rewind();
  Batch one;
  ASSERT_EQ(scan.GetNextBatch(&one, 1), 1u);
  EXPECT_EQ(scan.NodesScanned(), 2u);  // The rewound pass tests it again.
  EXPECT_GT(scan.MatchWork(), 0u);
}

TEST(NokScanTest, TopSlotsNeedNoMatcher) {
  // The scan takes its top slots from NokTopSlots, so a cache hit never
  // builds a matcher; they must be the matcher's, NoK by NoK.
  auto doc = Parse("<r><a x='1'><b><c/></b><d/></a></r>");
  for (const char* q : {"//a/b", "/r/a[b/c][@x]/d", "//a[b//c]/d", "//a",
                        "//a[b]//c"}) {
    auto path = xpath::ParsePath(q);
    ASSERT_TRUE(path.ok()) << q;
    auto tree = pattern::BuildFromPath(*path);
    ASSERT_TRUE(tree.ok()) << q;
    Decomposition d = Decompose(*tree);
    for (const pattern::NokTree& nok : d.noks) {
      NokMatcher m(doc.get(), &*tree, &nok);
      EXPECT_EQ(NokTopSlots(*tree, nok), m.top_slots()) << q;
      NokScanOperator scan(doc.get(), &*tree, &nok);
      EXPECT_EQ(scan.top_slots(), m.top_slots()) << q;
    }
  }
}

}  // namespace
}  // namespace exec
}  // namespace blossomtree
