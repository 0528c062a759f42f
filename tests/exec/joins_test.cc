#include "exec/joins.h"

#include <gtest/gtest.h>

#include "exec/value_ops.h"
#include "flwor/parser.h"
#include "nestedlist/ops.h"
#include "pattern/builder.h"
#include "pattern/decompose.h"
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
using pattern::SlotId;
using pattern::VertexId;

std::unique_ptr<xml::Document> Parse(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

/// The paper's Example 2 bibliography document (whitespace trimmed).
constexpr const char* kBibXml =
    "<bib>"
    "<book><title>Maximum Security</title></book>"
    "<book><title>The Art of Computer Programming</title>"
    "<author><last>Knuth</last><first>Donald</first></author></book>"
    "<book><title>Terrorist Hunter</title></book>"
    "<book><title>TeX Book</title>"
    "<author><last>Knuth</last><first>Donald</first></author></book>"
    "</bib>";

constexpr const char* kExample1Query = R"(
  for $book1 in doc("bib.xml")//book,
      $book2 in doc("bib.xml")//book
  let $aut1 := $book1/author
  let $aut2 := $book2/author
  where $book1 << $book2
    and not($book1/title = $book2/title)
    and deep-equal($aut1, $aut2)
  return <book-pair>{ $book1/title }{ $book2/title }</book-pair>
)";

struct Example1Fixture {
  std::unique_ptr<xml::Document> doc;
  BlossomTree tree;
  Decomposition decomp;
  int nok_book1 = -1;
  int nok_book2 = -1;
  SlotId s_book1, s_book2, s_aut1, s_aut2, s_t1, s_t2;

  Example1Fixture() : doc(Parse(kBibXml)) {
    auto e = flwor::ParseQuery(kExample1Query);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    auto tr = pattern::BuildFromQuery(**e);
    EXPECT_TRUE(tr.ok()) << tr.status().ToString();
    tree = tr.MoveValue();
    decomp = Decompose(tree);
    VertexId b1 = tree.VertexOfVariable("book1");
    VertexId b2 = tree.VertexOfVariable("book2");
    for (size_t i = 0; i < decomp.noks.size(); ++i) {
      if (decomp.noks[i].root == b1) nok_book1 = static_cast<int>(i);
      if (decomp.noks[i].root == b2) nok_book2 = static_cast<int>(i);
    }
    s_book1 = tree.SlotOfVariable("book1");
    s_book2 = tree.SlotOfVariable("book2");
    s_aut1 = tree.SlotOfVariable("aut1");
    s_aut2 = tree.SlotOfVariable("aut2");
    s_t1 = TitleSlot(s_book1);
    s_t2 = TitleSlot(s_book2);
  }

  SlotId TitleSlot(SlotId book) const {
    for (SlotId c : tree.slot(book).children) {
      if (tree.vertex(tree.slot(c).vertex).tag == "title") return c;
    }
    return pattern::kNoSlot;
  }

  std::unique_ptr<NestedListOperator> FramedScan(int nok, size_t position) {
    auto scan = std::make_unique<NokScanOperator>(doc.get(), &tree,
                                                  &decomp.noks[nok]);
    return std::make_unique<FrameOperator>(
        &tree, tree.top_slots(), position, std::move(scan));
  }

  /// The paper abbreviates tags to their first letter (b1, t1, a1).
  std::function<std::string(xml::NodeId)> AbbrevLabeler() const {
    const xml::Document* d = doc.get();
    return [d](xml::NodeId n) {
      OccurrenceLabeler full(d);
      std::string s = full(n);
      const std::string& tag = d->TagName(n);
      return tag.substr(0, 1) + s.substr(tag.size());
    };
  }
};

TEST(NestedLoopJoinTest, Example4NoKOutputsMatchPaper) {
  Example1Fixture fx;
  ASSERT_GE(fx.nok_book1, 0);
  ASSERT_GE(fx.nok_book2, 0);
  auto op = fx.FramedScan(fx.nok_book1, 0);
  auto label = fx.AbbrevLabeler();
  std::vector<std::string> rendered;
  for (const NestedList& nl : Drain(op.get())) {
    rendered.push_back(nestedlist::ToString(nl, label));
  }
  // Paper Example 4 (the NoK emits (book,(author),(title)) frames; the
  // second top group is the book2 placeholder).
  ASSERT_EQ(rendered.size(), 4u);
  EXPECT_EQ(rendered[0], "((b1,(),(t1)),((),()))");
  EXPECT_EQ(rendered[1], "((b2,(a1),(t2)),((),()))");
  EXPECT_EQ(rendered[2], "((b3,(),(t3)),((),()))");
  EXPECT_EQ(rendered[3], "((b4,(a2),(t4)),((),()))");
}

TEST(NestedLoopJoinTest, Example4JoinResultMatchesPaper) {
  Example1Fixture fx;
  const auto& tops = fx.tree.top_slots();
  auto pred = [&](const NestedList& l, const NestedList& r) {
    auto b1 = nestedlist::Project(fx.tree, tops, l, fx.s_book1);
    auto b2 = nestedlist::Project(fx.tree, tops, r, fx.s_book2);
    auto t1 = nestedlist::Project(fx.tree, tops, l, fx.s_t1);
    auto t2 = nestedlist::Project(fx.tree, tops, r, fx.s_t2);
    auto a1 = nestedlist::Project(fx.tree, tops, l, fx.s_aut1);
    auto a2 = nestedlist::Project(fx.tree, tops, r, fx.s_aut2);
    if (b1.empty() || b2.empty() || !(b1[0] < b2[0])) return false;
    if (GeneralCompare(*fx.doc, t1, xpath::CompareOp::kEq, t2)) return false;
    return DeepEqualSequences(*fx.doc, a1, a2);
  };
  NestedLoopJoin join(std::vector<SlotId>(tops),
                      fx.FramedScan(fx.nok_book1, 0),
                      fx.FramedScan(fx.nok_book2, 1), {true, false}, pred);
  auto label = fx.AbbrevLabeler();
  std::vector<std::string> rendered;
  for (const NestedList& nl : Drain(&join)) {
    rendered.push_back(nestedlist::ToString(nl, label));
  }
  // Paper Example 4's final result (canonical group order: author, title).
  ASSERT_EQ(rendered.size(), 2u);
  EXPECT_EQ(rendered[0], "((b1,(),(t1)),(b3,(),(t3)))");
  EXPECT_EQ(rendered[1], "((b2,(a1),(t2)),(b4,(a2),(t4)))");
}

TEST(NestedLoopJoinTest, Example5DocOrderCounterexample) {
  // Paper Example 5: the <<-join is not order preserving: the projection on
  // the book2 Dewey ID over the join result is [b2,b3,b4,b3,b4,b4].
  Example1Fixture fx;
  const auto& tops = fx.tree.top_slots();
  auto pred = [&](const NestedList& l, const NestedList& r) {
    auto b1 = nestedlist::Project(fx.tree, tops, l, fx.s_book1);
    auto b2 = nestedlist::Project(fx.tree, tops, r, fx.s_book2);
    return !b1.empty() && !b2.empty() && b1[0] < b2[0];
  };
  NestedLoopJoin join(std::vector<SlotId>(tops),
                      fx.FramedScan(fx.nok_book1, 0),
                      fx.FramedScan(fx.nok_book2, 1), {true, false}, pred);
  std::vector<NestedList> results = Drain(&join);
  ASSERT_EQ(results.size(), 6u);
  auto proj = nestedlist::ProjectSequence(fx.tree, tops, results, fx.s_book2);
  OccurrenceLabeler label(fx.doc.get());
  std::vector<std::string> labels;
  for (xml::NodeId n : proj) labels.push_back(label(n));
  EXPECT_EQ(labels, std::vector<std::string>(
                        {"book2", "book3", "book4", "book3", "book4",
                         "book4"}));
  EXPECT_FALSE(std::is_sorted(proj.begin(), proj.end()));
}

// -- Pipelined //-join ---------------------------------------------------------

struct DescJoinFixture {
  std::unique_ptr<xml::Document> doc;
  BlossomTree tree;
  Decomposition decomp;

  explicit DescJoinFixture(const char* xml, const char* query)
      : doc(Parse(xml)) {
    auto p = xpath::ParsePath(query);
    EXPECT_TRUE(p.ok());
    auto tr = pattern::BuildFromPath(*p);
    EXPECT_TRUE(tr.ok()) << tr.status().ToString();
    tree = tr.MoveValue();
    decomp = Decompose(tree);
  }

  int NokRootedAt(const std::string& tag) const {
    for (size_t i = 0; i < decomp.noks.size(); ++i) {
      if (tree.vertex(decomp.noks[i].root).tag == tag) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
};

TEST(PipelinedDescJoinTest, GraftsDescendants) {
  DescJoinFixture fx("<r><a><b/><x><b/></x></a><a><c/></a><a><b/></a></r>",
                     "//a//b");
  int na = fx.NokRootedAt("a");
  int nb = fx.NokRootedAt("b");
  ASSERT_GE(na, 0);
  ASSERT_GE(nb, 0);
  SlotId sa = fx.tree.SlotOfDewey(pattern::DeweyId({1}));
  auto outer = std::make_unique<NokScanOperator>(fx.doc.get(), &fx.tree,
                                                 &fx.decomp.noks[na]);
  auto inner = std::make_unique<NokScanOperator>(fx.doc.get(), &fx.tree,
                                                 &fx.decomp.noks[nb]);
  PipelinedDescJoin join(fx.doc.get(), &fx.tree, std::move(outer),
                         std::move(inner), sa, pattern::EdgeMode::kFor);
  std::vector<NestedList> results = Drain(&join);
  // a2 (only c child) is pruned by the mandatory //-edge.
  ASSERT_EQ(results.size(), 2u);
  SlotId sb = fx.tree.SlotOfVariable("result");
  auto bs = nestedlist::ProjectSequence(fx.tree, join.top_slots(), results,
                                        sb);
  EXPECT_EQ(bs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(bs.begin(), bs.end()));  // Theorem 2.
  for (xml::NodeId b : bs) EXPECT_EQ(fx.doc->TagName(b), "b");
}

TEST(PipelinedDescJoinTest, OptionalModeKeepsEmptyOuter) {
  DescJoinFixture fx("<r><a><b/></a><a><c/></a></r>", "//a//b");
  int na = fx.NokRootedAt("a");
  int nb = fx.NokRootedAt("b");
  SlotId sa = fx.tree.SlotOfDewey(pattern::DeweyId({1}));
  auto outer = std::make_unique<NokScanOperator>(fx.doc.get(), &fx.tree,
                                                 &fx.decomp.noks[na]);
  auto inner = std::make_unique<NokScanOperator>(fx.doc.get(), &fx.tree,
                                                 &fx.decomp.noks[nb]);
  PipelinedDescJoin join(fx.doc.get(), &fx.tree, std::move(outer),
                         std::move(inner), sa, pattern::EdgeMode::kLet);
  std::vector<NestedList> results = Drain(&join);
  EXPECT_EQ(results.size(), 2u);  // Both a's kept.
}

TEST(PipelinedDescJoinTest, InnerBeforeOuterIsDiscarded) {
  // b before any a must not crash or attach anywhere.
  DescJoinFixture fx("<r><b/><a><b/></a></r>", "//a//b");
  int na = fx.NokRootedAt("a");
  int nb = fx.NokRootedAt("b");
  SlotId sa = fx.tree.SlotOfDewey(pattern::DeweyId({1}));
  PipelinedDescJoin join(
      fx.doc.get(), &fx.tree,
      std::make_unique<NokScanOperator>(fx.doc.get(), &fx.tree,
                                        &fx.decomp.noks[na]),
      std::make_unique<NokScanOperator>(fx.doc.get(), &fx.tree,
                                        &fx.decomp.noks[nb]),
      sa, pattern::EdgeMode::kFor);
  std::vector<NestedList> results = Drain(&join);
  ASSERT_EQ(results.size(), 1u);
  SlotId sb = fx.tree.SlotOfVariable("result");
  auto bs =
      nestedlist::ProjectSequence(fx.tree, join.top_slots(), results, sb);
  ASSERT_EQ(bs.size(), 1u);
  EXPECT_EQ(bs[0], 3u);  // The nested b, not the leading one.
}

// -- Bounded nested-loop join --------------------------------------------------

TEST(BnljTest, MatchesPipelinedOnNonRecursiveDocs) {
  const char* xml = "<r><a><b/><x><b/></x></a><a><c/></a><a><b/></a></r>";
  DescJoinFixture fx1(xml, "//a//b");
  DescJoinFixture fx2(xml, "//a//b");
  SlotId sa1 = fx1.tree.SlotOfDewey(pattern::DeweyId({1}));
  SlotId sa2 = fx2.tree.SlotOfDewey(pattern::DeweyId({1}));

  PipelinedDescJoin pl(
      fx1.doc.get(), &fx1.tree,
      std::make_unique<NokScanOperator>(fx1.doc.get(), &fx1.tree,
                                        &fx1.decomp.noks[fx1.NokRootedAt("a")]),
      std::make_unique<NokScanOperator>(fx1.doc.get(), &fx1.tree,
                                        &fx1.decomp.noks[fx1.NokRootedAt("b")]),
      sa1, pattern::EdgeMode::kFor);
  BoundedNestedLoopJoin nl(
      fx2.doc.get(), &fx2.tree,
      std::make_unique<NokScanOperator>(fx2.doc.get(), &fx2.tree,
                                        &fx2.decomp.noks[fx2.NokRootedAt("a")]),
      std::make_unique<NokScanOperator>(fx2.doc.get(), &fx2.tree,
                                        &fx2.decomp.noks[fx2.NokRootedAt("b")]),
      sa2, pattern::EdgeMode::kFor);

  auto r1 = Drain(&pl);
  auto r2 = Drain(&nl);
  ASSERT_EQ(r1.size(), r2.size());
  auto p1 = nestedlist::ProjectSequence(fx1.tree, pl.top_slots(), r1,
                                        fx1.tree.SlotOfVariable("result"));
  auto p2 = nestedlist::ProjectSequence(fx2.tree, nl.top_slots(), r2,
                                        fx2.tree.SlotOfVariable("result"));
  EXPECT_EQ(p1, p2);
}

TEST(BnljTest, HandlesRecursiveDocuments) {
  // a nested in a: every a-match re-scans only its own subtree.
  const char* xml = "<a><a><b/></a></a>";
  DescJoinFixture fx(xml, "//a//b");
  SlotId sa = fx.tree.SlotOfDewey(pattern::DeweyId({1}));
  auto inner = std::make_unique<NokScanOperator>(
      fx.doc.get(), &fx.tree, &fx.decomp.noks[fx.NokRootedAt("b")]);
  NokScanOperator* inner_ptr = inner.get();
  BoundedNestedLoopJoin nl(
      fx.doc.get(), &fx.tree,
      std::make_unique<NokScanOperator>(fx.doc.get(), &fx.tree,
                                        &fx.decomp.noks[fx.NokRootedAt("a")]),
      std::move(inner), sa, pattern::EdgeMode::kFor);
  auto results = Drain(&nl);
  // Both a's contain the b.
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(nl.InnerRescans(), 2u);
  EXPECT_GT(inner_ptr->NodesScanned(), 0u);
}

TEST(BnljTest, InnerScanIsRangeBounded) {
  const char* xml = "<r><a><b/></a><z><b/><b/><b/></z></r>";
  DescJoinFixture fx(xml, "//a//b");
  SlotId sa = fx.tree.SlotOfDewey(pattern::DeweyId({1}));
  auto inner = std::make_unique<NokScanOperator>(
      fx.doc.get(), &fx.tree, &fx.decomp.noks[fx.NokRootedAt("b")]);
  NokScanOperator* inner_ptr = inner.get();
  BoundedNestedLoopJoin nl(
      fx.doc.get(), &fx.tree,
      std::make_unique<NokScanOperator>(fx.doc.get(), &fx.tree,
                                        &fx.decomp.noks[fx.NokRootedAt("a")]),
      std::move(inner), sa, pattern::EdgeMode::kFor);
  auto results = Drain(&nl);
  ASSERT_EQ(results.size(), 1u);
  // Inner scanned only a's subtree (1 node: the b), not the z subtree.
  EXPECT_LE(inner_ptr->NodesScanned(), 2u);
}

}  // namespace
}  // namespace exec
}  // namespace blossomtree
