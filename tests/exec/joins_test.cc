#include "exec/joins.h"

#include <gtest/gtest.h>

#include "nestedlist/ops.h"
#include "pattern/builder.h"
#include "pattern/decompose.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace exec {
namespace {

using nestedlist::NestedList;
using pattern::BlossomTree;
using pattern::Decompose;
using pattern::Decomposition;
using pattern::SlotId;

std::unique_ptr<xml::Document> Parse(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
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
  nestedlist::Arena results = Drain(&join);
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
  nestedlist::Arena results = Drain(&join);
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
  nestedlist::Arena results = Drain(&join);
  ASSERT_EQ(results.size(), 1u);
  SlotId sb = fx.tree.SlotOfVariable("result");
  auto bs =
      nestedlist::ProjectSequence(fx.tree, join.top_slots(), results, sb);
  ASSERT_EQ(bs.size(), 1u);
  EXPECT_EQ(bs[0], 3u);  // The nested b, not the leading one.
}

// -- Graft then EnforceMandatory, rendered ------------------------------------

/// The paper's Example 2 bibliography (the document of Example 4).
constexpr const char* kBibXml =
    "<bib>"
    "<book><title>Maximum Security</title></book>"
    "<book><title>The Art of Computer Programming</title>"
    "<author><last>Knuth</last><first>Donald</first></author></book>"
    "<book><title>Terrorist Hunter</title></book>"
    "<book><title>TeX Book</title>"
    "<author><last>Knuth</last><first>Donald</first></author></book>"
    "</bib>";

/// Renders every row of a drained stream, one per line.
std::string Render(const nestedlist::Arena& rows, const xml::Document& doc) {
  nestedlist::OccurrenceLabeler label(&doc);
  std::string out;
  for (NestedList nl : rows) out += nestedlist::ToString(nl, label) + "\n";
  return out;
}

TEST(GraftTest, Example4GraftThenEnforceMandatoryRenders) {
  // Both //-joins graft //last under each book. An l-mode join keeps every
  // book; applying EnforceMandatory to its rows afterwards keeps exactly
  // the rows (and renderings) the f-mode join writes directly, which prunes
  // while it grafts.
  DescJoinFixture fx(kBibXml, "//book//last");
  SlotId s_book = fx.tree.SlotOfDewey(pattern::DeweyId({1}));
  int nb = fx.NokRootedAt("book");
  int nl = fx.NokRootedAt("last");
  ASSERT_GE(nb, 0);
  ASSERT_GE(nl, 0);
  auto make_join = [&](bool pipelined, pattern::EdgeMode mode) {
    auto outer = std::make_unique<NokScanOperator>(fx.doc.get(), &fx.tree,
                                                   &fx.decomp.noks[nb]);
    auto inner = std::make_unique<NokScanOperator>(fx.doc.get(), &fx.tree,
                                                   &fx.decomp.noks[nl]);
    std::unique_ptr<NestedListOperator> join;
    if (pipelined) {
      join = std::make_unique<PipelinedDescJoin>(
          fx.doc.get(), &fx.tree, std::move(outer), std::move(inner), s_book,
          mode);
    } else {
      join = std::make_unique<BoundedNestedLoopJoin>(
          fx.doc.get(), &fx.tree, std::move(outer), std::move(inner), s_book,
          mode);
    }
    return join;
  };
  for (bool pipelined : {true, false}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "bnlj");
    auto all = make_join(pipelined, pattern::EdgeMode::kLet);
    nestedlist::Arena kept = Drain(all.get());
    EXPECT_EQ(Render(kept, *fx.doc),
              "(book1,())\n(book2,(last1))\n(book3,())\n(book4,(last2))\n");
    auto mandatory = make_join(pipelined, pattern::EdgeMode::kFor);
    nestedlist::Arena pruned = Drain(mandatory.get());
    EXPECT_EQ(Render(pruned, *fx.doc), "(book2,(last1))\n(book4,(last2))\n");

    const std::vector<SlotId>& tops = all->top_slots();
    size_t child = nestedlist::ChildIndex(fx.tree, s_book,
                                          mandatory->Child(1)->top_slots()[0]);
    nestedlist::Arena enforced;
    for (size_t r = 0; r < kept.size(); ++r) {
      if (nestedlist::EnforceMandatory(fx.tree, tops, &kept, r, s_book,
                                       child)) {
        enforced.AppendRow(kept[r]);
      }
    }
    EXPECT_EQ(Render(enforced, *fx.doc), Render(pruned, *fx.doc));
    for (size_t r = 0; r < pruned.size(); ++r) {
      EXPECT_EQ(enforced[r].cells(), pruned[r].cells());
    }
  }
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
