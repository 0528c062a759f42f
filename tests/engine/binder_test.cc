#include "engine/binder.h"

#include <gtest/gtest.h>

#include "exec/operator.h"
#include "flwor/parser.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "xml/parser.h"

namespace blossomtree {
namespace engine {
namespace {

std::unique_ptr<xml::Document> Parse(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

/// Runs the full NestedList pipeline for a FLWOR's pattern trees and
/// enumerates each tree's rows.
struct BinderFixture {
  std::unique_ptr<xml::Document> doc;
  std::unique_ptr<flwor::Expr> expr;
  pattern::BlossomTree tree;
  std::vector<TreeTuples> per_tree;

  BinderFixture(const char* xml, const char* query) : doc(Parse(xml)) {
    auto e = flwor::ParseQuery(query);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    expr = e.MoveValue();
    auto t = pattern::BuildFromQuery(*expr);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    tree = t.MoveValue();
    auto plan = opt::PlanQuery(doc.get(), &tree);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto bindings = ComputeSlotBindings(tree, *expr->flwor);
    util::ResourceGuard guard;
    for (auto& tp : plan->trees) {
      auto lists = exec::Drain(tp.root.get());
      Status st = EnumerateBindings(tree, tp.tops, lists, bindings,
                                    expr->flwor->bindings.size(), &guard,
                                    &per_tree.emplace_back());
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  }

  /// Rows of a single-tree query.
  const TupleTable& rows() const { return per_tree.at(0).rows; }
};

TEST(BinderTest, ForBindingBranchesPerMatch) {
  BinderFixture fx("<r><k>1</k><k>2</k></r>", "for $x in //k return $x");
  ASSERT_EQ(fx.rows().rows, 2u);
  EXPECT_EQ(fx.per_tree[0].slots, std::vector<uint32_t>{0});
  ASSERT_EQ(fx.rows().width, 1u);
  for (size_t r = 0; r < fx.rows().rows; ++r) {
    EXPECT_EQ(fx.rows().Slot(r, 0).size(), 1u);
  }
}

TEST(BinderTest, LetBindingCollectsSequence) {
  BinderFixture fx("<r><g><k/><k/></g></r>",
                   "for $g in //g let $ks := $g/k return $g");
  ASSERT_EQ(fx.rows().rows, 1u);
  EXPECT_EQ(fx.rows().Slot(0, 1).size(), 2u);
}

TEST(BinderTest, LetOverEmptyBindsEmptySequence) {
  BinderFixture fx("<r><g/></r>", "for $g in //g let $ks := $g/k return $g");
  ASSERT_EQ(fx.rows().rows, 1u);
  EXPECT_TRUE(fx.rows().Slot(0, 1).empty());
}

TEST(BinderTest, LetOverAbsolutePathBindsOnce) {
  // One tuple holding every match, not one tuple per match.
  BinderFixture fx("<r><k/><k/><k/></r>", "let $ks := //k return $ks");
  ASSERT_EQ(fx.rows().rows, 1u);
  EXPECT_EQ(fx.rows().Slot(0, 0).size(), 3u);
  BinderFixture none("<r/>", "let $ks := //k return $ks");
  ASSERT_EQ(none.rows().rows, 1u);
  EXPECT_TRUE(none.rows().Slot(0, 0).empty());
}

TEST(BinderTest, NestedForMultiplies) {
  BinderFixture fx("<r><g><k/><k/></g><g><k/></g></r>",
                   "for $g in //g for $k in $g/k return $k");
  // (g1,k1),(g1,k2),(g2,k3).
  ASSERT_EQ(fx.rows().rows, 3u);
}

TEST(BinderTest, ForOverEmptyYieldsNoTuples) {
  BinderFixture fx("<r><g/></r>", "for $g in //g for $k in $g/k return $k");
  EXPECT_EQ(fx.rows().rows, 0u);
}

TEST(BinderTest, EachTreeBindsItsOwnSlots) {
  BinderFixture fx("<r><a/><a/><b/></r>",
                   "for $x in //a, $y in //b return $x");
  ASSERT_EQ(fx.per_tree.size(), 2u);
  EXPECT_EQ(fx.per_tree[0].slots, std::vector<uint32_t>{0});
  EXPECT_EQ(fx.per_tree[0].rows.rows, 2u);  // 2 a's.
  EXPECT_EQ(fx.per_tree[1].slots, std::vector<uint32_t>{1});
  EXPECT_EQ(fx.per_tree[1].rows.rows, 1u);  // 1 b.
}

TEST(BinderTest, DedupOnRecursiveEmbeddings) {
  // The same k is reachable under two nested g's; $k binds the single
  // distinct k node once.
  BinderFixture fx("<r><g><g><k/></g></g></r>",
                   "for $k in //g//k return $k");
  ASSERT_EQ(fx.rows().rows, 1u);
}

TEST(BinderTest, RowsFollowDocumentOrderOnRecursiveDocuments) {
  // m(2) lies inside the inner k but precedes the outer k's own m(1):
  // rows follow the for-loop order, not the order of the k matches.
  BinderFixture fx("<r><k><k><m/></k><m/></k></r>",
                   "for $m in //k/m return $m");
  ASSERT_EQ(fx.rows().rows, 2u);
  EXPECT_LT(fx.rows().Slot(0, 0)[0], fx.rows().Slot(1, 0)[0]);
}

TEST(BinderTest, NonBlossomSlotMergesItsMatches) {
  // k is a join endpoint, not a blossom: $l binds the m's under every k.
  BinderFixture fx("<r><g><k><m/></k><k><m/></k></g></r>",
                   "for $g in //g let $l := $g//k/m return $l");
  ASSERT_EQ(fx.rows().rows, 1u);
  EXPECT_EQ(fx.rows().Slot(0, 1).size(), 2u);
}

TEST(BinderTest, ComputeSlotBindingsMarksKinds) {
  BinderFixture fx("<r><g><k/></g></r>",
                   "for $g in //g let $ks := $g/k return $g");
  auto bindings = ComputeSlotBindings(fx.tree, *fx.expr->flwor);
  pattern::SlotId sg = fx.tree.SlotOfVariable("g");
  pattern::SlotId sk = fx.tree.SlotOfVariable("ks");
  ASSERT_NE(sg, pattern::kNoSlot);
  ASSERT_NE(sk, pattern::kNoSlot);
  EXPECT_EQ(bindings[sg].var_slot, 0u);
  EXPECT_FALSE(bindings[sg].is_let);
  EXPECT_EQ(bindings[sk].var_slot, 1u);
  EXPECT_TRUE(bindings[sk].is_let);
}

}  // namespace
}  // namespace engine
}  // namespace blossomtree
