#include "nestedlist/nested_list.h"

#include <gtest/gtest.h>

#include "nestedlist/ops.h"
#include "xml/parser.h"

namespace blossomtree {
namespace nestedlist {
namespace {

using pattern::BlossomTree;
using pattern::DeweyId;
using pattern::EdgeMode;
using pattern::SlotId;
using pattern::VertexId;

/// Builds the paper's Example 3 NoK pattern tree: a(1) with children b(1.1)
/// and c(1.2), b with child d(1.1.1); a-b mandatory, b-d and a-c optional.
BlossomTree Example3Pattern() {
  BlossomTree t;
  VertexId a = t.AddRoot("a");
  VertexId b = t.AddChild(a, "b", xpath::Axis::kChild, EdgeMode::kFor);
  VertexId d = t.AddChild(b, "d", xpath::Axis::kChild, EdgeMode::kLet);
  VertexId c = t.AddChild(a, "c", xpath::Axis::kChild, EdgeMode::kLet);
  t.MarkReturning(a);
  t.MarkReturning(b);
  t.MarkReturning(d);
  t.MarkReturning(c);
  EXPECT_TRUE(t.Finalize().ok());
  return t;
}

TEST(NestedListTest, Example3DeweyIds) {
  BlossomTree t = Example3Pattern();
  ASSERT_EQ(t.NumSlots(), 4u);
  EXPECT_EQ(t.slot(0).dewey.ToString(), "1");      // a
  EXPECT_EQ(t.slot(1).dewey.ToString(), "1.1");    // b
  EXPECT_EQ(t.slot(2).dewey.ToString(), "1.1.1");  // d
  EXPECT_EQ(t.slot(3).dewey.ToString(), "1.2");    // c
}

/// Hand-builds the Figure 4 NestedList as row 0 of an arena, bottom-up:
/// (a1,[(b1,()),(b2,[(d1),(d2)]),(b3,(d3))],[(c1),(c2)])
/// over the document <a><b/><c/><b><d/><d/></b><c/><b><d/></b></a>
/// whose node ids are a=0 b=1 c=2 b=3 d=4 d=5 c=6 b=7 d=8.
Arena Figure4List() {
  Arena out;
  const Arena::Mark start = out.GetMark();
  auto leaf = [&](xml::NodeId n) { return out.PlaceEntry(n, {}); };
  auto entry = [&](xml::NodeId n, std::vector<Group> groups) {
    return out.PlaceEntry(n, groups);
  };
  auto group = [&](std::vector<Entry> members) {
    return out.PlaceGroup(members);
  };
  Entry b1 = entry(1, {Group{}});
  Entry b2 = entry(3, {group({leaf(4), leaf(5)})});
  Entry b3 = entry(7, {group({leaf(8)})});
  Group bs = group({b1, b2, b3});
  Group cs = group({leaf(2), leaf(6)});
  Entry a1 = entry(0, {bs, cs});
  std::vector<Group> tops = {group({a1})};
  out.PlaceRow(tops, start);
  return out;
}

std::unique_ptr<xml::Document> Figure3Document() {
  auto r = xml::ParseDocument("<a><b/><c/><b><d/><d/></b><c/><b><d/></b></a>");
  EXPECT_TRUE(r.ok());
  return r.MoveValue();
}

TEST(NestedListTest, Figure4Serialization) {
  auto doc = Figure3Document();
  Arena list = Figure4List();
  OccurrenceLabeler label(doc.get());
  EXPECT_EQ(ToString(list[0], label),
            "(a1,[(b1,()),(b2,[(d1),(d2)]),(b3,(d3))],[(c1),(c2)])");
}

TEST(NestedListTest, ProjectionExample) {
  // Paper §3.3: π_{1.1}(t) = [b1, b2, b3].
  BlossomTree t = Example3Pattern();
  Arena list = Figure4List();
  std::vector<SlotId> tops = {0};
  SlotId b = t.SlotOfDewey(DeweyId({1, 1}));
  auto nodes = Project(t, tops, list[0], b);
  EXPECT_EQ(nodes, std::vector<xml::NodeId>({1, 3, 7}));
}

TEST(NestedListTest, ProjectionDeepSlot) {
  BlossomTree t = Example3Pattern();
  Arena list = Figure4List();
  SlotId d = t.SlotOfDewey(DeweyId({1, 1, 1}));
  auto nodes = Project(t, {0}, list[0], d);
  EXPECT_EQ(nodes, std::vector<xml::NodeId>({4, 5, 8}));
}

TEST(NestedListTest, ProjectionIsDocumentOrder) {
  // Theorem 1 at the data-structure level: projections come out sorted.
  BlossomTree t = Example3Pattern();
  Arena list = Figure4List();
  for (SlotId s = 0; s < t.NumSlots(); ++s) {
    auto nodes = Project(t, {0}, list[0], s);
    EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end()))
        << "slot " << t.slot(s).dewey.ToString();
  }
}

TEST(NestedListTest, ProjectionUnreachableSlotIsEmpty) {
  BlossomTree t = Example3Pattern();
  Arena list = Figure4List();
  // Project d but with tops claiming only slot 3 (c): unreachable.
  auto nodes = Project(t, {3}, list[0], 2);
  EXPECT_TRUE(nodes.empty());
}

TEST(NestedListTest, SelectionByPosition) {
  // Paper §3.3: σ_{position(1.1)=2} = [b2].
  BlossomTree t = Example3Pattern();
  Arena list = Figure4List();
  SlotId b = t.SlotOfDewey(DeweyId({1, 1}));
  ASSERT_TRUE(SelectPosition(t, {0}, &list, 0, b, 2));
  auto nodes = Project(t, {0}, list[0], b);
  EXPECT_EQ(nodes, std::vector<xml::NodeId>({3}));  // b2 only.
  // d-children of the removed b's disappear with them.
  auto ds = Project(t, {0}, list[0], 2);
  EXPECT_EQ(ds, std::vector<xml::NodeId>({4, 5}));
  // The rewritten row owns exactly its surviving cells: a1, b2, d1, d2,
  // c1, c2.
  EXPECT_EQ(list[0].cells(), 6u);
}

TEST(NestedListTest, SelectionInvalidatesMandatory) {
  // Removing all b's empties a mandatory (f) group → invalid list.
  BlossomTree t = Example3Pattern();
  Arena list = Figure4List();
  SlotId b = t.SlotOfDewey(DeweyId({1, 1}));
  EXPECT_FALSE(Select(t, {0}, &list, 0, b,
                      [](xml::NodeId, size_t) { return false; }));
}

TEST(NestedListTest, SelectionOnOptionalGroupStaysValid) {
  // Removing all c's empties an optional (l) group → still valid.
  BlossomTree t = Example3Pattern();
  Arena list = Figure4List();
  SlotId c = t.SlotOfDewey(DeweyId({1, 2}));
  EXPECT_TRUE(Select(t, {0}, &list, 0, c,
                     [](xml::NodeId, size_t) { return false; }));
  EXPECT_TRUE(Project(t, {0}, list[0], c).empty());
  EXPECT_EQ(Project(t, {0}, list[0], 0).size(), 1u);  // a survives.
}

TEST(NestedListTest, EnforceMandatoryPrunesEntriesWithEmptyGroup) {
  BlossomTree t = Example3Pattern();
  // Make b-d mandatory for this test by rebuilding: a(b(d-f))(c).
  BlossomTree t2;
  VertexId a = t2.AddRoot("a");
  VertexId b = t2.AddChild(a, "b", xpath::Axis::kChild, EdgeMode::kFor);
  t2.AddChild(b, "d", xpath::Axis::kChild, EdgeMode::kFor);
  t2.AddChild(a, "c", xpath::Axis::kChild, EdgeMode::kLet);
  for (VertexId v = 0; v < t2.NumVertices(); ++v) t2.MarkReturning(v);
  ASSERT_TRUE(t2.Finalize().ok());
  Arena list = Figure4List();
  SlotId b_slot = t2.SlotOfDewey(DeweyId({1, 1}));
  // b1 has an empty d-group → pruned; b2, b3 remain.
  ASSERT_TRUE(EnforceMandatory(t2, {0}, &list, 0, b_slot, 0));
  auto nodes = Project(t2, {0}, list[0], b_slot);
  EXPECT_EQ(nodes, std::vector<xml::NodeId>({3, 7}));
}

TEST(NestedListTest, Figure6ArraysAreFlat) {
  // Figure 4 in Figure 6's arrays: nine entries, one group per child slot
  // of each entry (b: 1, a: 2) plus the top group, one row owning all.
  Arena list = Figure4List();
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list.entries.size(), 9u);
  EXPECT_EQ(list.groups.size(), 3u + 2u + 1u);
  EXPECT_EQ(list[0].cells(), 9u);
  EXPECT_EQ(list[0].tops().size(), 1u);
  EXPECT_EQ(list.Bytes(), 9 * sizeof(Entry) + 6 * sizeof(Group) +
                              1 * sizeof(Row));
  // Sibling lists are contiguous, in document order.
  Group top = list[0].tops()[0];
  const Entry& a1 = list.entries[top.begin];
  EXPECT_EQ(a1.node, 0u);
  ASSERT_EQ(a1.num_groups, 2u);
  std::vector<xml::NodeId> bs;
  for (const Entry& e : list[0].entries(list[0].groups(a1)[0])) {
    bs.push_back(e.node);
  }
  EXPECT_EQ(bs, std::vector<xml::NodeId>({1, 3, 7}));
}

TEST(NestedListTest, AppendRowCopiesIntoAnyArena) {
  auto doc = Figure3Document();
  OccurrenceLabeler label(doc.get());
  Arena src = Figure4List();
  const std::string expected = ToString(src[0], label);
  // Into an arena that already holds rows: every offset shifts.
  Arena dst = Figure4List();
  dst.AppendRow(src[0]);
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_EQ(ToString(dst[1], label), expected);
  EXPECT_EQ(dst[1].cells(), src[0].cells());
  // Into its own arena.
  src.AppendRow(src[0]);
  ASSERT_EQ(src.size(), 2u);
  EXPECT_EQ(ToString(src[0], label), expected);
  EXPECT_EQ(ToString(src[1], label), expected);
  EXPECT_EQ(src.entries.size(), 18u);
}

TEST(NestedListTest, AppendRowGrowsGeometrically) {
  // Draining appends rows one at a time; each append must not reallocate
  // the arrays, or draining N rows copies O(N^2) entries.
  Arena src = Figure4List();
  Arena dst;
  size_t reallocations = 0;
  const Entry* data = nullptr;
  for (int i = 0; i < 4096; ++i) {
    dst.AppendRow(src[0]);
    if (dst.entries.data() != data) {
      ++reallocations;
      data = dst.entries.data();
    }
  }
  ASSERT_EQ(dst.size(), 4096u);
  EXPECT_EQ(dst.entries.size(), 4096u * 9);
  // Doubling from 9 entries to 36,864 takes about 13 steps.
  EXPECT_LE(reallocations, 20u);
}

TEST(NestedListTest, RewrittenRowRendersWhatPruningLeaves) {
  // EnforceMandatory rewrites the row at the arena's end: the rendering is
  // the pruned list, and the row owns only the cells it still reaches.
  auto doc = Figure3Document();
  OccurrenceLabeler label(doc.get());
  BlossomTree t2;
  VertexId a = t2.AddRoot("a");
  VertexId b = t2.AddChild(a, "b", xpath::Axis::kChild, EdgeMode::kFor);
  t2.AddChild(b, "d", xpath::Axis::kChild, EdgeMode::kFor);
  t2.AddChild(a, "c", xpath::Axis::kChild, EdgeMode::kLet);
  for (VertexId v = 0; v < t2.NumVertices(); ++v) t2.MarkReturning(v);
  ASSERT_TRUE(t2.Finalize().ok());
  Arena list = Figure4List();
  SlotId b_slot = t2.SlotOfDewey(DeweyId({1, 1}));
  ASSERT_TRUE(EnforceMandatory(t2, {0}, &list, 0, b_slot, 0));
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(ToString(list[0], label),
            "(a1,[(b2,[(d1),(d2)]),(b3,(d3))],[(c1),(c2)])");
  EXPECT_EQ(list[0].cells(), 8u);  // b1 is gone.
}

TEST(NestedListTest, SlotChainAndChildIndex) {
  BlossomTree t = Example3Pattern();
  auto chain = SlotChain(t, {0}, 2);  // d
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0], 0u);
  EXPECT_EQ(chain[1], 1u);
  EXPECT_EQ(chain[2], 2u);
  EXPECT_EQ(ChildIndex(t, 0, 1), 0u);  // b is a's first child slot.
  EXPECT_EQ(ChildIndex(t, 0, 3), 1u);  // c is a's second child slot.
}

TEST(NestedListTest, OccurrenceLabelerCountsPerTag) {
  auto doc = Figure3Document();
  OccurrenceLabeler label(doc.get());
  EXPECT_EQ(label(0), "a1");
  EXPECT_EQ(label(1), "b1");
  EXPECT_EQ(label(3), "b2");
  EXPECT_EQ(label(7), "b3");
  EXPECT_EQ(label(2), "c1");
  EXPECT_EQ(label(6), "c2");
  EXPECT_EQ(label(8), "d3");
}

}  // namespace
}  // namespace nestedlist
}  // namespace blossomtree
