// Per-operator counters (DESIGN.md §8): exact values on hand-built
// documents, run-to-completion normalization via Finish(), and bitwise
// identity of the deterministic counters across thread counts.

#include "exec/exec_stats.h"

#include <gtest/gtest.h>

#include <string>

#include "engine/query_profile.h"
#include "exec/nok_scan.h"
#include "exec/operator.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "util/thread_pool.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace exec {
namespace {

std::unique_ptr<xml::Document> Parse(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

pattern::BlossomTree TreeFor(const std::string& xpath) {
  auto path = xpath::ParsePath(xpath);
  EXPECT_TRUE(path.ok()) << path.status().ToString();
  auto tree = pattern::BuildFromPath(*path);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return tree.MoveValue();
}

TEST(ExecStatsTest, MergeFromSumsAndMaxes) {
  ExecStats a;
  a.nodes_scanned = 10;
  a.comparisons = 3;
  a.matches = 2;
  a.peak_buffer_bytes = 100;
  ExecStats b;
  b.nodes_scanned = 5;
  b.index_entries = 7;
  b.peak_buffer_bytes = 40;
  a.MergeFrom(b);
  EXPECT_EQ(a.nodes_scanned, 15u);
  EXPECT_EQ(a.index_entries, 7u);
  EXPECT_EQ(a.comparisons, 3u);
  EXPECT_EQ(a.peak_buffer_bytes, 100u);  // max, not sum
}

TEST(ExecStatsTest, CountersStringIsDeterministicAndOmitsTime) {
  ExecStats s;
  s.wall_nanos = 123456789;  // Must not appear in Counters().
  s.nodes_scanned = 4;
  s.matches = 2;
  std::string c = s.Counters();
  EXPECT_EQ(c, "nodes=4 rows=2");
  EXPECT_EQ(ExecStats{}.Counters(), "rows=0");
  // Summary() appends the wall time.
  EXPECT_NE(s.Summary().find("time="), std::string::npos);
}

TEST(ExecStatsTest, NokScanExactCountersOnHandBuiltDocument) {
  // 9 nodes: a, b, c, b, d, d, c, b, d. Query //b matches the 3 <b>s.
  auto doc = Parse("<a><b/><c/><b><d/><d/></b><c/><b><d/></b></a>");
  pattern::BlossomTree tree = TreeFor("//b");
  auto plan = opt::PlanQuery(doc.get(), &tree);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  nestedlist::Arena lists =
      Drain(plan->trees[0].root.get());
  EXPECT_EQ(lists.size(), 3u);
  ASSERT_EQ(plan->trees[0].scans.size(), 1u);
  ExecStats s = plan->trees[0].scans[0]->Stats();
  EXPECT_EQ(s.nodes_scanned, 3u);  // The root test ran on the 3 <b>s only.
  EXPECT_EQ(s.matches, 3u);
  EXPECT_EQ(s.nl_cells, 3u);  // One single-entry top group per match.
  EXPECT_GE(s.comparisons, 3u);  // At least the root tests that matched.
}

TEST(ExecStatsTest, JoinOperatorCountersOnHandBuiltDocument) {
  // //a//b with a non-recursive doc: pipelined join of two NoK scans
  // (a parent-child step would stay inside one NoK).
  auto doc = Parse("<r><a><b/><b/></a><x/><a><b/></a><a><c/></a></r>");
  pattern::BlossomTree tree = TreeFor("//a//b");
  opt::PlanOptions opts;
  opts.strategy = opt::JoinStrategy::kPipelined;
  auto plan = opt::PlanQuery(doc.get(), &tree, opts);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  NestedListOperator* root = plan->trees[0].root.get();
  size_t emitted = Drain(root).size();
  root->Finish();
  ExecStats s = root->Stats();
  EXPECT_STREQ(root->Name(), "PipelinedDescJoin");
  EXPECT_EQ(s.matches, emitted);
  EXPECT_EQ(emitted, 2u);  // Two <a>s have a <b> child.
  EXPECT_GT(s.nl_cells, 0u);
  // The join has two scan children, both fully drained by Finish(): each
  // tested its root tag's 3 elements (3 <a>s, 3 <b>s).
  ASSERT_EQ(root->NumChildren(), 2u);
  for (size_t i = 0; i < root->NumChildren(); ++i) {
    EXPECT_EQ(root->Child(i)->Stats().nodes_scanned, 3u);
  }
}

TEST(ExecStatsTest, BnljReportsRescans) {
  // Recursive <a>: auto strategy picks the BNLJ.
  auto doc = Parse("<r><a><a><b/></a><b/></a><a><b/></a></r>");
  pattern::BlossomTree tree = TreeFor("//a//b");
  auto plan = opt::PlanQuery(doc.get(), &tree);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  NestedListOperator* root = plan->trees[0].root.get();
  Drain(root);
  root->Finish();
  EXPECT_STREQ(root->Name(), "BoundedNestedLoopJoin");
  // One bounded inner re-scan per outer <a> entry.
  EXPECT_EQ(root->Stats().rescans, 3u);
}

/// Profile text (deterministic counters only) of one fully-drained plan.
std::string ProfileText(const xml::Document& doc, const std::string& xpath,
                        util::ThreadPool* pool) {
  pattern::BlossomTree tree = TreeFor(xpath);
  opt::PlanOptions opts;
  opts.pool = pool;
  auto plan = opt::PlanQuery(&doc, &tree, opts);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  for (auto& tp : plan->trees) Drain(tp.root.get());
  engine::QueryProfile profile = engine::BuildQueryProfile(
      &*plan, xpath, pool != nullptr ? pool->NumThreads() : 1);
  return profile.ToText();
}

TEST(ExecStatsTest, CountersIdenticalAcrossThreadCounts) {
  auto doc = Parse(
      "<r><a><a><b/></a><b/><c/></a><a><b/><a><a><b/></a></a></a>"
      "<x><a><b/><b/></a></x><a/><a><c/><b/></a></r>");
  for (const char* q : {"//b", "//a/b", "//a[/b]", "//a//b", "//a[//c]//b",
                        "//x//a/b"}) {
    std::string serial = ProfileText(*doc, q, nullptr);
    for (size_t threads : {2, 4}) {
      util::ThreadPool pool(threads);
      EXPECT_EQ(ProfileText(*doc, q, &pool), serial)
          << q << " threads=" << threads;
    }
  }
}

TEST(ExecStatsTest, FinishNormalizesPartiallyConsumedPlans) {
  // Consume only ONE result, then Finish(): totals must equal the fully
  // drained serial totals even though the parallel scan materialized
  // eagerly and the serial pipeline stopped early.
  auto doc = Parse(
      "<r><a><b/><b/></a><x/><a><b/></a><a><c/></a><a><b/><b/></a></r>");
  const std::string q = "//a//b";
  std::string full = ProfileText(*doc, q, nullptr);
  for (size_t threads : {1, 2, 4}) {
    pattern::BlossomTree tree = TreeFor(q);
    opt::PlanOptions opts;
    util::ThreadPool pool(threads);
    if (threads > 1) opts.pool = &pool;
    auto plan = opt::PlanQuery(doc.get(), &tree, opts);
    ASSERT_TRUE(plan.ok());
    Batch one;
    ASSERT_EQ(plan->trees[0].root->GetNextBatch(&one, 1), 1u);  // One row.
    engine::QueryProfile profile =
        engine::BuildQueryProfile(&*plan, q, threads);  // Finishes.
    EXPECT_EQ(profile.ToText(), full) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace blossomtree
}  // namespace exec
