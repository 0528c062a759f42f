#include "opt/planner.h"

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/query_profile.h"
#include "index/structural_index.h"
#include "pattern/builder.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace opt {
namespace {

std::unique_ptr<xml::Document> Parse(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

pattern::BlossomTree Tree(std::string_view query) {
  auto p = xpath::ParsePath(query);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  auto t = pattern::BuildFromPath(*p);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return t.MoveValue();
}

std::vector<xml::NodeId> Eval(const xml::Document& doc,
                              std::string_view query,
                              const PlanOptions& opts = {}) {
  pattern::BlossomTree t = Tree(query);
  auto r = EvaluatePathQuery(&doc, &t, opts);
  EXPECT_TRUE(r.ok()) << query << ": " << r.status().ToString();
  return r.ok() ? r.MoveValue() : std::vector<xml::NodeId>{};
}

TEST(PlannerTest, AutoPicksPipelinedOnNonRecursive) {
  auto doc = Parse("<r><a><b/></a></r>");
  pattern::BlossomTree t = Tree("//a//b");
  auto plan = PlanQuery(doc.get(), &t);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->chosen, JoinStrategy::kPipelined);
  EXPECT_NE(plan->Explain().find("PipelinedDescJoin"), std::string::npos);
}

TEST(PlannerTest, AutoPicksBnljOnRecursive) {
  auto doc = Parse("<r><a><a><b/></a></a></r>");
  pattern::BlossomTree t = Tree("//a//b");
  auto plan = PlanQuery(doc.get(), &t);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->chosen, JoinStrategy::kBoundedNestedLoop);
  EXPECT_NE(plan->Explain().find("BoundedNestedLoopJoin"),
            std::string::npos);
}

TEST(PlannerTest, AutoUsesPerTagRecursion) {
  // The document is recursive (nested x's), but the queried tags a and b
  // never nest → the fine-grained rule still picks the pipelined join.
  auto doc = Parse("<r><x><x><a><b/></a></x></x><a><c/></a></r>");
  ASSERT_TRUE(doc->IsRecursive());
  pattern::BlossomTree t = Tree("//a//b");
  auto plan = PlanQuery(doc.get(), &t);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->chosen, JoinStrategy::kPipelined);
  // And the result is still correct.
  EXPECT_EQ(Eval(*doc, "//a//b").size(), 1u);
}

TEST(PlannerTest, AutoMixedStrategies) {
  // a nests (BNLJ for a//b), but b does not (PL for b//c): a mixed plan.
  auto doc = Parse("<r><a><a><b><c/></b></a></a></r>");
  pattern::BlossomTree t = Tree("//a//b//c");
  auto plan = PlanQuery(doc.get(), &t);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->chosen, JoinStrategy::kAuto);
  EXPECT_NE(plan->Explain().find("BoundedNestedLoopJoin(a // b"),
            std::string::npos);
  EXPECT_NE(plan->Explain().find("PipelinedDescJoin(b // c"),
            std::string::npos);
  EXPECT_EQ(Eval(*doc, "//a//b//c").size(), 1u);
}

TEST(PlannerTest, AutoConservativeOnWildcards) {
  // Wildcard outer: nesting cannot be bounded per tag → BNLJ.
  auto doc = Parse("<r><x><y><b/></y></x></r>");
  pattern::BlossomTree t = Tree("//*//b");
  auto plan = PlanQuery(doc.get(), &t);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->Explain().find("BoundedNestedLoopJoin"),
            std::string::npos);
}

TEST(PlannerTest, TrivialVirtualRootIsElided) {
  auto doc = Parse("<r><a/></r>");
  pattern::BlossomTree t = Tree("//a");
  auto plan = PlanQuery(doc.get(), &t);
  ASSERT_TRUE(plan.ok());
  // One pattern tree, a single NoK scan, no joins.
  ASSERT_EQ(plan->trees.size(), 1u);
  EXPECT_EQ(plan->trees[0].scans.size(), 1u);
  EXPECT_EQ(plan->Explain().find("Join"), std::string::npos);
}

TEST(PlannerTest, LocalPathKeepsVirtualRootNok) {
  auto doc = Parse("<a><b/></a>");
  auto out = Eval(*doc, "/a/b");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1u);
}

TEST(PlannerTest, ChainQuery) {
  auto doc = Parse("<r><a><b><c/></b></a><a><b/></a><c/></r>");
  auto out = Eval(*doc, "//a//b//c");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(doc->TagName(out[0]), "c");
}

TEST(PlannerTest, BranchingQuery) {
  auto doc = Parse(
      "<r><a><b/><c/><d/></a><a><b/><c/></a><a><b/><c/><x><d/></x></a></r>");
  auto out = Eval(*doc, "//a[//b][//c][//d]");
  EXPECT_EQ(out.size(), 2u);
}

TEST(PlannerTest, ForcedStrategiesAgree) {
  auto doc = Parse(
      "<r><a><b/><x><b/><c/></x></a><a><c/></a><a><b/><c/></a></r>");
  PlanOptions pl;
  pl.strategy = JoinStrategy::kPipelined;
  PlanOptions nl;
  nl.strategy = JoinStrategy::kBoundedNestedLoop;
  for (const char* q : {"//a//b", "//a[//b]//c", "//a//b[//c]"}) {
    EXPECT_EQ(Eval(*doc, q, pl), Eval(*doc, q, nl)) << q;
  }
}

TEST(PlannerTest, BnljHandlesRecursiveChains) {
  auto doc = Parse("<a><a><b><b/></b></a><b/></a>");
  auto out = Eval(*doc, "//a//b//b");
  // b@3 is the only b nested under another b (which is under an a).
  ASSERT_EQ(out.size(), 1u);
}

// Theorem 2: a pipelined //-join keeps document order only when its outer
// matches cannot nest. Where they can — a wildcard outer (on a
// non-recursive document, too) or a recursing tag — a forced kPipelined
// would drop matches, so it is refused. The bytes under auto and nl are
// written out by hand.
TEST(PlannerTest, ForcedPipelinedRefusesNestingOuters) {
  const char* const kFlat =
      R"(<r><x><a><b i="1"/></a></x><c><b i="2"/></c></r>)";
  const char* const kNested =
      R"(<r><a i="1"><a i="2"><b i="x"/></a><b i="y"/></a>)"
      R"(<a i="3"><c><b i="z"/></c></a></r>)";
  struct Case {
    const char* xml;
    const char* query;
    const char* expected;
  };
  const Case kCases[] = {
      {kFlat, "//*[//b]",
       R"(<r><x><a><b i="1"/></a></x><c><b i="2"/></c></r>)"
       R"(<x><a><b i="1"/></a></x><a><b i="1"/></a><c><b i="2"/></c>)"},
      {kNested, "//a[//b]",
       R"(<a i="1"><a i="2"><b i="x"/></a><b i="y"/></a>)"
       R"(<a i="2"><b i="x"/></a><a i="3"><c><b i="z"/></c></a>)"},
      {kNested, "//a//a//b", R"(<b i="x"/>)"},
      {kNested, "for $a in //a, $b in $a//b return $b",
       R"(<b i="x"/><b i="y"/><b i="x"/><b i="z"/>)"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.query);
    auto doc = Parse(c.xml);
    for (JoinStrategy strategy :
         {JoinStrategy::kAuto, JoinStrategy::kBoundedNestedLoop,
          JoinStrategy::kPipelined}) {
      engine::EngineOptions options;
      options.num_threads = 1;
      options.plan.strategy = strategy;
      engine::BlossomTreeEngine engine(doc.get(), options);
      auto got = engine.EvaluateQuery(c.query);
      if (strategy == JoinStrategy::kPipelined) {
        ASSERT_FALSE(got.ok()) << *got;
        EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument)
            << got.status().ToString();
      } else {
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(*got, c.expected) << JoinStrategyToString(strategy);
      }
    }
  }
}

TEST(PlannerTest, ScanMetricsExposed) {
  auto doc = Parse("<r><a><b/></a></r>");
  pattern::BlossomTree t = Tree("//a//b");
  auto plan = PlanQuery(doc.get(), &t);
  ASSERT_TRUE(plan.ok());
  exec::Drain(plan->trees[0].root.get());
  EXPECT_GT(plan->trees[0].TotalNodesScanned(), 0u);
}

TEST(PlannerTest, ValueConstraintQuery) {
  auto doc = Parse("<r><a><k>x</k></a><a><k>y</k></a></r>");
  auto out = Eval(*doc, "//a[//k = \"y\"]");
  ASSERT_EQ(out.size(), 1u);
}

TEST(PlannerTest, ExistentialLeafIsProbeOnlyUnderAuto) {
  // The `//b` branch is a bare, unbound, mandatory leaf: kAuto tests it on
  // b's tag stream, forced strategies keep the paper's joins (Table 3).
  auto doc = Parse("<r><a><x><b/></x></a><a><c/></a><b/></r>");
  pattern::BlossomTree t = Tree("//a[//b]");
  struct Case {
    JoinStrategy strategy;
    const char* line;
  };
  for (const Case& c :
       {Case{JoinStrategy::kAuto, "DescendantProbe(a // b)\n"},
        Case{JoinStrategy::kPipelined, "PipelinedDescJoin(a // b, f)\n"},
        Case{JoinStrategy::kBoundedNestedLoop,
             "BoundedNestedLoopJoin(a // b, f)\n"}}) {
    PlanOptions o;
    o.strategy = c.strategy;
    auto plan = PlanQuery(doc.get(), &t, o);
    ASSERT_TRUE(plan.ok());
    const std::string explain = plan->Explain();
    EXPECT_NE(explain.find(c.line), std::string::npos) << explain;
    const bool probe = c.strategy == JoinStrategy::kAuto;
    EXPECT_EQ(explain.find(probe ? "Join(" : "DescendantProbe"),
              std::string::npos)
        << explain;
    EXPECT_EQ(Eval(*doc, "//a[//b]", o), std::vector<xml::NodeId>{1});
  }
  // The plan rewrites its own copy: Algorithm 1's decomposition, which the
  // plan cache holds, keeps the connection.
  auto plan = PlanQuery(doc.get(), &t);
  ASSERT_TRUE(plan.ok());
  pattern::Decomposition d = pattern::Decompose(t);
  EXPECT_EQ(d.connections.size(), 2u);  // ~ // a, a // b.
  for (const pattern::NokTree& nok : d.noks) EXPECT_TRUE(nok.probes.empty());
  EXPECT_EQ(plan->decomposition.connections.size(), 1u);  // ~ // a.
  auto cached = PlanQuery(doc.get(), &t, {}, &d);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->Explain(), plan->Explain());
  EXPECT_EQ(d.connections.size(), 2u);
}

TEST(PlannerTest, IneligibleDescendantBranchesStayJoins) {
  auto doc = Parse(
      "<r><a><b><c/></b><b k=\"1\">v</b></a><a><d><b/></d></a></r>");
  const char* const kJoined[] = {
      "//a//b",       // The leaf is the result.
      "//a[//*]",     // Not a concrete element name.
      "//a[//b[2]]",  // A position.
      "//a[//b/c]",   // Not a leaf.
  };
  for (const char* q : kJoined) {
    pattern::BlossomTree t = Tree(q);
    auto plan = PlanQuery(doc.get(), &t);
    ASSERT_TRUE(plan.ok()) << q;
    EXPECT_EQ(plan->Explain().find("DescendantProbe"), std::string::npos)
        << q << "\n" << plan->Explain();
  }
  // A value constraint is allowed, and so are two probes on one vertex and
  // a probe under a non-root vertex of the NoK.
  for (const char* q :
       {"//a[//b = \"v\"]", "//a[//b][//c]", "//r[a[//c]]"}) {
    pattern::BlossomTree t = Tree(q);
    auto plan = PlanQuery(doc.get(), &t);
    ASSERT_TRUE(plan.ok()) << q;
    EXPECT_NE(plan->Explain().find("DescendantProbe"), std::string::npos)
        << q << "\n" << plan->Explain();
    EXPECT_EQ(plan->Explain().find("Join("), std::string::npos)
        << q << "\n" << plan->Explain();
    PlanOptions nl;
    nl.strategy = JoinStrategy::kBoundedNestedLoop;
    EXPECT_EQ(Eval(*doc, q), Eval(*doc, q, nl)) << q;
  }
}

TEST(PlannerTest, JoinFreePlansReportNoStrategy) {
  auto doc = Parse("<r><a><x><b/></x></a><a><c>v</c></a><b/></r>");
  auto idx = index::StructuralIndex::Build(*doc);
  PlanOptions seek;
  seek.index = idx.get();
  struct Case {
    const char* query;
    PlanOptions options;
    const char* op;  ///< The operator the plan must contain.
  };
  const Case kCases[] = {
      {"//a", {}, "NokScan(a)"},
      {"//a", seek, "NokScan(a)"},
      {"//c[. = \"v\"]", seek, "IndexSeek(c) [value-eq, 1 candidates]"},
      {"//a[//b]", {}, "DescendantProbe(a // b)"},
      {"//a[//b]", seek, "DescendantProbe(a // b)"},
  };
  for (const Case& c : kCases) {
    pattern::BlossomTree t = Tree(c.query);
    auto plan = PlanQuery(doc.get(), &t, c.options);
    ASSERT_TRUE(plan.ok()) << c.query;
    const std::string explain = plan->Explain();
    EXPECT_NE(explain.find(c.op), std::string::npos) << explain;
    EXPECT_EQ(explain.find("Join("), std::string::npos) << explain;
    EXPECT_FALSE(plan->chosen.has_value()) << explain;
    EXPECT_EQ(explain.rfind("strategy: none\n", 0), 0u) << explain;
    plan->FinishAll();
    EXPECT_EQ(engine::BuildQueryProfile(&*plan, c.query, 1).strategy, "none");
  }
  // The same probe forced into a join names the join's strategy.
  pattern::BlossomTree t = Tree("//a[//b]");
  PlanOptions pl;
  pl.strategy = JoinStrategy::kPipelined;
  auto plan = PlanQuery(doc.get(), &t, pl);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->chosen, JoinStrategy::kPipelined);
  EXPECT_EQ(plan->Explain().rfind("strategy: pipelined\n", 0), 0u);
}

TEST(PlannerTest, UnfinalizedTreeRejected) {
  auto doc = Parse("<r/>");
  pattern::BlossomTree t;
  t.AddRoot("~");
  auto plan = PlanQuery(doc.get(), &t);
  EXPECT_FALSE(plan.ok());
}

}  // namespace
}  // namespace opt
}  // namespace blossomtree
