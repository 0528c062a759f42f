// Where conjuncts pushed into the BlossomTree: `$v/p op "lit"` and
// `exists($v/p)` become vertex constraints, and the engine evaluates only
// the residual conjuncts on each tuple. Every answer must stay the
// navigational oracle's.

#include <gtest/gtest.h>

#include <string>

#include "baseline/navigational.h"
#include "datagen/datagen.h"
#include "engine/engine.h"
#include "engine/plan_cache.h"
#include "exec/result_cache.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace engine {
namespace {

std::unique_ptr<xml::Document> ParseDoc(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

std::string Oracle(const xml::Document& doc, const std::string& query) {
  baseline::NavigationalEvaluator nav(&doc);
  auto r = nav.EvaluateQuery(query);
  EXPECT_TRUE(r.ok()) << query << ": " << r.status().ToString();
  return r.ok() ? *r : "";
}

/// The string value of the first match of `path` (a literal that occurs).
std::string FirstValue(const xml::Document& doc, const char* path) {
  auto p = xpath::ParsePath(path);
  EXPECT_TRUE(p.ok());
  PathEvaluator ev(&doc);
  auto nodes = ev.Evaluate(*p);
  EXPECT_TRUE(nodes.ok() && !nodes->empty()) << path;
  return nodes.ok() && !nodes->empty() ? doc.StringValue((*nodes)[0]) : "";
}

std::string Fill(std::string text, const std::string& literal) {
  size_t at = text.find("{}");
  if (at != std::string::npos) text.replace(at, 2, literal);
  return text;
}

TEST(WherePushdownTest, ExplainNamesTheResidual) {
  auto doc = ParseDoc("<r><a><b>1</b></a><a><b>2</b><c/></a></r>");
  EngineOptions options;
  options.num_threads = 1;
  BlossomTreeEngine engine(doc.get(), options);
  struct Case {
    const char* query;
    const char* residual;
  };
  const Case cases[] = {
      {"for $a in //a where $a/b = \"1\" return $a", "none"},
      {"for $a in //a where exists($a/c) and \"2\" = $a/b return $a", "none"},
      {"for $a in //a return $a", "none"},
      {"for $a in //a, $b in //b where $a/b != \"3\" and $a << $b return $b",
       "$a << $b"},
      {"for $a in //a where not($a/b = \"1\") or count($a/c) = 1 return $a",
       "(not($a/b = \"1\") or count($a/c) = \"1\")"},
  };
  for (const Case& c : cases) {
    auto r = engine.EvaluateQuery(c.query);
    ASSERT_TRUE(r.ok()) << c.query << ": " << r.status().ToString();
    EXPECT_EQ(*r, Oracle(*doc, c.query)) << c.query;
    EXPECT_NE(engine.LastExplain().find(std::string("residual where: ") +
                                        c.residual + "\n"),
              std::string::npos)
        << c.query << "\n"
        << engine.LastExplain();
  }
  // Path plans have no where-clause to report.
  ASSERT_TRUE(engine.EvaluateQuery("//a[b = \"1\"]").ok());
  EXPECT_EQ(engine.LastExplain().find("residual where"), std::string::npos);
}

// Texts that differ only in layout share one compiled plan; the residual is
// named by conjunct position, so each text evaluates its own AST's
// conjuncts.
TEST(WherePushdownTest, SharedPlanEntryKeepsResidualByPosition) {
  auto doc = ParseDoc(
      "<r><a><b>1</b><d>x</d></a><a><b>01</b><c/></a><a><b>2</b></a>"
      "<a><b>1.0</b><d>y</d></a></r>");
  PlanCache plans(util::CacheOptions{});
  EngineOptions options;
  options.num_threads = 1;
  options.plan_cache = &plans;
  const std::string texts[] = {
      "for $a in //a where $a/b = \"1\" and (exists($a/c) or $a/d = \"y\") "
      "and exists($a/b) return $a",
      "for $a in  //a\n where $a/b = \"1\"  and (exists($a/c) or $a/d = "
      "\"y\")\n and exists($a/b)\n return $a",
  };
  for (const std::string& text : texts) {
    BlossomTreeEngine engine(doc.get(), options);
    auto r = engine.EvaluateQuery(text);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, Oracle(*doc, text));
    EXPECT_EQ(*r, "<a><b>01</b><c/></a><a><b>1.0</b><d>y</d></a>");
    EXPECT_NE(engine.LastExplain().find(
                  "residual where: (exists($a/c) or $a/d = \"y\")\n"),
              std::string::npos)
        << engine.LastExplain();
  }
  // The second text hit the first one's compiled entry.
  EXPECT_EQ(plans.Stats().insertions, 3u);  // Two parsed texts, one plan.
}

// The two FLWOR templates of the hot_repeat workload, in where form and
// predicate form: byte-identical answers, the oracle's, and one set of
// result-cache entries (the second form scans nothing).
TEST(WherePushdownTest, WhereAndPredicateFormsShareResultCacheEntries) {
  struct Template {
    datagen::Dataset dataset;
    const char* literal_path;
    const char* where_form;
    const char* predicate_form;
  };
  const Template templates[] = {
      {datagen::Dataset::kD5Dblp, "//proceedings/publisher",
       "for $p in //proceedings where $p/publisher = \"{}\" return "
       "<proc>{$p/title}{$p/year}</proc>",
       "for $p in //proceedings[publisher = \"{}\"] return "
       "<proc>{$p/title}{$p/year}</proc>"},
      {datagen::Dataset::kD3Catalog, "//item/publication/date_of_release",
       "for $i in //item where $i/publication/date_of_release = \"{}\" "
       "return <rel>{$i/title}</rel>",
       "for $i in //item[publication/date_of_release = \"{}\"] return "
       "<rel>{$i/title}</rel>"},
  };
  for (const Template& t : templates) {
    datagen::GenOptions g;
    g.scale = 0.05;
    auto doc = datagen::GenerateDataset(t.dataset, g);
    const std::string literal = FirstValue(*doc, t.literal_path);
    const std::string where_form = Fill(t.where_form, literal);
    const std::string predicate_form = Fill(t.predicate_form, literal);
    const std::string want = Oracle(*doc, where_form);
    EXPECT_FALSE(want.empty()) << where_form;
    EXPECT_EQ(want, Oracle(*doc, predicate_form));
    for (unsigned threads : {1u, 4u}) {
      exec::NokResultCache results(util::CacheOptions{});
      EngineOptions options;
      options.num_threads = threads;
      options.collect_profile = true;
      options.plan.result_cache = &results;
      BlossomTreeEngine engine(doc.get(), options);
      auto first = engine.EvaluateQuery(predicate_form);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      EXPECT_EQ(*first, want) << "threads=" << threads;
      auto second = engine.EvaluateQuery(where_form);
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      EXPECT_EQ(*second, want) << "threads=" << threads;
      exec::ExecStats totals = engine.LastProfile().Totals();
      EXPECT_GT(totals.result_cache.hits, 0u) << where_form;
      EXPECT_EQ(totals.result_cache.misses, 0u) << where_form;
      EXPECT_EQ(totals.nodes_scanned, 0u) << where_form;
    }
  }
}

// A pushed conjunct is filtered by the scan, so the join forms (and the row
// budget charges) only the tuples that satisfy it.
TEST(WherePushdownTest, RowBudgetChargesOnlyQualifyingTuples) {
  auto doc = ParseDoc(
      "<r><a><b>1</b></a><a><b>2</b></a><a><b>1</b></a><a><b>3</b></a></r>");
  const std::string query = "for $a in //a where $a/b = \"1\" return $a";
  EngineOptions options;
  options.num_threads = 1;
  BlossomTreeEngine engine(doc.get(), options);
  auto r = engine.EvaluateQuery(query);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, Oracle(*doc, query));
  EXPECT_EQ(engine.guard().RowsCharged(), 2u);
  // The residual form still forms every tuple before filtering it.
  auto residual = engine.EvaluateQuery(
      "for $a in //a where not(not($a/b = \"1\")) return $a");
  ASSERT_TRUE(residual.ok()) << residual.status().ToString();
  EXPECT_EQ(*residual, *r);
  EXPECT_EQ(engine.guard().RowsCharged(), 4u);
}

}  // namespace
}  // namespace engine
}  // namespace blossomtree
