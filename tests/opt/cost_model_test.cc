#include "opt/cost_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "datagen/datagen.h"
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
  EXPECT_TRUE(p.ok());
  auto t = pattern::BuildFromPath(*p);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return t.MoveValue();
}

TEST(CostModelTest, TagCounts) {
  auto doc = Parse("<r><a/><a/><b/></r>");
  CostModel model(doc.get());
  EXPECT_DOUBLE_EQ(model.TagCount("a"), 2.0);
  EXPECT_DOUBLE_EQ(model.TagCount("b"), 1.0);
  EXPECT_DOUBLE_EQ(model.TagCount("zzz"), 0.0);
  EXPECT_DOUBLE_EQ(model.TagCount("*"), 4.0);
}

TEST(CostModelTest, AvgSubtreeSize) {
  auto doc = Parse("<r><a><x/><y/></a><a/></r>");
  CostModel model(doc.get());
  // a subtrees: 3 nodes and 1 node → avg 2.
  EXPECT_DOUBLE_EQ(model.AvgSubtreeSize("a"), 2.0);
  EXPECT_DOUBLE_EQ(model.AvgSubtreeSize("x"), 1.0);
}

TEST(CostModelTest, RareTagEstimatesLower) {
  datagen::GenOptions o;
  o.scale = 0.05;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD5Dblp, o);
  CostModel model(doc.get());
  pattern::BlossomTree rare = Tree("//phdthesis");
  pattern::BlossomTree common = Tree("//author");
  EXPECT_LT(model.EstimateResult(rare), model.EstimateResult(common));
}

TEST(CostModelTest, PredicateReducesEstimate) {
  datagen::GenOptions o;
  o.scale = 0.05;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD5Dblp, o);
  CostModel model(doc.get());
  pattern::BlossomTree plain = Tree("//www");
  pattern::BlossomTree filtered = Tree("//www[//editor]");
  EXPECT_LE(model.EstimateResult(filtered), model.EstimateResult(plain));
}

TEST(CostModelTest, AbsentTagEstimatesZero) {
  auto doc = Parse("<r><a/></r>");
  CostModel model(doc.get());
  pattern::BlossomTree t = Tree("//nothing//here");
  EXPECT_DOUBLE_EQ(model.EstimateResult(t), 0.0);
}

TEST(CostModelTest, AdviceGatesPipelinedOnRecursion) {
  // a nests → pipelined unsafe; advice must not pick it.
  auto doc = Parse("<r><a><a><b/></a></a></r>");
  pattern::BlossomTree t = Tree("//a//b");
  PlanAdvice advice = AdvisePlan(*doc, t);
  EXPECT_FALSE(advice.pipelined_safe);
  EXPECT_NE(advice.engine, PlanAdvice::Engine::kPipelined);
  EXPECT_NE(advice.rationale.find("unsafe"), std::string::npos);
}

TEST(CostModelTest, AdvicePrefersTwigStackForSelectiveQueries) {
  // Large document, tiny tag streams: TwigStack's indexed streams beat a
  // full sequential scan (the paper's §5.2 observation).
  datagen::GenOptions o;
  o.scale = 0.2;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD5Dblp, o);
  pattern::BlossomTree t = Tree("//phdthesis//school");
  PlanAdvice advice = AdvisePlan(*doc, t);
  EXPECT_EQ(advice.engine, PlanAdvice::Engine::kTwigStack)
      << advice.rationale;
}

TEST(CostModelTest, AdviceFieldsPopulated) {
  auto doc = Parse("<r><a><b/></a></r>");
  pattern::BlossomTree t = Tree("//a//b");
  PlanAdvice advice = AdvisePlan(*doc, t);
  EXPECT_GT(advice.pipelined.Total(), 0.0);
  EXPECT_GT(advice.bnlj.Total(), 0.0);
  EXPECT_GT(advice.twigstack.Total(), 0.0);
  EXPECT_FALSE(advice.rationale.empty());
  EXPECT_TRUE(advice.pipelined_safe);
}

TEST(CostModelTest, CalibrationNoEstimatesYieldsEmptyReport) {
  auto doc = Parse("<r><a><b/></a><a/></r>");
  pattern::BlossomTree t = Tree("//a/b");
  auto plan = PlanQuery(doc.get(), &t);  // estimate_cardinalities off
  ASSERT_TRUE(plan.ok());
  plan->FinishAll();
  CalibrationReport report = CheckCalibration(*plan);
  EXPECT_TRUE(report.entries.empty());
  EXPECT_EQ(report.num_flagged, 0u);
}

TEST(CostModelTest, CalibrationExactForBareTagScan) {
  // //b estimate = TagCount(b), actual = 3 → ratio 1, nothing flagged.
  auto doc = Parse("<r><b/><a><b/></a><b/><c/></r>");
  pattern::BlossomTree t = Tree("//b");
  PlanOptions opts;
  opts.estimate_cardinalities = true;
  auto plan = PlanQuery(doc.get(), &t, opts);
  ASSERT_TRUE(plan.ok());
  plan->FinishAll();
  CalibrationReport report = CheckCalibration(*plan);
  ASSERT_FALSE(report.entries.empty());
  EXPECT_EQ(report.num_flagged, 0u) << report.ToString();
  for (const CalibrationEntry& e : report.entries) {
    EXPECT_DOUBLE_EQ(e.ratio, 1.0) << e.label;
    EXPECT_FALSE(e.flagged);
  }
}

TEST(CostModelTest, CalibrationFlagsLargeDeviations) {
  // Every <b> carries the value, so the kValueSelectivity=0.1 estimate is
  // ~10x under the actual count. A tight tolerance must flag it.
  std::string xml = "<r>";
  for (int i = 0; i < 40; ++i) xml += "<b>x</b>";
  xml += "</r>";
  auto doc = Parse(xml);
  pattern::BlossomTree t = Tree("//b[.=\"x\"]");
  PlanOptions opts;
  opts.estimate_cardinalities = true;
  auto plan = PlanQuery(doc.get(), &t, opts);
  ASSERT_TRUE(plan.ok());
  plan->FinishAll();
  CalibrationReport tight = CheckCalibration(*plan, 2.0);
  EXPECT_GT(tight.num_flagged, 0u) << tight.ToString();
  EXPECT_NE(tight.ToString().find("FLAGGED"), std::string::npos);
  // Ratio semantics: symmetric, smoothed by +1 on both sides.
  const CalibrationEntry* scan = nullptr;
  for (const CalibrationEntry& e : tight.entries) {
    if (e.flagged) scan = &e;
  }
  ASSERT_NE(scan, nullptr);
  double act = static_cast<double>(scan->actual_rows);
  double expect = (std::max(scan->estimated_rows, act) + 1) /
                  (std::min(scan->estimated_rows, act) + 1);
  EXPECT_DOUBLE_EQ(scan->ratio, expect);
}

TEST(CostModelTest, EngineNames) {
  EXPECT_STREQ(EngineToString(PlanAdvice::Engine::kPipelined), "pipelined");
  EXPECT_STREQ(EngineToString(PlanAdvice::Engine::kBnlj),
               "bounded-nested-loop");
  EXPECT_STREQ(EngineToString(PlanAdvice::Engine::kTwigStack), "twigstack");
}

}  // namespace
}  // namespace opt
}  // namespace blossomtree
