#include <gtest/gtest.h>

#include "baseline/navigational.h"
#include "datagen/datagen.h"
#include "exec/twig_semijoin.h"
#include "exec/twigstack.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "workload/queries.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace {

/// Cross-engine consistency: the central correctness property of the
/// reproduction. For every dataset × Appendix-A query, every evaluation
/// strategy must return exactly the same node set:
///   - navigational baseline (XH stand-in),
///   - BlossomTree plan with pipelined joins (non-recursive data only),
///   - BlossomTree plan with bounded nested-loop joins,
///   - TwigStack.
struct Case {
  datagen::Dataset dataset;
  workload::QuerySpec query;
};

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (datagen::Dataset d : datagen::AllDatasets()) {
    for (const workload::QuerySpec& q : workload::QueriesFor(d)) {
      cases.push_back({d, q});
    }
  }
  return cases;
}

class ConsistencyTest : public ::testing::TestWithParam<Case> {
 protected:
  static std::unique_ptr<xml::Document> MakeDoc(datagen::Dataset d) {
    datagen::GenOptions o;
    o.scale = 0.02;
    o.seed = 7;
    return datagen::GenerateDataset(d, o);
  }
};

TEST_P(ConsistencyTest, AllStrategiesAgree) {
  const Case& c = GetParam();
  auto doc = MakeDoc(c.dataset);
  auto path = xpath::ParsePath(c.query.xpath);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  auto tree = pattern::BuildFromPath(*path);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  // Reference: navigational.
  baseline::NavigationalEvaluator nav(doc.get());
  auto expected = nav.EvaluatePath(*path);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // BNLJ plan: always applicable.
  {
    opt::PlanOptions o;
    o.strategy = opt::JoinStrategy::kBoundedNestedLoop;
    auto got = opt::EvaluatePathQuery(doc.get(), &*tree, o);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *expected) << "BNLJ mismatch on " << c.query.xpath;
  }
  // Pipelined plan: only on non-recursive documents (Theorem 2).
  if (!doc->IsRecursive()) {
    opt::PlanOptions o;
    o.strategy = opt::JoinStrategy::kPipelined;
    auto got = opt::EvaluatePathQuery(doc.get(), &*tree, o);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *expected) << "PL mismatch on " << c.query.xpath;
  }
  // Auto plan.
  {
    auto got = opt::EvaluatePathQuery(doc.get(), &*tree);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *expected) << "auto mismatch on " << c.query.xpath;
  }
  // TwigStack (skip queries outside its class).
  {
    exec::TwigStack ts(doc.get(), &*tree);
    std::vector<xml::NodeId> got;
    Status st = ts.Run(tree->VertexOfVariable("result"), &got);
    if (st.ok()) {
      EXPECT_EQ(got, *expected) << "TwigStack mismatch on " << c.query.xpath;
    } else {
      EXPECT_EQ(st.code(), StatusCode::kUnsupported) << st.ToString();
    }
  }
  // Join-based semijoin evaluation.
  {
    exec::TwigSemijoin sj(doc.get(), &*tree);
    std::vector<xml::NodeId> got;
    Status st = sj.Run(tree->VertexOfVariable("result"), &got);
    if (st.ok()) {
      EXPECT_EQ(got, *expected) << "semijoin mismatch on " << c.query.xpath;
    } else {
      EXPECT_EQ(st.code(), StatusCode::kUnsupported) << st.ToString();
    }
  }
}

TEST_P(ConsistencyTest, QueriesHaveResultsAtBenchScale) {
  // Guard against degenerate workloads: at a moderate scale each query
  // should return something on its dataset (selectivity tiers are relative,
  // but zero-result benches would be meaningless).
  const Case& c = GetParam();
  datagen::GenOptions o;
  o.scale = 0.05;
  o.seed = 7;
  auto doc = datagen::GenerateDataset(c.dataset, o);
  baseline::NavigationalEvaluator nav(doc.get());
  auto path = xpath::ParsePath(c.query.xpath);
  ASSERT_TRUE(path.ok());
  auto r = nav.EvaluatePath(*path);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->empty()) << c.query.xpath << " on "
                           << datagen::DatasetName(c.dataset);
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasetsAllQueries, ConsistencyTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(datagen::DatasetName(info.param.dataset)) + "_" +
             info.param.query.id;
    });

}  // namespace
}  // namespace blossomtree
