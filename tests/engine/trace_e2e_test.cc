// End-to-end tracing and metrics: a FLWOR query executed with intra-query
// parallelism exports a Chrome trace that actually parses and covers the
// whole lifecycle (parse, plan, every plan operator, pool tasks), and the
// deterministic metric/profile text surfaces are bitwise-identical across
// thread counts (DESIGN.md §10).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "util/json.h"
#include "util/trace.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace engine {
namespace {

std::unique_ptr<xml::Document> Parse(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

/// Enough top-level subtrees that a 4-thread engine actually partitions.
std::string BigBibXml() {
  std::string xml = "<bib>";
  for (int i = 0; i < 40; ++i) {
    xml += "<book><title>t" + std::to_string(i) + "</title>";
    if (i % 2 == 0) {
      xml += "<author><last>l" + std::to_string(i % 7) + "</last></author>";
    }
    xml += "</book>";
  }
  xml += "</bib>";
  return xml;
}

constexpr const char* kFlworQuery =
    "for $b in //book[//author] return <o>{ $b/title }</o>";

/// The tracer is process-wide: make each test hermetic.
class TraceE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Tracer::Get().Disable();
    util::Tracer::Get().Clear();
  }
  void TearDown() override {
    util::Tracer::Get().Disable();
    util::Tracer::Get().Clear();
  }
};

TEST_F(TraceE2eTest, FlworTraceCoversWholeLifecycleAtFourThreads) {
  auto doc = Parse(BigBibXml());
  EngineOptions opts;
  opts.trace = true;
  opts.num_threads = 4;
  opts.collect_profile = true;
  BlossomTreeEngine engine(doc.get(), opts);
  ASSERT_EQ(engine.EffectiveThreads(), 4u);
  auto r = engine.EvaluateQuery(kFlworQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // The query has returned, so all pool futures are joined and the export
  // cannot race recording.
  std::string json = util::Tracer::Get().ExportJson();
  auto parsed = util::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const util::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::set<std::string> span_names;  // 'B' events only.
  int pool_tasks = 0;
  for (const util::JsonValue& e : events->AsArray()) {
    if (e.StringOr("ph", "") != "B") continue;
    std::string name = e.StringOr("name", "");
    span_names.insert(name);
    if (e.StringOr("cat", "") == "pool" && name == "task") ++pool_tasks;
  }

  EXPECT_TRUE(span_names.count("flwor::ParseQuery")) << json;
  EXPECT_TRUE(span_names.count("opt::PlanQuery")) << json;
  EXPECT_TRUE(span_names.count("query")) << json;
  EXPECT_GE(pool_tasks, 1) << json;

  // Every operator of the executed plan shows up on the timeline. Span
  // names are truncated to the ring slot's inline capacity.
  const QueryProfile& prof = engine.LastProfile();
  ASSERT_FALSE(prof.operators.empty());
  for (const OperatorProfile& op : prof.operators) {
    std::string want = op.label.substr(0, 38);
    bool found = false;
    for (const std::string& name : span_names) {
      if (name == want || name.rfind(op.label + ".", 0) == 0) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "no span for operator: " << op.label;
  }
}

TEST_F(TraceE2eTest, CounterTextAndProfileTextIdenticalAcrossThreadCounts) {
  auto doc = Parse(BigBibXml());
  auto path = xpath::ParsePath("//book[//author]//title");
  ASSERT_TRUE(path.ok());

  std::vector<std::string> counter_texts;
  std::vector<std::string> profile_texts;
  std::vector<std::string> explain_analyze_texts;
  for (unsigned threads : {1u, 2u, 4u}) {
    EngineOptions opts;
    opts.num_threads = threads;
    opts.collect_profile = true;
    opts.collect_metrics = true;
    BlossomTreeEngine engine(doc.get(), opts);
    ASSERT_TRUE(engine.EvaluatePath(*path).ok());
    ASSERT_TRUE(engine.EvaluateQuery(kFlworQuery).ok());
    counter_texts.push_back(engine.metrics().CountersText());
    profile_texts.push_back(engine.LastProfile().ToText());
    explain_analyze_texts.push_back(engine.LastExplainAnalyze());
  }
  // Bitwise identity: latencies live only in histograms, never in these
  // surfaces, and the counters themselves are schedule-independent.
  EXPECT_EQ(counter_texts[0], counter_texts[1]);
  EXPECT_EQ(counter_texts[0], counter_texts[2]);
  EXPECT_FALSE(counter_texts[0].empty());
  EXPECT_EQ(profile_texts[0], profile_texts[1]);
  EXPECT_EQ(profile_texts[0], profile_texts[2]);

  // EXPLAIN ANALYZE carries wall times, so no cross-thread equality — but
  // its "(actual: ...)" column must align on every line.
  for (const std::string& text : explain_analyze_texts) {
    size_t column = std::string::npos;
    size_t pos = 0, lines = 0;
    for (size_t nl = text.find('\n'); nl != std::string::npos;
         pos = nl + 1, nl = text.find('\n', pos)) {
      std::string line = text.substr(pos, nl - pos);
      size_t at = line.find("(actual:");
      if (at == std::string::npos) continue;
      if (column == std::string::npos) column = at;
      EXPECT_EQ(at, column) << text;
      ++lines;
    }
    EXPECT_GT(lines, 0u);
  }
}

TEST_F(TraceE2eTest, MetricsJsonAttachesToProfileAndParses) {
  auto doc = Parse(BigBibXml());
  EngineOptions opts;
  opts.collect_profile = true;
  opts.collect_metrics = true;
  BlossomTreeEngine engine(doc.get(), opts);
  ASSERT_TRUE(engine.EvaluateQuery(kFlworQuery).ok());
  std::string json = engine.LastProfile().ToJson();
  auto parsed = util::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  const util::JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr) << json;
  const util::JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->NumberOr("engine.queries", 0), 1.0);
  const util::JsonValue* hists = metrics->Find("histograms");
  ASSERT_NE(hists, nullptr);
  EXPECT_NE(hists->Find("query.wall_ns"), nullptr);
}

TEST_F(TraceE2eTest, TracingOffRecordsNothingAndResultsMatch) {
  auto doc = Parse(BigBibXml());
  // Traced and untraced runs return byte-identical results.
  EngineOptions traced;
  traced.trace = true;
  std::string with_trace;
  {
    BlossomTreeEngine engine(doc.get(), traced);
    auto r = engine.EvaluateQuery(kFlworQuery);
    ASSERT_TRUE(r.ok());
    with_trace = *r;
  }
  util::Tracer::Get().Disable();
  util::Tracer::Get().Clear();
  {
    BlossomTreeEngine engine(doc.get());
    auto r = engine.EvaluateQuery(kFlworQuery);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, with_trace);
  }
  // The default path never touches the rings.
  EXPECT_EQ(util::Tracer::Get().EventCount(), 0u);
}

TEST_F(TraceE2eTest, ProfileToTextAlignsSevenDigitCounters) {
  // Golden rendering: the counter column starts at one offset even when a
  // deep, long-labelled operator carries 7-digit counters (the layout used
  // to shear once counters outgrew their neighbors).
  QueryProfile profile;
  profile.strategy = "pipelined";
  exec::ExecStats root;
  root.matches = 2;
  exec::ExecStats scan;
  scan.nodes_scanned = 1234567;
  scan.matches = 7;
  profile.AddOperator("Root", 0, root);
  profile.AddOperator("NokScanVeryLongLabel", 1, scan);
  EXPECT_EQ(profile.ToText(),
            "strategy: pipelined\n"
            "Root                    rows=2\n"
            "  NokScanVeryLongLabel  nodes=1234567 rows=7\n");
}

}  // namespace
}  // namespace engine
}  // namespace blossomtree
