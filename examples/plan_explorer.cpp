// Shows the rule-based optimizer at work (paper §5: "an optimizer is
// responsible for choosing an appropriate physical operator based on its
// knowledge of the system environment"):
//  - the same query gets a pipelined plan on a non-recursive document and
//    a bounded-nested-loop plan on a recursive one.
//
// Options:
//   --trace=<path>  record the whole exploration under the process tracer
//                   and export Chrome trace_event JSON (chrome://tracing)
//   --metrics       print metric counters + latency histograms at the end

#include <cstdio>
#include <cstring>
#include <string>

#include "datagen/datagen.h"
#include "engine/query_profile.h"
#include "exec/operator.h"
#include "opt/cost_model.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "pattern/decompose.h"
#include "storage/partition.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "workload/queries.h"
#include "xml/parser.h"
#include "xpath/parser.h"

using namespace blossomtree;

namespace {

/// Profiles a drained plan (BuildQueryProfile finishes it), folds the
/// per-operator counters and wall times into `m` (no-op when metrics
/// collection is off), and returns the EXPLAIN ANALYZE text.
std::string ExplainAnalyze(util::MetricsRegistry* m, opt::QueryPlan* plan,
                           const std::string& query) {
  engine::QueryProfile profile = engine::BuildQueryProfile(plan, query, 1);
  if (m != nullptr) {
    for (const engine::OperatorProfile& op : profile.operators) {
      const exec::ExecStats& s = op.stats;
      m->GetCounter("exec.rows")->Add(s.matches);
      m->GetCounter("exec.nodes_scanned")->Add(s.nodes_scanned);
      m->GetCounter("exec.comparisons")->Add(s.comparisons);
      m->GetCounter("exec.nl_cells")->Add(s.nl_cells);
      m->GetHistogram("exec.operator_wall_ns")->Record(s.wall_nanos);
    }
  }
  return profile.ExplainAnalyze();
}

void Explore(const char* label, const char* xml, const char* query,
             util::MetricsRegistry* m) {
  auto parsed = xml::ParseDocument(xml);
  if (!parsed.ok()) return;
  auto doc = parsed.MoveValue();
  auto path = xpath::ParsePath(query);
  if (!path.ok()) return;
  auto tree = pattern::BuildFromPath(*path);
  if (!tree.ok()) return;

  std::printf("=== %s ===\n", label);
  std::printf("document: %zu nodes, max same-tag nesting %u (%s)\n",
              doc->NumNodes(), doc->MaxRecursionDegree(),
              doc->IsRecursive() ? "recursive" : "non-recursive");
  std::printf("query: %s\n", query);
  std::printf("BlossomTree:\n%s", tree->ToString().c_str());
  std::printf("decomposition:\n%s",
              pattern::Decompose(*tree).ToString(*tree).c_str());

  auto plan = opt::PlanQuery(doc.get(), &*tree);
  if (!plan.ok()) return;
  std::printf("auto plan:\n%s", plan->Explain().c_str());

  // Chosen parallelism: the engine defaults to one worker per hardware
  // thread; the document splits at top-level subtree boundaries.
  size_t threads = util::ThreadPool::DefaultThreads();
  auto parts = storage::PartitionSubtrees(*doc, threads);
  std::printf("parallelism: %zu thread(s), %zu partition(s)",
              threads, parts.size());
  for (const storage::NodeRange& r : parts) {
    std::printf(" [%u,%u]", r.begin, r.end);
  }
  std::printf("\n");
  if (threads > 1) {
    util::ThreadPool pool(threads);
    opt::PlanOptions po;
    po.pool = &pool;
    auto pplan = opt::PlanQuery(doc.get(), &*tree, po);
    if (pplan.ok()) {
      std::printf("parallel plan:\n%s", pplan->Explain().c_str());
    }
  }

  auto result = opt::EvaluatePathQuery(doc.get(), &*tree);
  if (result.ok()) {
    std::printf("results: %zu node(s)\n", result->size());
  }

  // EXPLAIN ANALYZE: execute once more with cardinality estimates on and
  // show estimated vs actual rows per operator (DESIGN.md §8).
  opt::PlanOptions eo;
  eo.estimate_cardinalities = true;
  auto aplan = opt::PlanQuery(doc.get(), &*tree, eo);
  if (aplan.ok()) {
    for (auto& tp : aplan->trees) exec::Drain(tp.root.get());
    std::printf("EXPLAIN ANALYZE:\n%s",
                ExplainAnalyze(m, &*aplan, query).c_str());
    opt::CalibrationReport cal = opt::CheckCalibration(*aplan);
    if (cal.num_flagged > 0) {
      std::printf("calibration (>10x deviations):\n%s",
                  cal.ToString().c_str());
    }
  }
  std::printf("\n");
}

/// EXPLAIN ANALYZE for the full workload: every query of every generated
/// data set at a small scale, est-vs-actual per operator.
void ExplainWorkload(util::MetricsRegistry* m) {
  std::printf("=== workload EXPLAIN ANALYZE (scale 0.02) ===\n\n");
  for (datagen::Dataset d : datagen::AllDatasets()) {
    datagen::GenOptions o;
    o.scale = 0.02;
    auto doc = datagen::GenerateDataset(d, o);
    for (const workload::QuerySpec& q : workload::QueriesFor(d)) {
      auto path = xpath::ParsePath(q.xpath);
      if (!path.ok()) continue;
      auto tree = pattern::BuildFromPath(*path);
      if (!tree.ok()) continue;
      opt::PlanOptions po;
      po.estimate_cardinalities = true;
      auto plan = opt::PlanQuery(doc.get(), &*tree, po);
      if (!plan.ok()) continue;
      for (auto& tp : plan->trees) exec::Drain(tp.root.get());
      std::printf("%s %s: %s\n%s\n", datagen::DatasetName(d),
                  q.id.c_str(), q.xpath.c_str(),
                  ExplainAnalyze(m, &*plan, q.xpath).c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  bool metrics = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace_path = arg + 8;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      metrics = true;
    } else {
      std::fprintf(stderr,
                   "usage: plan_explorer [--trace=path] [--metrics]\n");
      return 2;
    }
  }
  if (!trace_path.empty()) util::Tracer::Get().Enable();
  util::MetricsRegistry registry;
  util::MetricsRegistry* m = metrics ? &registry : nullptr;

  const char* query = "//section[//figure]//paragraph";

  Explore("non-recursive document",
          "<doc>"
          "<section><figure/><paragraph/><paragraph/></section>"
          "<section><paragraph/></section>"
          "</doc>",
          query, m);

  Explore("recursive document (nested sections)",
          "<doc>"
          "<section><figure/><paragraph/>"
          "<section><paragraph/><section><figure/><paragraph/></section>"
          "</section></section>"
          "</doc>",
          query, m);

  ExplainWorkload(m);

  if (metrics) {
    std::printf("=== metrics ===\n%s%s\n", registry.CountersText().c_str(),
                registry.ToJson().c_str());
  }
  if (!trace_path.empty()) {
    Status st = util::Tracer::Get().ExportJsonFile(trace_path);
    if (st.ok()) {
      std::fprintf(stderr, "trace written to %s (%zu events)\n",
                   trace_path.c_str(), util::Tracer::Get().EventCount());
    } else {
      std::fprintf(stderr, "trace export failed: %s\n",
                   st.ToString().c_str());
    }
  }
  return 0;
}
