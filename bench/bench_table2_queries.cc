// Reproduces Table 2 / Appendix A of the paper: the six query categories
// (selectivity {high, moderate, low} × topology {chain, branching}) per
// data set, reporting each query's measured result size and selectivity so
// the tiers can be checked against the paper's design (§5.1: high ≈ small
// result, low ≈ large result). Every query's BlossomTree plan is drained
// and its node list checked against the navigational answer; the exit
// status is non-zero on any mismatch or evaluation error, so the counters
// the perf gate diffs are always those of a correct plan.

#include <cstdio>

#include "baseline/navigational.h"
#include "bench_profile.h"
#include "bench_util.h"
#include "datagen/datagen.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "workload/queries.h"
#include "xpath/parser.h"

using blossomtree::baseline::NavigationalEvaluator;
using blossomtree::bench::BenchFlags;
using blossomtree::bench::ParseFlags;
using blossomtree::datagen::AllDatasets;
using blossomtree::datagen::Dataset;
using blossomtree::datagen::DatasetName;
using blossomtree::datagen::GenerateDataset;
using blossomtree::datagen::GenOptions;
using blossomtree::workload::QueriesFor;
using blossomtree::workload::QuerySpec;

int main(int argc, char** argv) {
  BenchFlags flags = ParseFlags(argc, argv, /*default_scale=*/0.2);
  blossomtree::bench::ProfileSink sink("table2_queries");
  bool ok = true;
  std::printf("Table 2 / Appendix A: query categories (scale=%.2f)\n\n",
              flags.scale);
  for (Dataset d : AllDatasets()) {
    GenOptions o;
    o.scale = flags.scale;
    o.seed = flags.seed;
    auto doc = GenerateDataset(d, o);
    sink.AddDatasetLabel(DatasetName(d));
    std::printf("%s (%zu element nodes)\n", DatasetName(d),
                doc->NumElements());
    std::printf("  %-3s %-4s %-60s %9s %8s\n", "id", "cat", "query",
                "results", "sel.%");
    for (const QuerySpec& q : QueriesFor(d)) {
      auto path = blossomtree::xpath::ParsePath(q.xpath);
      if (!path.ok()) {
        std::printf("FAIL: %-3s parse error: %s\n", q.id.c_str(),
                    path.status().ToString().c_str());
        ok = false;
        continue;
      }
      NavigationalEvaluator nav(doc.get());
      blossomtree::bench::LatencyHistogram latency;
      blossomtree::Result<std::vector<blossomtree::xml::NodeId>> r =
          std::vector<blossomtree::xml::NodeId>{};
      for (int run = 0; run < flags.runs; ++run) {
        latency.RecordSeconds(blossomtree::bench::TimeSeconds(
            [&] { r = nav.EvaluatePath(*path); }));
      }
      if (!r.ok()) {
        std::printf("FAIL: %-3s eval error: %s\n", q.id.c_str(),
                    r.status().ToString().c_str());
        ok = false;
        continue;
      }
      std::printf("  %-3s %-4s %-60s %9zu %8.2f\n", q.id.c_str(),
                  q.category.c_str(), q.xpath.c_str(), r->size(),
                  100.0 * r->size() / doc->NumElements());
      auto tree = blossomtree::pattern::BuildFromPath(*path);
      if (!tree.ok()) {
        std::printf("FAIL: %-3s build error: %s\n", q.id.c_str(),
                    tree.status().ToString().c_str());
        ok = false;
        continue;
      }
      auto got = blossomtree::opt::EvaluatePathQuery(doc.get(), &*tree);
      if (!got.ok()) {
        std::printf("FAIL: %-3s BlossomTree error: %s\n", q.id.c_str(),
                    got.status().ToString().c_str());
        ok = false;
      } else if (*got != *r) {
        std::printf("FAIL: %-3s BlossomTree %zu nodes, navigator %zu\n",
                    q.id.c_str(), got->size(), r->size());
        ok = false;
      }
      sink.Add(blossomtree::bench::WithContext(
          "\"dataset\": \"" + std::string(DatasetName(d)) +
              "\", \"id\": \"" + q.id + "\", " + latency.JsonField(),
          blossomtree::bench::PlanProfileJson(doc.get(), &*tree, q.xpath)));
    }
    std::printf("\n");
  }
  sink.WriteAndReport();
  if (!ok) {
    std::printf("FAIL: BlossomTree and navigational answers differ\n");
    return 1;
  }
  std::printf("OK: every BlossomTree answer equals the navigator's\n");
  return 0;
}
