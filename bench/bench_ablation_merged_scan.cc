// Ablation for §4.2's "merging NoK operators": evaluating k NoK pattern
// trees over the same document in ONE pass instead of k scans. Reports the
// scan I/O proxy (nodes whose root test ran) and wall time for separate vs
// merged evaluation, per branching query.

#include <cstdio>

#include "bench_profile.h"
#include "bench_util.h"
#include "datagen/datagen.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "workload/queries.h"
#include "xpath/parser.h"

using blossomtree::bench::BenchFlags;
using blossomtree::bench::ParseFlags;
using blossomtree::bench::TimeSeconds;
using blossomtree::datagen::Dataset;
using blossomtree::datagen::DatasetName;
using blossomtree::opt::JoinStrategy;
using blossomtree::opt::PlanOptions;

int main(int argc, char** argv) {
  BenchFlags flags = ParseFlags(argc, argv, /*default_scale=*/0.2);
  std::printf(
      "Ablation: merged NoK scans (one pass) vs separate scans (paper "
      "4.2)\n(scale=%.2f; non-recursive data sets, pipelined joins)\n\n",
      flags.scale);
  std::printf("%-4s %-3s %12s | %12s %9s | %12s %9s | %6s\n", "set", "q",
              "#noks", "sep. nodes", "sep. s", "mrg. nodes", "mrg. s",
              "saving");

  blossomtree::bench::ProfileSink sink("ablation_merged_scan");
  for (Dataset d : {Dataset::kD2Address, Dataset::kD3Catalog,
                    Dataset::kD5Dblp}) {
    blossomtree::datagen::GenOptions o;
    o.scale = flags.scale;
    o.seed = flags.seed;
    auto doc = blossomtree::datagen::GenerateDataset(d, o);
    sink.AddDatasetLabel(DatasetName(d));
    for (const auto& q : blossomtree::workload::QueriesFor(d)) {
      auto path = blossomtree::xpath::ParsePath(q.xpath);
      if (!path.ok()) continue;
      auto tree = blossomtree::pattern::BuildFromPath(*path);
      if (!tree.ok()) continue;

      uint64_t separate_nodes = 0;
      size_t num_noks = 0;
      double separate_s = TimeSeconds([&] {
        PlanOptions po;
        po.strategy = JoinStrategy::kPipelined;
        auto plan = blossomtree::opt::PlanQuery(doc.get(), &*tree, po);
        if (!plan.ok()) return;
        num_noks = plan->trees[0].scans.size();
        blossomtree::exec::Drain(plan->trees[0].root.get(),
                                 po.exec.batch_rows);
        separate_nodes = plan->trees[0].TotalNodesScanned();
      });

      uint64_t merged_nodes = 0;
      double merged_s = TimeSeconds([&] {
        PlanOptions po;
        po.strategy = JoinStrategy::kPipelined;
        po.merge_nok_scans = true;
        auto plan = blossomtree::opt::PlanQuery(doc.get(), &*tree, po);
        if (!plan.ok()) return;
        blossomtree::exec::Drain(plan->trees[0].root.get(),
                                 po.exec.batch_rows);
        merged_nodes = plan->merged_scan->NodesScanned();
      });

      double saving = separate_nodes == 0
                          ? 0
                          : 100.0 * (1.0 - static_cast<double>(merged_nodes) /
                                               separate_nodes);
      std::printf("%-4s %-3s %12zu | %12llu %9.4f | %12llu %9.4f | %5.1f%%\n",
                  DatasetName(d), q.id.c_str(), num_noks,
                  static_cast<unsigned long long>(separate_nodes), separate_s,
                  static_cast<unsigned long long>(merged_nodes), merged_s,
                  saving);
      for (bool merged : {false, true}) {
        PlanOptions po;
        po.strategy = JoinStrategy::kPipelined;
        po.merge_nok_scans = merged;
        blossomtree::bench::LatencyHistogram latency;
        latency.RecordSeconds(merged ? merged_s : separate_s);
        sink.Add(blossomtree::bench::WithContext(
            "\"dataset\": \"" + std::string(DatasetName(d)) +
                "\", \"id\": \"" + q.id + "\", \"merged\": " +
                (merged ? "true" : "false") + ", " + latency.JsonField(),
            blossomtree::bench::PlanProfileJson(doc.get(), &*tree, q.xpath,
                                                po)));
      }
    }
  }
  sink.WriteAndReport();
  std::printf(
      "\nExpected: with concrete roots each scan tests only its root tag's\n"
      "stream, so the merged pass saves only the re-walks of a root tag\n"
      "that several NoKs share; with wildcard roots it costs one document\n"
      "pass where separate scans cost k (k = #noks).\n");
  return 0;
}
