// Reproduces Table 3 of the paper: "Running time (in sec) for X-Hive (XH),
// TwigStack (TS), and BlossomTree (BT)" — the paper's main experiment.
//
// Protocol (paper §5.2):
//  - recursive data sets (d1, d4): XH, TS, NL (the pipelined join is not
//    order-preserving on recursive documents, so it is excluded);
//  - non-recursive data sets (d2, d3, d5): XH, TS, PL (the nested loop has
//    the worst performance on non-recursive data and is excluded);
//  - each number is the average over --runs executions (default 3, as in
//    the paper); runs exceeding --dnf-seconds print DNF.
//
// Systems:
//  XH = navigational whole-query baseline (X-Hive stand-in; DESIGN.md §5)
//  TS = TwigStack holistic twig join over tag indexes
//  SJ = binary structural semijoins over tag indexes (the §2.1 join-based
//       class, an extra column beyond the paper's table)
//  PL = BlossomTree plan: NoK scans + pipelined //-joins
//  NL = BlossomTree plan: NoK scans + bounded nested-loop //-joins
//
// Expected shape (paper §5.2): TS fastest on recursive data; on
// non-recursive data PL is comparable to or faster than TS (it needs no
// tag indexes); NL is the slowest and may DNF; XH trails TS/PL throughout.

#include <cstdio>
#include <vector>

#include "baseline/navigational.h"
#include "bench_profile.h"
#include "bench_util.h"
#include "datagen/datagen.h"
#include "exec/twig_semijoin.h"
#include "exec/twigstack.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "workload/queries.h"
#include "xpath/parser.h"

using blossomtree::Status;
using blossomtree::baseline::NavigationalEvaluator;
using blossomtree::bench::BenchFlags;
using blossomtree::bench::ParseFlags;
using blossomtree::bench::TimeCell;
using blossomtree::bench::TimeSeconds;
using blossomtree::datagen::AllDatasets;
using blossomtree::datagen::Dataset;
using blossomtree::datagen::DatasetName;
using blossomtree::datagen::GenerateDataset;
using blossomtree::datagen::GenOptions;
using blossomtree::workload::QueriesFor;
using blossomtree::workload::QuerySpec;

namespace {

struct SystemRow {
  const char* name;
  std::vector<std::string> cells;
};

/// Times fn over flags.runs executions with a DNF cap; completed runs feed
/// `latency` when non-null.
std::string Timed(const BenchFlags& flags, const std::function<Status()>& fn,
                  blossomtree::bench::LatencyHistogram* latency = nullptr) {
  double total = 0;
  for (int i = 0; i < flags.runs; ++i) {
    Status st;
    double t = TimeSeconds([&] { st = fn(); });
    if (!st.ok()) return "n/a";
    if (t > flags.dnf_seconds) return "DNF";
    if (latency != nullptr) latency->RecordSeconds(t);
    total += t;
  }
  return TimeCell(total / flags.runs);
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseFlags(argc, argv, /*default_scale=*/2.0);
  std::printf(
      "Table 3: running time (in sec) per data set x query x system\n"
      "(scale=%.2f, runs=%d, DNF cap=%.1fs)\n\n",
      flags.scale, flags.runs, flags.dnf_seconds);
  std::printf("%-5s %-4s %8s %8s %8s %8s %8s %8s\n", "file", "sys.", "Q1",
              "Q2", "Q3", "Q4", "Q5", "Q6");
  blossomtree::bench::ProfileSink sink("table3_join_algorithms");

  for (Dataset d : AllDatasets()) {
    GenOptions o;
    o.scale = flags.scale;
    o.seed = flags.seed;
    auto doc = GenerateDataset(d, o);
    sink.AddDatasetLabel(DatasetName(d));
    // Warm the tag indexes once (the join-based systems assume they exist
    // on storage, like the paper's setting).
    for (blossomtree::xml::TagId t = 0; t < doc->tags().size(); ++t) {
      doc->TagIndex(t);
    }
    bool recursive = doc->IsRecursive();

    SystemRow xh{"XH", {}};
    SystemRow ts{"TS", {}};
    SystemRow sj{"SJ", {}};
    SystemRow bt{recursive ? "NL" : "PL", {}};

    for (const QuerySpec& q : QueriesFor(d)) {
      auto path = blossomtree::xpath::ParsePath(q.xpath);
      if (!path.ok()) {
        for (SystemRow* row : {&xh, &ts, &sj, &bt}) {
          row->cells.push_back("parse!");
        }
        continue;
      }
      auto tree = blossomtree::pattern::BuildFromPath(*path);
      if (!tree.ok()) {
        for (SystemRow* row : {&xh, &ts, &sj, &bt}) {
          row->cells.push_back("build!");
        }
        continue;
      }

      xh.cells.push_back(Timed(flags, [&]() -> Status {
        NavigationalEvaluator nav(doc.get());
        return nav.EvaluatePath(*path).status();
      }));
      ts.cells.push_back(Timed(flags, [&]() -> Status {
        blossomtree::exec::TwigStack twig(doc.get(), &*tree);
        std::vector<blossomtree::xml::NodeId> out;
        return twig.Run(tree->VertexOfVariable("result"), &out);
      }));
      sj.cells.push_back(Timed(flags, [&]() -> Status {
        blossomtree::exec::TwigSemijoin semi(doc.get(), &*tree);
        std::vector<blossomtree::xml::NodeId> out;
        return semi.Run(tree->VertexOfVariable("result"), &out);
      }));
      blossomtree::opt::PlanOptions po;
      po.strategy = recursive
                        ? blossomtree::opt::JoinStrategy::kBoundedNestedLoop
                        : blossomtree::opt::JoinStrategy::kPipelined;
      blossomtree::bench::LatencyHistogram bt_latency;
      bt.cells.push_back(Timed(
          flags,
          [&]() -> Status {
            return blossomtree::opt::EvaluatePathQuery(doc.get(), &*tree, po)
                .status();
          },
          &bt_latency));
      // Per-operator breakdown of the BT plan (outside the timed loop).
      sink.Add(blossomtree::bench::WithContext(
          "\"dataset\": \"" + std::string(DatasetName(d)) +
              "\", \"id\": \"" + q.id + "\", \"system\": \"" + bt.name +
              "\", " + bt_latency.JsonField(),
          blossomtree::bench::PlanProfileJson(doc.get(), &*tree, q.xpath,
                                              po)));
    }

    for (const SystemRow* row : {&xh, &ts, &sj, &bt}) {
      std::printf("%-5s %-4s", row == &xh ? DatasetName(d) : "",
                  row->name);
      for (const std::string& cell : row->cells) {
        std::printf(" %8s", cell.c_str());
      }
      std::printf("\n");
    }
  }
  sink.WriteAndReport();
  std::printf(
      "\nPaper's qualitative result: TS fastest on recursive data (d1, d4);\n"
      "PL comparable-or-faster than TS on non-recursive data (d2, d3, d5);\n"
      "NL slowest / DNF; XH consistently slower than TS and PL.\n");
  return 0;
}
