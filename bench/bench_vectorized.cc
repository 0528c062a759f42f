// Vectorized-execution benchmark (DESIGN.md §16): times the batch-at-a-time
// executor (chunked scan driver over the root tag's stream) on d5 queries,
// and enforces the batch core's contract before the counter diff in CI:
//
//   1. Byte-identity: every query result is byte-identical across 1/2/4
//      threads and batch sizes {1, 7, 64}.
//   2. Counter identity: the deterministic per-operator counters
//      (QueryProfile::ToText) are bitwise-identical across the same matrix.
//
// Drain time and throughput (scanned nodes/sec) are printed for
// information only. Exit status is non-zero on any contract violation. The
// BENCH_vectorized.json artifact pins the per-operator work counters of
// the default plans, so the perf gate catches a change that silently makes
// batched plans scan or compare more.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_profile.h"
#include "bench_util.h"
#include "datagen/datagen.h"
#include "engine/engine.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "xpath/parser.h"

using blossomtree::bench::BenchFlags;
using blossomtree::bench::ParseFlags;
using blossomtree::bench::ProfileSink;
using blossomtree::bench::TimeSeconds;
using blossomtree::bench::WithContext;
using blossomtree::datagen::Dataset;
using blossomtree::datagen::DatasetName;
using blossomtree::datagen::GenerateDataset;
using blossomtree::datagen::GenOptions;

namespace {

struct QueryCase {
  const char* id;
  const char* text;
};

constexpr QueryCase kQueries[] = {
    // phdthesis / www are d5's sparse tags: the scan's candidates are a
    // short stream, so the per-chunk bookkeeping is most of the runtime.
    {"v1", "//phdthesis[year]/title"},
    {"v2", "//www/editor"},
    // Dense matches (article) and a //-join: per-match work dominates.
    {"v3", "//article/title"},
    {"v4", "//inproceedings//author"},
};

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

blossomtree::engine::EngineOptions MakeOptions(unsigned threads,
                                               size_t batch_rows) {
  blossomtree::engine::EngineOptions o;
  o.num_threads = threads;
  o.collect_profile = true;
  o.plan.exec.batch_rows = batch_rows;
  return o;
}

/// Plans `tree` and times `runs` rewound batch drains of its root; returns
/// the per-run seconds.
std::vector<double> TimeDrains(const blossomtree::xml::Document* doc,
                               const blossomtree::pattern::BlossomTree* tree,
                               int runs) {
  blossomtree::opt::PlanOptions po;
  auto plan = blossomtree::opt::PlanQuery(doc, tree, po);
  std::vector<double> seconds;
  if (!plan.ok()) return seconds;
  blossomtree::exec::NestedListOperator* root = plan->trees[0].root.get();
  for (int run = 0; run < runs; ++run) {
    seconds.push_back(TimeSeconds([&] {
      root->Rewind();
      blossomtree::exec::Batch batch;
      while (root->GetNextBatch(&batch, po.exec.batch_rows) > 0) {
      }
    }));
  }
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseFlags(argc, argv, /*default_scale=*/0.05);
  std::vector<unsigned> threads = flags.threads;
  if (threads.empty()) threads = {1, 2, 4};

  GenOptions o;
  o.scale = flags.scale;
  o.seed = flags.seed;
  auto doc = GenerateDataset(Dataset::kD5Dblp, o);

  std::printf("Vectorized execution: %s, %zu nodes\n\n",
              DatasetName(Dataset::kD5Dblp), doc->NumNodes());

  ProfileSink sink("vectorized");
  sink.AddDatasetLabel(DatasetName(Dataset::kD5Dblp));

  bool ok = true;
  std::printf("  %-3s %12s %11s %s\n", "id", "drain_ms", "Mn/s", "identical");

  for (const QueryCase& q : kQueries) {
    // Reference: serial, default batch size — result bytes + counters.
    blossomtree::engine::BlossomTreeEngine ref(doc.get(), MakeOptions(1, 64));
    auto ref_r = ref.EvaluateQuery(q.text);
    if (!ref_r.ok()) {
      std::printf("  %-3s reference error: %s\n", q.id,
                  ref_r.status().ToString().c_str());
      return 1;
    }
    const std::string ref_counters = ref.LastProfile().ToText();
    uint64_t nodes_scanned = 0;
    for (const auto& op : ref.LastProfile().operators) {
      nodes_scanned += op.stats.nodes_scanned;
    }

    // Contract sweep: results and deterministic counters identical across
    // the whole {threads} x {batch_rows} matrix.
    bool identical = true;
    for (unsigned t : threads) {
      for (size_t rows : {1u, 7u, 64u}) {
        blossomtree::engine::BlossomTreeEngine eng(doc.get(),
                                                   MakeOptions(t, rows));
        auto r = eng.EvaluateQuery(q.text);
        if (!r.ok() || *r != *ref_r) {
          std::printf("FAIL: %s result differs at threads=%u batch_rows=%zu\n",
                      q.id, t, rows);
          identical = false;
        } else if (eng.LastProfile().ToText() != ref_counters) {
          std::printf("FAIL: %s counters differ at threads=%u batch_rows=%zu\n",
                      q.id, t, rows);
          identical = false;
        }
      }
    }
    ok = ok && identical;

    // Artifact profile: the serial default plan's counters.
    {
      blossomtree::engine::BlossomTreeEngine prof(doc.get(),
                                                  MakeOptions(1, 64));
      if (prof.EvaluateQuery(q.text).ok()) {
        std::string context = "\"dataset\": \"" +
                              std::string(DatasetName(Dataset::kD5Dblp)) +
                              "\", \"id\": \"" + q.id +
                              "\", \"variant\": \"vectorized\"";
        sink.Add(WithContext(context, prof.LastProfile().ToJson()));
      }
    }

    // Throughput, for information: the executor's drain, excluding query
    // parsing, planning and result assembly, in scanned nodes/sec.
    auto path = blossomtree::xpath::ParsePath(q.text);
    auto tree = blossomtree::pattern::BuildFromPath(*path);
    if (!tree.ok()) {
      std::printf("  %-3s build error: %s\n", q.id,
                  tree.status().ToString().c_str());
      return 1;
    }
    std::vector<double> drain_s = TimeDrains(doc.get(), &*tree, flags.runs);
    if (drain_s.empty()) {
      std::printf("  %-3s plan error\n", q.id);
      return 1;
    }
    double best = *std::min_element(drain_s.begin(), drain_s.end());
    std::printf("  %-3s %12.3f %11.1f %s\n", q.id, Median(drain_s) * 1e3,
                nodes_scanned / best / 1e6, identical ? "yes" : "NO");
  }

  sink.WriteAndReport();
  if (!ok) {
    std::printf("FAIL: vectorized execution contract violated\n");
    return 1;
  }
  std::printf("OK: results and counters identical across threads/batch "
              "sizes\n");
  return 0;
}
