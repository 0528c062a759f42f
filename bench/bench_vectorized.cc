// Vectorized-execution benchmark (DESIGN.md §16): times the batch-at-a-time
// executor (chunked scan driver + tag-id candidate prefilter) with the SIMD
// kernels and with the portable scalar kernels on d5 queries, and enforces
// the batch core's contract before the counter diff in CI:
//
//   1. Byte-identity: every query result is byte-identical across SIMD
//      kernels on/off, 1/2/4 threads, and batch sizes {1, 7, 64}.
//   2. Counter identity: the deterministic per-operator counters
//      (QueryProfile::ToText) are bitwise-identical across the same matrix
//      — kernels filter, they never tick a counter.
//
// Throughput (scanned nodes/sec, scalar vs SIMD kernels) is printed for
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
#include "exec/kernels.h"
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
    // phdthesis / www are d5's sparse tags: nearly every node is rejected
    // by the scan, so the prefilter's per-node work is the whole runtime.
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

blossomtree::engine::EngineOptions MakeOptions(unsigned threads, bool simd,
                                               size_t batch_rows) {
  blossomtree::engine::EngineOptions o;
  o.num_threads = threads;
  o.collect_profile = true;
  o.plan.exec.simd = simd;
  o.plan.exec.batch_rows = batch_rows;
  return o;
}

/// Plans `tree` with the given kernel backend and times `runs` rewound
/// batch drains of its root; returns the per-run seconds.
std::vector<double> TimeDrains(const blossomtree::xml::Document* doc,
                               const blossomtree::pattern::BlossomTree* tree,
                               bool simd, int runs) {
  blossomtree::opt::PlanOptions po;
  po.exec.simd = simd;
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

  std::printf("Vectorized execution: %s, %zu nodes, kernels %s%s\n\n",
              DatasetName(Dataset::kD5Dblp), doc->NumNodes(),
              blossomtree::exec::KernelBackendName(
                  blossomtree::exec::EffectiveKernelBackend(true)),
              blossomtree::exec::ForceScalarKernels()
                  ? " (BLOSSOMTREE_FORCE_SCALAR_KERNELS)"
                  : "");

  ProfileSink sink("vectorized");
  sink.AddDatasetLabel(DatasetName(Dataset::kD5Dblp));

  bool ok = true;
  std::printf("  %-3s %12s %12s %11s %11s %8s %s\n", "id", "scalar_ms",
              "vector_ms", "scal_Mn/s", "vec_Mn/s", "speedup", "identical");

  for (const QueryCase& q : kQueries) {
    // Reference: scalar kernels, serial, default batch size — result bytes
    // + counters.
    blossomtree::engine::BlossomTreeEngine ref(doc.get(),
                                               MakeOptions(1, false, 64));
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
    // the whole {threads} x {simd} x {batch_rows} matrix.
    bool identical = true;
    for (unsigned t : threads) {
      for (bool simd : {false, true}) {
        for (size_t rows : {1u, 7u, 64u}) {
          blossomtree::engine::BlossomTreeEngine eng(
              doc.get(), MakeOptions(t, simd, rows));
          auto r = eng.EvaluateQuery(q.text);
          if (!r.ok() || *r != *ref_r) {
            std::printf("FAIL: %s result differs at threads=%u simd=%d "
                        "batch_rows=%zu\n",
                        q.id, t, simd ? 1 : 0, rows);
            identical = false;
          } else if (eng.LastProfile().ToText() != ref_counters) {
            std::printf("FAIL: %s counters differ at threads=%u simd=%d "
                        "batch_rows=%zu\n",
                        q.id, t, simd ? 1 : 0, rows);
            identical = false;
          }
        }
      }
    }
    ok = ok && identical;

    // Artifact profile: the serial default plan's counters.
    {
      blossomtree::engine::BlossomTreeEngine prof(doc.get(),
                                                  MakeOptions(1, true, 64));
      if (prof.EvaluateQuery(q.text).ok()) {
        std::string context = "\"dataset\": \"" +
                              std::string(DatasetName(Dataset::kD5Dblp)) +
                              "\", \"id\": \"" + q.id +
                              "\", \"variant\": \"vectorized\"";
        sink.Add(WithContext(context, prof.LastProfile().ToJson()));
      }
    }

    // Throughput, for information: the executor itself (plan + drain),
    // excluding query parsing and result assembly, in scanned nodes/sec
    // with the scalar and the SIMD kernel backends.
    auto path = blossomtree::xpath::ParsePath(q.text);
    auto tree = blossomtree::pattern::BuildFromPath(*path);
    if (!tree.ok()) {
      std::printf("  %-3s build error: %s\n", q.id,
                  tree.status().ToString().c_str());
      return 1;
    }
    std::vector<double> scalar_s =
        TimeDrains(doc.get(), &*tree, /*simd=*/false, flags.runs);
    std::vector<double> vector_s =
        TimeDrains(doc.get(), &*tree, /*simd=*/true, flags.runs);
    if (scalar_s.empty() || vector_s.empty()) {
      std::printf("  %-3s plan error\n", q.id);
      return 1;
    }
    double sbest = *std::min_element(scalar_s.begin(), scalar_s.end());
    double vbest = *std::min_element(vector_s.begin(), vector_s.end());
    std::printf("  %-3s %12.3f %12.3f %11.1f %11.1f %7.2fx %s\n", q.id,
                Median(scalar_s) * 1e3, Median(vector_s) * 1e3,
                nodes_scanned / sbest / 1e6, nodes_scanned / vbest / 1e6,
                sbest / vbest, identical ? "yes" : "NO");
  }

  sink.WriteAndReport();
  if (!ok) {
    std::printf("FAIL: vectorized execution contract violated\n");
    return 1;
  }
  std::printf("OK: results and counters identical across SIMD/threads/"
              "batch sizes\n");
  return 0;
}
