// Ablation for §4.2's memory/correctness discussion: "if the input XML
// document is recursive, the order preserving property will not hold. Even
// if we modify the pipelined algorithm to cache more results ... the memory
// requirement for caching the intermediate results could be large [3]".
//
// On documents with increasing same-tag nesting degree k this bench shows:
//  - the pipelined join LOSES matches (emitted NestedLists < correct) — why
//    the planner refuses it on recursive documents (Theorem 2), so the PL
//    column builds the join over two NoK scans by hand;
//  - the cache a corrected pipelined join would need grows with k (an inner
//    match inside k nested outer matches must be delivered k times — the
//    max multiplicity column, matching the memory lower bound of the
//    paper's reference [3]);
//  - the BNLJ stays correct, paying k bounded re-scans instead.

#include <cstdio>
#include <memory>

#include "bench_profile.h"
#include "bench_util.h"
#include "exec/joins.h"
#include "exec/nok_scan.h"
#include "exec/operator.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "pattern/decompose.h"
#include "xml/parser.h"
#include "xpath/parser.h"

using blossomtree::bench::BenchFlags;
using blossomtree::bench::ParseFlags;
using blossomtree::bench::TimeSeconds;
using blossomtree::exec::NokScanOperator;
using blossomtree::opt::JoinStrategy;
using blossomtree::opt::PlanOptions;

namespace {

/// Builds k nested <a> levels, each carrying `width` <b/> children.
std::string NestedDoc(int depth, int width) {
  std::string xml = "<r>";
  for (int i = 0; i < depth; ++i) {
    xml += "<a>";
    for (int w = 0; w < width; ++w) xml += "<b/>";
  }
  for (int i = 0; i < depth; ++i) xml += "</a>";
  xml += "</r>";
  return xml;
}

size_t CountBnljLists(const blossomtree::xml::Document* doc,
                      const blossomtree::pattern::BlossomTree* tree,
                      double* seconds) {
  PlanOptions po;
  po.strategy = JoinStrategy::kBoundedNestedLoop;
  size_t count = 0;
  *seconds = TimeSeconds([&] {
    auto plan = blossomtree::opt::PlanQuery(doc, tree, po);
    if (!plan.ok()) return;
    count = blossomtree::exec::Drain(plan->trees[0].root.get(),
                                     po.exec.batch_rows)
                .size();
  });
  return count;
}

/// The pipelined //-join of //a//b over its two NoK scans. PlanQuery
/// refuses this plan once `a` nests, so it is assembled here directly.
size_t CountPipelinedLists(const blossomtree::xml::Document* doc,
                           const blossomtree::pattern::BlossomTree* tree,
                           double* seconds) {
  const blossomtree::pattern::Decomposition d =
      blossomtree::pattern::Decompose(*tree);
  size_t count = 0;
  *seconds = TimeSeconds([&] {
    for (const blossomtree::pattern::Connection& c : d.connections) {
      if (tree->vertex(c.from).IsVirtualRoot()) continue;
      blossomtree::exec::PipelinedDescJoin join(
          doc, tree,
          std::make_unique<NokScanOperator>(doc, tree,
                                            &d.noks[d.NokOf(c.from)]),
          std::make_unique<NokScanOperator>(doc, tree, &d.noks[d.NokOf(c.to)]),
          tree->SlotOfVertex(c.from), c.mode);
      count = blossomtree::exec::Drain(&join).size();
    }
  });
  return count;
}

/// Max number of a-ancestors over all b nodes: the per-item delivery count
/// (and hence cache multiplicity) a correct pipelined join would need.
uint64_t MaxMultiplicity(const blossomtree::xml::Document& doc) {
  uint64_t best = 0;
  auto a_tag = doc.tags().Lookup("a");
  auto b_tag = doc.tags().Lookup("b");
  for (blossomtree::xml::NodeId b : doc.TagIndex(b_tag)) {
    uint64_t count = 0;
    for (blossomtree::xml::NodeId a : doc.TagIndex(a_tag)) {
      if (doc.IsAncestor(a, b)) ++count;
    }
    best = std::max(best, count);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseFlags(argc, argv, /*default_scale=*/1.0);
  (void)flags;
  std::printf(
      "Ablation: pipelined join on recursive documents — lost matches and\n"
      "cache requirement vs nesting degree (query //a//b, width 4)\n\n");
  std::printf("%-7s | %10s %10s | %12s | %10s %9s\n", "nesting",
              "NL lists", "PL lists", "cache need", "NL s", "PL s");

  auto query = blossomtree::xpath::ParsePath("//a//b");
  auto tree = blossomtree::pattern::BuildFromPath(*query);
  if (!tree.ok()) return 1;

  blossomtree::bench::ProfileSink sink("ablation_pipeline_memory");
  for (int depth : {1, 2, 4, 8, 16, 32, 64}) {
    auto parsed = blossomtree::xml::ParseDocument(NestedDoc(depth, 4));
    if (!parsed.ok()) return 1;
    auto doc = parsed.MoveValue();
    double nl_s = 0;
    double pl_s = 0;
    size_t nl_lists = CountBnljLists(doc.get(), &*tree, &nl_s);
    size_t pl_lists = CountPipelinedLists(doc.get(), &*tree, &pl_s);
    std::printf("%-7d | %10zu %10zu | %12llu | %10.5f %9.5f\n", depth,
                nl_lists, pl_lists,
                static_cast<unsigned long long>(MaxMultiplicity(*doc)), nl_s,
                pl_s);
    // BNLJ breakdown per nesting degree: rescans should track the degree.
    PlanOptions po;
    po.strategy = JoinStrategy::kBoundedNestedLoop;
    sink.AddDatasetLabel("nested-depth-" + std::to_string(depth));
    blossomtree::bench::LatencyHistogram latency;
    latency.RecordSeconds(nl_s);
    sink.Add(blossomtree::bench::WithContext(
        "\"nesting\": " + std::to_string(depth) + ", \"system\": \"NL\", " +
            latency.JsonField(),
        blossomtree::bench::PlanProfileJson(doc.get(), &*tree, "//a//b",
                                            po)));
  }
  sink.WriteAndReport();
  std::printf(
      "\nExpected: NL lists == nesting degree (one per matched a); PL emits\n"
      "only the outermost match (losing the rest) — its required cache for\n"
      "correctness (max multiplicity) grows linearly with nesting, which is\n"
      "why the planner refuses a forced PL on recursive documents.\n");
  return 0;
}
