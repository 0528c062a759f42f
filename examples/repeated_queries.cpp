// Repeated queries: the multi-level query caches (DESIGN.md §11).
//
// Dashboards, template expansion, and API backends evaluate the same
// handful of queries against the same document over and over. An engine
// that borrows a plan cache (EngineOptions::plan_cache) and a NoK result
// cache (EngineOptions::plan.result_cache) — both null by default, and
// shareable by any number of engines — pays the full parse → compile → scan
// pipeline only on the first execution; repeats skip the parse (level-1
// plan cache), the BlossomTree compilation (level-2, keyed on a
// whitespace-insensitive canonical form), and the NoK document scans
// (sub-result cache), while producing byte-identical results.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/repeated_queries

#include <chrono>
#include <cstdio>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "engine/plan_cache.h"
#include "exec/result_cache.h"
#include "util/cache.h"

using namespace blossomtree;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void PrintStats(const char* label, const util::CacheStats& s) {
  std::printf("  %-12s hits=%llu misses=%llu evictions=%llu entries=%llu "
              "bytes=%llu\n",
              label, static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses),
              static_cast<unsigned long long>(s.evictions),
              static_cast<unsigned long long>(s.entries),
              static_cast<unsigned long long>(s.bytes));
}

}  // namespace

int main() {
  // A dblp-like bibliography (~16k elements at this scale).
  datagen::GenOptions gen;
  gen.scale = 0.05;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD5Dblp, gen);

  // query text / canonical form -> plan
  engine::PlanCache plan_cache(util::CacheOptions{});
  // (doc generation, NoK, range) -> matches, LRU past an 8 MiB byte budget
  util::CacheOptions result_budget;
  result_budget.max_bytes = 8 << 20;
  exec::NokResultCache result_cache(result_budget);

  engine::EngineOptions opts;
  opts.plan_cache = &plan_cache;
  opts.plan.result_cache = &result_cache;
  opts.collect_metrics = true;  // surfaces cache.* counters
  engine::BlossomTreeEngine engine(doc.get(), opts);

  const char* query =
      "for $t in //phdthesis return <thesis>{ $t/title }</thesis>";

  // Cold: parse + compile + full-document NoK scans.
  auto t0 = std::chrono::steady_clock::now();
  auto cold = engine.EvaluateQuery(query);
  double cold_ms = MillisSince(t0);
  if (!cold.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 cold.status().ToString().c_str());
    return 1;
  }

  // Warm: every level hits. Note the query text differs in whitespace —
  // the level-1 (exact text) cache misses, but the canonical-form plan
  // cache and the scan-level result cache still hit.
  const char* reformatted =
      "for   $t in //phdthesis\n  return <thesis>{ $t/title }</thesis>";
  t0 = std::chrono::steady_clock::now();
  auto warm = engine.EvaluateQuery(reformatted);
  double warm_ms = MillisSince(t0);
  if (!warm.ok()) return 1;

  std::printf("cold: %.3f ms   warm: %.3f ms   (%.1fx)\n", cold_ms, warm_ms,
              warm_ms > 0 ? cold_ms / warm_ms : 0.0);
  std::printf("results identical: %s\n\n",
              *cold == *warm ? "yes" : "NO (bug!)");

  std::printf("cache stats after two executions:\n");
  PrintStats("plan cache", plan_cache.Stats());
  PrintStats("result cache", result_cache.Stats());

  // The same numbers flow into the deterministic metrics registry as
  // cache.plan.* / cache.result.* when collect_metrics is on.
  std::printf("\nengine counters:\n%s", engine.metrics().CountersText().c_str());
  return 0;
}
