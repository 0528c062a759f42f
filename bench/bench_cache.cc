// Multi-level query-cache benchmark (DESIGN.md §11): times every query
// cold (first execution on a fresh engine, caches empty) and warm (repeat
// executions that hit the plan cache and the NoK sub-result cache), checks
// the warm results byte-identical to an uncached serial reference at 1/2/4
// threads, and reports the hit-path speedup. The BENCH_cache.json artifact
// carries cold AND warm per-operator profiles at one thread: the perf gate
// pins both that cold plans do no extra work and that warm scans do ZERO
// scan work (a warm nodes_scanned regression from 0 fails the gate).
//
// Exit status is non-zero when any cached result deviates from the
// reference or the geometric-mean speedup across the serial queries falls
// below --min-speedup (default 5, per the cache design target; 0 disables
// the check). Geomean is the standard aggregation for speedup ratios: a
// sum-of-latencies ratio would let the one deliberately cache-hostile
// query (c1) mask the others. Cold latencies are medians over several
// fresh engines and warm latencies medians over --runs repeats, so the
// gate is robust to scheduler noise.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_profile.h"
#include "bench_util.h"
#include "datagen/datagen.h"
#include "engine/engine.h"
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
  const char* text;   ///< XPath (is_flwor false) or FLWOR query text.
  bool is_flwor;
};

// Mix: c1 is the worst case for the result cache (low selectivity, so the
// warm replay still materializes a large result); c2-c4 are its sweet spot
// (rare tags / value predicates: cold pays a full-document scan, warm
// replays a small sub-result). c4 keeps the selective step inside the FOR
// binding path so the NoK pattern -- and thus the cache -- covers it; the
// per-tuple FLWOR pipeline (binding enumeration, construction) is
// deliberately uncached and runs on every execution.
constexpr QueryCase kQueries[] = {
    {"c1", "//article/title", false},
    {"c2", "//phdthesis/author", false},
    {"c3", "//article[year = \"omega\"]/title", false},
    {"c4", "for $a in //phdthesis return <hit>{$a/school}</hit>", true},
};

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

/// An engine that borrows a plan cache and a NoK result cache of its own,
/// so every fresh instance starts cold.
struct CachedEngine {
  CachedEngine(const blossomtree::xml::Document* doc, unsigned threads,
               bool collect_profile)
      : engine(doc, [&] {
          blossomtree::engine::EngineOptions opts;
          opts.num_threads = threads;
          opts.collect_profile = collect_profile;
          opts.plan_cache = &plans;
          opts.plan.result_cache = &results;
          return opts;
        }()) {}

  blossomtree::engine::PlanCache plans{blossomtree::util::CacheOptions{}};
  blossomtree::exec::NokResultCache results{
      blossomtree::util::CacheOptions{}};
  /// Declared after the caches it borrows.
  blossomtree::engine::BlossomTreeEngine engine;
};

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseFlags(argc, argv, /*default_scale=*/0.05);
  double min_speedup = 5.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--min-speedup=", 14) == 0) {
      min_speedup = std::atof(argv[i] + 14);
    }
  }
  std::vector<unsigned> threads = flags.threads;
  if (threads.empty()) threads = {1, 2, 4};

  GenOptions o;
  o.scale = flags.scale;
  o.seed = flags.seed;
  auto doc = GenerateDataset(Dataset::kD5Dblp, o);
  ProfileSink sink("cache");
  sink.AddDatasetLabel(DatasetName(Dataset::kD5Dblp));

  std::printf("Query caches: cold vs warm (scale=%.2f, runs=%d)\n\n",
              flags.scale, flags.runs);
  std::printf("  %-3s %-10s %7s %11s %11s %9s %s\n", "id", "kind", "threads",
              "cold_ms", "warm_ms", "speedup", "identical");

  bool all_identical = true;
  std::vector<double> serial_speedups;

  for (const QueryCase& q : kQueries) {
    // Uncached serial reference: what every cached run must reproduce.
    blossomtree::engine::EngineOptions plain;
    plain.num_threads = 1;
    blossomtree::engine::BlossomTreeEngine ref(doc.get(), plain);
    blossomtree::xpath::PathExpr path;
    std::vector<blossomtree::xml::NodeId> ref_nodes;
    std::string ref_xml;
    if (q.is_flwor) {
      auto r = ref.EvaluateQuery(q.text);
      if (!r.ok()) {
        std::printf("  %-3s reference error: %s\n", q.id,
                    r.status().ToString().c_str());
        return 1;
      }
      ref_xml = r.MoveValue();
    } else {
      auto p = blossomtree::xpath::ParsePath(q.text);
      if (!p.ok()) {
        std::printf("  %-3s parse error: %s\n", q.id,
                    p.status().ToString().c_str());
        return 1;
      }
      path = p.MoveValue();
      auto r = ref.EvaluatePath(path);
      if (!r.ok()) {
        std::printf("  %-3s reference error: %s\n", q.id,
                    r.status().ToString().c_str());
        return 1;
      }
      ref_nodes = r.MoveValue();
    }

    // Cold/warm per-operator profiles from a dedicated serial engine,
    // OUTSIDE the timed loops: CollectProfile runs inside every evaluation
    // and would otherwise inflate the measured warm latencies. One-thread
    // profiles keep the sink entries deterministic (counters are
    // thread-count independent by the DESIGN.md §10 contract anyway).
    {
      CachedEngine prof(doc.get(), 1, true);
      auto profile_run = [&]() -> bool {
        if (q.is_flwor) return prof.engine.EvaluateQuery(q.text).ok();
        return prof.engine.EvaluatePath(path).ok();
      };
      if (profile_run()) {
        std::string cold_profile = prof.engine.LastProfile().ToJson();
        if (profile_run()) {
          std::string warm_profile = prof.engine.LastProfile().ToJson();
          std::string context = "\"dataset\": \"" +
                                std::string(DatasetName(Dataset::kD5Dblp)) +
                                "\", \"id\": \"" + q.id + "\"";
          sink.Add(WithContext(context + ", \"variant\": \"cold\"",
                               cold_profile));
          sink.Add(WithContext(context + ", \"variant\": \"warm\"",
                               warm_profile));
        }
      }
    }

    for (unsigned t : threads) {
      bool identical = true;
      // One execution on `eng`: returns its wall time and folds the
      // byte-identity check against the uncached serial reference into
      // `identical`.
      auto run_once =
          [&](blossomtree::engine::BlossomTreeEngine& eng) -> double {
        double seconds;
        if (q.is_flwor) {
          blossomtree::Result<std::string> r = std::string{};
          seconds = TimeSeconds([&] { r = eng.EvaluateQuery(q.text); });
          if (!r.ok() || *r != ref_xml) identical = false;
        } else {
          blossomtree::Result<std::vector<blossomtree::xml::NodeId>> r =
              std::vector<blossomtree::xml::NodeId>{};
          seconds = TimeSeconds([&] { r = eng.EvaluatePath(path); });
          if (!r.ok() || *r != ref_nodes) identical = false;
        }
        return seconds;
      };

      // Cold latency: median of first-runs on fresh engines (each borrows
      // caches of its own, so every fresh engine starts empty).
      constexpr int kColdSamples = 5;
      std::vector<double> cold_samples;
      std::unique_ptr<CachedEngine> eng;
      for (int i = 0; i < kColdSamples; ++i) {
        eng = std::make_unique<CachedEngine>(doc.get(), t, false);
        cold_samples.push_back(run_once(eng->engine));
      }
      double cold_s = Median(cold_samples);

      // Warm latency: median of repeat runs on the last engine, whose
      // caches the cold run above just primed.
      std::vector<double> warm_samples;
      for (int run = 0; run < flags.runs; ++run) {
        warm_samples.push_back(run_once(eng->engine));
      }
      double warm_s = Median(warm_samples);

      all_identical = all_identical && identical;
      if (t == 1) {
        serial_speedups.push_back(warm_s > 0 ? cold_s / warm_s : 1.0);
      }
      std::printf("  %-3s %-10s %7u %11.3f %11.3f %8.1fx %s\n", q.id,
                  q.is_flwor ? "flwor" : "path", t, cold_s * 1e3,
                  warm_s * 1e3, warm_s > 0 ? cold_s / warm_s : 0.0,
                  identical ? "yes" : "NO");
    }
  }

  double log_sum = 0;
  for (double s : serial_speedups) log_sum += std::log(s);
  double speedup = serial_speedups.empty()
                       ? 0.0
                       : std::exp(log_sum / serial_speedups.size());
  std::printf("\nGeometric-mean serial speedup across queries: %.1fx\n",
              speedup);
  sink.WriteAndReport();

  if (!all_identical) {
    std::printf("FAIL: cached results deviate from the uncached reference\n");
    return 1;
  }
  if (min_speedup > 0 && speedup < min_speedup) {
    std::printf("FAIL: geomean speedup %.1fx below --min-speedup=%.1f\n",
                speedup, min_speedup);
    return 1;
  }
  std::printf("OK: cached results byte-identical at every thread count\n");
  return 0;
}
