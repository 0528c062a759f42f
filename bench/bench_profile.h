#ifndef BLOSSOMTREE_BENCH_BENCH_PROFILE_H_
#define BLOSSOMTREE_BENCH_BENCH_PROFILE_H_

#include <string>

#include <vector>

#include "engine/query_profile.h"
#include "exec/operator.h"
#include "opt/planner.h"
#include "pattern/blossom_tree.h"
#include "util/metrics.h"
#include "xml/document.h"

namespace blossomtree {
namespace bench {

/// Per-query latency histogram for BENCH_*.json: feeds every timed run
/// into a log₂-bucketed util::Histogram and renders the summary (count,
/// min/max, p50/p90/p99 in nanoseconds) as a JSON field. One instance per
/// (query, variant) cell; runs recorded in seconds.
class LatencyHistogram {
 public:
  void RecordSeconds(double seconds) {
    if (seconds < 0) return;  // DNF runs carry no latency sample.
    hist_.Record(static_cast<uint64_t>(seconds * 1e9));
  }
  void RecordAll(const std::vector<double>& run_seconds) {
    for (double s : run_seconds) RecordSeconds(s);
  }
  bool empty() const { return hist_.Snapshot().count == 0; }

  /// `"latency_ns": {...}` — ready to splice into a context-fields string.
  std::string JsonField() const {
    return "\"latency_ns\": " + hist_.Snapshot().ToJson();
  }

 private:
  util::Histogram hist_;
};

/// Plans `tree` with cardinality estimates, runs it to completion, and
/// returns the engine::QueryProfile as a JSON object — the per-operator
/// breakdown the BENCH_*.json artifacts carry. Runs OUTSIDE the timed
/// loops: estimate collection builds tag indexes and the extra drain would
/// otherwise perturb the measured numbers. Empty string on plan failure.
inline std::string PlanProfileJson(const xml::Document* doc,
                                   const pattern::BlossomTree* tree,
                                   const std::string& query,
                                   opt::PlanOptions options = {}) {
  options.estimate_cardinalities = true;
  auto plan = opt::PlanQuery(doc, tree, options);
  if (!plan.ok()) return {};
  for (auto& tp : plan->trees) {
    exec::Drain(tp.root.get(), options.exec.batch_rows);
  }
  unsigned threads =
      options.pool != nullptr
          ? static_cast<unsigned>(options.pool->NumThreads())
          : 1;
  return engine::BuildQueryProfile(&*plan, query, threads).ToJson();
}

/// Wraps a profile object with leading context fields:
/// WithContext("\"dataset\": \"d1\"", json) →
/// {"dataset": "d1", "profile": <json>}.
inline std::string WithContext(const std::string& context_fields,
                               const std::string& profile_json) {
  if (profile_json.empty()) return {};
  std::string out = "{";
  if (!context_fields.empty()) {
    out += context_fields;
    out += ", ";
  }
  out += "\"profile\": ";
  out += profile_json;
  out += "}";
  return out;
}

}  // namespace bench
}  // namespace blossomtree

#endif  // BLOSSOMTREE_BENCH_BENCH_PROFILE_H_
