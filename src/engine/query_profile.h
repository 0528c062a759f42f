#ifndef BLOSSOMTREE_ENGINE_QUERY_PROFILE_H_
#define BLOSSOMTREE_ENGINE_QUERY_PROFILE_H_

#include <string>
#include <vector>

#include "exec/exec_stats.h"
#include "opt/planner.h"

namespace blossomtree {
namespace engine {

/// \brief One operator's slice of a query profile.
struct OperatorProfile {
  std::string label;           ///< Planner label, e.g. "NokScan(a,b)".
  int depth = 0;               ///< Depth in the operator tree (0 = root).
  double estimated_rows = -1;  ///< Planner estimate; < 0 when not planned
                               ///< with estimate_cardinalities.
  exec::ExecStats stats;
};

/// \brief The per-query record (DESIGN.md §8): every operator of every plan
/// one top-level engine call executed, plus the plan-cache probes it made.
/// The engine's metrics registry and the service's flight recorder both
/// derive their per-query numbers from it.
///
/// Counters come from run-to-completion totals (QueryPlan::FinishAll), so
/// ToText() — which renders only the deterministic counters — is identical
/// at every thread count; ToJson() additionally carries wall times.
struct QueryProfile {
  std::string query;     ///< The query text (or a bench label).
  std::string strategy;  ///< Join strategy of the first executed plan.
  unsigned threads = 1;  ///< Resolved intra-query parallelism.
  uint64_t total_wall_nanos = 0;  ///< Wall time of the plan roots.
  std::vector<OperatorProfile> operators;
  /// Plan-cache lookups (query text and compiled plan), counted where the
  /// engine makes them. Like the operators' result-cache probes
  /// (ExecStats::result_cache), kept out of ToText() and ToJson().
  exec::CacheProbes plan_cache;
  /// Snapshot of the engine's MetricsRegistry as a JSON object (empty
  /// unless EngineOptions::collect_metrics and collect_profile): counters
  /// plus histogram summaries with p50/p90/p99. Embedded verbatim by
  /// ToJson(); excluded from ToText(), which stays wall-clock-free.
  std::string metrics_json;

  void AddOperator(std::string label, int depth, const exec::ExecStats& s,
                   double estimated_rows = -1);

  /// \brief Records one executed plan's profile. When a recorded plan has
  /// the same (label, depth) rows, the new stats merge into those rows
  /// (ExecStats::MergeFrom); otherwise the rows are appended. The rows
  /// stay bounded by the plan sites in the query text. The first plan
  /// names the query, strategy and threads.
  void AddPlan(QueryProfile plan);

  /// \brief The stats of every operator row, summed with MergeFrom.
  exec::ExecStats Totals() const;

  /// \brief JSON object: {"query":..., "strategy":..., "threads":...,
  /// "total_wall_ms":..., "operators":[{...}, ...]}.
  std::string ToJson() const;

  /// \brief Deterministic text form (labels + Counters(), no wall times)
  /// — the cross-thread bitwise-identity surface.
  std::string ToText() const;

  /// \brief EXPLAIN ANALYZE text: the rows with planner estimates and
  /// "(actual: ...)" counters plus wall time, in ToText()'s column layout.
  /// Empty when no plan was recorded.
  std::string ExplainAnalyze() const;

 private:
  /// First row in `operators` of each distinct plan AddPlan recorded.
  std::vector<size_t> plan_starts_;

  /// Renders "strategy: ..." and one line per row: the indented label,
  /// padded to one column, then the row's Counters() — or, when `analyze`,
  /// the label with its estimate and "(actual: Summary())".
  std::string Render(bool analyze) const;
};

/// \brief Collects the profile of an executed plan: finishes every operator
/// tree (run-to-completion normalization), then walks the trees recording
/// labels, estimates, and counters. `query` labels the profile.
QueryProfile BuildQueryProfile(opt::QueryPlan* plan, std::string query,
                               unsigned threads);

}  // namespace engine
}  // namespace blossomtree

#endif  // BLOSSOMTREE_ENGINE_QUERY_PROFILE_H_
