#ifndef BLOSSOMTREE_ENGINE_ENGINE_H_
#define BLOSSOMTREE_ENGINE_ENGINE_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "engine/construct.h"
#include "engine/path_eval.h"
#include "engine/plan_cache.h"
#include "engine/query_profile.h"
#include "flwor/ast.h"
#include "opt/planner.h"
#include "util/metrics.h"
#include "util/resource_guard.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace blossomtree {
namespace engine {

/// \brief Options for the BlossomTree engine.
struct EngineOptions {
  opt::PlanOptions plan;
  /// Intra-query parallelism: worker threads for partitioned NoK scans and
  /// structural joins. 0 = hardware concurrency; 1 = the exact serial code
  /// path (no thread pool is created — the configuration bitwise-comparison
  /// tests pin against). Results are byte-identical at every setting.
  unsigned num_threads = 0;
  /// Record every executed plan's operators in the per-query QueryProfile
  /// (LastProfile(), LastExplainAnalyze()). Profiling runs every plan to
  /// completion after the result is drained, so enabling it changes
  /// timings but never results.
  bool collect_profile = false;
  /// Enable query-lifecycle tracing (DESIGN.md §10): the engine turns on
  /// the process-wide util::Tracer at construction, so every span from
  /// parse to per-operator GetNextBatch calls is recorded and exportable as
  /// Chrome trace_event JSON via util::Tracer::ExportJsonFile(). When off
  /// (the default) every instrumentation point reduces to one relaxed
  /// atomic load. Tracing never changes results.
  bool trace = false;
  /// Populate the engine's MetricsRegistry with per-query counters and
  /// latency histograms (query.wall_ns, query.parse_ns, ...), added once
  /// per top-level call from its QueryProfile, and (with collect_profile)
  /// attach a registry snapshot to QueryProfile::ToJson(). Counter text
  /// (MetricsRegistry::CountersText) stays bitwise-identical across thread
  /// counts; wall-clock values live only in histograms. Like
  /// collect_profile, this runs every plan to completion after the result
  /// is drained (so exec.* totals are consumption-independent) — timings
  /// change, results never do.
  bool collect_metrics = false;
  /// Per-query resource limits (DESIGN.md §9): wall-clock deadline,
  /// NestedList cell/byte budget, result-row cap, and parser depth / input
  /// size caps. The engine arms its guard with these at the start of every
  /// top-level evaluation; an over-limit query returns kResourceExhausted
  /// (kCancelled for Cancel()) instead of a truncated result. Defaults are
  /// unlimited, which preserves the exact ungoverned behavior.
  util::QueryLimits limits;
  /// Plan cache (DESIGN.md §11, §12), borrowed: query text → parsed AST and
  /// canonical FLWOR/path fingerprint → compiled BlossomTree +
  /// decomposition + bindings. nullptr (the default) = no plan caching;
  /// every code path, counter and profile is then bitwise-identical to the
  /// pre-cache engine. Cached artifacts are pure functions of the query
  /// text, so one thread-safe cache may serve every engine, session and
  /// document of a service. The NoK sub-result cache is borrowed the same
  /// way, through `plan.result_cache`.
  PlanCache* plan_cache = nullptr;
};

/// \brief End-to-end query evaluation via BlossomTree pattern matching:
/// FLWOR → BlossomTree → NoK decomposition → NoK scans +
/// structural joins → NestedLists → per-tree variable binding into one
/// TupleTable per tree (a row per tuple; one offsets array into one node
/// pool) → nested-loop join across trees into one output table with the
/// where filter → ordering (a permutation of row indexes) → result
/// construction.
class BlossomTreeEngine {
 public:
  explicit BlossomTreeEngine(const xml::Document* doc,
                             EngineOptions options = {});

  /// \brief Evaluates a parsed query expression to serialized XML (a
  /// sequence of elements / copied nodes).
  Result<std::string> EvaluateToXml(const flwor::Expr& expr);

  /// \brief Parses and evaluates a query string.
  Result<std::string> EvaluateQuery(std::string_view query);

  /// \brief Evaluates a path query to its distinct document-ordered node
  /// matches via the BlossomTree plan.
  Result<std::vector<xml::NodeId>> EvaluatePath(const xpath::PathExpr& path);

  /// \brief EXPLAIN text of the most recent FLWOR/path plan.
  const std::string& LastExplain() const { return last_explain_; }

  /// \brief EXPLAIN ANALYZE text of the most recent top-level call,
  /// rendered from LastProfile() on each call: every operator with its
  /// estimated and actual cardinalities, counters and wall time. Empty
  /// unless EngineOptions::collect_profile or collect_metrics recorded a
  /// plan.
  std::string LastExplainAnalyze() const {
    return last_profile_.ExplainAnalyze();
  }

  /// \brief The per-query record of the most recent top-level call
  /// (EvaluateQuery / EvaluateToXml / EvaluatePath), reset at the start of
  /// each: its plan-cache probes, and the operators of every plan it
  /// executed when EngineOptions::collect_profile or collect_metrics is on.
  const QueryProfile& LastProfile() const { return last_profile_; }

  /// \brief The resolved degree of intra-query parallelism (1 = serial).
  unsigned EffectiveThreads() const {
    return pool_ != nullptr ? static_cast<unsigned>(pool_->NumThreads()) : 1;
  }

  /// \brief Requests cooperative cancellation of the in-flight query (safe
  /// from any thread). Operators observe the token at their next batch
  /// boundary and the query returns kCancelled. The flag is cleared when
  /// the next top-level evaluation arms the guard.
  void Cancel() { guard_.token()->Cancel(); }

  /// \brief The engine's per-query resource guard (counters, trip status).
  const util::ResourceGuard& guard() const { return guard_; }

  /// \brief The engine's metrics registry (counters + latency histograms).
  /// Populated only when EngineOptions::collect_metrics; always readable.
  util::MetricsRegistry& metrics() { return metrics_; }
  const util::MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// EvaluatePath minus the guard arming: used for top-level paths and for
  /// paths nested inside an already-armed evaluation (re-arming would
  /// restart the deadline mid-query).
  Result<std::vector<xml::NodeId>> EvalPathPlan(const xpath::PathExpr& path);
  /// EvaluateToXml minus the profile reset (EvaluateQuery resets it before
  /// its plan-cache lookup).
  Result<std::string> RunToXml(const flwor::Expr& expr);
  /// Closes a top-level call: adds its profile to the registry (exec.* and
  /// cache.*.{hits,misses}; cache occupancy as gauges), and when the call
  /// succeeded bumps `done_counter` and records query.wall_ns since
  /// `start`. No-op unless collect_metrics.
  void EndQuery(const char* done_counter,
                std::chrono::steady_clock::time_point start);
  Status EvalExpr(const flwor::Expr& expr, Tuple tuple, ResultBuilder* out);
  Status EvalFlwor(const flwor::Flwor& flwor, Tuple tuple,
                   ResultBuilder* out);
  /// Tuples of an env-free FLWOR that satisfy its where-clause, in the
  /// FLWOR's loop order. Each tuple of the cross product is charged as a
  /// result row as it is formed; only survivors are held.
  Result<TupleTable> FlworTuples(const flwor::Flwor& flwor);
  Status EmitTuples(const flwor::Flwor& flwor, const TupleTable& tuples,
                    ResultBuilder* out);
  /// Finishes the executed plan and adds its rows to last_profile_ (no-op
  /// unless collect_profile or collect_metrics).
  void CollectProfile(opt::QueryPlan* plan, const std::string& label);
  /// Compiles `flwor` (BlossomTree + decomposition + slot bindings) through
  /// the plan cache when enabled, building uncached otherwise.
  Result<std::shared_ptr<const CompiledFlwor>> CompileFlwor(
      const flwor::Flwor& flwor);

  const xml::Document* doc_;
  EngineOptions options_;
  /// Engine-owned guard; options_.plan.guard borrows it so every physical
  /// operator in every plan samples the same trip flag.
  util::ResourceGuard guard_;
  /// Owned worker pool when num_threads resolves above 1; options_.plan.pool
  /// borrows it for the lifetime of the engine.
  std::unique_ptr<util::ThreadPool> pool_;
  /// Engine-owned metrics: deterministic counters plus latency histograms
  /// (DESIGN.md §10). Snapshotted into QueryProfile when collect_metrics.
  util::MetricsRegistry metrics_;
  std::string last_explain_;
  QueryProfile last_profile_;
};

/// \brief FLWOR tuple enumeration by naive per-iteration path evaluation —
/// the semantics-following strategy the paper's introduction warns about.
/// Used by the navigational baseline and for nested FLWORs with free
/// variables. Each binding level's table extends the one before by its
/// slot, starting from `base`, whose width is the number of variables in
/// the FLWOR's enclosing scope.
Result<TupleTable> NaiveFlworTuples(const flwor::Flwor& flwor, Tuple base,
                                    PathEvaluator* evaluator,
                                    util::ResourceGuard* guard = nullptr);

/// \brief The row indexes of `tuples` stable-sorted on the atomized value
/// (exec::OperandValue) of the first node of the FLWOR's `order by` key,
/// each key computed once (all rows in order without one).
Result<std::vector<uint32_t>> OrderTuples(const flwor::Flwor& flwor,
                                          PathEvaluator* evaluator,
                                          const TupleTable& tuples);

}  // namespace engine
}  // namespace blossomtree

#endif  // BLOSSOMTREE_ENGINE_ENGINE_H_
