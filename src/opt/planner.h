#ifndef BLOSSOMTREE_OPT_PLANNER_H_
#define BLOSSOMTREE_OPT_PLANNER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/nok_scan.h"
#include "exec/operator.h"
#include "exec/result_cache.h"
#include "index/structural_index.h"
#include "pattern/decompose.h"
#include "util/resource_guard.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace blossomtree {
namespace opt {

/// \brief Physical join strategy for the //-connections between NoKs.
enum class JoinStrategy {
  kAuto,             ///< Recursion-aware choice (paper §4.2/§4.3 and §5.2).
  kPipelined,        ///< Pipelined merge join. PlanQuery refuses a
                     ///< connection whose outer tags may nest (Theorem 2).
  kBoundedNestedLoop,///< BNLJ — correct everywhere, repeated bounded scans.
  kNaiveNestedLoop,  ///< Unbounded nested loop (full re-scan per outer
                     ///< match) — the strawman the BNLJ ablation compares
                     ///< against.
};

const char* JoinStrategyToString(JoinStrategy s);

struct PlanOptions {
  JoinStrategy strategy = JoinStrategy::kAuto;
  /// Worker pool for intra-query parallelism (borrowed, not owned):
  /// full-document NoK scans run partitioned across it. nullptr = serial
  /// plan, bitwise-identical results either way.
  util::ThreadPool* pool = nullptr;
  /// Per-query resource guard (borrowed, not owned): when set, every
  /// physical operator in the plan samples it at batch boundaries and ends
  /// its stream early once it trips (DESIGN.md §9). Callers must check
  /// guard->status() after draining the plan; nullptr = ungoverned.
  util::ResourceGuard* guard = nullptr;
  /// Annotate every operator with a CostModel cardinality estimate (for
  /// EXPLAIN ANALYZE's est-vs-actual and the calibration check). Off by
  /// default: building the model walks every tag stream once (per-tag
  /// average subtree sizes), which would perturb benchmark timings.
  bool estimate_cardinalities = false;
  /// NoK sub-result cache (borrowed, not owned; DESIGN.md §11): when set,
  /// every full-document NokScanOperator in the plan probes it before
  /// scanning and fills it after a complete cold scan. nullptr = uncached
  /// (the exact pre-cache behavior, counters included).
  exec::NokResultCache* result_cache = nullptr;
  /// The DiskStore whose image `doc` is (borrowed, not owned). When set,
  /// every NoK scan in the plan counts, through a per-scan cursor, the
  /// blocks its tested nodes enter. It changes no result and no other
  /// counter. nullptr = no block accounting (in-RAM documents).
  const storage::DiskStore* store = nullptr;
  /// Structural index over `doc` (borrowed, not owned; DESIGN.md §14): when
  /// set and structurally matching the document, a NoK root with an
  /// index-answerable `= literal` predicate scans only its exact
  /// value-index equality run (labelled IndexSeek), NoKs whose mandatory
  /// paths the DataGuide proves absent scan an empty run (zero nodes
  /// tested), and the value index's selectivities feed cardinality
  /// estimation. Access paths never change results: the scan re-verifies
  /// every candidate. nullptr = every NoK scans its tag stream or range.
  const index::StructuralIndex* index = nullptr;
  /// Execution knobs (DESIGN.md §16): rows per GetNextBatch exchange
  /// (`exec.batch_rows`). Every batch size produces byte-identical results
  /// and bitwise-identical deterministic counters.
  exec::ExecOptions exec;
};

/// \brief A compiled plan for one pattern tree of a BlossomTree.
///
/// Owns the operator tree. `root` emits the pattern tree's NestedLists;
/// `tops` is their slot context; `scans` exposes the underlying NoK scan
/// drivers for I/O metrics.
struct PatternTreePlan {
  std::unique_ptr<exec::NestedListOperator> root;
  std::vector<pattern::SlotId> tops;
  std::vector<exec::NokScanOperator*> scans;  ///< Borrowed from `root`.
  std::string explain;

  uint64_t TotalNodesScanned() const {
    uint64_t total = 0;
    for (const auto* s : scans) total += s->NodesScanned();
    return total;
  }
};

/// \brief The plan for a whole BlossomTree: one PatternTreePlan per pattern
/// tree (FLWOR queries have several; path queries exactly one).
struct QueryPlan {
  const pattern::BlossomTree* tree = nullptr;
  /// The plan's own decomposition, when it needed one: PlanQuery was given
  /// none, or folded probes into a copy of the one it was given. Empty
  /// otherwise: the operators then read the caller's.
  pattern::Decomposition decomposition;
  std::vector<PatternTreePlan> trees;
  /// The single join strategy the plan uses, kAuto for a mix, nullopt
  /// for a plan without a join (scans and probes only).
  std::optional<JoinStrategy> chosen;

  /// \brief `chosen` as EXPLAIN and profiles print it ("none" when no
  /// join was built).
  const char* StrategyName() const;

  std::string Explain() const;

  /// \brief Runs every operator tree to completion (children included).
  /// Call before reading counters: it normalizes lazy serial pipelines and
  /// eagerly-materializing parallel scans to the same run-to-completion
  /// totals (DESIGN.md §8), so profiles are identical at every thread
  /// count. Idempotent on drained plans; ends the streams for further
  /// GetNextBatch calls.
  void FinishAll();
};

/// \brief Depth-first pre-order walk over every operator of every pattern
/// tree in the plan.
void ForEachOperator(
    const QueryPlan& plan,
    const std::function<void(const exec::NestedListOperator&, int depth)>&
        fn);

/// \brief The rule-based optimizer (paper §5: "the optimizer needs to have
/// the knowledge of how recursive the input XML document is"):
///  - decomposes the BlossomTree into NoKs (Algorithm 1),
///  - drops the trivial virtual-root NoKs and their //-connections (a full
///    sequential scan subsumes them),
///  - for each remaining //-connection picks the join: pipelined where
///    neither outer tag can nest, bounded nested-loop otherwise,
///  - evaluates every NoK by its own NokScanOperator.
/// A forced kPipelined fails with InvalidArgument on a connection kAuto
/// would not pipeline: a `*`, attribute or recursing outer vertex breaks
/// Theorem 2's document-order precondition, and the join would drop
/// matches.
/// \param precomputed optional Decomposition of `tree` (e.g. from the plan
///        cache), used instead of re-running Algorithm 1 — copied into the
///        plan only if the plan changes it. Must have been produced by
///        pattern::Decompose(*tree), and must outlive the plan.
Result<QueryPlan> PlanQuery(const xml::Document* doc,
                            const pattern::BlossomTree* tree,
                            const PlanOptions& options = {},
                            const pattern::Decomposition* precomputed =
                                nullptr);

/// \brief Drains a built path-query plan (single pattern tree, result bound
/// to the "result" variable) batch-at-a-time and returns the distinct
/// document-ordered matches. Fails with the guard's status if
/// `options.guard` tripped: tripped operators end their streams early.
Result<std::vector<xml::NodeId>> DrainPathPlan(QueryPlan* plan,
                                               const PlanOptions& options);

/// \brief Convenience for path queries: PlanQuery, then DrainPathPlan.
Result<std::vector<xml::NodeId>> EvaluatePathQuery(
    const xml::Document* doc, const pattern::BlossomTree* tree,
    const PlanOptions& options = {});

}  // namespace opt
}  // namespace blossomtree

#endif  // BLOSSOMTREE_OPT_PLANNER_H_
