#ifndef BLOSSOMTREE_OPT_COST_MODEL_H_
#define BLOSSOMTREE_OPT_COST_MODEL_H_

#include <string>
#include <vector>

#include "opt/planner.h"
#include "pattern/blossom_tree.h"
#include "pattern/decompose.h"
#include "xml/document.h"

namespace blossomtree {
namespace opt {

/// \brief Estimated cost of a physical alternative, in abstract units
/// (node fetches + constraint checks).
struct CostEstimate {
  double cardinality = 0;  ///< Estimated result size.
  double io_cost = 0;      ///< Node/stream-entry fetches.
  double cpu_cost = 0;     ///< Constraint checks, merges, joins.

  double Total() const { return io_cost + cpu_cost; }
};

/// \brief Cardinality and cost estimation from document statistics —
/// the paper's §6 future work ("To choose an optimal plan automatically,
/// the optimizer needs a cost model or similar mechanism").
///
/// Estimation uses per-tag counts, per-tag average subtree sizes, and the
/// classic independence/containment assumptions; it is deliberately simple
/// and fast (one pass over the tag indexes at construction).
class CostModel {
 public:
  /// \param index optional structural index over `doc` (DESIGN.md §14):
  ///        when set, value-constraint selectivities come from the value
  ///        index (exact counts for answerable equality probes, order
  ///        statistics for ranges) instead of the fixed 0.1 guess.
  explicit CostModel(const xml::Document* doc,
                     const index::StructuralIndex* index = nullptr);

  /// \brief Elements matching a tag test ("*" = all elements).
  double TagCount(const std::string& tag) const;

  /// \brief Average subtree size (in nodes) of elements with this tag.
  double AvgSubtreeSize(const std::string& tag) const;

  /// \brief Selectivity of a vertex's value constraint, in (0, 1]: from the
  /// attached index when it can size the probe, 0.1 otherwise (the
  /// pre-index fixed factor). 1.0 for unconstrained vertices.
  double ValueSelectivity(const pattern::Vertex& v) const;

  /// \brief Estimated matches of the pattern subtree rooted at `v`
  /// (existence predicates reduce by containment selectivity; value
  /// constraints by a fixed factor).
  double EstimateVertexMatches(const pattern::BlossomTree& tree,
                               pattern::VertexId v) const;

  /// \brief Estimated result cardinality of a single-pattern-tree query.
  double EstimateResult(const pattern::BlossomTree& tree) const;

  /// \brief Cost of the pipelined-NoK plan: one scan per NoK + linear
  /// merges.
  CostEstimate EstimatePipelined(const pattern::BlossomTree& tree) const;

  /// \brief Cost of the BNLJ plan: outer scans plus per-outer-match bounded
  /// re-scans.
  CostEstimate EstimateBnlj(const pattern::BlossomTree& tree) const;

  /// \brief Cost of TwigStack: the tag-index streams plus solution
  /// expansion/merge.
  CostEstimate EstimateTwigStack(const pattern::BlossomTree& tree) const;

 private:
  const xml::Document* doc_;
  const index::StructuralIndex* index_;  ///< Optional, borrowed.
  std::vector<double> mean_subtree_;     ///< Per TagId.
};

/// \brief The optimizer's recommendation for a path query.
struct PlanAdvice {
  enum class Engine { kPipelined, kBnlj, kTwigStack };
  Engine engine = Engine::kPipelined;
  CostEstimate pipelined;
  CostEstimate bnlj;
  CostEstimate twigstack;
  bool pipelined_safe = true;  ///< Theorem-2 precondition holds.
  std::string rationale;
};

const char* EngineToString(PlanAdvice::Engine engine);

/// \brief Compares the estimated costs of the three physical alternatives
/// and recommends one, honoring the correctness constraint that the
/// pipelined join requires non-nesting joined tags.
PlanAdvice AdvisePlan(const xml::Document& doc,
                      const pattern::BlossomTree& tree);

/// \brief One operator's estimate-vs-actual cardinality comparison.
struct CalibrationEntry {
  std::string label;
  double estimated_rows = 0;
  uint64_t actual_rows = 0;
  /// Smoothed deviation factor: (max(est, act) + 1) / (min(est, act) + 1),
  /// so zero-row operators do not divide by zero.
  double ratio = 1.0;
  bool flagged = false;  ///< ratio exceeded the tolerance.
};

/// \brief Estimate-vs-actual report over a whole executed plan.
struct CalibrationReport {
  std::vector<CalibrationEntry> entries;
  size_t num_flagged = 0;

  std::string ToString() const;
};

/// \brief Compares every annotated operator's estimated cardinality with
/// its observed Stats().matches, flagging deviations beyond `tolerance`×
/// (the cost-model regression check). The plan must have been built with
/// PlanOptions::estimate_cardinalities and executed (FinishAll()) first;
/// operators without an estimate are skipped.
CalibrationReport CheckCalibration(const QueryPlan& plan,
                                   double tolerance = 10.0);

}  // namespace opt
}  // namespace blossomtree

#endif  // BLOSSOMTREE_OPT_COST_MODEL_H_
