#ifndef BLOSSOMTREE_ENGINE_PATH_EVAL_H_
#define BLOSSOMTREE_ENGINE_PATH_EVAL_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"
#include "xml/document.h"
#include "xpath/ast.h"

namespace blossomtree {
namespace engine {

struct TupleTable;

/// \brief One FLWOR tuple: row `row` of `table`, or the empty tuple (no
/// slots in scope) when `table` is null.
struct Tuple {
  const TupleTable* table = nullptr;
  size_t row = 0;

  size_t width() const;
  /// \brief The node sequence bound to slot `s` (< width()).
  std::span<const xml::NodeId> Slot(size_t s) const;
};

/// \brief FLWOR tuples, the variable environments of the paper's binding
/// step (§3.2, Figure 2), as one table. Row `r` binds tuple slot `s` (a
/// slot flwor::ParseQuery resolved: Binding::var_slot, PathExpr::var_slot)
/// to `nodes[offsets[r·width+s] .. offsets[r·width+s+1])`: one node for a
/// for-bound variable, any number (0 too) for a let-bound one. All rows
/// and slots share the one offsets array and the one node pool. A row is
/// written slot by slot (Push), then closed (EndRow).
struct TupleTable {
  size_t width = 0;                     ///< Slots per row.
  size_t rows = 0;                      ///< Closed rows.
  std::vector<uint32_t> offsets = {0};  ///< rows·width + 1 entries.
  std::vector<xml::NodeId> nodes = {};

  Tuple Row(size_t r) const { return Tuple{this, r}; }
  std::span<const xml::NodeId> Slot(size_t r, size_t s) const {
    const uint32_t* o = offsets.data() + r * width + s;
    return {nodes.data() + o[0], nodes.data() + o[1]};
  }
  /// \brief Appends `run` as the next slot of the row being written.
  void Push(std::span<const xml::NodeId> run) {
    nodes.insert(nodes.end(), run.begin(), run.end());
    offsets.push_back(static_cast<uint32_t>(nodes.size()));
  }
  /// \brief Pushes every slot of `t`, a tuple of another table.
  void PushTuple(Tuple t) {
    for (size_t s = 0; s < t.width(); ++s) Push(t.Slot(s));
  }
  void EndRow() { ++rows; }
  /// \brief Drops the last closed row.
  void PopRow() {
    offsets.resize(--rows * width + 1);
    nodes.resize(offsets.back());
  }
  /// \brief Orders rows `a` and `b` slot by slot, each slot's sequence
  /// lexicographically: the order of the FLWOR's nested loops.
  std::strong_ordering Compare(size_t a, size_t b) const {
    for (size_t s = 0; s < width; ++s) {
      std::span<const xml::NodeId> x = Slot(a, s);
      std::span<const xml::NodeId> y = Slot(b, s);
      auto c = std::lexicographical_compare_three_way(x.begin(), x.end(),
                                                      y.begin(), y.end());
      if (c != 0) return c;
    }
    return std::strong_ordering::equal;
  }
  /// \brief True when every row Compares strictly below the next: the
  /// table already is its own SortedDistinct().
  bool StrictlyAscending() const {
    for (size_t r = 1; r < rows; ++r) {
      if (Compare(r - 1, r) >= 0) return false;
    }
    return true;
  }
  /// \brief The distinct rows in ascending Compare order: one sort of row
  /// indexes, then one compaction.
  TupleTable SortedDistinct() const;
};

inline size_t Tuple::width() const {
  return table == nullptr ? 0 : table->width;
}
inline std::span<const xml::NodeId> Tuple::Slot(size_t s) const {
  return table->Slot(row, s);
}

/// \brief The attribute name `path`'s last step selects, or empty if that
/// step is not an attribute step. Attribute steps surface their owner
/// element, so a comparison on such a path compares this attribute's value
/// (exec::OperandValue), as the NoK matcher does.
std::string_view FinalAttribute(const xpath::PathExpr& path);

/// \brief Navigational XPath evaluation over the DOM: every step traverses
/// the tree directly, with no indexes and no sharing — the per-step
/// semantics a navigational engine (the paper's X-Hive comparator) uses.
///
/// Also serves as the engine's utility for where-clause operands and
/// return-clause paths, which are evaluated from variable bindings.
class PathEvaluator {
 public:
  explicit PathEvaluator(const xml::Document* doc) : doc_(doc) {}

  /// \brief Evaluates an absolute path (start kRoot). Result is a
  /// document-ordered set of nodes.
  Result<std::vector<xml::NodeId>> Evaluate(const xpath::PathExpr& path);

  /// \brief Evaluates a path whose start may be a variable (read from
  /// `tuple.Slot(path.var_slot)`; kInvalidArgument if that slot is not in
  /// `tuple`, e.g. for a path parsed without a FLWOR) or the context node(s).
  Result<std::vector<xml::NodeId>> EvaluateWith(
      const xpath::PathExpr& path, Tuple tuple,
      const std::vector<xml::NodeId>& context);

  /// \brief Tree nodes touched (the navigational work metric).
  uint64_t NodesVisited() const { return nodes_visited_; }

  const xml::Document* doc() const { return doc_; }

 private:
  Result<std::vector<xml::NodeId>> ApplyStep(
      const xpath::Step& step, std::span<const xml::NodeId> context);
  Result<bool> EvalPredicate(const xpath::Predicate& pred, xml::NodeId node);

  const xml::Document* doc_;
  uint64_t nodes_visited_ = 0;
};

}  // namespace engine
}  // namespace blossomtree

#endif  // BLOSSOMTREE_ENGINE_PATH_EVAL_H_
