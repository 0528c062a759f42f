#ifndef BLOSSOMTREE_EXEC_BATCH_H_
#define BLOSSOMTREE_EXEC_BATCH_H_

#include <cstddef>
#include <vector>

#include "nestedlist/nested_list.h"

namespace blossomtree {
namespace exec {

/// \brief Fixed-capacity unit of exchange between operators (DESIGN.md
/// §16). GetNextBatch clears `rows` and refills it on each call; ownership
/// of the rows passes to the consumer, which may move them out. Reusing one
/// Batch across calls amortizes the vector allocation.
struct Batch {
  std::vector<nestedlist::NestedList> rows;

  bool empty() const { return rows.empty(); }
  size_t size() const { return rows.size(); }
  void clear() { rows.clear(); }
};

/// \brief Execution-core knobs, plumbed planner→operators through
/// `opt::PlanOptions::exec`. `simd=false` routes every kernel through the
/// portable scalar fallback — the kernel-parity oracle. Results and the
/// deterministic counter surface are identical for every batch size and
/// either kernel backend (DESIGN.md §16).
struct ExecOptions {
  /// Rows per exchanged batch, clamped to [1, 4096] by operators. A
  /// NestedList row is a few pointers, so the default 64 rows keeps one
  /// batch within 1–4 KB.
  size_t batch_rows = 64;
  /// Allow the compiled SIMD kernel backend; false forces the scalar
  /// fallback (same effect as BLOSSOMTREE_FORCE_SCALAR_KERNELS=1).
  bool simd = true;
};

/// \brief Largest batch an operator produces per call.
constexpr size_t kMaxBatchRows = 4096;

/// \brief Effective per-batch row budget: the knob clamped to
/// [1, kMaxBatchRows].
inline size_t ClampBatchRows(size_t batch_rows) {
  if (batch_rows < 1) return 1;
  if (batch_rows > kMaxBatchRows) return kMaxBatchRows;
  return batch_rows;
}

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_BATCH_H_
