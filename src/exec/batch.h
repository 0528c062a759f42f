#ifndef BLOSSOMTREE_EXEC_BATCH_H_
#define BLOSSOMTREE_EXEC_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nestedlist/nested_list.h"

namespace blossomtree {
namespace exec {

/// \brief Fixed-capacity unit of exchange between operators (DESIGN.md
/// §16): a view of up to a batch of NestedLists, rows [first, first +
/// count) of one Figure 6 arena the producer holds (a lazy scan's chunk, a
/// frozen result-cache partition, a join's output arena), so a cache hit
/// reaches the consumer without a copy. The rows stay valid until the
/// producer's next GetNextBatch or Rewind; a consumer that keeps them
/// longer copies them out (Arena::AppendRow).
struct Batch {
  const nestedlist::Arena* source = nullptr;
  uint32_t first = 0;
  uint32_t count = 0;

  const nestedlist::Arena& arena() const { return *source; }
  bool empty() const { return count == 0; }
  size_t size() const { return count; }
  nestedlist::NestedList operator[](size_t i) const {
    return (*source)[first + i];
  }
  nestedlist::Arena::Iterator begin() const {
    return nestedlist::Arena::Iterator(source, first);
  }
  nestedlist::Arena::Iterator end() const {
    return nestedlist::Arena::Iterator(source, first + count);
  }

  /// \brief Points the batch at rows [first_row, first_row + num_rows) of
  /// `arena`.
  void Lend(const nestedlist::Arena* arena, uint32_t first_row,
            uint32_t num_rows) {
    source = arena;
    first = first_row;
    count = num_rows;
  }
  void clear() { Lend(nullptr, 0, 0); }
};

/// \brief Execution-core knobs, plumbed planner→operators through
/// `opt::PlanOptions::exec`. Results and the deterministic counter surface
/// are identical for every batch size (DESIGN.md §16).
struct ExecOptions {
  /// Rows per exchanged batch, clamped to [1, 4096] by operators. A
  /// NestedList row is a 20-byte index record plus its cells, so the
  /// default 64 rows keeps one batch within a few KB.
  size_t batch_rows = 64;
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
