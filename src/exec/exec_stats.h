#ifndef BLOSSOMTREE_EXEC_EXEC_STATS_H_
#define BLOSSOMTREE_EXEC_EXEC_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "nestedlist/nested_list.h"

namespace blossomtree {
namespace exec {

/// \brief Hit and miss counts of one cache, as probed by one operator or
/// one query.
struct CacheProbes {
  uint64_t hits = 0;
  uint64_t misses = 0;

  void Count(bool hit) { ++(hit ? hits : misses); }
};

/// \brief Per-operator execution counters — the uniform measurement layer
/// every operator of the engine reports through (DESIGN.md §8).
///
/// All fields except `wall_nanos` are *deterministic*: for a fixed document
/// and query they are bitwise-identical at every thread count, because
/// thread-local per-partition counts are merged in partition order at the
/// same concatenation points that make the result streams byte-identical
/// (Theorem 1 / DESIGN.md §7). `wall_nanos` is a measurement, not a count,
/// and is excluded from `Counters()`.
struct ExecStats {
  uint64_t wall_nanos = 0;     ///< Inclusive operator time (incl. children).
  uint64_t nodes_scanned = 0;  ///< Nodes whose root test a scan ran.
  uint64_t index_entries = 0;  ///< Tag-stream / index-run entries used.
  uint64_t comparisons = 0;    ///< Constraint checks + value comparisons.
  uint64_t matches = 0;        ///< NestedLists emitted by GetNextBatch.
  uint64_t nl_cells = 0;       ///< NestedList entries in emitted lists.
  uint64_t peak_buffer_bytes = 0;  ///< Peak buffered bytes (pipelined join).
  uint64_t rescans = 0;        ///< Inner-stream restarts (BNLJ).
  /// NoK result-cache probes (NokScan). Exact, but not deterministic: a
  /// partitioned scan probes once per partition, so the counts follow the
  /// thread count. Kept out of Counters() and the profile JSON for that
  /// reason.
  CacheProbes result_cache;

  /// \brief Deterministic merge: counters sum; peaks take the max. Used at
  /// partition-concatenation points, where merge order is partition order.
  void MergeFrom(const ExecStats& o) {
    wall_nanos += o.wall_nanos;
    nodes_scanned += o.nodes_scanned;
    index_entries += o.index_entries;
    comparisons += o.comparisons;
    matches += o.matches;
    nl_cells += o.nl_cells;
    peak_buffer_bytes = peak_buffer_bytes > o.peak_buffer_bytes
                            ? peak_buffer_bytes
                            : o.peak_buffer_bytes;
    rescans += o.rescans;
    result_cache.hits += o.result_cache.hits;
    result_cache.misses += o.result_cache.misses;
  }

  /// \brief Renders only the deterministic counters (no wall time) — the
  /// string the cross-thread-count identity tests compare bitwise.
  std::string Counters() const;

  /// \brief Human-readable one-line summary including wall time, for the
  /// EXPLAIN ANALYZE renderer.
  std::string Summary() const;
};

/// \brief The entries (cells) of a NestedList — the paper's memory metric
/// for materialized intermediate results. A row owns exactly its cells'
/// run of the arena, so this is an array length.
inline uint64_t CountCells(const nestedlist::NestedList& list) {
  return list.cells();
}

/// \brief Accumulates wall time into a sink for the enclosing scope.
class ScopedTimer {
 public:
  explicit ScopedTimer(uint64_t* sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    *sink_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  uint64_t* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_EXEC_STATS_H_
