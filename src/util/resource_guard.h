#ifndef BLOSSOMTREE_UTIL_RESOURCE_GUARD_H_
#define BLOSSOMTREE_UTIL_RESOURCE_GUARD_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>

#include "util/status.h"

namespace blossomtree {
namespace util {

/// \brief Default recursion-depth cap for the FLWOR/XPath recursive-descent
/// parsers. Hostile inputs like `not((((…))))` or `a[a[a[…]]]` recurse once
/// per nesting level; without a cap a ~100k-deep input overflows the stack.
/// 256 levels is far beyond any legitimate query in the paper's workload
/// while keeping the worst-case parser stack a few hundred KiB.
constexpr size_t kDefaultMaxParseDepth = 256;

/// \brief Input-size/depth budgets for the three front-door parsers.
struct ParseLimits {
  /// Maximum recursion depth (expression/predicate/constructor nesting).
  size_t max_depth = kDefaultMaxParseDepth;
  /// Maximum input size in bytes; SIZE_MAX = unlimited.
  size_t max_input_bytes = std::numeric_limits<size_t>::max();
};

/// \brief Per-query resource budgets (DESIGN.md §9). Every limit defaults to
/// `kUnlimited`; a limit of 0 is an explicit zero budget and rejects the
/// first unit of consumption ("reject immediately"), it does NOT mean
/// unlimited.
struct QueryLimits {
  static constexpr uint64_t kUnlimited =
      std::numeric_limits<uint64_t>::max();

  /// Wall-clock budget for one query, measured from ResourceGuard::Arm().
  uint64_t deadline_millis = kUnlimited;
  /// Budget on NestedList cells materialized across all operators of the
  /// query (the paper's intermediate-result memory metric).
  uint64_t max_nl_cells = kUnlimited;
  /// Budget on approximate NestedList bytes (cells costed at the fixed
  /// per-entry footprint by the charging operator).
  uint64_t max_nl_bytes = kUnlimited;
  /// Budget on result rows (FLWOR tuples emitted / path matches returned).
  uint64_t max_result_rows = kUnlimited;
  /// Parser recursion-depth cap for EvaluateQuery's FLWOR/XPath parsing.
  uint64_t max_parse_depth = kDefaultMaxParseDepth;
  /// Maximum query-text size in bytes accepted by EvaluateQuery.
  uint64_t max_query_bytes = kUnlimited;

  ParseLimits ToParseLimits() const {
    ParseLimits p;
    p.max_depth = max_parse_depth > std::numeric_limits<size_t>::max()
                      ? std::numeric_limits<size_t>::max()
                      : static_cast<size_t>(max_parse_depth);
    p.max_input_bytes = max_query_bytes > std::numeric_limits<size_t>::max()
                            ? std::numeric_limits<size_t>::max()
                            : static_cast<size_t>(max_query_bytes);
    return p;
  }
};

/// \brief A thread-safe cooperative cancellation flag. Cancel() may be
/// called from any thread (e.g. a deadline watchdog or a client
/// disconnect); workers observe it at batch boundaries via Cancelled().
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool Cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// \brief Shared per-query governor: carries the limits, the cancellation
/// token, and the consumption counters, and latches the first violation as
/// a Status (DESIGN.md §9).
///
/// The protocol is *cooperative*: operators, the NoK matcher, and thread-
/// pool workers call the charge/check methods at batch boundaries. Once any
/// limit trips (or the token is cancelled) every subsequent check returns
/// false, so iterators drain to a clean end-of-stream, partial buffers are
/// freed by normal destruction, and the engine surfaces `status()` —
/// `kResourceExhausted` for budget violations, `kCancelled` for external
/// cancellation — instead of a partial result. Checks never mutate results:
/// a run whose limits are not hit is bitwise-identical to an unguarded run
/// at every thread count.
class ResourceGuard {
 public:
  explicit ResourceGuard(QueryLimits limits = {});

  /// \brief Starts a new query: resets counters and the tripped state and
  /// stamps the wall-clock deadline from "now". Does NOT reset the
  /// cancellation token — an externally cancelled engine stays cancelled
  /// until the owner calls token()->Reset().
  void Arm();

  /// \brief Replaces the limits (effective from the next Arm()).
  void set_limits(const QueryLimits& limits) { limits_ = limits; }
  const QueryLimits& limits() const { return limits_; }

  CancellationToken* token() { return &token_; }

  /// \brief Cheap tripped-state probe (one relaxed atomic load) for hot
  /// inner loops that cannot afford a clock sample per iteration.
  bool Tripped() const { return tripped_.load(std::memory_order_acquire); }

  /// \brief Full batch-boundary check: cancellation token, then deadline
  /// (samples the steady clock). Returns true while the query may proceed.
  bool Check();

  /// \brief Charges `cells` NestedList cells / `bytes` approximate bytes
  /// against the budgets. Returns false (and trips) when over budget.
  bool ChargeCells(uint64_t cells, uint64_t bytes);

  /// \brief All-or-nothing ChargeCells for a batch of rows: charges both
  /// totals and returns true when each fits its budget, else charges
  /// nothing, leaves the guard untripped and returns false (also once
  /// tripped). One call replaces a per-row ChargeCells loop whenever the
  /// whole batch fits; on false the caller charges row by row to find the
  /// row that trips.
  bool TryChargeCells(uint64_t cells, uint64_t bytes);

  /// \brief Charges emitted result rows. Returns false when over budget.
  bool ChargeRows(uint64_t rows);

  /// \brief Non-tripping byte reservation against `max_nl_bytes`, for
  /// long-lived consumers (the util/cache LRU budgets) that respond to
  /// refusal by evicting and retrying rather than failing a query. Returns
  /// false when the reservation would exceed the budget; the guard is NOT
  /// tripped and no bytes are charged in that case.
  bool TryReserveBytes(uint64_t bytes);

  /// \brief Returns bytes taken with TryReserveBytes (eviction / clear).
  void ReleaseBytes(uint64_t bytes);

  /// \brief OK until tripped; afterwards the latched first violation.
  Status status() const;

  uint64_t CellsCharged() const {
    return cells_.load(std::memory_order_relaxed);
  }
  uint64_t BytesCharged() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  uint64_t RowsCharged() const {
    return rows_.load(std::memory_order_relaxed);
  }

  /// \brief Trips the guard with an explicit status (used by the engine to
  /// latch `kCancelled` and by tests). First trip wins; later calls no-op.
  void Trip(StatusCode code, std::string msg);

 private:
  QueryLimits limits_;
  CancellationToken token_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::atomic<uint64_t> cells_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<bool> tripped_{false};
  mutable std::mutex mu_;
  Status status_;  ///< Guarded by mu_; set once when tripped_ flips.
};

}  // namespace util
}  // namespace blossomtree

#endif  // BLOSSOMTREE_UTIL_RESOURCE_GUARD_H_
