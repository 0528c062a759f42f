#include "util/resource_guard.h"

#include <utility>

#include "util/trace.h"

namespace blossomtree {
namespace util {

ResourceGuard::ResourceGuard(QueryLimits limits) : limits_(limits) {}

void ResourceGuard::Arm() {
  cells_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
  rows_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    status_ = Status::OK();
  }
  has_deadline_ = limits_.deadline_millis != QueryLimits::kUnlimited;
  if (has_deadline_) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(limits_.deadline_millis);
  }
  // Release: a worker that observes tripped_ == false afterwards also
  // observes the reset counters and deadline above.
  tripped_.store(false, std::memory_order_release);
}

void ResourceGuard::Trip(StatusCode code, std::string msg) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tripped_.load(std::memory_order_relaxed)) return;  // First trip wins.
  // The first trip lands on the query timeline as an instant event, so a
  // trace shows exactly which operator span the budget ran out under.
  if (Tracer::Get().enabled()) TraceInstant("guard", "trip: " + msg);
  status_ = code == StatusCode::kCancelled
                ? Status::Cancelled(std::move(msg))
                : Status::ResourceExhausted(std::move(msg));
  tripped_.store(true, std::memory_order_release);
}

bool ResourceGuard::Check() {
  if (Tripped()) return false;
  if (token_.Cancelled()) {
    Trip(StatusCode::kCancelled, "query cancelled");
    return false;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    Trip(StatusCode::kResourceExhausted,
         "deadline of " + std::to_string(limits_.deadline_millis) +
             "ms exceeded");
    return false;
  }
  return true;
}

bool ResourceGuard::ChargeCells(uint64_t cells, uint64_t bytes) {
  if (Tripped()) return false;
  if (limits_.max_nl_cells != QueryLimits::kUnlimited) {
    uint64_t total =
        cells_.fetch_add(cells, std::memory_order_relaxed) + cells;
    if (total > limits_.max_nl_cells) {
      Trip(StatusCode::kResourceExhausted,
           "NestedList cell budget of " +
               std::to_string(limits_.max_nl_cells) + " cells exceeded");
      return false;
    }
  } else {
    cells_.fetch_add(cells, std::memory_order_relaxed);
  }
  if (limits_.max_nl_bytes != QueryLimits::kUnlimited) {
    uint64_t total =
        bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (total > limits_.max_nl_bytes) {
      Trip(StatusCode::kResourceExhausted,
           "NestedList byte budget of " +
               std::to_string(limits_.max_nl_bytes) + " bytes exceeded");
      return false;
    }
  } else {
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  return true;
}

namespace {

/// Adds `amount` to `counter` if the sum stays within `limit`.
bool AddWithin(std::atomic<uint64_t>* counter, uint64_t amount,
               uint64_t limit) {
  if (limit == QueryLimits::kUnlimited) {
    counter->fetch_add(amount, std::memory_order_relaxed);
    return true;
  }
  uint64_t cur = counter->load(std::memory_order_relaxed);
  do {
    if (cur > limit || amount > limit - cur) return false;
  } while (!counter->compare_exchange_weak(cur, cur + amount,
                                           std::memory_order_relaxed));
  return true;
}

}  // namespace

bool ResourceGuard::TryChargeCells(uint64_t cells, uint64_t bytes) {
  if (Tripped()) return false;
  if (!AddWithin(&cells_, cells, limits_.max_nl_cells)) return false;
  if (!AddWithin(&bytes_, bytes, limits_.max_nl_bytes)) {
    cells_.fetch_sub(cells, std::memory_order_relaxed);
    return false;
  }
  return true;
}

bool ResourceGuard::ChargeRows(uint64_t rows) {
  if (Tripped()) return false;
  if (limits_.max_result_rows != QueryLimits::kUnlimited) {
    uint64_t total = rows_.fetch_add(rows, std::memory_order_relaxed) + rows;
    if (total > limits_.max_result_rows) {
      Trip(StatusCode::kResourceExhausted,
           "result-row budget of " +
               std::to_string(limits_.max_result_rows) + " rows exceeded");
      return false;
    }
  } else {
    rows_.fetch_add(rows, std::memory_order_relaxed);
  }
  return true;
}

bool ResourceGuard::TryReserveBytes(uint64_t bytes) {
  uint64_t cur = bytes_.load(std::memory_order_relaxed);
  do {
    if (limits_.max_nl_bytes != QueryLimits::kUnlimited &&
        cur + bytes > limits_.max_nl_bytes) {
      return false;
    }
  } while (!bytes_.compare_exchange_weak(cur, cur + bytes,
                                         std::memory_order_relaxed));
  return true;
}

void ResourceGuard::ReleaseBytes(uint64_t bytes) {
  bytes_.fetch_sub(bytes, std::memory_order_relaxed);
}

Status ResourceGuard::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

}  // namespace util
}  // namespace blossomtree
