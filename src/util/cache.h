#ifndef BLOSSOMTREE_UTIL_CACHE_H_
#define BLOSSOMTREE_UTIL_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/resource_guard.h"

namespace blossomtree {
namespace util {

/// \brief Configuration of one cache (DESIGN.md §11): its byte budget and
/// shard count.
struct CacheOptions {
  /// Read only by service::CorpusOptions, which builds a corpus cache when
  /// set. Disabled by default so every existing counter, profile, and
  /// perf-gate baseline stays bitwise-identical unless a caller opts in.
  bool enabled = false;
  /// Byte budget for the cache's entries (approximate, charged through a
  /// util::ResourceGuard byte budget). Inserting past the budget evicts
  /// least-recently-used entries first.
  uint64_t max_bytes = 64ull << 20;
  /// Number of independently locked shards; 1 = a single LRU list.
  size_t shards = 8;
};

/// \brief Point-in-time counters of one cache (monotonic except `entries`
/// and `bytes`, which are gauges).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t insertions = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;
};

/// \brief A sharded, thread-safe LRU cache with a byte budget (DESIGN.md
/// §11). Values are immutable and handed out as shared_ptr<const Value>, so
/// a hit stays valid even if the entry is evicted concurrently. The byte
/// budget is accounted through an internal util::ResourceGuard via the
/// non-tripping TryReserveBytes/ReleaseBytes protocol: an insert that does
/// not fit evicts LRU entries (its own shard first, then the other shards
/// round-robin) until the reservation succeeds, and is dropped on the floor
/// if the budget cannot be met even with an empty cache.
///
/// Recency is tracked per shard, so eviction order is LRU within a shard
/// and approximately LRU globally — the standard sharded-LRU trade for not
/// serializing every Get on one lock.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  explicit ShardedLruCache(uint64_t max_bytes, size_t shards = 8)
      : budget_(BudgetLimits(max_bytes)),
        max_bytes_(max_bytes),
        shards_(shards == 0 ? 1 : shards) {}

  explicit ShardedLruCache(const CacheOptions& options)
      : ShardedLruCache(options.max_bytes, options.shards) {}

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// \brief Looks up `key`, refreshing its recency. Returns nullptr on miss.
  std::shared_ptr<const Value> Get(const Key& key) {
    Shard& shard = shards_[ShardOf(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->value;
  }

  /// \brief Inserts (or replaces) `key` at a cost of `bytes`, evicting LRU
  /// entries as needed. An entry larger than the whole budget is not cached.
  void Put(const Key& key, std::shared_ptr<const Value> value,
           uint64_t bytes) {
    if (bytes > max_bytes_) return;
    size_t target = ShardOf(key);
    // Replace: drop any existing entry for the key before reserving, so the
    // old footprint does not count against the new reservation.
    {
      Shard& shard = shards_[target];
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(key);
      if (it != shard.map.end()) EraseLocked(&shard, it);
    }
    // Reserve the footprint, evicting round-robin from this shard outwards.
    // At most one shard lock is held at a time (inside EvictOneFrom), so
    // concurrent Puts on different shards cannot deadlock.
    size_t scan = target;
    size_t empty_streak = 0;
    while (!budget_.TryReserveBytes(bytes)) {
      if (EvictOneFrom(&shards_[scan])) {
        empty_streak = 0;
      } else if (++empty_streak >= shards_.size()) {
        return;  // Nothing left to evict and still over budget: give up.
      } else {
        scan = (scan + 1) % shards_.size();
      }
    }
    Shard& shard = shards_[target];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      // Lost a same-key race while unlocked; keep the incumbent.
      budget_.ReleaseBytes(bytes);
      return;
    }
    shard.lru.push_front(Node{key, std::move(value), bytes});
    shard.map.emplace(shard.lru.front().key, shard.lru.begin());
    insertions_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
  }

  /// \brief Removes every entry and returns the whole byte budget.
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const Node& node : shard.lru) budget_.ReleaseBytes(node.bytes);
      entries_.fetch_sub(shard.lru.size(), std::memory_order_relaxed);
      shard.map.clear();
      shard.lru.clear();
    }
  }

  CacheStats Stats() const {
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.insertions = insertions_.load(std::memory_order_relaxed);
    s.entries = entries_.load(std::memory_order_relaxed);
    s.bytes = budget_.BytesCharged();
    return s;
  }

  uint64_t max_bytes() const { return max_bytes_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Node {
    Key key;
    std::shared_ptr<const Value> value;
    uint64_t bytes;
  };
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<Node> lru;
    std::unordered_map<Key, typename std::list<Node>::iterator, Hash> map;
  };

  static QueryLimits BudgetLimits(uint64_t max_bytes) {
    QueryLimits limits;
    limits.max_nl_bytes = max_bytes;
    return limits;
  }

  size_t ShardOf(const Key& key) const {
    return Hash{}(key) % shards_.size();
  }

  /// Erases `it` from `shard` (lock held) and returns its bytes.
  void EraseLocked(Shard* shard,
                   typename std::unordered_map<
                       Key, typename std::list<Node>::iterator, Hash>::iterator
                       it) {
    budget_.ReleaseBytes(it->second->bytes);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    shard->lru.erase(it->second);
    shard->map.erase(it);
  }

  /// Evicts the least-recently-used entry of `shard`; false when empty.
  bool EvictOneFrom(Shard* shard) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (shard->lru.empty()) return false;
    const Node& victim = shard->lru.back();
    budget_.ReleaseBytes(victim.bytes);
    shard->map.erase(victim.key);
    shard->lru.pop_back();
    entries_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Byte-budget ledger: max_nl_bytes = the cache budget, reserved and
  /// returned via the non-tripping TryReserveBytes/ReleaseBytes protocol.
  ResourceGuard budget_;
  const uint64_t max_bytes_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> entries_{0};
};

}  // namespace util
}  // namespace blossomtree

#endif  // BLOSSOMTREE_UTIL_CACHE_H_
