#ifndef BLOSSOMTREE_EXEC_RESULT_CACHE_H_
#define BLOSSOMTREE_EXEC_RESULT_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "nestedlist/nested_list.h"
#include "util/cache.h"
#include "xml/document.h"

namespace blossomtree {
namespace exec {

/// \brief Identity of one cached NoK scan (DESIGN.md §11): which document
/// build (generation), which pattern (the full canonical NoK string — the
/// cache never trusts a hash for equality), and which contiguous node range
/// (the whole document for serial scans, one storage::PartitionSubtrees
/// range per partition in parallel mode).
struct NokCacheKey {
  uint64_t doc_generation = 0;
  std::string nok;
  xml::NodeId begin = 0;
  xml::NodeId end = 0;

  bool operator==(const NokCacheKey& o) const {
    return doc_generation == o.doc_generation && begin == o.begin &&
           end == o.end && nok == o.nok;
  }
};

struct NokCacheKeyHash {
  size_t operator()(const NokCacheKey& k) const;
};

/// \brief Exact bytes an entry is charged to the cache budget: the frozen
/// arena's arrays (from element counts, so equal contents always cost the
/// same; the scan shrinks them to fit before Put, so they also hold no
/// more) plus the key and a fixed per-entry overhead (DESIGN.md §11).
uint64_t CachedNokScanBytes(const NokCacheKey& key,
                            const nestedlist::Arena& matches);

/// \brief The NoK sub-result cache: maps (generation, NoK fingerprint,
/// range) to the complete, in-document-order match stream of that scan,
/// frozen in one arena — exactly the rows the cold scan handed out, so a
/// hit lends them as they are and replaying is byte-identical to
/// rescanning. Shared by every NokScanOperator of an engine; thread-safe
/// (parallel partitions of one scan probe and fill it concurrently, and any
/// number of scans read one frozen arena at once).
class NokResultCache {
 public:
  explicit NokResultCache(const util::CacheOptions& options)
      : cache_(options) {}

  std::shared_ptr<const nestedlist::Arena> Get(const NokCacheKey& key) {
    return cache_.Get(key);
  }

  void Put(const NokCacheKey& key,
           std::shared_ptr<const nestedlist::Arena> matches) {
    uint64_t bytes = CachedNokScanBytes(key, *matches);
    cache_.Put(key, std::move(matches), bytes);
  }

  void Clear() { cache_.Clear(); }
  util::CacheStats Stats() const { return cache_.Stats(); }

 private:
  util::ShardedLruCache<NokCacheKey, nestedlist::Arena, NokCacheKeyHash>
      cache_;
};

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_RESULT_CACHE_H_
