#include "exec/result_cache.h"

#include <functional>
#include <string_view>

namespace blossomtree {
namespace exec {

size_t NokCacheKeyHash::operator()(const NokCacheKey& k) const {
  // Every probe hashes the whole canonical NoK: the library's word-at-a-time
  // string hash, not the byte-at-a-time FNV digest logs use.
  uint64_t h = std::hash<std::string_view>{}(k.nok);
  h ^= k.doc_generation * 0x9E3779B97F4A7C15ull;
  h ^= (static_cast<uint64_t>(k.begin) << 32 | k.end) *
       0xC2B2AE3D27D4EB4Full;
  return static_cast<size_t>(h);
}

uint64_t CachedNokScanBytes(const NokCacheKey& key,
                            const nestedlist::Arena& matches) {
  return matches.Bytes() + key.nok.size() + 64;
}

}  // namespace exec
}  // namespace blossomtree
