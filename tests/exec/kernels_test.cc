// The merge joins' containment kernel (DESIGN.md §16): CountLessEq must
// agree with std::upper_bound on arbitrary sorted inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exec/kernels.h"
#include "util/rng.h"
#include "xml/document.h"

namespace blossomtree {
namespace exec {
namespace {

TEST(KernelsTest, CountLessEqMatchesUpperBound) {
  Rng rng(53);
  for (size_t n : {0u, 1u, 2u, 3u, 5u, 8u, 16u, 100u, 1023u}) {
    std::vector<xml::NodeId> sorted(n);
    xml::NodeId v = 0;
    for (auto& x : sorted) {
      v += static_cast<xml::NodeId>(rng.Uniform(4));  // Duplicates included.
      x = v;
    }
    for (size_t probe = 0; probe < 64; ++probe) {
      xml::NodeId key = static_cast<xml::NodeId>(rng.Uniform(v + 3));
      size_t expected = static_cast<size_t>(
          std::upper_bound(sorted.begin(), sorted.end(), key) -
          sorted.begin());
      EXPECT_EQ(CountLessEq(sorted.data(), n, key), expected)
          << "n=" << n << " key=" << key;
    }
    // Boundary keys.
    EXPECT_EQ(CountLessEq(sorted.data(), n, 0),
              static_cast<size_t>(std::upper_bound(sorted.begin(),
                                                   sorted.end(), 0u) -
                                  sorted.begin()));
    EXPECT_EQ(CountLessEq(sorted.data(), n, xml::kNullNode), n);
  }
}

}  // namespace
}  // namespace exec
}  // namespace blossomtree
