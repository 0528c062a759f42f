#include "pattern/fingerprint.h"

#include <gtest/gtest.h>

namespace blossomtree {
namespace pattern {
namespace {

TEST(FingerprintHashTest, IsSixtyFourBitFnv1a) {
  // The published FNV-1a test vectors: the empty string hashes to the
  // offset basis, "a" to one xor-multiply step from it.
  EXPECT_EQ(FingerprintHash(""), 14695981039346656037ull);
  EXPECT_EQ(FingerprintHash("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(FingerprintHash("nok:a"), FingerprintHash("nok:b"));
}

}  // namespace
}  // namespace pattern
}  // namespace blossomtree
