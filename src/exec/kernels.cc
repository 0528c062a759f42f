#include "exec/kernels.h"

namespace blossomtree {
namespace exec {

size_t CountLessEq(const xml::NodeId* sorted, size_t n, xml::NodeId key) {
  // Branch-free upper bound: each step halves [lo, lo+len) with a
  // conditional move instead of a data-dependent branch, so the merge
  // loops never mispredict on the containment test.
  size_t lo = 0;
  size_t len = n;
  while (len > 0) {
    size_t half = len >> 1;
    bool le = sorted[lo + half] <= key;
    lo = le ? lo + half + 1 : lo;
    len = le ? len - half - 1 : half;
  }
  return lo;
}

}  // namespace exec
}  // namespace blossomtree
