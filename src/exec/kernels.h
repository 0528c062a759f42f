#ifndef BLOSSOMTREE_EXEC_KERNELS_H_
#define BLOSSOMTREE_EXEC_KERNELS_H_

#include <cstddef>

#include "xml/document.h"

namespace blossomtree {
namespace exec {

/// \brief Number of entries of ascending `sorted[0, n)` that are <= key —
/// a branch-free (conditional-move) upper-bound binary search. The
/// region-label containment primitive of the pipelined //-join and
/// structural-join merges: with start/end region labels, "how many
/// buffered inner nodes fall inside this outer's subtree" is exactly
/// CountLessEq(end) - CountLessEq(start).
size_t CountLessEq(const xml::NodeId* sorted, size_t n, xml::NodeId key);

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_KERNELS_H_
