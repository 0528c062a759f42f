#ifndef BLOSSOMTREE_EXEC_KERNELS_H_
#define BLOSSOMTREE_EXEC_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "xml/document.h"

namespace blossomtree {
namespace exec {

/// \brief Data-parallel inner-loop kernels of the batch execution core
/// (DESIGN.md §16). Every kernel has a portable scalar reference and a
/// SIMD backend selected at build time; the two produce *identical*
/// results on identical inputs — kernels only filter/count, they never
/// touch an ExecStats counter, so the deterministic counter surface is
/// backend-independent by construction. The CI kernel-parity job runs the
/// equivalence suite under both (BLOSSOMTREE_FORCE_SCALAR_KERNELS=1
/// forces the scalar reference without a rebuild) and diffs the counter
/// dumps.

enum class KernelBackend { kScalar, kSse2, kNeon };

/// \brief Backend this binary was compiled with.
KernelBackend CompiledKernelBackend();

const char* KernelBackendName(KernelBackend b);

/// \brief True when BLOSSOMTREE_FORCE_SCALAR_KERNELS is set to a
/// non-empty, non-"0" value in the environment. Read once, cached.
bool ForceScalarKernels();

/// \brief Backend the kernels below actually run: the compiled backend,
/// unless the caller passed allow_simd=false or the environment forces
/// scalar.
KernelBackend EffectiveKernelBackend(bool allow_simd);

/// \brief Appends `base + i` for every i in [0, n) with
/// records[i].tag == target, in ascending order. The one tag-id scan: a
/// stride-16 pass over a PackedNodeRecord stream (any Document's
/// Records()). Uses unaligned loads only: BTSX2 sections are 16-byte
/// aligned, but records built in RAM and the kernel tests' deliberately
/// misaligned buffers need not be.
void FilterTagEqRecords(const xml::PackedNodeRecord* records, size_t n,
                        xml::TagId target, xml::NodeId base, bool allow_simd,
                        std::vector<xml::NodeId>* out);

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
