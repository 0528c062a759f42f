#include "exec/kernels.h"

#include <cstdlib>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#define BLOSSOMTREE_KERNELS_SSE2 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define BLOSSOMTREE_KERNELS_NEON 1
#endif

namespace blossomtree {
namespace exec {

KernelBackend CompiledKernelBackend() {
#if defined(BLOSSOMTREE_KERNELS_SSE2)
  return KernelBackend::kSse2;
#elif defined(BLOSSOMTREE_KERNELS_NEON)
  return KernelBackend::kNeon;
#else
  return KernelBackend::kScalar;
#endif
}

const char* KernelBackendName(KernelBackend b) {
  switch (b) {
    case KernelBackend::kSse2:
      return "sse2";
    case KernelBackend::kNeon:
      return "neon";
    case KernelBackend::kScalar:
      return "scalar";
  }
  return "scalar";
}

bool ForceScalarKernels() {
  static const bool forced = [] {
    const char* v = std::getenv("BLOSSOMTREE_FORCE_SCALAR_KERNELS");
    return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
  }();
  return forced;
}

KernelBackend EffectiveKernelBackend(bool allow_simd) {
  if (!allow_simd || ForceScalarKernels()) return KernelBackend::kScalar;
  return CompiledKernelBackend();
}

namespace {

void FilterTagEqRecordsScalar(const xml::PackedNodeRecord* records, size_t n,
                              xml::TagId target, xml::NodeId base,
                              std::vector<xml::NodeId>* out) {
  for (size_t i = 0; i < n; ++i) {
    // memcpy load: the record stream need not be 16-byte aligned
    // (DESIGN.md §16); never dereference a possibly-misaligned uint32_t
    // directly.
    xml::TagId tag;
    std::memcpy(&tag, reinterpret_cast<const char*>(records) +
                          i * sizeof(xml::PackedNodeRecord),
                sizeof tag);
    if (tag == target) out->push_back(base + static_cast<xml::NodeId>(i));
  }
}

#if defined(BLOSSOMTREE_KERNELS_SSE2)

void FilterTagEqRecordsSse2(const xml::PackedNodeRecord* records, size_t n,
                            xml::TagId target, xml::NodeId base,
                            std::vector<xml::NodeId>* out) {
  const __m128i want = _mm_set1_epi32(static_cast<int>(target));
  const char* p = reinterpret_cast<const char*>(records);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Four unaligned 16-byte record loads; unpack gathers the four lane-0
    // tag ids into one vector: [t0 t1 | e0 e1] ∪ [t2 t3 | e2 e3] → tags.
    __m128i r0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    __m128i r1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
    __m128i r2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
    __m128i r3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48));
    __m128i lo01 = _mm_unpacklo_epi32(r0, r1);
    __m128i lo23 = _mm_unpacklo_epi32(r2, r3);
    __m128i tags = _mm_unpacklo_epi64(lo01, lo23);
    int mask = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(tags, want)));
    while (mask != 0) {
      int bit = __builtin_ctz(static_cast<unsigned>(mask));
      out->push_back(base + static_cast<xml::NodeId>(i + bit));
      mask &= mask - 1;
    }
    p += 4 * sizeof(xml::PackedNodeRecord);
  }
  FilterTagEqRecordsScalar(records + i, n - i, target,
                           base + static_cast<xml::NodeId>(i), out);
}

#elif defined(BLOSSOMTREE_KERNELS_NEON)

void FilterTagEqRecordsNeon(const xml::PackedNodeRecord* records, size_t n,
                            xml::TagId target, xml::NodeId base,
                            std::vector<xml::NodeId>* out) {
  const uint32x4_t want = vdupq_n_u32(target);
  const uint32_t* p = reinterpret_cast<const uint32_t*>(records);
  size_t i = 0;
  uint32_t lanes[4];
  for (; i + 4 <= n; i += 4) {
    // vld4q deinterleaves four 16-byte records; .val[0] is the tag lane.
    uint32x4x4_t r = vld4q_u32(p + i * 4);
    uint32x4_t eq = vceqq_u32(r.val[0], want);
    vst1q_u32(lanes, eq);
    for (int bit = 0; bit < 4; ++bit) {
      if (lanes[bit] != 0) {
        out->push_back(base + static_cast<xml::NodeId>(i + bit));
      }
    }
  }
  FilterTagEqRecordsScalar(records + i, n - i, target,
                           base + static_cast<xml::NodeId>(i), out);
}

#endif

}  // namespace

void FilterTagEqRecords(const xml::PackedNodeRecord* records, size_t n,
                        xml::TagId target, xml::NodeId base, bool allow_simd,
                        std::vector<xml::NodeId>* out) {
  switch (EffectiveKernelBackend(allow_simd)) {
#if defined(BLOSSOMTREE_KERNELS_SSE2)
    case KernelBackend::kSse2:
      FilterTagEqRecordsSse2(records, n, target, base, out);
      return;
#elif defined(BLOSSOMTREE_KERNELS_NEON)
    case KernelBackend::kNeon:
      FilterTagEqRecordsNeon(records, n, target, base, out);
      return;
#endif
    default:
      FilterTagEqRecordsScalar(records, n, target, base, out);
      return;
  }
}

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
