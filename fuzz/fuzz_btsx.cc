// libFuzzer harness for the persisted formats' decoders: any input must
// either decode into a well-formed document (or structural index) or fail
// with a clean Status — never crash, throw, leak, or trip ASan/UBSan. A
// BTSX v2 image that passes deep validation must adopt into a document that
// serializes, and an accepted BTSI image must re-encode byte-identically.
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "index/btsi.h"
#include "index/structural_index.h"
#include "storage/btsx2.h"
#include "xml/document.h"
#include "xml/serializer.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 20)) return 0;  // Spend the budget on structure.
  std::string_view input(reinterpret_cast<const char*>(data), size);

  // BTSX v2: paged layout. MapBtsx2 is the O(header) gate; ValidateBtsx2Deep
  // is the O(n) backstop a DiskStore runs for untrusted files.
  auto v2 = blossomtree::storage::MapBtsx2(input);
  if (v2.ok()) {
    if (blossomtree::storage::ValidateBtsx2Deep(*v2).ok()) {
      blossomtree::xml::Document adopted;
      if (adopted.AdoptExternal(v2->ToLayout()).ok()) {
        volatile size_t n = adopted.NumNodes();
        (void)n;
        std::string text = blossomtree::xml::Serialize(adopted);
        (void)text;
      }
    }
  }

  // BTSI: the structural-index sidecar. An accepted image must re-encode
  // to the identical byte string — the encoder is canonical, so any
  // accepted-but-unstable input means the validator missed a degree of
  // freedom it should have pinned.
  auto idx = blossomtree::index::DecodeBtsi(input);
  if (idx.ok()) {
    auto bytes = blossomtree::index::EncodeBtsi(**idx);
    if (!bytes.ok() || *bytes != input) {
      __builtin_trap();  // Round-trip instability is a bug.
    }
  }
  return 0;
}
