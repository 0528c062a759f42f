// libFuzzer harness for the XML parser: any input must either parse into a
// well-formed Document or fail with a clean Status — never crash, leak, or
// trip ASan/UBSan. An accepted document must also round-trip through the
// serializer: Serialize(Parse(Serialize(doc))) == Serialize(doc), flat and
// indented. Depth and size limits are set low enough that the fuzzer spends
// its budget on the grammar, not on giant inputs.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "xml/parser.h"
#include "xml/serializer.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  blossomtree::xml::ParseOptions options;
  options.max_depth = 512;
  options.max_input_bytes = 1 << 20;
  auto doc = blossomtree::xml::ParseDocument(input, options);
  if (!doc.ok()) return 0;
  // Escaping and indentation may grow the text past the input limit.
  blossomtree::xml::ParseOptions reparse;
  reparse.max_depth = options.max_depth;
  for (bool indent : {false, true}) {
    blossomtree::xml::SerializeOptions opts;
    opts.indent = indent;
    std::string once = blossomtree::xml::Serialize(*doc.value(), opts);
    auto again = blossomtree::xml::ParseDocument(once, reparse);
    if (!again.ok() ||
        blossomtree::xml::Serialize(*again.value(), opts) != once) {
      std::abort();
    }
  }
  return 0;
}
