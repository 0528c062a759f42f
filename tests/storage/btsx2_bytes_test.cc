// Pins the exact bytes EncodeBtsx2 writes. The expected digests were
// computed with the earlier encoder, which converted a document node by
// node, so they hold the packed builder to the same files; any change to
// the builder or the encoder that moves a single byte of a .btsx2 image
// fails here. The generation stamp (header bytes 16..23) is
// process-dependent and zeroed before hashing.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "datagen/datagen.h"
#include "storage/btsx2.h"
#include "xml/document.h"

namespace blossomtree {
namespace storage {
namespace {

static_assert(!std::is_copy_constructible_v<xml::Document> &&
                  !std::is_copy_assignable_v<xml::Document>,
              "a Document's view points into its own vectors");
static_assert(!std::is_move_constructible_v<xml::Document> &&
                  !std::is_move_assignable_v<xml::Document>,
              "a Document's view points into its own vectors");

/// FNV-1a over the encoded image with the generation stamp zeroed.
uint64_t ImageDigest(const xml::Document& doc) {
  Result<std::string> encoded = EncodeBtsx2(doc);
  EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
  if (!encoded.ok()) return 0;
  std::string bytes = encoded.MoveValue();
  EXPECT_GE(bytes.size(), kBtsx2HeaderBytes);
  for (size_t i = 16; i < 24; ++i) bytes[i] = '\0';
  uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Btsx2BytesTest, GeneratedDatasetImagesArePinned) {
  struct Pinned {
    datagen::Dataset dataset;
    uint64_t digest;
  };
  const Pinned pinned[] = {
      {datagen::Dataset::kD1Recursive, 0x00cb00e1a6d6f94aull},
      {datagen::Dataset::kD2Address, 0xc2a6cb315310d718ull},
      {datagen::Dataset::kD3Catalog, 0xbfab5d296c6617a0ull},
      {datagen::Dataset::kD4Treebank, 0x8a810f9e7151d38eull},
      {datagen::Dataset::kD5Dblp, 0x13ec0b9f8ea31a0bull},
  };
  for (const Pinned& p : pinned) {
    datagen::GenOptions o;
    o.scale = 0.05;
    o.seed = 42;
    auto doc = datagen::GenerateDataset(p.dataset, o);
    EXPECT_EQ(ImageDigest(*doc), p.digest)
        << datagen::DatasetName(p.dataset);
  }
}

TEST(Btsx2BytesTest, HandBuiltImageIsPinned) {
  // Attributes on the root, several attributes on one element, an empty
  // text node, and text interleaved with element children.
  xml::Document doc;
  doc.BeginElement("lib");
  doc.AddAttribute("genre", "all");
  doc.AddAttribute("lang", "en");
  doc.AddText("head");
  doc.BeginElement("book");
  doc.AddAttribute("id", "1");
  doc.AddAttribute("year", "1999");
  doc.AddAttribute("isbn", "");
  doc.BeginElement("t");
  doc.AddText("A");
  doc.EndElement();
  doc.AddText("");
  doc.EndElement();
  doc.AddText("mixed");
  doc.BeginElement("book");
  doc.AddAttribute("id", "2");
  doc.BeginElement("t");
  doc.AddText("B");
  doc.EndElement();
  doc.AddText("tail");
  doc.BeginElement("t");
  doc.EndElement();
  doc.EndElement();
  doc.BeginElement("empty");
  doc.AddText("");
  doc.EndElement();
  doc.EndElement();
  ASSERT_TRUE(doc.Finish().ok());
  EXPECT_EQ(ImageDigest(doc), 0x8ffe3ec415d95448ull);
}

}  // namespace
}  // namespace storage
}  // namespace blossomtree
