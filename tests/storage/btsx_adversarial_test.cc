// Adversarial decode suite for the persisted formats (BTSX v2 images and
// their BTSI index sidecars): hostile inputs — truncations at every byte
// offset, header and body corruption, trailing bytes, concatenated files —
// must produce clean InvalidArgument errors, never crashes, hangs, or
// silently wrong documents.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "index/btsi.h"
#include "index/structural_index.h"
#include "storage/btsx2.h"
#include "storage/disk_store.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace blossomtree {
namespace storage {
namespace {

std::unique_ptr<xml::Document> Parse(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

// -- BTSX v2 (paged layout) ---------------------------------------------------

TEST(BtsxAdversarialTest, V2TruncationAtEveryOffset) {
  auto doc = Parse("<a k=\"v\"><b>text</b><c/></a>");
  auto encoded = EncodeBtsx2(*doc);
  ASSERT_TRUE(encoded.ok());
  for (size_t len = 0; len < encoded->size(); ++len) {
    std::string_view prefix(*encoded);
    auto r = MapBtsx2(prefix.substr(0, len));
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " bytes mapped";
  }
}

TEST(BtsxAdversarialTest, V2TrailingBytesRejected) {
  auto doc = Parse("<a><b/></a>");
  auto encoded = EncodeBtsx2(*doc);
  ASSERT_TRUE(encoded.ok());
  EXPECT_FALSE(MapBtsx2(*encoded + "x").ok());
  EXPECT_FALSE(MapBtsx2(*encoded + *encoded).ok());
}

TEST(BtsxAdversarialTest, V2HeaderFieldCorruption) {
  auto doc = Parse("<a><b>t</b></a>");
  auto encoded = EncodeBtsx2(*doc);
  ASSERT_TRUE(encoded.ok());
  // Every header byte flipped: either rejected by MapBtsx2 or (if the flip
  // lands in padding) mapped identically. Deep validation must also hold.
  for (size_t i = 0; i < kBtsx2HeaderBytes && i < encoded->size(); ++i) {
    std::string corrupt = *encoded;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    auto r = MapBtsx2(corrupt);
    if (r.ok()) {
      Status deep = ValidateBtsx2Deep(*r);
      if (deep.ok()) {
        EXPECT_EQ(r->num_nodes, doc->NumNodes()) << "header byte " << i;
      }
    }
  }
}

TEST(BtsxAdversarialTest, V2BodyBitFlipsCaughtOrHarmless) {
  auto doc = Parse("<r><a x=\"1\">t</a><b/><a>u</a></r>");
  auto encoded = EncodeBtsx2(*doc);
  ASSERT_TRUE(encoded.ok());
  for (size_t i = kBtsx2HeaderBytes; i < encoded->size(); ++i) {
    std::string corrupt = *encoded;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5A);
    auto r = MapBtsx2(corrupt);
    if (!r.ok()) continue;
    // MapBtsx2 is O(header + #tags) by design, so body corruption may get
    // through it — ValidateBtsx2Deep is the backstop; a flip it accepts
    // must be confined to opaque payload bytes (text/attribute pools),
    // which cannot break navigation.
    Status deep = ValidateBtsx2Deep(*r);
    if (deep.ok()) {
      EXPECT_EQ(r->num_nodes, doc->NumNodes()) << "byte " << i;
    }
  }
}

TEST(BtsxAdversarialTest, V2EmptyAndTinyInputs) {
  EXPECT_FALSE(MapBtsx2("").ok());
  EXPECT_FALSE(MapBtsx2("BTSX2").ok());
  EXPECT_FALSE(MapBtsx2(std::string(kBtsx2HeaderBytes - 1, '\0')).ok());
  EXPECT_FALSE(MapBtsx2(std::string(kBtsx2HeaderBytes, '\0')).ok());
}

TEST(BtsxAdversarialTest, V2RoundTripSurvivesDeepValidation) {
  auto doc = Parse(
      "<lib><book id=\"1\"><t>A</t>mix</book><book id=\"2\"/></lib>");
  auto encoded = EncodeBtsx2(*doc);
  ASSERT_TRUE(encoded.ok());
  auto view = MapBtsx2(*encoded);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(ValidateBtsx2Deep(*view).ok());
  xml::Document adopted;
  ASSERT_TRUE(adopted.AdoptExternal(view->ToLayout()).ok());
  EXPECT_EQ(xml::Serialize(adopted), xml::Serialize(*doc));
}

// -- BTSI structural-index sidecar (DESIGN.md §14) ---------------------------

std::string EncodedBtsi() {
  auto doc = Parse(
      "<lib><book><t>Alpha</t><n>7</n></book><book><t>Beta</t><n>42</n>"
      "</book><shelf id=\"x\"/></lib>");
  auto idx = index::StructuralIndex::Build(*doc);
  auto encoded = index::EncodeBtsi(*idx);
  EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
  return encoded.ok() ? *encoded : std::string();
}

TEST(BtsxAdversarialTest, BtsiTruncationAtEveryOffset) {
  std::string encoded = EncodedBtsi();
  ASSERT_FALSE(encoded.empty());
  for (size_t len = 0; len < encoded.size(); ++len) {
    auto r = index::DecodeBtsi(std::string_view(encoded).substr(0, len));
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(BtsxAdversarialTest, BtsiTrailingBytesRejected) {
  std::string encoded = EncodedBtsi();
  using namespace std::string_literals;
  for (const std::string& tail : {"\x00"s, "Z"s, "junk"s}) {
    EXPECT_FALSE(index::DecodeBtsi(encoded + tail).ok());
  }
  EXPECT_FALSE(index::DecodeBtsi(encoded + encoded).ok());
}

TEST(BtsxAdversarialTest, BtsiByteFlipsNeverCrashOrMisdecode) {
  // Every single-byte corruption must either be rejected outright or decode
  // cleanly without crashing or hanging. All section shapes derive from the
  // header counts, so a flip in the body can never shift structure — assert
  // exact shape identity for every accepted body flip. Header count fields
  // (e.g. num_nodes, which only upper-bounds entry values) carry no
  // invariant the decoder can re-derive; those flips may decode with a
  // different count, and Corpus attachment gates on Matches(doc) instead.
  std::string encoded = EncodedBtsi();
  auto pristine = index::DecodeBtsi(encoded);
  ASSERT_TRUE(pristine.ok());
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::string corrupt = encoded;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5A);
    auto r = index::DecodeBtsi(corrupt);
    if (!r.ok()) continue;
    if (i < index::kBtsiHeaderBytes) continue;
    EXPECT_EQ((*r)->num_nodes(), (*pristine)->num_nodes()) << "byte " << i;
    EXPECT_EQ((*r)->raw_stats().size(), (*pristine)->raw_stats().size())
        << "byte " << i;
    EXPECT_EQ((*r)->guide().size(), (*pristine)->guide().size())
        << "byte " << i;
    // Accepted guide counts still add up to the elements.
    uint64_t counted = 0;
    for (const index::GuideNode& g : (*r)->guide()) counted += g.count;
    EXPECT_EQ(counted - (*r)->guide()[0].count, (*r)->num_elements())
        << "byte " << i;
  }
}

TEST(BtsxAdversarialTest, BtsiEmptyAndTinyInputs) {
  EXPECT_FALSE(index::DecodeBtsi("").ok());
  EXPECT_FALSE(index::DecodeBtsi("BTSI").ok());
  EXPECT_FALSE(
      index::DecodeBtsi(std::string(index::kBtsiHeaderBytes, '\0')).ok());
}

TEST(BtsxAdversarialTest, BtsiSidecarCorruptionIsToleratedAtOpen) {
  // A corrupt sidecar must never fail the corpus open — the store comes up
  // index-less and plans fall back to scans.
  auto doc = Parse("<lib><book><t>A</t></book></lib>");
  std::string path = ::testing::TempDir() + "/bt_adv_sidecar.btsx2";
  ASSERT_TRUE(WriteBtsx2(*doc, path).ok());
  auto idx = index::StructuralIndex::Build(*doc);
  std::string sidecar = index::BtsiSidecarPath(path);
  ASSERT_TRUE(index::WriteBtsi(*idx, sidecar).ok());
  {
    std::ofstream out(sidecar, std::ios::binary | std::ios::app);
    out << "trailing garbage";
  }
  auto store = DiskStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->index(), nullptr);
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace storage
}  // namespace blossomtree
