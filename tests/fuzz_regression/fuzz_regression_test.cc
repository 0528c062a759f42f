// Replays the checked-in fuzz crash corpus (fuzz/regressions/) through the
// same entry points the libFuzzer harnesses drive, on every toolchain — the
// fuzzers themselves are Clang-only, but a crash must stay fixed everywhere.
// Each input once crashed, hung, or invoked UB; the assertions pin the clean
// behavior that replaced it.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "flwor/parser.h"
#include "index/btsi.h"
#include "index/structural_index.h"
#include "storage/btsx2.h"
#include "storage/disk_store.h"
#include "util/resource_guard.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<fs::path> InputsIn(const std::string& subdir) {
  fs::path dir = fs::path(BLOSSOMTREE_FUZZ_DIR) / "regressions" / subdir;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// Mirror of the harness configurations in fuzz/*.cc.
xml::ParseOptions XmlFuzzOptions() {
  xml::ParseOptions options;
  options.max_depth = 512;
  options.max_input_bytes = 1 << 20;
  return options;
}

util::ParseLimits QueryFuzzLimits() {
  util::ParseLimits limits;
  limits.max_depth = 256;
  limits.max_input_bytes = 1 << 20;
  return limits;
}

TEST(FuzzRegressionTest, CorpusIsNonEmpty) {
  EXPECT_FALSE(InputsIn("xml").empty());
  EXPECT_FALSE(InputsIn("xpath").empty());
  EXPECT_FALSE(InputsIn("flwor").empty());
  EXPECT_FALSE(InputsIn("btsx").empty());
}

// Every input must come back with a Status — OK or error — and never crash.
// An accepted document must survive serialize → parse → serialize with the
// same bytes, flat and indented (as fuzz_xml_parser.cc checks).
TEST(FuzzRegressionTest, ReplayAllXmlInputs) {
  for (const fs::path& p : InputsIn("xml")) {
    SCOPED_TRACE(p.filename().string());
    auto doc = xml::ParseDocument(ReadFile(p), XmlFuzzOptions());
    if (!doc.ok()) continue;
    EXPECT_GE(doc.value()->NumNodes(), 1u);
    // Escaping and indentation may grow the text past the input limit.
    xml::ParseOptions reparse;
    reparse.max_depth = XmlFuzzOptions().max_depth;
    for (bool indent : {false, true}) {
      SCOPED_TRACE(indent ? "indented" : "flat");
      xml::SerializeOptions opts;
      opts.indent = indent;
      std::string once = xml::Serialize(*doc.value(), opts);
      auto again = xml::ParseDocument(once, reparse);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(xml::Serialize(*again.value(), opts), once);
    }
  }
}

TEST(FuzzRegressionTest, ReplayAllXpathInputs) {
  for (const fs::path& p : InputsIn("xpath")) {
    SCOPED_TRACE(p.filename().string());
    auto path = xpath::ParsePath(ReadFile(p), /*max_depth=*/256);
    if (path.ok()) {
      EXPECT_FALSE(path.value().ToString().empty());
    }
  }
}

TEST(FuzzRegressionTest, ReplayAllFlworInputs) {
  for (const fs::path& p : InputsIn("flwor")) {
    SCOPED_TRACE(p.filename().string());
    auto expr = flwor::ParseQuery(ReadFile(p), QueryFuzzLimits());
    (void)expr;
  }
}

// Mirror of fuzz_btsx.cc: every input through the persisted formats'
// decoders. v2 images that pass deep validation must adopt and serialize;
// accepted .btsi index images must re-encode byte-identically (the decoder
// pins the canonical layout).
TEST(FuzzRegressionTest, ReplayAllBtsxInputs) {
  for (const fs::path& p : InputsIn("btsx")) {
    SCOPED_TRACE(p.filename().string());
    std::string input = ReadFile(p);
    auto v2 = storage::MapBtsx2(input);
    if (v2.ok() && storage::ValidateBtsx2Deep(*v2).ok()) {
      xml::Document adopted;
      ASSERT_TRUE(adopted.AdoptExternal(v2->ToLayout()).ok());
      EXPECT_FALSE(xml::Serialize(adopted).empty());
    }
    auto idx = index::DecodeBtsi(input);
    if (idx.ok()) {
      auto bytes = index::EncodeBtsi(**idx);
      ASSERT_TRUE(bytes.ok());
      EXPECT_EQ(*bytes, input);
    }
  }
}

// Files in the retired BTSX v1 event-stream format (each once crashed or
// fooled the v1 decoder) are hostile input to every remaining reader: the
// v2 mapper, the BTSI decoder, and DiskStore::Open, the path `btquery`
// takes, must each reject them cleanly.
TEST(FuzzRegressionTest, RetiredV1FilesRejected) {
  size_t seen = 0;
  for (const fs::path& p : InputsIn("btsx")) {
    if (p.filename().string().rfind("v1_", 0) != 0) continue;
    SCOPED_TRACE(p.filename().string());
    ++seen;
    std::string input = ReadFile(p);
    auto v2 = storage::MapBtsx2(input);
    ASSERT_FALSE(v2.ok());
    EXPECT_EQ(v2.status().code(), StatusCode::kInvalidArgument);
    auto idx = index::DecodeBtsi(input);
    ASSERT_FALSE(idx.ok());
    EXPECT_EQ(idx.status().code(), StatusCode::kInvalidArgument);
    auto store = storage::DiskStore::Open(p.string());
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(seen, 3u);
}

// A `.btsi` of an older layout is a stale sidecar: version 1 also carried
// per-tag posting lists, versions 1 and 2 a per-tag average subtree size.
// The decoder rejects it, and a store opened beside it comes up without an
// index and answers through scans, byte for byte as the in-RAM document
// does, until a rewritten sidecar replaces it.
TEST(FuzzRegressionTest, StaleSidecarsFailClosed) {
  // The document those sidecars describe, ingested; each sidecar is
  // stamped with its generation (header bytes 16..23), so only its layout
  // version makes it stale.
  auto doc = xml::ParseDocument(
      "<lib><book><title>alpha</title><year>1995</year></book>"
      "<book><title>beta</title></book></lib>");
  ASSERT_TRUE(doc.ok());
  const std::string path = ::testing::TempDir() + "/bt_stale_sidecar.btsx2";
  const std::string sidecar = index::BtsiSidecarPath(path);
  ASSERT_TRUE(storage::WriteBtsx2(**doc, path).ok());
  const uint64_t generation = (*doc)->generation();
  engine::BlossomTreeEngine in_ram(doc->get());
  const char* const kQueries[] = {
      "//book/title",
      "//book[year = \"1995\"]/title",
      "//title[. = \"beta\"]",
      "//lib[//year]",
      "for $b in //book where $b/title = \"beta\" return $b",
  };
  for (const char* stale : {"btsi_v1_postings.btsi",
                            "btsi_v2_avg_subtree.btsi"}) {
    SCOPED_TRACE(stale);
    std::string sidecar_bytes = ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
                                         "regressions/btsx" / stale);
    auto decoded = index::DecodeBtsi(sidecar_bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    for (size_t i = 0; i < 8; ++i) {
      sidecar_bytes[16 + i] = static_cast<char>(generation >> (8 * i));
    }
    {
      std::ofstream out(sidecar, std::ios::binary | std::ios::trunc);
      out << sidecar_bytes;
    }
    auto store = storage::DiskStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->index(), nullptr);

    engine::EngineOptions disk;
    disk.plan.store = store->get();
    disk.plan.index = (*store)->index();
    engine::BlossomTreeEngine from_disk((*store)->document(), disk);
    for (const char* q : kQueries) {
      auto want = in_ram.EvaluateQuery(q);
      auto got = from_disk.EvaluateQuery(q);
      ASSERT_TRUE(want.ok() && got.ok()) << q;
      EXPECT_FALSE(want->empty()) << q;
      EXPECT_EQ(*got, *want) << q;
      EXPECT_EQ(from_disk.LastExplain().find("IndexSeek"), std::string::npos)
          << from_disk.LastExplain();
    }
  }

  // `btingest --index` rewrites the sidecar in the current layout, which
  // the next open loads, and the value-equality query seeks through it.
  auto idx = index::StructuralIndex::Build(**doc);
  ASSERT_TRUE(index::WriteBtsi(*idx, sidecar).ok());
  auto reopened = storage::DiskStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  ASSERT_NE((*reopened)->index(), nullptr);
  engine::EngineOptions disk;
  disk.plan.store = reopened->get();
  disk.plan.index = (*reopened)->index();
  engine::BlossomTreeEngine indexed((*reopened)->document(), disk);
  auto got = indexed.EvaluateQuery("//title[. = \"beta\"]");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *in_ram.EvaluateQuery("//title[. = \"beta\"]"));
  EXPECT_NE(indexed.LastExplain().find("IndexSeek"), std::string::npos)
      << indexed.LastExplain();
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

// MapBtsx2 once ignored bytes after the last section, accepting
// concatenated images.
TEST(FuzzRegressionTest, Btsx2TrailingBytesRejected) {
  auto r = storage::MapBtsx2(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/btsx/v2_trailing_bytes.btsx2"));
  EXPECT_FALSE(r.ok());
}

// A stray ']' in the internal subset once drove the bracket counter
// negative, so the following '>' never terminated the DOCTYPE and parsing
// ran off the end of the declaration.
TEST(FuzzRegressionTest, DoctypeStrayBracketParses) {
  auto doc = xml::ParseDocument(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/xml/doctype_stray_bracket.xml"),
      XmlFuzzOptions());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value()->NumNodes(), 1u);
}

// '>' inside a quoted SYSTEM literal once terminated the DOCTYPE early,
// leaving `b">` to be mis-parsed as content before the root element.
TEST(FuzzRegressionTest, DoctypeQuotedGtParses) {
  auto doc = xml::ParseDocument(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/xml/doctype_quoted_gt.xml"),
      XmlFuzzOptions());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value()->NumNodes(), 1u);
}

// The hex character-reference accumulator once overflowed (signed, UB);
// now any code point above 0x10FFFF is rejected as soon as it is exceeded.
TEST(FuzzRegressionTest, HexCharRefOverflowRejected) {
  auto doc = xml::ParseDocument(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/xml/charref_overflow.xml"),
      XmlFuzzOptions());
  EXPECT_FALSE(doc.ok());
}

TEST(FuzzRegressionTest, DeepXmlNestingResourceExhausted) {
  auto doc = xml::ParseDocument(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/xml/deep_nesting.xml"),
      XmlFuzzOptions());
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kResourceExhausted);
}

// Deep mixed content once hit two serializer bugs at once: indentation
// whitespace was injected around every text child of an element that also
// had element children, and the recursive walk burned one stack frame per
// document level. The round trip through indented serialization must
// preserve the document exactly.
TEST(FuzzRegressionTest, DeepMixedContentSerializeRoundTrip) {
  auto doc = xml::ParseDocument(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/xml/deep_mixed_content.xml"),
      XmlFuzzOptions());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  xml::SerializeOptions opts;
  opts.indent = true;
  std::string pretty = xml::Serialize(*doc.value(), opts);
  auto doc2 = xml::ParseDocument(pretty, XmlFuzzOptions());
  ASSERT_TRUE(doc2.ok()) << doc2.status().ToString();
  EXPECT_EQ(xml::Serialize(*doc2.value()), xml::Serialize(*doc.value()));
}

// 100k nested predicates once recursed the parser off the stack.
TEST(FuzzRegressionTest, DeepXpathPredicatesRejected) {
  auto path = xpath::ParsePath(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/xpath/deep_predicates.txt"),
      /*max_depth=*/256);
  EXPECT_FALSE(path.ok());
}

// 100k nested parentheses in a where clause once recursed ParseBool /
// ParsePrimary off the stack.
TEST(FuzzRegressionTest, DeepFlworParensRejected) {
  auto expr = flwor::ParseQuery(
      ReadFile(fs::path(BLOSSOMTREE_FUZZ_DIR) /
               "regressions/flwor/deep_parens.txt"),
      QueryFuzzLimits());
  EXPECT_FALSE(expr.ok());
}

}  // namespace
}  // namespace blossomtree
