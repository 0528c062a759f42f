#include "storage/disk_store.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "index/btsi.h"
#include "index/structural_index.h"
#include "opt/planner.h"
#include "storage/btsx2.h"
#include "storage/partition.h"
#include "util/thread_pool.h"
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

/// Writes `doc` as BTSX v2 into TempDir and returns the path.
std::string WriteTemp(const xml::Document& doc, const std::string& tag) {
  std::string path = ::testing::TempDir() + "/bt_disk_" + tag + ".btsx2";
  Status st = WriteBtsx2(doc, path);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return path;
}

/// WriteTemp plus the `.btsi` structural-index sidecar next to the file.
std::string WriteTempWithSidecar(const xml::Document& doc,
                                 const std::string& tag) {
  std::string path = WriteTemp(doc, tag);
  Status st = index::WriteBtsi(*index::StructuralIndex::Build(doc),
                               index::BtsiSidecarPath(path));
  EXPECT_TRUE(st.ok()) << st.ToString();
  return path;
}

void RemoveWithSidecar(const std::string& path) {
  std::remove(index::BtsiSidecarPath(path).c_str());
  std::remove(path.c_str());
}

/// Exhaustive facade comparison: every accessor the engine reads, at every
/// node, must agree between the in-RAM build and the mapped view.
void ExpectFacadeParity(const xml::Document& ram, const xml::Document& disk) {
  ASSERT_EQ(disk.NumNodes(), ram.NumNodes());
  ASSERT_EQ(disk.NumElements(), ram.NumElements());
  EXPECT_EQ(disk.MaxDepth(), ram.MaxDepth());
  EXPECT_EQ(disk.tags().size(), ram.tags().size());
  for (xml::NodeId n = 0; n < ram.NumNodes(); ++n) {
    ASSERT_EQ(disk.Kind(n), ram.Kind(n)) << "node " << n;
    ASSERT_EQ(disk.Parent(n), ram.Parent(n)) << "node " << n;
    ASSERT_EQ(disk.FirstChild(n), ram.FirstChild(n)) << "node " << n;
    ASSERT_EQ(disk.NextSibling(n), ram.NextSibling(n)) << "node " << n;
    ASSERT_EQ(disk.SubtreeEnd(n), ram.SubtreeEnd(n)) << "node " << n;
    ASSERT_EQ(disk.Level(n), ram.Level(n)) << "node " << n;
    if (ram.IsElement(n)) {
      ASSERT_EQ(disk.Tag(n), ram.Tag(n)) << "node " << n;
      ASSERT_EQ(disk.TagName(n), ram.TagName(n)) << "node " << n;
      auto da = disk.Attributes(n);
      auto ra = ram.Attributes(n);
      ASSERT_EQ(da.size(), ra.size()) << "node " << n;
      for (size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(da[i].first, ra[i].first) << "node " << n;
        EXPECT_EQ(da[i].second, ra[i].second) << "node " << n;
      }
    } else {
      ASSERT_EQ(disk.Text(n), ram.Text(n)) << "node " << n;
    }
  }
  for (xml::TagId t = 0; t < ram.tags().size(); ++t) {
    auto di = disk.TagIndex(t);
    auto ri = ram.TagIndex(t);
    ASSERT_EQ(di.size(), ri.size()) << "tag " << t;
    for (size_t i = 0; i < ri.size(); ++i) {
      ASSERT_EQ(di[i], ri[i]) << "tag " << t << " entry " << i;
    }
    EXPECT_EQ(disk.TagRecursionDegree(t), ram.TagRecursionDegree(t));
  }
  // Serialization is the end-to-end identity check: byte-identical XML.
  EXPECT_EQ(xml::Serialize(disk), xml::Serialize(ram));
}

TEST(DiskStoreTest, OpensAndServesFacade) {
  auto doc = Parse(
      "<lib genre=\"all\"><book id=\"1\"><t>A</t></book>mixed"
      "<book id=\"2\"><t>B</t><t>C</t></book></lib>");
  std::string path = WriteTemp(*doc, "facade");
  DiskStoreOptions opts;
  opts.full_validation = true;
  auto store = DiskStore::Open(path, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_NE((*store)->document(), nullptr);
  const xml::Document& adopted = *(*store)->document();
  ExpectFacadeParity(*doc, adopted);
  // Zero-copy adoption: the record view and a tag stream both point into
  // the one image, so their byte distance is the distance on disk. Copies
  // into owned vectors would land in unrelated allocations. Section table:
  // (offset, size) pairs from header byte 88.
  std::ifstream in(path, std::ios::binary);
  std::string file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto section_offset = [&](size_t sec) {
    uint64_t off = 0;
    std::memcpy(&off, file.data() + 88 + sec * 16, sizeof off);
    return off;
  };
  uint64_t tag0_entry = 0;  // Prefix offset of tag 0's stream, in NodeIds.
  std::memcpy(&tag0_entry, file.data() + section_offset(kSecTagStreamOffsets),
              sizeof tag0_entry);
  ASSERT_FALSE(adopted.TagIndex(0).empty());
  const char* records =
      reinterpret_cast<const char*>(adopted.Records().data());
  const char* tag0 = reinterpret_cast<const char*>(adopted.TagIndex(0).data());
  EXPECT_EQ(tag0 - records,
            static_cast<std::ptrdiff_t>(section_offset(kSecTagStreams) +
                                        tag0_entry * sizeof(xml::NodeId) -
                                        section_offset(kSecRecords)));
  // The on-disk stamp is the ingest-time generation; the adopted facade
  // carries a fresh one (cache identities never collide across opens).
  EXPECT_EQ((*store)->on_disk_generation(), doc->generation());
  EXPECT_NE((*store)->generation(), doc->generation());
  std::remove(path.c_str());
}

class DiskStoreDatasetTest
    : public ::testing::TestWithParam<datagen::Dataset> {};

TEST_P(DiskStoreDatasetTest, FacadeParityOnGeneratedData) {
  datagen::GenOptions o;
  o.scale = 0.02;
  auto doc = datagen::GenerateDataset(GetParam(), o);
  std::string path =
      WriteTemp(*doc, std::string("ds_") + datagen::DatasetName(GetParam()));
  DiskStoreOptions opts;
  opts.full_validation = true;
  auto store = DiskStore::Open(path, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExpectFacadeParity(*doc, *(*store)->document());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DiskStoreDatasetTest,
                         ::testing::ValuesIn(datagen::AllDatasets()),
                         [](const auto& info) {
                           return std::string(
                               datagen::DatasetName(info.param));
                         });

TEST(DiskStoreTest, QueriesAreByteIdenticalToRam) {
  datagen::GenOptions o;
  o.scale = 0.05;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD5Dblp, o);
  std::string path = WriteTemp(*doc, "queries");
  auto store = DiskStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  const char* queries[] = {
      "//article/author",
      "//phdthesis[year]/title",
      "for $a in //article where exists($a/year) return "
      "<hit>{$a/title}</hit>",
  };
  for (const char* q : queries) {
    engine::BlossomTreeEngine ram_engine(doc.get());
    engine::EngineOptions eo;
    eo.plan.store = store->get();
    engine::BlossomTreeEngine disk_engine((*store)->document(), eo);
    auto ram_r = ram_engine.EvaluateQuery(q);
    auto disk_r = disk_engine.EvaluateQuery(q);
    ASSERT_TRUE(ram_r.ok()) << ram_r.status().ToString();
    ASSERT_TRUE(disk_r.ok()) << disk_r.status().ToString();
    EXPECT_EQ(*disk_r, *ram_r) << q;
  }
  std::remove(path.c_str());
}

TEST(DiskStoreTest, OpenRejectsMissingAndGarbageFiles) {
  EXPECT_FALSE(DiskStore::Open("/nonexistent/corpus.btsx2").ok());

  std::string path = ::testing::TempDir() + "/bt_disk_garbage.btsx2";
  std::ofstream(path, std::ios::binary) << "this is not a BTSX2 file";
  EXPECT_FALSE(DiskStore::Open(path).ok());
  std::remove(path.c_str());
}

TEST(DiskStoreTest, OpenRejectsTruncatedFile) {
  auto doc = Parse("<a><b>text</b><c x=\"1\"/></a>");
  auto encoded = EncodeBtsx2(*doc);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  std::string path = ::testing::TempDir() + "/bt_disk_trunc.btsx2";
  // Cut the file short of the last section: Open must fail cleanly.
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << encoded->substr(0, encoded->size() - 8);
  auto r = DiskStore::Open(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST(DiskStoreTest, DeepValidationCatchesBitFlips) {
  auto doc = Parse("<a><b>t</b><c k=\"v\"/><b/></a>");
  auto encoded = EncodeBtsx2(*doc);
  ASSERT_TRUE(encoded.ok());
  // Flipping any byte must never crash Open: it either fails validation or
  // yields some self-consistent view (flips in text payloads, say).
  std::string path = ::testing::TempDir() + "/bt_disk_flip.btsx2";
  DiskStoreOptions opts;
  opts.full_validation = true;
  for (size_t i = 0; i < encoded->size(); i += 3) {
    std::string corrupt = *encoded;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5A);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << corrupt;
    auto r = DiskStore::Open(path, opts);
    if (r.ok()) {
      EXPECT_EQ((*r)->NumNodes(), (*r)->document()->NumNodes());
    }
  }
  std::remove(path.c_str());
}

TEST(DiskStoreTest, EmptyDocumentRoundTrips) {
  xml::Document doc;
  ASSERT_TRUE(doc.Finish().ok());
  std::string path = WriteTemp(doc, "empty");
  DiskStoreOptions opts;
  opts.full_validation = true;
  auto store = DiskStore::Open(path, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->NumNodes(), 0u);
  EXPECT_TRUE((*store)->document()->empty());
  std::remove(path.c_str());
}

TEST(DiskStoreTest, MapRejectsMisalignedImage) {
  // Satellite (c): the BTSX2 mapper serves typed section views, so it must
  // refuse an image whose base is not 16-byte aligned instead of handing
  // out misaligned PackedNodeRecord pointers (UB under UBSan).
  auto doc = Parse("<a><b>text</b><c x=\"1\"/></a>");
  auto encoded = EncodeBtsx2(*doc);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  // Up to 15 bytes of alignment slack, plus the one-byte shift below.
  auto raw = std::make_unique<char[]>(encoded->size() + 17);
  char* aligned = raw.get();
  aligned += (16 - reinterpret_cast<uintptr_t>(aligned) % 16) % 16;
  ASSERT_EQ(reinterpret_cast<uintptr_t>(aligned) % 16, 0u);
  std::memcpy(aligned, encoded->data(), encoded->size());
  EXPECT_TRUE(MapBtsx2(std::string_view(aligned, encoded->size())).ok());
  // The same bytes one past alignment must be rejected up front.
  char* misaligned = aligned + 1;
  std::memmove(misaligned, aligned, encoded->size());
  auto r = MapBtsx2(std::string_view(misaligned, encoded->size()));
  EXPECT_FALSE(r.ok());
}


TEST(DiskStoreTest, TouchCountsEachBlockEnteredOnce) {
  // Ranges ending one record before / on / one record after every block
  // boundary — including a final short block — count exactly the blocks
  // they span, whether touched as one range or one id at a time.
  datagen::GenOptions o;
  o.scale = 0.02;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD2Address, o);
  std::string path = WriteTemp(*doc, "boundary");
  DiskStoreOptions opts;
  opts.block_bytes = 4096;
  auto store = DiskStore::Open(path, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const DiskStore& s = **store;
  const xml::NodeId total = static_cast<xml::NodeId>(s.NumNodes());
  const size_t npb = s.NodesPerBlock();
  ASSERT_EQ(npb, 4096 / sizeof(xml::PackedNodeRecord));
  // More than one block, and a final block that is genuinely short.
  ASSERT_GT(s.NumBlocks(), 2u);
  ASSERT_NE(total % npb, 0u);

  auto reads = [&](xml::NodeId begin, xml::NodeId end, bool per_id) {
    BlockCursor cur;
    uint64_t before = s.PageReads();
    if (per_id) {
      for (xml::NodeId n = begin; n <= end; ++n) s.Touch(n, n, &cur);
    } else {
      s.Touch(begin, end, &cur);
    }
    return s.PageReads() - before;
  };
  std::vector<xml::NodeId> edges;
  for (xml::NodeId b = static_cast<xml::NodeId>(npb); b < total;
       b += static_cast<xml::NodeId>(npb)) {
    edges.push_back(b - 1);  // Last record of a block.
    edges.push_back(b);      // First record of the next.
    if (b + 1 < total) edges.push_back(b + 1);
  }
  edges.push_back(total - 1);  // End of the final short block.
  for (xml::NodeId end : edges) {
    uint64_t expected = end / npb + 1;  // Blocks 0..end/npb, once each.
    EXPECT_EQ(reads(0, end, false), expected) << "end=" << end;
    EXPECT_EQ(reads(0, end, true), expected) << "end=" << end;
    // Mid-range starts around the same edge: begin inside a block.
    xml::NodeId begin = end / 2;
    uint64_t mid = end / npb - begin / npb + 1;
    EXPECT_EQ(reads(begin, end, false), mid) << "end=" << end;
    EXPECT_EQ(reads(begin, end, true), mid) << "end=" << end;
  }
  // A cursor already on a block does not pay for it again; a jump back
  // to a block it left does.
  BlockCursor cur;
  uint64_t before = s.PageReads();
  s.Touch(0, 0, &cur);
  s.Touch(1, static_cast<xml::NodeId>(npb - 1), &cur);
  EXPECT_EQ(s.PageReads() - before, 1u);
  s.Touch(static_cast<xml::NodeId>(npb), static_cast<xml::NodeId>(npb), &cur);
  s.Touch(0, 0, &cur);
  EXPECT_EQ(s.PageReads() - before, 3u);
  std::remove(path.c_str());
}

TEST(DiskStoreTest, ConcurrentMappedScansSeeIdenticalRecords) {
  // Four threads share one mapped store with its `.btsi` sidecar. Each runs
  // a value-index seek, tag-stream and wildcard scans and a full per-id
  // sweep through its own engines and cursors: every answer matches the
  // in-RAM build, and the block reads add up to exactly four serial runs,
  // however they interleave.
  datagen::GenOptions o;
  o.scale = 0.03;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD5Dblp, o);
  std::string path = WriteTempWithSidecar(*doc, "concurrent_mapped");
  DiskStoreOptions opts;
  opts.block_bytes = 4096;
  auto store = DiskStore::Open(path, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const DiskStore& s = **store;
  ASSERT_NE(s.index(), nullptr);
  const std::vector<std::string> queries = {
      "//year[. = \"index omega\"]",                   // Value-index seek.
      "//mastersthesis[school = \"node tree\"]/author",  // Rare root tag.
      "//*[year]/title",                                // Wildcard: a scan.
      "for $a in //article where exists($a/year) return "
      "<hit>{$a/title}</hit>",
  };
  std::vector<std::string> expected;
  for (const std::string& q : queries) {
    engine::BlossomTreeEngine ram(doc.get());
    auto r = ram.EvaluateQuery(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(*r);
  }
  // One reader's work; true iff every answer matched.
  auto run = [&] {
    bool good = true;
    for (size_t i = 0; i < queries.size(); ++i) {
      engine::EngineOptions eo;
      eo.num_threads = 1;
      eo.plan.store = &s;
      eo.plan.index = s.index();
      engine::BlossomTreeEngine disk(s.document(), eo);
      auto r = disk.EvaluateQuery(queries[i]);
      good = good && r.ok() && *r == expected[i];
    }
    BlockCursor cur;
    for (xml::NodeId n = 0; n < s.NumNodes(); ++n) s.Touch(n, n, &cur);
    return good;
  };
  uint64_t before = s.PageReads();
  ASSERT_TRUE(run());
  const uint64_t serial = s.PageReads() - before;
  ASSERT_GT(serial, s.NumBlocks());

  util::ThreadPool pool(4);
  std::vector<int> ok(4, 0);
  before = s.PageReads();
  pool.ParallelFor(4, [&](size_t t) { ok[t] = run() ? 1 : 0; });
  for (size_t t = 0; t < 4; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;
  EXPECT_EQ(s.PageReads() - before, 4 * serial);
  RemoveWithSidecar(path);
}

TEST(DiskStoreTest, MappedReadsKeepNoBlockLedger) {
  // A mapped store serves record reads straight from the image: a budget
  // of one byte changes nothing — not the records, not the read
  // accounting, not the partitions — and no block cache exists.
  datagen::GenOptions o;
  o.scale = 0.02;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD1Recursive, o);
  std::string path = WriteTemp(*doc, "no_ledger");
  DiskStoreOptions opts;
  opts.block_bytes = 4096;
  opts.cache_budget_bytes = 1;
  auto store = DiskStore::Open(path, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const DiskStore& s = **store;
  ASSERT_GT(s.NumBlocks(), 2u);
  ExpectFacadeParity(*doc, *s.document());

  BlockCursor cur;
  uint64_t before = s.PageReads();
  for (xml::NodeId n = 0; n < s.NumNodes(); ++n) s.Touch(n, n, &cur);
  EXPECT_EQ(s.PageReads() - before, s.NumBlocks());

  for (size_t k : {1u, 2u, 4u}) {
    EXPECT_EQ(PartitionSubtrees(*s.document(), k), PartitionSubtrees(*doc, k))
        << "k=" << k;
  }
  util::CacheStats stats = s.BlockCacheStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_LE(s.ResidentBytes(), s.FileBytes());
  std::remove(path.c_str());
}

TEST(DiskStoreTest, ResidentBytesMeasuresEachMode) {
  datagen::GenOptions o;
  o.scale = 0.02;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD2Address, o);
  std::string path = WriteTemp(*doc, "resident");
  auto mapped = DiskStore::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // Serializing reads every page of the image through the facade: the
  // pages are resident at least while the mapping holds them.
  ASSERT_FALSE(xml::Serialize(*(*mapped)->document()).empty());
  if ((*mapped)->mmap_backed()) {
    EXPECT_GT((*mapped)->ResidentBytes(), 0u);
    EXPECT_LE((*mapped)->ResidentBytes(), (*mapped)->FileBytes());
  } else {
    EXPECT_EQ((*mapped)->ResidentBytes(), (*mapped)->FileBytes());
  }
  std::remove(path.c_str());
}

/// Block reads one engine query pays on a mapped store, pinned to exact
/// values: a block read is a transition of NodeId / nodes_per_block along
/// the ids whose root test a scan runs, with one private cursor per serial
/// scan and per parallel partition (reset when a BNLJ inner re-scans). A
/// query without a value-index run or DataGuide proof reads the same blocks
/// with and without a sidecar: the blocks of its root tags' streams.
TEST(DiskStoreTest, EngineBlockReadsArePinned) {
  struct Case {
    datagen::Dataset dataset;
    const char* query;
    bool bnlj;  ///< Force the bounded nested-loop join (restricted re-scans).
    uint64_t reads[2][2];  ///< [sidecar][1 thread, 4 threads]
  };
  const Case cases[] = {
      {datagen::Dataset::kD5Dblp, "//year[. = \"index omega\"]", false,
       {{116, 119}, {5, 5}}},
      {datagen::Dataset::kD5Dblp,
       "//mastersthesis[school = \"node tree\"]/author", false,
       {{49, 49}, {49, 49}}},
      {datagen::Dataset::kD5Dblp, "//phdthesis/editor", false,
       {{71, 71}, {0, 0}}},
      {datagen::Dataset::kD5Dblp, "//article/title", false,
       {{115, 117}, {115, 117}}},
      {datagen::Dataset::kD5Dblp,
       "for $a in //inproceedings, $b in $a//author return <hit>{$b}</hit>",
       true, {{712, 715}, {712, 715}}},
      {datagen::Dataset::kD3Catalog, "//*[ISBN]/title", false,
       {{21, 24}, {21, 24}}},
  };
  for (datagen::Dataset d :
       {datagen::Dataset::kD5Dblp, datagen::Dataset::kD3Catalog}) {
    datagen::GenOptions o;
    o.scale = 0.05;
    auto doc = datagen::GenerateDataset(d, o);
    std::string path =
        WriteTemp(*doc, std::string("pinned_") + datagen::DatasetName(d));
    ASSERT_TRUE(index::WriteBtsi(*index::StructuralIndex::Build(*doc),
                                 index::BtsiSidecarPath(path))
                    .ok());
    for (int sidecar : {0, 1}) {
      DiskStoreOptions opts;
      opts.block_bytes = 4096;
      opts.load_index = sidecar == 1;
      auto store = DiskStore::Open(path, opts);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      ASSERT_EQ((*store)->index() != nullptr, sidecar == 1);
      for (const Case& c : cases) {
        if (c.dataset != d) continue;
        engine::EngineOptions ro;
        ro.num_threads = 1;
        engine::BlossomTreeEngine ram(doc.get(), ro);
        auto expected = ram.EvaluateQuery(c.query);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        for (int t : {0, 1}) {
          engine::EngineOptions eo;
          eo.num_threads = t == 0 ? 1 : 4;
          eo.plan.store = store->get();
          eo.plan.index = (*store)->index();
          if (c.bnlj) eo.plan.strategy = opt::JoinStrategy::kBoundedNestedLoop;
          engine::BlossomTreeEngine disk((*store)->document(), eo);
          uint64_t before = (*store)->PageReads();
          auto got = disk.EvaluateQuery(c.query);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(*got, *expected) << c.query;
          EXPECT_EQ((*store)->PageReads() - before, c.reads[sidecar][t])
              << c.query << " sidecar=" << sidecar
              << " threads=" << eo.num_threads;
        }
      }
    }
    std::remove(index::BtsiSidecarPath(path).c_str());
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace storage
}  // namespace blossomtree
