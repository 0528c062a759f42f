#include "storage/disk_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "storage/btsx2.h"
#include "storage/page_store.h"
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
  // Zero-copy adopt: the facade's records are the store's mapped records.
  ScanCursor cursor;
  EXPECT_EQ((*store)->document()->Records().data(),
            (*store)->NextBlock(0, 0, &cursor).data());
  ExpectFacadeParity(*doc, *(*store)->document());
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

TEST(DiskStoreTest, RecordsMatchPageStoreBitForBit) {
  datagen::GenOptions o;
  o.scale = 0.02;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD1Recursive, o);
  std::string path = WriteTemp(*doc, "records");
  DiskStoreOptions opts;
  opts.block_bytes = 4096;
  auto store = DiskStore::Open(path, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  PageStore pages(*doc, /*page_bytes=*/4096);
  ASSERT_EQ((*store)->NumNodes(), pages.NumNodes());
  ASSERT_EQ((*store)->NumPages(), pages.NumPages());
  ASSERT_EQ((*store)->NodesPerPage(), pages.NodesPerPage());
  ScanCursor dc;
  ScanCursor pc;
  for (xml::NodeId n = 0; n < pages.NumNodes(); ++n) {
    NodeRecord a = (*store)->Get(n, &dc);
    NodeRecord b = pages.Get(n, &pc);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "node " << n;
  }
  // Identical access pattern at identical granularity: identical reads.
  EXPECT_EQ(dc.reads, pc.reads);
  EXPECT_EQ(dc.reads, (*store)->NumPages());
  // Partitioning decisions go through the same subtree-cut grouping.
  for (size_t k : {1u, 2u, 4u, 7u}) {
    auto dparts = (*store)->Partition(k);
    auto pparts = pages.Partition(k);
    ASSERT_EQ(dparts.size(), pparts.size()) << "k=" << k;
    for (size_t i = 0; i < pparts.size(); ++i) {
      EXPECT_TRUE(dparts[i] == pparts[i]) << "k=" << k << " part " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(DiskStoreTest, PreadModeServesScansWithoutMapping) {
  datagen::GenOptions o;
  o.scale = 0.02;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD2Address, o);
  std::string path = WriteTemp(*doc, "pread");
  DiskStoreOptions opts;
  opts.use_mmap = false;
  opts.block_bytes = 4096;
  auto store = DiskStore::Open(path, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->document(), nullptr);
  EXPECT_FALSE((*store)->mmap_backed());
  // The scan API still serves exact records, block by block.
  PageStore pages(*doc, 4096);
  ScanCursor dc;
  ScanCursor pc;
  for (xml::NodeId n = 0; n < pages.NumNodes(); ++n) {
    NodeRecord a = (*store)->Get(n, &dc);
    NodeRecord b = pages.Get(n, &pc);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "node " << n;
  }
  // Derived navigation works straight off the record stream.
  ScanCursor nav;
  for (xml::NodeId n = 0; n < doc->NumNodes(); ++n) {
    ASSERT_EQ((*store)->FirstChild(n, &nav), doc->FirstChild(n));
    ASSERT_EQ((*store)->NextSibling(n, &nav), doc->NextSibling(n));
  }
  std::remove(path.c_str());
}

TEST(DiskStoreTest, BlockCacheRespectsBudget) {
  datagen::GenOptions o;
  o.scale = 0.05;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD5Dblp, o);
  std::string path = WriteTemp(*doc, "budget");
  DiskStoreOptions opts;
  opts.use_mmap = false;  // pread mode: cached blocks are real heap bytes.
  opts.block_bytes = 4096;
  // A budget far below the record section: eviction must kick in.
  opts.cache_budget_bytes = 4 * 4096;
  auto store = DiskStore::Open(path, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_GT((*store)->RecordBytes(), opts.cache_budget_bytes);
  ScanCursor cur;
  for (xml::NodeId n = 0; n < (*store)->NumNodes(); ++n) {
    (*store)->Get(n, &cur);
    util::CacheStats stats = (*store)->BlockCacheStats();
    ASSERT_LE(stats.bytes, (*store)->budget_bytes());
  }
  util::CacheStats stats = (*store)->BlockCacheStats();
  EXPECT_GT(stats.evictions, 0u);
  // One sequential pass over more blocks than fit: every block was read.
  EXPECT_EQ(cur.reads, (*store)->NumPages());
  std::remove(path.c_str());
}

TEST(DiskStoreTest, ProgressesWithBudgetSmallerThanOneBlock) {
  auto doc = Parse("<a><b/><b/><b/><b/></a>");
  std::string path = WriteTemp(*doc, "tiny_budget");
  DiskStoreOptions opts;
  opts.use_mmap = false;
  opts.cache_budget_bytes = 1;  // Nothing can stay resident.
  auto store = DiskStore::Open(path, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ScanCursor cur;
  for (xml::NodeId n = 0; n < (*store)->NumNodes(); ++n) {
    NodeRecord r = (*store)->Get(n, &cur);
    EXPECT_EQ(r.subtree_end, doc->SubtreeEnd(n));
  }
  std::remove(path.c_str());
}

TEST(DiskStoreTest, OpenRejectsMissingAndGarbageFiles) {
  EXPECT_FALSE(DiskStore::Open("/nonexistent/corpus.btsx2").ok());

  std::string path = ::testing::TempDir() + "/bt_disk_garbage.btsx2";
  std::ofstream(path, std::ios::binary) << "this is not a BTSX2 file";
  EXPECT_FALSE(DiskStore::Open(path).ok());
  DiskStoreOptions pread;
  pread.use_mmap = false;
  EXPECT_FALSE(DiskStore::Open(path, pread).ok());
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

/// Drains [begin, end] through NextBlock spans, asserting every span stays
/// inside the range and inside one block, and that every record matches the
/// in-RAM document. Returns the cursor's block reads.
uint64_t DrainRangeBatched(const NodeStore& store, const xml::Document& doc,
                           xml::NodeId begin, xml::NodeId end) {
  ScanCursor cur;
  size_t npp = store.NodesPerPage();
  xml::NodeId n = begin;
  while (n <= end) {
    std::span<const NodeRecord> block = store.NextBlock(n, end, &cur);
    EXPECT_GE(block.size(), 1u);
    EXPECT_LE(n + block.size() - 1, end);
    // A span never crosses its block boundary.
    EXPECT_EQ(n / npp, (n + block.size() - 1) / npp);
    for (size_t i = 0; i < block.size(); ++i) {
      xml::NodeId id = n + static_cast<xml::NodeId>(i);
      EXPECT_EQ(block[i].subtree_end, doc.SubtreeEnd(id)) << "node " << id;
      EXPECT_EQ(block[i].level, doc.Level(id)) << "node " << id;
    }
    n += static_cast<xml::NodeId>(block.size());
  }
  return cur.reads;
}

TEST(DiskStoreTest, NextBlockBoundarySweepPreadVsMmap) {
  // Satellite (b): ranges ending one record before / on / one record after
  // every block boundary — including a final partial block — must serve
  // exact records with exactly ceil(range / nodes_per_block) block reads,
  // identically in pread mode, mmap mode, and the in-RAM PageStore. The
  // final short block in particular must be entered (and counted) once.
  datagen::GenOptions o;
  o.scale = 0.02;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD2Address, o);
  std::string path = WriteTemp(*doc, "boundary");
  DiskStoreOptions mopts;
  mopts.block_bytes = 4096;
  auto mstore = DiskStore::Open(path, mopts);
  ASSERT_TRUE(mstore.ok()) << mstore.status().ToString();
  DiskStoreOptions popts;
  popts.use_mmap = false;
  popts.block_bytes = 4096;
  auto pstore = DiskStore::Open(path, popts);
  ASSERT_TRUE(pstore.ok()) << pstore.status().ToString();
  PageStore pages(*doc, 4096);

  const xml::NodeId total = static_cast<xml::NodeId>(doc->NumNodes());
  const size_t npp = pages.NodesPerPage();
  ASSERT_EQ((*mstore)->NodesPerPage(), npp);
  ASSERT_EQ((*pstore)->NodesPerPage(), npp);
  // More than one block, and a final block that is genuinely short.
  ASSERT_GT((*mstore)->NumPages(), 2u);
  ASSERT_NE(total % npp, 0u);

  std::vector<xml::NodeId> edges;
  for (xml::NodeId b = static_cast<xml::NodeId>(npp); b < total;
       b += static_cast<xml::NodeId>(npp)) {
    edges.push_back(b - 1);  // Last record of a block.
    edges.push_back(b);      // First record of the next.
    if (b + 1 < total) edges.push_back(b + 1);
  }
  edges.push_back(total - 1);  // End of the final short block.
  for (xml::NodeId end : edges) {
    uint64_t expected_reads = end / npp + 1;  // Blocks 0..end/npp, once each.
    EXPECT_EQ(DrainRangeBatched(**mstore, *doc, 0, end), expected_reads)
        << "mmap end=" << end;
    EXPECT_EQ(DrainRangeBatched(**pstore, *doc, 0, end), expected_reads)
        << "pread end=" << end;
    EXPECT_EQ(DrainRangeBatched(pages, *doc, 0, end), expected_reads)
        << "pages end=" << end;
    // Mid-range starts around the same edge: begin inside a block.
    xml::NodeId begin = end / 2;
    uint64_t mid_reads = end / npp - begin / npp + 1;
    EXPECT_EQ(DrainRangeBatched(**mstore, *doc, begin, end), mid_reads);
    EXPECT_EQ(DrainRangeBatched(**pstore, *doc, begin, end), mid_reads);
    EXPECT_EQ(DrainRangeBatched(pages, *doc, begin, end), mid_reads);
  }
  std::remove(path.c_str());
}

TEST(DiskStoreTest, PartitionBoundariesInsideFinalBlockScanExactly) {
  // Partition ranges cut wherever subtree boundaries fall — including
  // inside the final short block. Scanning each range batched must count
  // the same block reads as a Get-per-node scan of the same range, and
  // partitioning itself must count nothing (a planning walk, not scan I/O).
  datagen::GenOptions o;
  o.scale = 0.02;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD3Catalog, o);
  std::string path = WriteTemp(*doc, "partition_blocks");
  for (bool use_mmap : {true, false}) {
    DiskStoreOptions opts;
    opts.use_mmap = use_mmap;
    opts.block_bytes = 4096;
    auto store = DiskStore::Open(path, opts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    (*store)->ResetCounters();
    auto parts = (*store)->Partition(4);
    EXPECT_EQ((*store)->PageReads(), 0u) << "use_mmap=" << use_mmap;
    ASSERT_FALSE(parts.empty());
    for (const NodeRange& r : parts) {
      uint64_t batched = DrainRangeBatched(**store, *doc, r.begin, r.end);
      ScanCursor one;
      for (xml::NodeId n = r.begin; n <= r.end; ++n) (*store)->Get(n, &one);
      EXPECT_EQ(batched, one.reads)
          << "use_mmap=" << use_mmap << " range [" << r.begin << ", "
          << r.end << "]";
    }
  }
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

/// Four threads scan the whole store at once, each through its own cursor;
/// every record must match the PageStore and every scan must count exactly
/// one pass of block reads.
void ExpectConcurrentScansMatch(const xml::Document& doc,
                                const DiskStore& store) {
  PageStore pages(doc, 4096);
  util::ThreadPool pool(4);
  std::vector<int> ok(4, 0);
  std::vector<uint64_t> reads(4, 0);
  pool.ParallelFor(4, [&](size_t t) {
    ScanCursor cur;
    ScanCursor pc;
    bool good = true;
    for (xml::NodeId n = 0; n < store.NumNodes(); ++n) {
      NodeRecord a = store.Get(n, &cur);
      NodeRecord b = pages.Get(n, &pc);
      if (std::memcmp(&a, &b, sizeof a) != 0) good = false;
    }
    ok[t] = good ? 1 : 0;
    reads[t] = cur.reads;
  });
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(ok[t], 1) << "thread " << t;
    // Per-scan read accounting is interleaving-independent: every reader
    // pays exactly one pass regardless of who else is scanning.
    EXPECT_EQ(reads[t], store.NumPages()) << "thread " << t;
  }
}

TEST(DiskStoreTest, ConcurrentScansSeeIdenticalRecords) {
  datagen::GenOptions o;
  o.scale = 0.03;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD4Treebank, o);
  std::string path = WriteTemp(*doc, "concurrent");
  DiskStoreOptions opts;
  opts.use_mmap = false;
  opts.block_bytes = 4096;
  opts.cache_budget_bytes = 8 * 4096;  // Force churn under contention.
  auto store = DiskStore::Open(path, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExpectConcurrentScansMatch(*doc, **store);
  std::remove(path.c_str());
}

TEST(DiskStoreTest, ConcurrentMappedScansSeeIdenticalRecords) {
  // The mapped twin: readers share the image with no pin and no cache.
  datagen::GenOptions o;
  o.scale = 0.03;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD4Treebank, o);
  std::string path = WriteTemp(*doc, "concurrent_mapped");
  DiskStoreOptions opts;
  opts.block_bytes = 4096;
  opts.cache_budget_bytes = 1;
  auto store = DiskStore::Open(path, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_NE((*store)->document(), nullptr);
  ExpectConcurrentScansMatch(*doc, **store);
  EXPECT_EQ((*store)->PageReads(), 4 * (*store)->NumPages());
  std::remove(path.c_str());
}

TEST(DiskStoreTest, MappedReadsKeepNoBlockLedger) {
  // A mapped store serves record reads straight from the image: a budget
  // of one byte changes nothing — not the records, not the read
  // accounting, not the partitions — and no block cache is ever touched.
  datagen::GenOptions o;
  o.scale = 0.02;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD1Recursive, o);
  std::string path = WriteTemp(*doc, "no_ledger");
  DiskStoreOptions opts;
  opts.block_bytes = 4096;
  opts.cache_budget_bytes = 1;
  auto store = DiskStore::Open(path, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_NE((*store)->document(), nullptr);
  PageStore pages(*doc, /*page_bytes=*/4096);
  ASSERT_EQ((*store)->NumPages(), pages.NumPages());
  ASSERT_GT((*store)->NumPages(), 2u);

  ScanCursor dc;
  ScanCursor pc;
  for (xml::NodeId n = 0; n < pages.NumNodes(); ++n) {
    NodeRecord a = (*store)->Get(n, &dc);
    NodeRecord b = pages.Get(n, &pc);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "node " << n;
  }
  EXPECT_EQ(dc.reads, (*store)->NumPages());
  EXPECT_EQ(dc.reads, pc.reads);
  EXPECT_EQ(dc.pin, nullptr);

  ScanCursor bc;
  ScanCursor pbc;
  const xml::NodeId last = static_cast<xml::NodeId>(pages.NumNodes() - 1);
  for (xml::NodeId n = 0; n <= last;) {
    std::span<const NodeRecord> disk = (*store)->NextBlock(n, last, &bc);
    std::span<const NodeRecord> page = pages.NextBlock(n, last, &pbc);
    ASSERT_EQ(disk.size(), page.size()) << "node " << n;
    ASSERT_EQ(std::memcmp(disk.data(), page.data(),
                          disk.size() * sizeof(NodeRecord)),
              0)
        << "node " << n;
    n += static_cast<xml::NodeId>(disk.size());
  }
  EXPECT_EQ(bc.reads, (*store)->NumPages());
  EXPECT_EQ(bc.reads, pbc.reads);

  for (size_t k : {1u, 2u, 4u}) {
    EXPECT_TRUE((*store)->Partition(k) == pages.Partition(k)) << "k=" << k;
  }
  util::CacheStats stats = (*store)->BlockCacheStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_LE((*store)->ResidentBytes(), (*store)->FileBytes());
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

  DiskStoreOptions popts;
  popts.use_mmap = false;
  popts.block_bytes = 4096;
  auto pread = DiskStore::Open(path, popts);
  ASSERT_TRUE(pread.ok()) << pread.status().ToString();
  EXPECT_EQ((*pread)->ResidentBytes(), 0u);
  ScanCursor cur;
  (*pread)->Get(0, &cur);
  EXPECT_EQ((*pread)->ResidentBytes(), (*pread)->BlockCacheStats().bytes);
  EXPECT_EQ((*pread)->ResidentBytes(), 4096u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace storage
}  // namespace blossomtree
