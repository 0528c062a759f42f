#include "storage/partition.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "datagen/datagen.h"
#include "storage/btsx2.h"
#include "storage/disk_store.h"
#include "xml/parser.h"

namespace blossomtree {
namespace storage {
namespace {

std::unique_ptr<xml::Document> Doc(const char* text) {
  auto parsed = xml::ParseDocument(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.MoveValue();
}

/// Every partitioning must tile [0, N-1] with contiguous ascending ranges.
void ExpectTiles(const xml::Document& doc,
                 const std::vector<NodeRange>& parts) {
  ASSERT_FALSE(parts.empty());
  EXPECT_EQ(parts.front().begin, 0u);
  EXPECT_EQ(parts.back().end, doc.NumNodes() - 1);
  for (size_t i = 1; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i].begin, parts[i - 1].end + 1);
  }
}

/// Cuts must fall at top-level subtree boundaries: every partition start
/// (except node 0) is a child of the root.
void ExpectTopLevelCuts(const xml::Document& doc,
                        const std::vector<NodeRange>& parts) {
  for (size_t i = 1; i < parts.size(); ++i) {
    EXPECT_EQ(doc.Parent(parts[i].begin), doc.Root())
        << "partition " << i << " starts mid-subtree";
  }
}

TEST(PartitionTest, EmptyDocument) {
  xml::Document doc;
  ASSERT_TRUE(doc.Finish().ok());
  EXPECT_TRUE(PartitionSubtrees(doc, 4).empty());
}

TEST(PartitionTest, SingleNode) {
  auto doc = Doc("<a/>");
  auto parts = PartitionSubtrees(*doc, 4);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], (NodeRange{0, 0}));
}

TEST(PartitionTest, OnePartitionIsFullRange) {
  auto doc = Doc("<a><b/><c/><d/></a>");
  auto parts = PartitionSubtrees(*doc, 1);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], (NodeRange{0, 3}));
}

TEST(PartitionTest, SplitsAtTopLevelChildren) {
  // Root + 4 children of 3 nodes each: 13 nodes total.
  auto doc = Doc(
      "<r>"
      "<a><x/><y/></a><b><x/><y/></b>"
      "<c><x/><y/></c><d><x/><y/></d>"
      "</r>");
  ASSERT_EQ(doc->NumNodes(), 13u);
  auto parts = PartitionSubtrees(*doc, 2);
  ASSERT_EQ(parts.size(), 2u);
  ExpectTiles(*doc, parts);
  ExpectTopLevelCuts(*doc, parts);
  // Balanced: 7 + 6 nodes.
  EXPECT_EQ(parts[0].size(), 7u);
  EXPECT_EQ(parts[1].size(), 6u);
}

TEST(PartitionTest, MorePartitionsThanChildren) {
  auto doc = Doc("<r><a/><b/></r>");
  auto parts = PartitionSubtrees(*doc, 8);
  EXPECT_LE(parts.size(), 3u);  // At most root-group + 2 subtrees.
  ExpectTiles(*doc, parts);
  ExpectTopLevelCuts(*doc, parts);
}

TEST(PartitionTest, SkewedSubtreesStayWhole) {
  // One huge first child: it cannot be split, so it dominates partition 1.
  auto doc = Doc(
      "<r><big><a/><b/><c/><d/><e/><f/><g/><h/></big><s1/><s2/><s3/></r>");
  auto parts = PartitionSubtrees(*doc, 4);
  ExpectTiles(*doc, parts);
  ExpectTopLevelCuts(*doc, parts);
  // The big subtree (nodes 1..9) is never cut.
  for (const NodeRange& p : parts) {
    EXPECT_FALSE(p.begin > 1 && p.begin <= 9);
  }
}

TEST(PartitionTest, GeneratedDatasetsTileCorrectly) {
  for (datagen::Dataset d : datagen::AllDatasets()) {
    datagen::GenOptions o;
    o.scale = 0.02;
    auto doc = datagen::GenerateDataset(d, o);
    for (size_t k : {2, 3, 4, 8, 16}) {
      auto parts = PartitionSubtrees(*doc, k);
      EXPECT_LE(parts.size(), k);
      ExpectTiles(*doc, parts);
      ExpectTopLevelCuts(*doc, parts);
    }
  }
}

TEST(PartitionTest, WalkCutsMatchNavigationCuts) {
  // The record walk's cuts are the root plus its children in the order
  // FirstChild/NextSibling visit them. With one partition per node, every
  // cut starts its own range, so the range starts are exactly the cuts.
  for (datagen::Dataset d : datagen::AllDatasets()) {
    datagen::GenOptions o;
    o.scale = 0.02;
    auto doc = datagen::GenerateDataset(d, o);
    std::vector<xml::NodeId> cuts = {doc->Root()};
    for (xml::NodeId c = doc->FirstChild(doc->Root()); c != xml::kNullNode;
         c = doc->NextSibling(c)) {
      cuts.push_back(c);
    }
    std::vector<xml::NodeId> starts;
    for (const NodeRange& r : PartitionSubtrees(*doc, doc->NumNodes())) {
      starts.push_back(r.begin);
    }
    EXPECT_EQ(starts, cuts) << datagen::DatasetName(d);
    for (size_t k : {1, 2, 4, 8}) {
      EXPECT_EQ(PartitionSubtrees(*doc, k),
                GroupSubtreeCuts(cuts, doc->NumNodes(), k))
          << datagen::DatasetName(d) << " k=" << k;
    }
  }
}

TEST(PartitionTest, EmptyUnfinishedDocumentIsSafe) {
  xml::Document doc;  // Empty (e.g. a failed parse left nothing behind).
  EXPECT_TRUE(PartitionSubtrees(doc, 4).empty());
}

TEST(PartitionTest, UnterminatedDocumentStaysInBounds) {
  // A document abandoned mid-build (BeginElement without EndElement) can
  // carry a root subtree_end pointing past the record array; the walk must
  // stop instead of indexing out of bounds.
  xml::Document doc;
  doc.BeginElement("a");
  doc.BeginElement("b");
  std::vector<NodeRange> ranges = PartitionSubtrees(doc, 4);
  ASSERT_FALSE(ranges.empty());
  for (const NodeRange& r : ranges) {
    EXPECT_LE(r.begin, r.end);
    EXPECT_LT(r.end, doc.NumNodes());  // Ranges are inclusive.
  }
}

TEST(PartitionTest, SingleNodeDocumentIsCoveredOnce) {
  auto doc = Doc("<a/>");
  size_t covered = 0;
  for (const NodeRange& r : PartitionSubtrees(*doc, 4)) covered += r.size();
  EXPECT_EQ(covered, 1u);
}

TEST(PartitionTest, BackwardSubtreeEndInMappedImageStaysInBounds) {
  // A mapped image is only header-validated by default, so its records can
  // say anything. Point the first top-level child's subtree_end back at
  // the root: following it as NextSibling would revisit that child
  // forever, and the walk must stop in bounds instead.
  auto doc = Doc("<r><a><x/></a><b/><c/></r>");
  auto encoded = EncodeBtsx2(*doc);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  uint64_t records = 0;  // Section table: (offset, size) pairs from byte 88.
  std::memcpy(&records, encoded->data() + 88 + kSecRecords * 16,
              sizeof records);
  xml::NodeId backwards = 0;
  std::memcpy(encoded->data() + records + 1 * sizeof(xml::PackedNodeRecord) +
                  offsetof(xml::PackedNodeRecord, subtree_end),
              &backwards, sizeof backwards);
  std::string path = ::testing::TempDir() + "/bt_partition_backwards.btsx2";
  std::ofstream(path, std::ios::binary | std::ios::trunc) << *encoded;

  auto store = DiskStore::Open(path);  // No full_validation.
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const xml::Document& image = *(*store)->document();
  ASSERT_EQ(image.SubtreeEnd(1), 0u);
  ASSERT_EQ(image.NextSibling(1), 1u);  // The loop a navigation walk hits.
  for (size_t k : {1, 2, 4, 8}) {
    std::vector<NodeRange> ranges = PartitionSubtrees(image, k);
    ASSERT_FALSE(ranges.empty()) << "k=" << k;
    EXPECT_EQ(ranges.front().begin, 0u);
    EXPECT_EQ(ranges.back().end, image.NumNodes() - 1);
    for (size_t i = 1; i < ranges.size(); ++i) {
      EXPECT_EQ(ranges[i].begin, ranges[i - 1].end + 1) << "k=" << k;
    }
  }
  // Deep validation refuses the same image outright.
  DiskStoreOptions strict;
  strict.full_validation = true;
  EXPECT_FALSE(DiskStore::Open(path, strict).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace storage
}  // namespace blossomtree
