// Structural-index suite (DESIGN.md §14): DataGuide / tag-statistics /
// value-index construction, BTSI sidecar roundtrip, and the planner's
// access paths — a scan tests only its candidates (the root tag's stream,
// or a value-index run, which is never larger), results stay byte-identical
// at every thread count, and DataGuide short-circuits test no node at all.

#include "index/structural_index.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "engine/query_profile.h"
#include "exec/value_ops.h"
#include "index/btsi.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "storage/btsx2.h"
#include "storage/disk_store.h"
#include "util/thread_pool.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace index {
namespace {

std::unique_ptr<xml::Document> Parse(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

pattern::BlossomTree Tree(std::string_view query) {
  auto p = xpath::ParsePath(query);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  auto t = pattern::BuildFromPath(*p);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return t.MoveValue();
}

std::vector<xml::NodeId> Eval(const xml::Document& doc,
                              std::string_view query,
                              const opt::PlanOptions& opts = {}) {
  pattern::BlossomTree t = Tree(query);
  auto r = opt::EvaluatePathQuery(&doc, &t, opts);
  EXPECT_TRUE(r.ok()) << query << ": " << r.status().ToString();
  return r.ok() ? r.MoveValue() : std::vector<xml::NodeId>{};
}

/// Brute force the index is checked against: elements of `tag` whose
/// string-value CompareValues-equals `literal`.
std::vector<xml::NodeId> BruteEq(const xml::Document& doc,
                                 const std::string& tag,
                                 std::string_view literal) {
  std::vector<xml::NodeId> out;
  xml::TagId t = doc.tags().Lookup(tag);
  if (t == xml::kNullTag) return out;
  for (xml::NodeId n : doc.TagIndex(t)) {
    if (exec::CompareValues(doc.StringValue(n), xpath::CompareOp::kEq,
                            literal)) {
      out.push_back(n);
    }
  }
  return out;
}

// -- Construction ------------------------------------------------------------

TEST(StructuralIndexTest, BuildStatsAndGuide) {
  auto doc = Parse("<r><a><b>x</b><b>y</b></a><c><b>z</b></c></r>");
  auto idx = StructuralIndex::Build(*doc);
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->generation(), doc->generation());
  EXPECT_EQ(idx->num_nodes(), doc->NumNodes());
  EXPECT_EQ(idx->num_elements(), doc->NumElements());
  EXPECT_TRUE(idx->Matches(*doc));

  // Per-tag statistics: no value of b exceeds the cap.
  xml::TagId b = doc->tags().Lookup("b");
  ASSERT_NE(b, xml::kNullTag);
  EXPECT_EQ(idx->Stats(b).overlong_values, 0u);

  // Guide: distinct root-to-element paths r, r/a, r/a/b, r/c, r/c/b plus
  // the super-root, each counting its elements: the three b's split 2/1
  // over r/a/b and r/c/b.
  ASSERT_EQ(idx->guide().size(), 6u);
  uint64_t b_count = 0;
  for (const GuideNode& g : idx->guide()) {
    if (g.tag == b) b_count += g.count;
  }
  EXPECT_EQ(b_count, doc->TagIndex(b).size());
  EXPECT_TRUE(
      idx->CanMatchPaths({pattern::NokPath{{"a", "b"}}}));
  EXPECT_TRUE(idx->CanMatchPaths({pattern::NokPath{{"c", "b"}}}));
  EXPECT_FALSE(idx->CanMatchPaths({pattern::NokPath{{"b", "a"}}}));
  EXPECT_FALSE(idx->CanMatchPaths({pattern::NokPath{{"a", "c"}}}));
  // Anchored forms: "~" pins the document root, "*" floats.
  EXPECT_TRUE(idx->CanMatchPaths({pattern::NokPath{{"~", "r", "a"}}}));
  EXPECT_FALSE(idx->CanMatchPaths({pattern::NokPath{{"~", "a"}}}));
  EXPECT_TRUE(idx->CanMatchPaths({pattern::NokPath{{"*", "b"}}}));

  EXPECT_FALSE(idx->Matches(*Parse("<r><a/></r>")));
}

TEST(StructuralIndexTest, EqualitySeekMatchesBruteForce) {
  // "07" and "7" are numerically equal under CompareValues; "x" is string
  // collation. The index must agree with the matcher's semantics exactly.
  auto doc = Parse(
      "<r><p>7</p><p>07</p><p> 7</p><p>8</p><p>x</p><q>7</q></r>");
  auto idx = StructuralIndex::Build(*doc);
  xml::TagId p = doc->tags().Lookup("p");
  for (const char* lit : {"7", "07", "8", "x", "y", ""}) {
    EqualitySeek seek = idx->SeekEquality(p, lit);
    ASSERT_TRUE(seek.usable) << lit;
    EXPECT_EQ(seek.nodes, BruteEq(*doc, "p", lit)) << lit;
    EXPECT_EQ(idx->CountEquality(p, lit),
              static_cast<double>(seek.nodes.size()))
        << lit;
  }
  // q has no overlong values: every probe stays answerable.
  EXPECT_TRUE(idx->SeekEquality(doc->tags().Lookup("q"), "x").usable);
}

TEST(StructuralIndexTest, OverlongValuesDisableOnlyNumericSeeks) {
  // One value past the 256-byte cap: numeric probes on the tag become
  // unanswerable (the unindexed value could still compare equal
  // numerically), but byte-equality probes stay exact — equal strings need
  // equal lengths, and every over-long value out-lengths any ≤-cap literal.
  std::string big(kMaxIndexedValueBytes + 10, '0');
  big += "7";  // Numerically 7, but 267 bytes long.
  auto doc = Parse("<r><p>7</p><p>" + big + "</p><p>xx</p></r>");
  auto idx = StructuralIndex::Build(*doc);
  xml::TagId p = doc->tags().Lookup("p");
  EXPECT_EQ(idx->Stats(p).overlong_values, 1u);
  EXPECT_FALSE(idx->SeekEquality(p, "7").usable);
  EXPECT_EQ(idx->CountEquality(p, "7"), -1.0);
  EqualitySeek str = idx->SeekEquality(p, "xx");
  ASSERT_TRUE(str.usable);
  EXPECT_EQ(str.nodes, BruteEq(*doc, "p", "xx"));
  // Over-cap literals are never answerable from the index.
  EXPECT_FALSE(idx->SeekEquality(p, big).usable);
}

// -- BTSI sidecar roundtrip --------------------------------------------------

TEST(StructuralIndexTest, BtsiRoundtrip) {
  auto doc = Parse(
      "<r><a><b>x</b><b>42</b></a><c>long-ish textual value</c><a/></r>");
  auto idx = StructuralIndex::Build(*doc);
  auto encoded = EncodeBtsi(*idx);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  auto back = DecodeBtsi(*encoded);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  EXPECT_EQ((*back)->generation(), idx->generation());
  EXPECT_EQ((*back)->num_nodes(), idx->num_nodes());
  EXPECT_EQ((*back)->num_elements(), idx->num_elements());
  EXPECT_EQ((*back)->tag_names(), idx->tag_names());
  EXPECT_TRUE((*back)->Matches(*doc));
  ASSERT_EQ((*back)->guide().size(), idx->guide().size());
  for (size_t i = 0; i < idx->guide().size(); ++i) {
    EXPECT_EQ((*back)->guide()[i].tag, idx->guide()[i].tag);
    EXPECT_EQ((*back)->guide()[i].parent, idx->guide()[i].parent);
    EXPECT_EQ((*back)->guide()[i].count, idx->guide()[i].count);
  }
  ASSERT_EQ((*back)->raw_stats().size(), idx->raw_stats().size());
  for (size_t i = 0; i < idx->raw_stats().size(); ++i) {
    EXPECT_EQ((*back)->raw_stats()[i].overlong_values,
              idx->raw_stats()[i].overlong_values);
  }
  EXPECT_EQ((*back)->raw_value_pool(), idx->raw_value_pool());
  ASSERT_EQ((*back)->raw_values().size(), idx->raw_values().size());
  ASSERT_EQ((*back)->raw_numerics().size(), idx->raw_numerics().size());

  // The decoded index answers probes identically.
  xml::TagId b = doc->tags().Lookup("b");
  EXPECT_EQ((*back)->SeekEquality(b, "42").nodes,
            idx->SeekEquality(b, "42").nodes);
  EXPECT_TRUE((*back)->CanMatchPaths({pattern::NokPath{{"a", "b"}}}));
  EXPECT_FALSE((*back)->CanMatchPaths({pattern::NokPath{{"c", "b"}}}));
}

TEST(StructuralIndexTest, BtsiFileRoundtrip) {
  auto doc = Parse("<r><a>v</a><b/></r>");
  auto idx = StructuralIndex::Build(*doc);
  std::string path = ::testing::TempDir() + "/bt_index_roundtrip.btsi";
  Status st = WriteBtsi(*idx, path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto back = LoadBtsi(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ((*back)->generation(), idx->generation());
  EXPECT_TRUE((*back)->Matches(*doc));
  std::remove(path.c_str());
}

// -- Planner access paths ----------------------------------------------------

/// ~40 section elements, 3 of them rare `fig` leaves, two with the value
/// "one" — enough volume that testing only the `fig` stream is ≥10× cheaper
/// than a document pass.
std::string WideDoc() {
  std::string xml = "<r>";
  for (int i = 0; i < 40; ++i) {
    xml += "<sec><para>text " + std::to_string(i) + "</para></sec>";
  }
  xml += "<sec><fig>one</fig></sec><sec><fig>two</fig></sec>"
         "<sec><fig>one</fig></sec></r>";
  return xml;
}

TEST(IndexAccessPathTest, SeekByteIdenticalToScanAtEveryThreadCount) {
  auto doc = Parse(WideDoc());
  auto idx = StructuralIndex::Build(*doc);
  const char* queries[] = {"//fig", "//sec/fig", "//fig[.=\"one\"]",
                           "//sec[fig]", "/r/sec/para"};
  for (const char* q : queries) {
    auto baseline = Eval(*doc, q);  // No index, serial scan.
    for (unsigned threads : {1u, 2u, 4u}) {
      util::ThreadPool pool(threads);
      opt::PlanOptions with;
      with.index = idx.get();
      with.pool = threads > 1 ? &pool : nullptr;
      EXPECT_EQ(Eval(*doc, q, with), baseline)
          << q << " @" << threads << " threads";
    }
  }
}

TEST(IndexAccessPathTest, ScansTestOnlyTheirCandidates) {
  auto doc = Parse(WideDoc());
  auto idx = StructuralIndex::Build(*doc);
  // Root tests run on the 3 `fig` elements with or without the index, and
  // on the 2 of value "one" when the value index answers the predicate.
  struct Case {
    const char* query;
    uint64_t scanned, sought;
    bool index_seek;
  };
  for (const Case& c : {Case{"//fig", 3, 3, false},
                        Case{"//fig[.=\"one\"]", 3, 2, true}}) {
    pattern::BlossomTree t = Tree(c.query);
    auto scan_plan = opt::PlanQuery(doc.get(), &t);
    ASSERT_TRUE(scan_plan.ok());
    scan_plan->FinishAll();
    opt::PlanOptions with;
    with.index = idx.get();
    auto seek_plan = opt::PlanQuery(doc.get(), &t, with);
    ASSERT_TRUE(seek_plan.ok());
    seek_plan->FinishAll();
    uint64_t scanned = 0, sought = 0;
    for (const auto& tp : scan_plan->trees) scanned += tp.TotalNodesScanned();
    for (const auto& tp : seek_plan->trees) sought += tp.TotalNodesScanned();
    EXPECT_EQ(seek_plan->Explain().find("IndexSeek(") != std::string::npos,
              c.index_seek)
        << seek_plan->Explain();
    EXPECT_EQ(scanned, c.scanned) << c.query;
    EXPECT_EQ(sought, c.sought) << c.query;
    EXPECT_LE(10 * scanned, doc->NumNodes()) << c.query;
  }
}

TEST(IndexAccessPathTest, GuideShortCircuitScansNothing) {
  auto doc = Parse(WideDoc());
  auto idx = StructuralIndex::Build(*doc);
  // Both tags exist, but no para ever has a fig child: the DataGuide
  // proves emptiness and the plan must not scan a single node.
  for (const char* q : {"//para/fig", "//zzz", "//fig/sec/para"}) {
    pattern::BlossomTree t = Tree(q);
    opt::PlanOptions with;
    with.index = idx.get();
    auto plan = opt::PlanQuery(doc.get(), &t, with);
    ASSERT_TRUE(plan.ok()) << q;
    EXPECT_NE(plan->Explain().find("IndexSeek("), std::string::npos) << q;
    EXPECT_NE(plan->Explain().find("empty"), std::string::npos)
        << q << "\n" << plan->Explain();
    plan->FinishAll();
    uint64_t scanned = 0;
    for (const auto& tp : plan->trees) scanned += tp.TotalNodesScanned();
    EXPECT_EQ(scanned, 0u) << q;
    EXPECT_TRUE(Eval(*doc, q, with).empty()) << q;
  }
}

TEST(IndexAccessPathTest, ExplainAnalyzeShowsSeekCounters) {
  auto doc = Parse(WideDoc());
  auto idx = StructuralIndex::Build(*doc);
  const char* q = "//fig[.=\"one\"]";
  pattern::BlossomTree t = Tree(q);
  opt::PlanOptions with;
  with.index = idx.get();
  with.estimate_cardinalities = true;
  auto plan = opt::PlanQuery(doc.get(), &t, with);
  ASSERT_TRUE(plan.ok());
  engine::QueryProfile profile = engine::BuildQueryProfile(&*plan, q, 1);
  std::string analyze = profile.ExplainAnalyze();
  EXPECT_NE(analyze.find("IndexSeek(fig)"), std::string::npos) << analyze;
  // The value-index run's scan reports its 2 probes as both nodes_scanned
  // and index_entries.
  const engine::OperatorProfile* seek = nullptr;
  for (const auto& op : profile.operators) {
    if (op.label == "IndexSeek(fig)") seek = &op;
  }
  ASSERT_NE(seek, nullptr) << analyze;
  EXPECT_EQ(seek->stats.nodes_scanned, 2u);
  EXPECT_EQ(seek->stats.index_entries, 2u);
  EXPECT_EQ(seek->stats.matches, 2u);
}

TEST(IndexAccessPathTest, StaleIndexFallsBackToScan) {
  auto doc = Parse(WideDoc());
  auto other = Parse("<r><unrelated/></r>");
  auto stale = StructuralIndex::Build(*other);
  opt::PlanOptions with;
  with.index = stale.get();  // Structurally mismatched: must be ignored.
  const char* q = "//fig[.=\"one\"]";
  auto baseline = Eval(*doc, q);
  EXPECT_EQ(Eval(*doc, q, with), baseline);
  pattern::BlossomTree t = Tree(q);
  auto plan = opt::PlanQuery(doc.get(), &t, with);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->Explain().find("IndexSeek("), std::string::npos);
}

// -- DiskStore sidecar wiring ------------------------------------------------

TEST(BtsiSidecarTest, DiskStoreLoadsGenerationMatchingSidecar) {
  auto doc = Parse(WideDoc());
  std::string path = ::testing::TempDir() + "/bt_index_corpus.btsx2";
  ASSERT_TRUE(storage::WriteBtsx2(*doc, path).ok());
  auto idx = StructuralIndex::Build(*doc);
  ASSERT_TRUE(WriteBtsi(*idx, BtsiSidecarPath(path)).ok());

  auto store = storage::DiskStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_NE((*store)->index(), nullptr);
  EXPECT_EQ((*store)->index()->generation(), (*store)->on_disk_generation());
  ASSERT_NE((*store)->document(), nullptr);
  EXPECT_TRUE((*store)->index()->Matches(*(*store)->document()));

  // The facade + sidecar pair answers queries identically to in-RAM scans.
  opt::PlanOptions with;
  with.index = (*store)->index();
  EXPECT_EQ(Eval(*(*store)->document(), "//fig", with),
            Eval(*doc, "//fig"));

  // Opt-out knob.
  storage::DiskStoreOptions no_index;
  no_index.load_index = false;
  auto bare = storage::DiskStore::Open(path, no_index);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ((*bare)->index(), nullptr);

  std::remove(BtsiSidecarPath(path).c_str());
  std::remove(path.c_str());
}

TEST(BtsiSidecarTest, StaleAndMissingSidecarsAreIgnored) {
  auto doc = Parse(WideDoc());
  std::string path = ::testing::TempDir() + "/bt_index_stale.btsx2";
  ASSERT_TRUE(storage::WriteBtsx2(*doc, path).ok());

  // No sidecar at all: open succeeds, index() is null.
  auto store = storage::DiskStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->index(), nullptr);

  // Sidecar from the *old* build, corpus re-ingested from a fresh parse
  // (new generation): the stale sidecar must be ignored, not served.
  auto idx = StructuralIndex::Build(*doc);
  ASSERT_TRUE(WriteBtsi(*idx, BtsiSidecarPath(path)).ok());
  auto fresh = Parse(WideDoc());
  ASSERT_NE(fresh->generation(), doc->generation());
  ASSERT_TRUE(storage::WriteBtsx2(*fresh, path).ok());
  auto reopened = storage::DiskStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->index(), nullptr);

  std::remove(BtsiSidecarPath(path).c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace index
}  // namespace blossomtree
