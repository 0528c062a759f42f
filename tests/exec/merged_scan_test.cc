#include "exec/merged_scan.h"

#include <gtest/gtest.h>

#include "nestedlist/ops.h"
#include "pattern/builder.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace exec {
namespace {

std::unique_ptr<xml::Document> Parse(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

struct Fixture {
  std::unique_ptr<xml::Document> doc;
  pattern::BlossomTree tree;
  pattern::Decomposition decomp;

  Fixture(const char* xml, const char* query) : doc(Parse(xml)) {
    auto p = xpath::ParsePath(query);
    EXPECT_TRUE(p.ok());
    auto tr = pattern::BuildFromPath(*p);
    EXPECT_TRUE(tr.ok());
    tree = tr.MoveValue();
    decomp = pattern::Decompose(tree);
  }

  std::vector<const pattern::NokTree*> NonTrivialNoks() const {
    std::vector<const pattern::NokTree*> out;
    for (const auto& nok : decomp.noks) {
      if (nok.vertices.size() == 1 && tree.vertex(nok.root).IsVirtualRoot()) {
        continue;
      }
      out.push_back(&nok);
    }
    return out;
  }
};

TEST(MergedScanTest, MatchesSeparateScans) {
  Fixture fx("<r><a><b/></a><b/><a><c/><b/></a></r>", "//a[//c]//b");
  auto noks = fx.NonTrivialNoks();
  MergedNokScan merged(fx.doc.get(), &fx.tree, noks);
  merged.Run();
  for (size_t i = 0; i < noks.size(); ++i) {
    auto merged_op = merged.MakeOperator(i);
    NokScanOperator separate(fx.doc.get(), &fx.tree, noks[i]);
    nestedlist::Arena ra = Drain(merged_op.get());
    nestedlist::Arena rb = Drain(&separate);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t row = 0; row < ra.size(); ++row) {
      const nestedlist::NestedList& a = ra[row];
      const nestedlist::NestedList& b = rb[row];
      ASSERT_EQ(a.tops().size(), b.tops().size());
      for (size_t t = 0; t < a.tops().size(); ++t) {
        auto ea = a.entries(a.tops()[t]);
        auto eb = b.entries(b.tops()[t]);
        ASSERT_EQ(ea.size(), eb.size());
        for (size_t e = 0; e < ea.size(); ++e) {
          EXPECT_EQ(ea[e].node, eb[e].node);
        }
      }
    }
  }
}

TEST(MergedScanTest, SingleSharedPass) {
  // Concrete roots walk their tag streams, one node each here: 3 root
  // tests, as three separate scans would run. Wildcard roots share one
  // per-node pass over the 4 nodes, where two separate scans would test 8.
  struct Case {
    const char* query;
    size_t noks;
    uint64_t scanned;
  };
  for (const Case& c : {Case{"//a[//b][//c]", 3, 3}, Case{"//*[//*]", 2, 4}}) {
    Fixture fx("<r><a/><b/><c/></r>", c.query);
    auto noks = fx.NonTrivialNoks();
    ASSERT_EQ(noks.size(), c.noks) << c.query;
    MergedNokScan merged(fx.doc.get(), &fx.tree, noks);
    merged.Run();
    EXPECT_EQ(merged.NodesScanned(), c.scanned) << c.query;
  }
}

TEST(MergedScanTest, RunIsIdempotent) {
  Fixture fx("<r><a/></r>", "//a");
  auto noks = fx.NonTrivialNoks();
  MergedNokScan merged(fx.doc.get(), &fx.tree, noks);
  merged.Run();
  uint64_t scanned = merged.NodesScanned();
  merged.Run();
  EXPECT_EQ(merged.NodesScanned(), scanned);
}

TEST(MergedScanTest, HandlesVirtualRootNok) {
  Fixture fx("<a><b/></a>", "/a/b");
  // The single NoK includes the virtual root.
  std::vector<const pattern::NokTree*> noks;
  for (const auto& nok : fx.decomp.noks) noks.push_back(&nok);
  MergedNokScan merged(fx.doc.get(), &fx.tree, noks);
  merged.Run();
  auto op = merged.MakeOperator(0);
  EXPECT_EQ(Drain(op.get()).size(), 1u);
}

TEST(MergedScanTest, MatchAnyRootsMatchSerialReference) {
  // Non-concrete root tags ("*" match-any, "~" virtual root) must never be
  // dispatched through tags().Lookup(), which resolves them to kNullTag and
  // silently drops the NoK. Each merged view must match the serial
  // NokScanOperator reference byte for byte.
  const char* xml = "<r><a><b/></a><b/><a><c/><b/></a></r>";
  for (const char* query : {"/r/a/b",        // "~"-rooted NoK (whole path)
                            "//*[b]",        // "*"-rooted NoK
                            "//a//*",        // "*"-rooted inner NoK
                            "//zzz[b]"}) {   // root tag absent from document
    Fixture fx(xml, query);
    std::vector<const pattern::NokTree*> noks;
    for (const auto& nok : fx.decomp.noks) noks.push_back(&nok);
    MergedNokScan merged(fx.doc.get(), &fx.tree, noks);
    merged.Run();
    for (size_t i = 0; i < noks.size(); ++i) {
      auto merged_op = merged.MakeOperator(i);
      NokScanOperator separate(fx.doc.get(), &fx.tree, noks[i]);
      nestedlist::Arena ra = Drain(merged_op.get());
      nestedlist::Arena rb = Drain(&separate);
      ASSERT_EQ(ra.size(), rb.size()) << query << " nok " << i;
      for (size_t row = 0; row < ra.size(); ++row) {
        const nestedlist::NestedList& a = ra[row];
        const nestedlist::NestedList& b = rb[row];
        ASSERT_EQ(a.tops().size(), b.tops().size()) << query;
        for (size_t t = 0; t < a.tops().size(); ++t) {
          auto ea = a.entries(a.tops()[t]);
          auto eb = b.entries(b.tops()[t]);
          ASSERT_EQ(ea.size(), eb.size()) << query;
          for (size_t e = 0; e < ea.size(); ++e) {
            EXPECT_EQ(ea[e].node, eb[e].node) << query;
          }
        }
      }
    }
  }
}

TEST(MergedScanTest, WildcardRootFindsAllElements) {
  // A bare "*"-rooted NoK probes every element; dropping it from the
  // dispatch table would return zero matches.
  Fixture fx("<r><a/><b><c/></b></r>", "//*");
  auto noks = fx.NonTrivialNoks();
  ASSERT_EQ(noks.size(), 1u);
  MergedNokScan merged(fx.doc.get(), &fx.tree, noks);
  merged.Run();
  auto op = merged.MakeOperator(0);
  // r, a, b, c — every element in the document.
  EXPECT_EQ(Drain(op.get()).size(), 4u);
}

TEST(MergedScanTest, MatchWorkAccumulates) {
  Fixture fx("<r><a/><a/></r>", "//a[//b]");
  auto noks = fx.NonTrivialNoks();
  MergedNokScan merged(fx.doc.get(), &fx.tree, noks);
  merged.Run();
  EXPECT_GT(merged.MatchWork(), 0u);
}

}  // namespace
}  // namespace exec
}  // namespace blossomtree
