#include "pattern/fingerprint.h"

#include <gtest/gtest.h>

#include "flwor/parser.h"
#include "pattern/builder.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace pattern {
namespace {

TEST(FingerprintHashTest, IsSixtyFourBitFnv1a) {
  // The published FNV-1a test vectors: the empty string hashes to the
  // offset basis, "a" to one xor-multiply step from it.
  EXPECT_EQ(FingerprintHash(""), 14695981039346656037ull);
  EXPECT_EQ(FingerprintHash("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(FingerprintHash("nok:a"), FingerprintHash("nok:b"));
}

/// The canonical strings of every NoK of `query`'s BlossomTree.
std::vector<std::string> NokKeys(std::string_view query) {
  auto expr = flwor::ParseQuery(query);
  EXPECT_TRUE(expr.ok()) << expr.status().ToString();
  if (!expr.ok()) return {};
  auto tree = BuildFromQuery(**expr);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  if (!tree.ok()) return {};
  std::vector<std::string> keys;
  for (const NokTree& nok : Decompose(*tree).noks) {
    keys.push_back(CanonicalNok(*tree, nok));
  }
  return keys;
}

// A where literal conjunct compiles to the constraint its predicate form
// builds, so the two forms of a FLWOR scan the same NoKs and share
// result-cache entries (the two FLWOR templates of the hot_repeat workload).
TEST(FingerprintTest, WhereLiteralMatchesPredicateForm) {
  const std::pair<const char*, const char*> forms[] = {
      {"for $p in //proceedings where $p/publisher = \"x\" return "
       "<proc>{$p/title}{$p/year}</proc>",
       "for $p in //proceedings[publisher = \"x\"] return "
       "<proc>{$p/title}{$p/year}</proc>"},
      {"for $i in //item where $i/publication/date_of_release = \"x\" "
       "return <rel>{$i/title}</rel>",
       "for $i in //item[publication/date_of_release = \"x\"] return "
       "<rel>{$i/title}</rel>"},
      {"for $a in //article where exists($a/year) return <hit/>",
       "for $a in //article[year] return <hit/>"},
  };
  for (const auto& [where_form, predicate_form] : forms) {
    std::vector<std::string> keys = NokKeys(where_form);
    EXPECT_FALSE(keys.empty()) << where_form;
    EXPECT_EQ(keys, NokKeys(predicate_form)) << where_form;
  }
  // A different literal is a different scan.
  EXPECT_NE(NokKeys("for $p in //proceedings where $p/publisher = \"x\" "
                    "return $p"),
            NokKeys("for $p in //proceedings where $p/publisher = \"y\" "
                    "return $p"));
}

// A probe filters its NoK's matches (the planner's existential `//` leaves,
// DESIGN.md §14), so the key names it, its tag and its value constraint.
TEST(FingerprintTest, ProbesArePartOfTheKey) {
  auto path = xpath::ParsePath("//www[url][//url = \"x\"]/title");
  ASSERT_TRUE(path.ok());
  auto tree = BuildFromPath(*path);
  ASSERT_TRUE(tree.ok());
  Decomposition d = Decompose(*tree);
  const Connection* leaf = nullptr;
  for (const Connection& c : d.connections) {
    if (tree->vertex(c.to).tag == "url") leaf = &c;
  }
  ASSERT_NE(leaf, nullptr);
  NokTree bare = d.noks[d.NokOf(leaf->from)];
  NokTree probed = bare;
  probed.probes.push_back(*leaf);
  const std::string bare_key = CanonicalNok(*tree, bare);
  const std::string probed_key = CanonicalNok(*tree, probed);
  EXPECT_NE(bare_key, probed_key);
  EXPECT_NE(probed_key.find("p{3:url,=1:x}"), std::string::npos)
      << probed_key;
}

}  // namespace
}  // namespace pattern
}  // namespace blossomtree
