#include "engine/plan_cache.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/navigational.h"
#include "datagen/datagen.h"
#include "engine/engine.h"
#include "exec/result_cache.h"
#include "flwor/parser.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace engine {
namespace {

std::unique_ptr<xml::Document> ParseDoc(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

const flwor::Flwor& AsFlwor(const flwor::Expr& expr) {
  EXPECT_EQ(expr.kind, flwor::Expr::Kind::kFlwor);
  return *expr.flwor;
}

TEST(CanonicalKeyTest, WhitespaceInsensitiveFlworKey) {
  auto a = flwor::ParseQuery("for $x in //book return $x/title");
  auto b = flwor::ParseQuery("for   $x   in //book\n  return $x/title");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(CanonicalFlworKey(AsFlwor(**a)), CanonicalFlworKey(AsFlwor(**b)));
}

TEST(CanonicalKeyTest, DistinctQueriesDistinctKeys) {
  const char* queries[] = {
      "for $x in //book return $x/title",
      "for $x in //book return $x/author",
      "for $y in //book return $y/title",  // Variable names are part of
                                           // bindings, hence of the key.
      "for $x in //book where exists($x/year) return $x/title",
      "for $x in //book[year = \"2003\"] return $x/title",
  };
  std::vector<std::string> keys;
  for (const char* q : queries) {
    auto e = flwor::ParseQuery(q);
    ASSERT_TRUE(e.ok()) << q;
    keys.push_back(CanonicalFlworKey(AsFlwor(**e)));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << queries[i] << " vs " << queries[j];
    }
  }
}

TEST(CanonicalKeyTest, PathKeyDistinguishesPredicates) {
  auto a = xpath::ParsePath("//book/title");
  auto b = xpath::ParsePath("//book[year = \"2003\"]/title");
  auto c = xpath::ParsePath("//book[2]/title");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_NE(CanonicalPathKey(*a), CanonicalPathKey(*b));
  EXPECT_NE(CanonicalPathKey(*a), CanonicalPathKey(*c));
  EXPECT_NE(CanonicalPathKey(*b), CanonicalPathKey(*c));
}

TEST(PlanCacheTest, HitsOnRepeatedQuery) {
  auto doc = ParseDoc(
      "<bib><book><title>A</title><year>2003</year></book>"
      "<book><title>B</title><year>1999</year></book></bib>");
  PlanCache plans(util::CacheOptions{});
  EngineOptions opts;
  opts.num_threads = 1;
  opts.plan_cache = &plans;
  BlossomTreeEngine eng(doc.get(), opts);

  const char* q = "for $b in //book where $b/year = \"2003\" "
                  "return <hit>{$b/title}</hit>";
  auto cold = eng.EvaluateQuery(q);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  util::CacheStats after_cold = plans.Stats();
  EXPECT_EQ(after_cold.hits, 0u);
  EXPECT_GE(after_cold.misses, 2u);  // Parsed level + compiled level.
  EXPECT_GE(after_cold.entries, 2u);

  auto warm = eng.EvaluateQuery(q);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(*warm, *cold);
  util::CacheStats after_warm = plans.Stats();
  EXPECT_GE(after_warm.hits, after_cold.hits + 2);  // Text hit + FLWOR hit.
  EXPECT_EQ(after_warm.misses, after_cold.misses);

  // A formatting variant misses level 1 (different text) but hits level 2
  // (same canonical FLWOR).
  auto variant = eng.EvaluateQuery(
      "for $b in //book\n  where $b/year = \"2003\"\n  "
      "return <hit>{$b/title}</hit>");
  ASSERT_TRUE(variant.ok());
  EXPECT_EQ(*variant, *cold);
  util::CacheStats after_variant = plans.Stats();
  EXPECT_GE(after_variant.hits, after_warm.hits + 1);
}

TEST(PlanCacheTest, PathPlansAreCached) {
  auto doc = ParseDoc("<bib><book><title>A</title></book></bib>");
  PlanCache plans(util::CacheOptions{});
  EngineOptions opts;
  opts.num_threads = 1;
  opts.plan_cache = &plans;
  BlossomTreeEngine eng(doc.get(), opts);
  auto path = xpath::ParsePath("//book/title");
  ASSERT_TRUE(path.ok());
  auto cold = eng.EvaluatePath(*path);
  ASSERT_TRUE(cold.ok());
  util::CacheStats after_cold = plans.Stats();
  EXPECT_EQ(after_cold.hits, 0u);
  auto warm = eng.EvaluatePath(*path);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(*warm, *cold);
  EXPECT_GE(plans.Stats().hits, 1u);
}

TEST(PlanCacheTest, EvictsUnderTinyBudget) {
  auto doc = ParseDoc("<bib><book><title>A</title></book></bib>");
  util::CacheOptions budget;
  budget.max_bytes = 2048;  // A handful of compiled plans at most.
  budget.shards = 1;
  PlanCache plans(budget);
  EngineOptions opts;
  opts.num_threads = 1;
  opts.plan_cache = &plans;
  BlossomTreeEngine eng(doc.get(), opts);
  for (int i = 0; i < 64; ++i) {
    std::string q = "for $x in //book return <e" + std::to_string(i) +
                    ">{$x/title}</e" + std::to_string(i) + ">";
    auto r = eng.EvaluateQuery(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  util::CacheStats s = plans.Stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, 2048u);
  EXPECT_LT(s.entries, 64u);
}

TEST(ResultCacheTest, HitsSkipRescanning) {
  datagen::GenOptions o;
  o.scale = 0.01;
  o.seed = 7;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD5Dblp, o);
  exec::NokResultCache results(util::CacheOptions{});
  EngineOptions opts;
  opts.num_threads = 1;
  opts.plan.result_cache = &results;
  BlossomTreeEngine eng(doc.get(), opts);
  auto path = xpath::ParsePath("//article/title");
  ASSERT_TRUE(path.ok());

  auto cold = eng.EvaluatePath(*path);
  ASSERT_TRUE(cold.ok());
  util::CacheStats after_cold = results.Stats();
  EXPECT_EQ(after_cold.hits, 0u);
  EXPECT_GT(after_cold.entries, 0u);

  auto warm = eng.EvaluatePath(*path);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(*warm, *cold);
  util::CacheStats after_warm = results.Stats();
  EXPECT_GT(after_warm.hits, 0u);
  EXPECT_EQ(after_warm.misses, after_cold.misses);
}

TEST(ResultCacheTest, ProbedNokKeepsItsOwnEntries) {
  // The NoK of //www[url][//url]/title holds the vertices of
  // //www[url]/title plus a probe: on one warm cache each query must still
  // answer with its own entries, cold and warm, in either order.
  const char* xml =
      "<r><www><url>u</url><title>t1</title></www>"
      "<www><title>t2</title><x><url/></x></www>"
      "<www><title>t3</title><url/></www><www><title>t4</title></www></r>";
  auto doc = ParseDoc(xml);
  exec::NokResultCache shared(util::CacheOptions{});
  baseline::NavigationalEvaluator nav(doc.get());
  for (unsigned threads : {1u, 4u}) {
    EngineOptions opts;
    opts.num_threads = threads;
    opts.plan.result_cache = &shared;
    BlossomTreeEngine eng(doc.get(), opts);
    for (const char* q :
         {"//www[url]/title", "//www[url][//url]/title", "//www[url]/title",
          "//www[//url]/title", "//www[url][//url]/title"}) {
      auto got = eng.EvaluateQuery(q);
      ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
      EXPECT_EQ(*got, *nav.EvaluateQuery(q)) << q << " threads=" << threads;
    }
  }
  EXPECT_GT(shared.Stats().hits, 0u);
  BlossomTreeEngine eng(doc.get());
  EXPECT_EQ(*eng.EvaluateQuery("//www[//url]/title"),
            "<title>t1</title><title>t2</title><title>t3</title>");
}

TEST(ResultCacheTest, DocumentGenerationInvalidates) {
  // Two builds of byte-identical XML get distinct generations, so a result
  // cache shared across engines can never serve one document's matches for
  // the other.
  const char* xml = "<bib><book><title>A</title></book></bib>";
  auto doc1 = ParseDoc(xml);
  auto doc2 = ParseDoc(xml);
  ASSERT_NE(doc1->generation(), 0u);
  ASSERT_NE(doc2->generation(), 0u);
  ASSERT_NE(doc1->generation(), doc2->generation());

  exec::NokResultCache shared(util::CacheOptions{});
  auto path = xpath::ParsePath("//book/title");
  ASSERT_TRUE(path.ok());

  EngineOptions opts;
  opts.num_threads = 1;
  opts.plan.result_cache = &shared;  // Both engines borrow it.

  BlossomTreeEngine eng1(doc1.get(), opts);
  auto r1 = eng1.EvaluatePath(*path);
  ASSERT_TRUE(r1.ok());
  util::CacheStats after_first = shared.Stats();
  EXPECT_GT(after_first.entries, 0u);

  BlossomTreeEngine eng2(doc2.get(), opts);
  auto r2 = eng2.EvaluatePath(*path);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, *r1);  // Same content, same node ids.
  util::CacheStats after_second = shared.Stats();
  // The second engine's scan keyed on a new generation: misses, no hits.
  EXPECT_EQ(after_second.hits, after_first.hits);
  EXPECT_GT(after_second.misses, after_first.misses);
  EXPECT_GT(after_second.entries, after_first.entries);

  // Same engine again: now it hits its own generation's entries.
  auto r1b = eng1.EvaluatePath(*path);
  ASSERT_TRUE(r1b.ok());
  EXPECT_EQ(*r1b, *r1);
  EXPECT_GT(shared.Stats().hits, after_second.hits);
}

TEST(ResultCacheTest, ByteBudgetEvictionUnderPressure) {
  datagen::GenOptions o;
  o.scale = 0.02;
  o.seed = 7;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD5Dblp, o);
  util::CacheOptions budget;
  budget.max_bytes = 4096;  // Far below one article scan's cells.
  budget.shards = 2;
  exec::NokResultCache results(budget);
  EngineOptions opts;
  opts.num_threads = 1;
  opts.plan.result_cache = &results;
  BlossomTreeEngine eng(doc.get(), opts);

  // Uncached reference for correctness under eviction churn.
  BlossomTreeEngine ref(doc.get(), [] {
    EngineOptions plain;
    plain.num_threads = 1;
    return plain;
  }());

  const char* paths[] = {"//article/title", "//article/year",
                         "//article/author", "//inproceedings/title"};
  for (int round = 0; round < 2; ++round) {
    for (const char* p : paths) {
      auto path = xpath::ParsePath(p);
      ASSERT_TRUE(path.ok()) << p;
      auto got = eng.EvaluatePath(*path);
      auto expected = ref.EvaluatePath(*path);
      ASSERT_TRUE(got.ok() && expected.ok()) << p;
      EXPECT_EQ(*got, *expected) << p;
    }
  }
  util::CacheStats s = results.Stats();
  EXPECT_LE(s.bytes, 4096u);
  // Either entries were evicted to make room, or every scan was too big to
  // cache at all — both keep the budget; the churn must not corrupt results.
  EXPECT_TRUE(s.evictions > 0 || s.entries == 0) << s.evictions;
}

TEST(ResultCacheTest, CachedRunsBitwiseIdenticalAcrossThreadCounts) {
  datagen::GenOptions o;
  o.scale = 0.02;
  o.seed = 7;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD5Dblp, o);
  const char* queries[] = {
      "for $a in //article return $a/title",
      "for $a in //article where exists($a/year) return <hit>{$a/title}</hit>",
  };
  for (const char* q : queries) {
    EngineOptions serial;
    serial.num_threads = 1;
    BlossomTreeEngine ref(doc.get(), serial);
    auto expected = ref.EvaluateQuery(q);
    ASSERT_TRUE(expected.ok()) << q;
    for (unsigned t : {1u, 2u, 4u}) {
      PlanCache plans(util::CacheOptions{});
      exec::NokResultCache results(util::CacheOptions{});
      EngineOptions opts;
      opts.num_threads = t;
      opts.plan_cache = &plans;
      opts.plan.result_cache = &results;
      BlossomTreeEngine eng(doc.get(), opts);
      auto cold = eng.EvaluateQuery(q);
      ASSERT_TRUE(cold.ok()) << q << " threads=" << t;
      EXPECT_EQ(*cold, *expected) << q << " cold, threads=" << t;
      auto warm = eng.EvaluateQuery(q);
      ASSERT_TRUE(warm.ok()) << q << " threads=" << t;
      EXPECT_EQ(*warm, *expected) << q << " warm, threads=" << t;
      if (t > 1) {
        EXPECT_GT(results.Stats().hits, 0u) << q;
      }
    }
  }
}

TEST(CacheMetricsTest, CountersAppearOnlyWhenCachesEnabled) {
  auto doc = ParseDoc("<bib><book><title>A</title></book></bib>");
  auto path = xpath::ParsePath("//book/title");
  ASSERT_TRUE(path.ok());

  EngineOptions off;
  off.num_threads = 1;
  off.collect_metrics = true;
  BlossomTreeEngine plain(doc.get(), off);
  ASSERT_TRUE(plain.EvaluatePath(*path).ok());
  EXPECT_EQ(plain.metrics().CountersText().find("cache."), std::string::npos);

  PlanCache plans(util::CacheOptions{});
  exec::NokResultCache results(util::CacheOptions{});
  EngineOptions on;
  on.num_threads = 1;
  on.collect_metrics = true;
  on.plan_cache = &plans;
  on.plan.result_cache = &results;
  BlossomTreeEngine cached(doc.get(), on);
  ASSERT_TRUE(cached.EvaluatePath(*path).ok());
  ASSERT_TRUE(cached.EvaluatePath(*path).ok());
  std::string text = cached.metrics().CountersText();
  EXPECT_NE(text.find("cache.plan.hits"), std::string::npos) << text;
  EXPECT_NE(text.find("cache.result.hits"), std::string::npos) << text;
}

TEST(CacheProbeCountTest, RegistryCountsEqualSoleClientCacheStats) {
  // An engine that is its caches' only client counts at its lookups hits
  // and misses that add up to the caches' own counters — at every thread
  // count (parallel scans probe once per partition).
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD5Dblp, {0.01, 7});
  const char* queries[] = {
      "//article/title",
      "for $a in //phdthesis return <hit>{$a/school}</hit>",
      "//article/title",
      "for   $a in //phdthesis return <hit>{$a/school}</hit>",
      "<r>{//article/title}{//phdthesis/author}</r>",
  };
  for (unsigned threads : {1u, 4u}) {
    PlanCache plans(util::CacheOptions{});
    exec::NokResultCache results(util::CacheOptions{});
    EngineOptions opts;
    opts.num_threads = threads;
    opts.collect_metrics = true;
    opts.plan_cache = &plans;
    opts.plan.result_cache = &results;
    BlossomTreeEngine eng(doc.get(), opts);
    for (const char* q : queries) ASSERT_TRUE(eng.EvaluateQuery(q).ok()) << q;
    std::map<std::string, uint64_t> c = eng.metrics().CounterValues();
    util::CacheStats plan = plans.Stats();
    util::CacheStats result = results.Stats();
    EXPECT_EQ(c["cache.plan.hits"], plan.hits) << threads;
    EXPECT_EQ(c["cache.plan.misses"], plan.misses) << threads;
    EXPECT_EQ(c["cache.result.hits"], result.hits) << threads;
    EXPECT_EQ(c["cache.result.misses"], result.misses) << threads;
    EXPECT_EQ(c["cache.plan.entries"], plan.entries) << threads;
    EXPECT_EQ(c["cache.result.bytes"], result.bytes) << threads;
    EXPECT_GT(result.hits, 0u) << threads;
  }
}

}  // namespace
}  // namespace engine
}  // namespace blossomtree
