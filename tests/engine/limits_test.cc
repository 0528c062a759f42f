// Resource-limit semantics end to end (DESIGN.md §9): deadlines, cell/row
// budgets, cancellation, and parser caps through EngineOptions::limits.
#include <chrono>
#include <string>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "exec/result_cache.h"
#include "util/rng.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace engine {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t MillisSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            start)
          .count());
}

std::unique_ptr<xml::Document> RecursiveDoc(double scale) {
  datagen::GenOptions o;
  o.scale = scale;
  o.seed = 7;
  return datagen::GenerateDataset(datagen::Dataset::kD1Recursive, o);
}

xpath::PathExpr MustParsePath(std::string_view s) {
  auto r = xpath::ParsePath(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

/// A bibliography of `n` books, ~30% with an author (bench_ablation_flwor's
/// document for Example 1).
std::unique_ptr<xml::Document> Bib(size_t n) {
  auto doc = std::make_unique<xml::Document>();
  Rng rng(42);
  doc->BeginElement("bib");
  for (size_t i = 0; i < n; ++i) {
    doc->BeginElement("book");
    doc->BeginElement("title");
    doc->AddText("title-" + std::to_string(rng.Uniform(n / 2 + 1)));
    doc->EndElement();
    if (rng.Chance(0.3)) {
      doc->BeginElement("author");
      doc->BeginElement("last");
      doc->AddText("author-" + std::to_string(rng.Uniform(8)));
      doc->EndElement();
      doc->EndElement();
    }
    doc->EndElement();
  }
  doc->EndElement();
  EXPECT_TRUE(doc->Finish().ok());
  return doc;
}

/// Example 1's book pairs: an n x n cross product of two pattern trees,
/// filtered by the where-clause.
constexpr const char* kBookPairs =
    "<bib>{for $book1 in //book, $book2 in //book "
    "let $aut1 := $book1/author let $aut2 := $book2/author "
    "where $book1 << $book2 and not($book1/title = $book2/title) "
    "and deep-equal($aut1, $aut2) "
    "return <book-pair>{ $book1/title }{ $book2/title }</book-pair>}</bib>";

// The ISSUE's acceptance scenario: a same-tag-nested D1 query forced onto
// the naive O(n^2) join runs for seconds unlimited, but a 10ms deadline
// returns kResourceExhausted promptly — the guard is sampled inside the
// joins and scans, not just between queries.
TEST(EngineLimitsTest, DeadlineExceededPromptlyOnLongQuery) {
  // ~2900 nodes: the naive join's full-document re-scans make the
  // unlimited run a few seconds, so the 10ms deadline interrupts it long
  // before completion.
  auto doc = RecursiveDoc(/*scale=*/0.02);
  xpath::PathExpr path = MustParsePath("//b1//c2//b1");

  EngineOptions slow;
  slow.plan.strategy = opt::JoinStrategy::kNaiveNestedLoop;
  slow.num_threads = 1;
  BlossomTreeEngine unlimited(doc.get(), slow);
  Clock::time_point t0 = Clock::now();
  auto full = unlimited.EvaluatePath(path);
  uint64_t unlimited_millis = MillisSince(t0);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_FALSE(full.value().empty());
  // The dataset must be big enough that the deadline actually interrupts
  // mid-query rather than racing query completion.
  EXPECT_GT(unlimited_millis, 1000u) << "dataset too small for the scenario";

  EngineOptions capped = slow;
  capped.limits.deadline_millis = 10;
  BlossomTreeEngine engine(doc.get(), capped);
  t0 = Clock::now();
  auto r = engine.EvaluatePath(path);
  uint64_t capped_millis = MillisSince(t0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // "Promptly": orders of magnitude under the unlimited runtime. The slack
  // over the 10ms budget absorbs scheduler noise on loaded CI machines.
  EXPECT_LT(capped_millis, 500u);
  EXPECT_LT(capped_millis, unlimited_millis / 2);
}

TEST(EngineLimitsTest, ZeroCellBudgetRejectsImmediately) {
  auto doc = RecursiveDoc(/*scale=*/0.05);
  EngineOptions options;
  options.num_threads = 1;
  options.limits.max_nl_cells = 0;
  BlossomTreeEngine engine(doc.get(), options);
  auto r = engine.EvaluatePath(MustParsePath("//b1"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineLimitsTest, ZeroRowBudgetRejectsImmediately) {
  auto doc = RecursiveDoc(/*scale=*/0.05);
  EngineOptions options;
  options.num_threads = 1;
  options.limits.max_result_rows = 0;
  BlossomTreeEngine engine(doc.get(), options);
  auto r = engine.EvaluatePath(MustParsePath("//b1"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineLimitsTest, HugeBudgetsBehaveAsUnlimited) {
  auto doc = RecursiveDoc(/*scale=*/0.05);
  xpath::PathExpr path = MustParsePath("//b1//c2");

  BlossomTreeEngine plain(doc.get(), {});
  auto expected = plain.EvaluatePath(path);
  ASSERT_TRUE(expected.ok());

  EngineOptions options;
  options.limits.deadline_millis = 1000 * 60 * 60;
  options.limits.max_nl_cells = 1ull << 60;
  options.limits.max_nl_bytes = 1ull << 60;
  options.limits.max_result_rows = 1ull << 60;
  BlossomTreeEngine capped(doc.get(), options);
  auto r = capped.EvaluatePath(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), expected.value());
}

// Theorem-1 determinism survives governance: limits that are never hit must
// not perturb results at any thread count (charging happens in the same
// order everywhere; checks never mutate state).
TEST(EngineLimitsTest, UnhitLimitsBitwiseIdenticalAcrossThreads) {
  auto doc = RecursiveDoc(/*scale=*/0.1);
  const char* query =
      "for $b in //b1 let $c := $b//c2 where exists($b//c1) "
      "return <hit>{$c}</hit>";

  BlossomTreeEngine plain(doc.get(), {});
  auto expected = plain.EvaluateQuery(query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (unsigned threads : {1u, 2u, 4u}) {
    EngineOptions options;
    options.num_threads = threads;
    options.limits.deadline_millis = 1000 * 60 * 60;
    options.limits.max_nl_cells = 1ull << 40;
    options.limits.max_nl_bytes = 1ull << 50;
    options.limits.max_result_rows = 1ull << 40;
    BlossomTreeEngine engine(doc.get(), options);
    auto r = engine.EvaluateQuery(query);
    ASSERT_TRUE(r.ok()) << "threads=" << threads << ": "
                        << r.status().ToString();
    EXPECT_EQ(r.value(), expected.value()) << "threads=" << threads;
  }
}

TEST(EngineLimitsTest, DeadlineAppliesToFlworQueries) {
  auto doc = RecursiveDoc(/*scale=*/0.5);
  EngineOptions options;
  options.plan.strategy = opt::JoinStrategy::kNaiveNestedLoop;
  options.num_threads = 1;
  options.limits.deadline_millis = 0;  // Trips on the first check.
  BlossomTreeEngine engine(doc.get(), options);
  auto r = engine.EvaluateQuery("for $b in //b1//c2//b1 return <r>{$b}</r>");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineLimitsTest, CancelReturnsCancelled) {
  auto doc = RecursiveDoc(/*scale=*/0.05);
  BlossomTreeEngine engine(doc.get(), {});
  engine.Cancel();
  auto r = engine.EvaluatePath(MustParsePath("//b1"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  // Re-arming does not clear external cancellation...
  r = engine.EvaluatePath(MustParsePath("//b1"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(EngineLimitsTest, QuerySizeAndDepthLimitsApplyToParsing) {
  auto doc = RecursiveDoc(/*scale=*/0.02);
  EngineOptions options;
  options.limits.max_query_bytes = 16;
  BlossomTreeEngine tiny(doc.get(), options);
  auto r = tiny.EvaluateQuery("for $b in //b1 return <r>{$b}</r>");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);

  EngineOptions shallow;
  shallow.limits.max_parse_depth = 4;
  BlossomTreeEngine engine(doc.get(), shallow);
  r = engine.EvaluateQuery(
      "for $b in //b1 where ((((((($b = \"x\"))))))) return <r/>");
  EXPECT_FALSE(r.ok());
}

// The cell budget caps intermediate NestedList materialization, and a trip
// must not poison the engine: each evaluation re-arms the guard, so the
// same engine keeps returning the same clean verdict instead of corrupt
// state, and the query still runs fine ungoverned.
TEST(EngineLimitsTest, CellBudgetTripsAndEngineRecovers) {
  auto doc = RecursiveDoc(/*scale=*/0.2);
  EngineOptions options;
  options.num_threads = 1;
  options.limits.max_nl_cells = 8;
  BlossomTreeEngine engine(doc.get(), options);
  for (int round = 0; round < 2; ++round) {
    auto r = engine.EvaluatePath(MustParsePath("//b1//c2"));
    ASSERT_FALSE(r.ok()) << "round " << round;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_GT(engine.guard().CellsCharged(), 8u);
  }

  EngineOptions unlimited;
  unlimited.num_threads = 1;
  BlossomTreeEngine fresh(doc.get(), unlimited);
  auto expected = fresh.EvaluatePath(MustParsePath("//b1//c2"));
  ASSERT_TRUE(expected.ok());
}

// Every NoK scan driver is charged at the one emission point, so a small
// cell budget binds on each of them: the "~"-rooted NoK with the result
// cache off and on at 1 and 4 threads, and the scans of a forced
// pipelined plan.
TEST(EngineLimitsTest, CellBudgetBindsOnEveryDriver) {
  datagen::GenOptions g;
  g.scale = 0.05;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD5Dblp, g);
  auto expect_exhausted = [&](const EngineOptions& options, const char* q) {
    BlossomTreeEngine engine(doc.get(), options);
    auto r = engine.EvaluatePath(MustParsePath(q));
    ASSERT_FALSE(r.ok()) << q << " threads=" << options.num_threads
                         << " cache=" << (options.plan.result_cache != nullptr)
                         << " strategy="
                         << opt::JoinStrategyToString(options.plan.strategy);
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted) << q;
    EXPECT_GT(engine.guard().CellsCharged(), 100u) << q;
  };
  for (unsigned threads : {1u, 4u}) {
    for (bool cache : {false, true}) {
      exec::NokResultCache results(util::CacheOptions{});
      EngineOptions options;
      options.num_threads = threads;
      options.plan.result_cache = cache ? &results : nullptr;
      options.limits.max_nl_cells = 100;
      expect_exhausted(options, "/dblp/article/title");
    }
  }
  for (const char* q : {"//article/title", "//www//url"}) {
    EngineOptions options;
    options.num_threads = 1;
    options.plan.strategy = opt::JoinStrategy::kPipelined;
    options.limits.max_nl_cells = 100;
    expect_exhausted(options, q);
  }
}

// The FLWOR cross product is charged one row per tuple as it is formed, so
// a row budget stops 1,600 x 1,600 book pairs within one guard stride of
// the budget instead of after building all 2.56M tuples.
TEST(EngineLimitsTest, FlworRowBudgetStopsWithinOneStride) {
  auto doc = Bib(1600);
  EngineOptions options;
  options.num_threads = 1;
  options.limits.max_result_rows = 1000;
  BlossomTreeEngine engine(doc.get(), options);
  auto r = engine.EvaluateQuery(kBookPairs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("row budget"), std::string::npos)
      << r.status().ToString();
  EXPECT_GT(engine.guard().RowsCharged(), 1000u);
  EXPECT_LE(engine.guard().RowsCharged(), 1000u + 512u);
}

// The deadline is sampled inside the cross product and the per-tree walk.
TEST(EngineLimitsTest, FlworDeadlineStopsTheCrossProduct) {
  auto doc = Bib(1600);
  EngineOptions options;
  options.num_threads = 1;
  options.limits.deadline_millis = 200;
  BlossomTreeEngine engine(doc.get(), options);
  Clock::time_point t0 = Clock::now();
  auto r = engine.EvaluateQuery(kBookPairs);
  uint64_t millis = MillisSince(t0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("deadline"), std::string::npos)
      << r.status().ToString();
  EXPECT_LT(millis, 300u);
}

// Limits that are not hit leave the answer alone: a row budget of exactly
// the cross product's size does not trip.
TEST(EngineLimitsTest, FlworUnhitLimitsMatchUnlimitedRun) {
  auto doc = Bib(200);
  EngineOptions options;
  options.num_threads = 1;
  BlossomTreeEngine unlimited(doc.get(), options);
  auto expected = unlimited.EvaluateQuery(kBookPairs);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(unlimited.guard().RowsCharged(), 200u * 200u);

  options.limits.max_result_rows = 200 * 200;
  options.limits.deadline_millis = 60'000;
  BlossomTreeEngine limited(doc.get(), options);
  auto r = limited.EvaluateQuery(kBookPairs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, *expected);
}

// The row budget binds where the engine leaves the BlossomTree plan too: a
// path outside the pattern subset (a reverse axis) is charged its matches
// like a planned path, and a nested FLWOR over an outer variable is charged
// each tuple as it is formed. A budget that suffices changes nothing.
TEST(EngineLimitsTest, RowBudgetBindsOnNavigationalFallbacks) {
  std::string xml = "<r>";
  for (int i = 0; i < 40; ++i) xml += "<a><b/><b/></a>";
  xml += "</r>";
  auto parsed = xml::ParseDocument(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto doc = parsed.MoveValue();
  struct Shape {
    const char* query;
    uint64_t budget;  // Far below what the unlimited run charges.
  };
  for (const Shape& shape :
       {Shape{"//b/parent::a", 5},
        Shape{"for $x in //a[1] return <r>{for $a in //b, $b in //b "
              "where $a = $x/b return $b}</r>",
              100}}) {
    SCOPED_TRACE(shape.query);
    EngineOptions options;
    options.num_threads = 1;
    BlossomTreeEngine unlimited(doc.get(), options);
    auto expected = unlimited.EvaluateQuery(shape.query);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    const uint64_t charged = unlimited.guard().RowsCharged();
    ASSERT_GT(charged, shape.budget);

    options.limits.max_result_rows = shape.budget;
    BlossomTreeEngine limited(doc.get(), options);
    auto r = limited.EvaluateQuery(shape.query);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(r.status().message().find("row budget"), std::string::npos)
        << r.status().ToString();

    options.limits.max_result_rows = charged;
    BlossomTreeEngine enough(doc.get(), options);
    auto same = enough.EvaluateQuery(shape.query);
    ASSERT_TRUE(same.ok()) << same.status().ToString();
    EXPECT_EQ(*same, *expected);
  }
}

}  // namespace
}  // namespace engine
}  // namespace blossomtree
