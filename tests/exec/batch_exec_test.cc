// Batch-at-a-time execution equivalence suite (DESIGN.md §16):
//  - every engine result must equal the navigational oracle
//    (engine::PathEvaluator), and every deterministic counter must be
//    bitwise-identical to the serial default-batch run, across batch sizes
//    {1, 7, 64, 4096} and 1/2/4 threads, on all five generated datasets;
//  - operator streams drained at any batch size (or mixing sizes on one
//    stream) must equal the batch_rows=1 stream byte for byte;
//  - mid-batch cancellation: a cell budget tripping at *every* possible
//    boundary (±1 row around each batch edge) must leave
//    matches/nl_cells equal to what the consumer actually received — the
//    count-before-charge audit fix — and Finish() normalization must stay
//    safe on tripped plans;
//  - one emission point: an unlimited drain charges the same cells whichever
//    NoK scan driver (lazy, materializing, cached, partitioned, virtual
//    root, a pipelined join's inner scan) produced the rows.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "engine/path_eval.h"
#include "exec/exec_stats.h"
#include "exec/nok_scan.h"
#include "exec/result_cache.h"
#include "index/structural_index.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "pattern/decompose.h"
#include "pattern/fingerprint.h"
#include "storage/partition.h"
#include "util/json.h"
#include "util/resource_guard.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "workload/queries.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace exec {
namespace {

using nestedlist::NestedList;
using nestedlist::OccurrenceLabeler;

struct EngineRun {
  std::vector<xml::NodeId> result;
  std::string counters;  ///< QueryProfile::ToText() — wall-clock-free.
};

EngineRun RunEngine(const xml::Document* doc, const xpath::PathExpr& path,
                    unsigned threads, size_t batch_rows) {
  engine::EngineOptions o;
  o.num_threads = threads;
  o.collect_profile = true;
  o.plan.exec.batch_rows = batch_rows;
  engine::BlossomTreeEngine eng(doc, o);
  EngineRun run;
  auto res = eng.EvaluatePath(path);
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  if (res.ok()) run.result = *res;
  run.counters = eng.LastProfile().ToText();
  return run;
}

TEST(BatchExecTest, EngineIdenticalAcrossBatchAndThreads) {
  for (datagen::Dataset ds : datagen::AllDatasets()) {
    datagen::GenOptions o;
    o.scale = 0.02;
    o.seed = 7;
    auto doc = datagen::GenerateDataset(ds, o);
    for (const workload::QuerySpec& q : workload::QueriesFor(ds)) {
      auto path = xpath::ParsePath(q.xpath);
      ASSERT_TRUE(path.ok()) << q.xpath;
      // Result oracle: navigational evaluation over the DOM.
      auto oracle = engine::PathEvaluator(doc.get()).Evaluate(*path);
      ASSERT_TRUE(oracle.ok()) << q.xpath;
      // Counter reference: the serial run at the default batch size.
      EngineRun ref = RunEngine(doc.get(), *path, 1, 64);
      EXPECT_EQ(ref.result, *oracle) << q.xpath;
      auto check = [&](unsigned threads, size_t rows) {
        EngineRun got = RunEngine(doc.get(), *path, threads, rows);
        EXPECT_EQ(got.result, *oracle)
            << q.xpath << " threads=" << threads << " batch_rows=" << rows;
        EXPECT_EQ(got.counters, ref.counters)
            << q.xpath << " threads=" << threads << " batch_rows=" << rows;
      };
      // Batch-size sweep on the serial path.
      for (size_t rows : {1u, 7u, 4096u}) check(1, rows);
      // Thread sweep at the default batch size.
      for (unsigned threads : {2u, 4u}) check(threads, 64);
    }
  }
}

std::string DrainBatched(NestedListOperator* op, const xml::Document& doc,
                         size_t batch_rows) {
  OccurrenceLabeler label(&doc);
  std::string out;
  Batch batch;
  while (op->GetNextBatch(&batch, batch_rows) > 0) {
    EXPECT_LE(batch.size(), ClampBatchRows(batch_rows));
    for (NestedList nl : batch) {
      out += nestedlist::ToString(nl, label);
      out += '\n';
    }
  }
  EXPECT_TRUE(batch.empty());  // 0 return clears the batch.
  return out;
}

opt::PlanOptions PipelinedPlan(util::ResourceGuard* guard = nullptr) {
  opt::PlanOptions po;
  po.strategy = opt::JoinStrategy::kPipelined;
  po.guard = guard;
  return po;
}

TEST(BatchExecTest, PlanRootStreamIdenticalAcrossBatchSizes) {
  // A scan → pipelined-//-join chain over a generated document, drained
  // through the plan root: every batch size, and a drain mixing sizes on
  // one stream, must reproduce the batch_rows=1 stream.
  datagen::GenOptions o;
  o.scale = 0.02;
  o.seed = 7;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD5Dblp, o);
  for (const char* q : {"//article/title", "//inproceedings[/year]//author"}) {
    auto path = xpath::ParsePath(q);
    ASSERT_TRUE(path.ok()) << q;
    auto tree = pattern::BuildFromPath(*path);
    ASSERT_TRUE(tree.ok()) << q;
    auto ref_plan = opt::PlanQuery(doc.get(), &*tree, PipelinedPlan());
    ASSERT_TRUE(ref_plan.ok()) << q;
    ASSERT_EQ(ref_plan->trees.size(), 1u);
    std::string expected =
        DrainBatched(ref_plan->trees[0].root.get(), *doc, 1);
    ref_plan->FinishAll();
    std::string expected_counters =
        ref_plan->trees[0].root->Stats().Counters();
    for (size_t rows : {1u, 7u, 64u, 4096u}) {
      auto plan = opt::PlanQuery(doc.get(), &*tree, PipelinedPlan());
      ASSERT_TRUE(plan.ok());
      EXPECT_EQ(DrainBatched(plan->trees[0].root.get(), *doc, rows),
                expected)
          << q << " batch_rows=" << rows;
      plan->FinishAll();
      EXPECT_EQ(plan->trees[0].root->Stats().Counters(), expected_counters)
          << q << " batch_rows=" << rows;
    }
    // Mixed drain: one row, then three, alternating — every call advances
    // the same cursor whatever its size.
    auto plan = opt::PlanQuery(doc.get(), &*tree, PipelinedPlan());
    ASSERT_TRUE(plan.ok());
    NestedListOperator* root = plan->trees[0].root.get();
    OccurrenceLabeler label(doc.get());
    std::string mixed;
    Batch batch;
    for (size_t call = 0; root->GetNextBatch(&batch, call % 2 ? 3 : 1) > 0;
         ++call) {
      for (NestedList b : batch) {
        mixed += nestedlist::ToString(b, label);
        mixed += '\n';
      }
    }
    EXPECT_EQ(mixed, expected) << q << " (mixed drain)";
  }
}

TEST(BatchExecTest, NokScanStreamIdenticalAcrossBatchSizes) {
  auto doc = xml::ParseDocument(
                 "<r><a><b/><c/></a><a><b/></a><x/><a><c/><b/><b/></a>"
                 "<a><a><b/></a></a></r>")
                 .MoveValue();
  auto path = xpath::ParsePath("//a[/b]");
  auto tree = pattern::BuildFromPath(*path);
  ASSERT_TRUE(tree.ok());
  pattern::Decomposition d = pattern::Decompose(*tree);
  for (size_t nok = 0; nok < d.noks.size(); ++nok) {
    NokScanOperator ref(doc.get(), &*tree, &d.noks[nok]);
    std::string expected = DrainBatched(&ref, *doc, 1);
    for (size_t rows : {1u, 7u, 64u, 4096u}) {
      NokScanOperator scan(doc.get(), &*tree, &d.noks[nok]);
      EXPECT_EQ(DrainBatched(&scan, *doc, rows), expected)
          << "nok=" << nok << " batch_rows=" << rows;
      // A rewound operator replays the identical batched stream.
      scan.Rewind();
      EXPECT_EQ(DrainBatched(&scan, *doc, rows), expected);
    }
  }
}

// -- Trace volume: one exec span per batch, not per row ----------------------

/// Counts the 'B' events of category "exec" per span name in the current
/// trace capture.
std::map<std::string, size_t> ExecSpanCounts() {
  std::map<std::string, size_t> counts;
  auto parsed = util::ParseJson(util::Tracer::Get().ExportJson());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return counts;
  for (const util::JsonValue& e : parsed->Find("traceEvents")->AsArray()) {
    if (e.StringOr("ph", "") == "B" && e.StringOr("cat", "") == "exec") {
      ++counts[e.StringOr("name", "")];
    }
  }
  return counts;
}

size_t CeilDiv(size_t a, size_t b) { return (a + b - 1) / b; }

/// The tracer is process-wide: leave it off and empty for later tests.
void ResetTracer() {
  util::Tracer::Get().Disable();
  util::Tracer::Get().Clear();
}

TEST(BatchExecTest, FlworDrainHonorsBatchRows) {
  // The FLWOR drain must pull at the plan's batch size: its single scan
  // emits one exec span per batch plus the end-of-stream call.
  constexpr size_t kBooks = 200;
  std::string xml = "<bib>";
  for (size_t i = 0; i < kBooks; ++i) xml += "<book/>";
  xml += "</bib>";
  auto doc = xml::ParseDocument(xml).MoveValue();
  for (size_t rows : {1u, 64u}) {
    engine::EngineOptions o;
    o.num_threads = 1;
    o.trace = true;
    o.plan.exec.batch_rows = rows;
    engine::BlossomTreeEngine eng(doc.get(), o);
    auto r = eng.EvaluateQuery("for $b in //book return $b");
    std::map<std::string, size_t> spans = ExecSpanCounts();
    ResetTracer();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(spans.size(), 1u) << "expected one scan operator";
    EXPECT_EQ(spans["NokScan(book)"], CeilDiv(kBooks, rows) + 1)
        << "batch_rows=" << rows;
  }
}

TEST(BatchExecTest, ChildTraceSpansScaleWithBatchesNotRows) {
  // A pipelined //a//b plan with 250 inner rows: the joins pull their
  // children batch-at-a-time, so each operator records at most one exec
  // span per batch it produced plus the end-of-stream call.
  constexpr size_t kBatchRows = 16;
  std::string xml = "<r>";
  for (int i = 0; i < 50; ++i) xml += "<a><b/><b/><b/><b/><b/></a>";
  xml += "</r>";
  auto doc = xml::ParseDocument(xml).MoveValue();
  auto path = xpath::ParsePath("//a//b");
  auto tree = pattern::BuildFromPath(*path);
  ASSERT_TRUE(tree.ok());
  opt::PlanOptions po = PipelinedPlan();
  po.exec.batch_rows = kBatchRows;
  auto plan = opt::PlanQuery(doc.get(), &*tree, po);
  ASSERT_TRUE(plan.ok());
  NestedListOperator* root = plan->trees[0].root.get();
  ASSERT_EQ(root->NumChildren(), 2u);
  util::Tracer::Get().Enable();
  Drain(root, kBatchRows);
  util::Tracer::Get().Disable();
  std::map<std::string, size_t> spans = ExecSpanCounts();
  ResetTracer();
  std::vector<const NestedListOperator*> ops = {root, root->Child(0),
                                                root->Child(1)};
  EXPECT_EQ(root->Child(1)->Stats().matches, 250u);
  for (const NestedListOperator* op : ops) {
    size_t rows = op->Stats().matches;
    EXPECT_GE(spans[op->Label()], 1u) << op->Label();
    EXPECT_LE(spans[op->Label()], CeilDiv(rows, kBatchRows) + 1)
        << op->Label() << " rows=" << rows;
  }
}

// -- Satellite (a): stats under mid-batch budget trips ------------------------

/// Drains the plan root batched under `guard`, returning what the consumer
/// actually received.
struct GovernedDrain {
  uint64_t rows = 0;
  uint64_t cells = 0;
};

GovernedDrain DrainGoverned(NestedListOperator* root, size_t batch_rows) {
  GovernedDrain got;
  Batch batch;
  while (root->GetNextBatch(&batch, batch_rows) > 0) {
    for (NestedList nl : batch) {
      ++got.rows;
      got.cells += CountCells(nl);
    }
  }
  return got;
}

TEST(BatchExecTest, StatsMatchDeliveryAtEveryCancellationPoint) {
  // Budget sweep over [0, total]: every cell budget in range makes the
  // trip land on a different row, covering every batch boundary ±1 row for
  // every tested batch size. The audit invariant: matches/nl_cells must
  // equal the rows/cells the consumer received — the row that tripped the
  // budget was never delivered, so it must not be counted. Inputs: the
  // pipelined //a//b plan, a value-equality plan over a structural index
  // (both roots scan value-index runs), and a virtual-root path (one row,
  // from the "~"-rooted NoK). The sweep also audits GetNextBatch's per-row fallback:
  // a batch that fits the budget is charged in one call, and only a batch
  // that crosses it is cut row by row.
  // Every b of value "v" lies under an a of value "v", so every batch size
  // drains the value-equality plan's inner run to its end.
  const std::string text =
      "<r><a><b>v</b></a><a><b>v</b><b/></a><a/><a><b>v</b></a>"
      "<a><b>v</b><b/><b/></a><a><b>v</b></a><a><b>v</b></a>"
      "<a><b>v</b><b/></a></r>";
  auto doc = xml::ParseDocument(text).MoveValue();
  const std::unique_ptr<index::StructuralIndex> idx =
      index::StructuralIndex::Build(*doc);
  struct Input {
    const char* query;
    bool seek;
  };
  for (const Input& in : {Input{"//a//b", false},
                          Input{"//a[. = \"v\"]//b[. = \"v\"]", true},
                          Input{"/r/a//b", false}}) {
    SCOPED_TRACE(std::string(in.query) + (in.seek ? " (index seek)" : ""));
    auto path = xpath::ParsePath(in.query);
    auto tree = pattern::BuildFromPath(*path);
    ASSERT_TRUE(tree.ok());
    auto plan_options = [&](util::ResourceGuard* guard) {
      opt::PlanOptions po = PipelinedPlan(guard);
      if (in.seek) po.index = idx.get();
      return po;
    };

    // Total charge of an untripped run: every operator in the plan charges
    // its emissions, so the budget sweep must cover the *cumulative* charge,
    // not just the root's delivered cells.
    util::ResourceGuard unlimited;
    unlimited.Arm();
    auto full = opt::PlanQuery(doc.get(), &*tree, plan_options(&unlimited));
    ASSERT_TRUE(full.ok());
    if (in.seek) {
      const std::string explain = full->Explain();
      const size_t first = explain.find("IndexSeek(");
      ASSERT_NE(first, std::string::npos) << explain;
      ASSERT_NE(explain.find("IndexSeek(", first + 1), std::string::npos)
          << explain;
    }
    GovernedDrain total = DrainGoverned(full->trees[0].root.get(), 64);
    // A "~"-rooted plan delivers one row, so the sweep's breadth is pinned
    // on the cumulative charge rather than on the delivered rows.
    ASSERT_GT(total.rows, 0u);
    const uint64_t total_charge = unlimited.CellsCharged();
    ASSERT_GT(total_charge, 4u);
    ASSERT_GE(total_charge, total.cells);

    for (size_t batch_rows : {1u, 7u, 64u}) {
      for (uint64_t budget = 0; budget <= total_charge; ++budget) {
        util::QueryLimits limits;
        limits.max_nl_cells = budget;
        util::ResourceGuard guard(limits);
        guard.Arm();
        auto plan = opt::PlanQuery(doc.get(), &*tree, plan_options(&guard));
        ASSERT_TRUE(plan.ok());
        NestedListOperator* root = plan->trees[0].root.get();
        GovernedDrain got = DrainGoverned(root, batch_rows);
        EXPECT_LE(got.cells, budget);
        EXPECT_EQ(guard.Tripped(), budget < total_charge)
            << "budget=" << budget;
        // Finish() on a tripped plan must be safe and must not inflate the
        // handout counters past what was delivered.
        plan->FinishAll();
        ExecStats s = plan->trees[0].root->Stats();
        EXPECT_EQ(s.matches, got.rows)
            << "batch_rows=" << batch_rows << " budget=" << budget;
        EXPECT_EQ(s.nl_cells, got.cells)
            << "batch_rows=" << batch_rows << " budget=" << budget;
        if (budget < total_charge) {
          EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
        } else {
          EXPECT_EQ(got.rows, total.rows);
          EXPECT_TRUE(guard.status().ok());
        }
      }
    }
  }
}

TEST(BatchExecTest, ScanStatsMatchDeliveryUnderRowBudgetTrips) {
  // The same audit at the leaf: a bare NokScanOperator under cell budgets
  // tripping on every row.
  auto doc = xml::ParseDocument(
                 "<r><a/><b/><a/><a/><c/><a/><a/><a/><b/><a/></r>")
                 .MoveValue();
  auto path = xpath::ParsePath("//a");
  auto tree = pattern::BuildFromPath(*path);
  ASSERT_TRUE(tree.ok());
  pattern::Decomposition d = pattern::Decompose(*tree);
  const pattern::NokTree* nok = &d.noks.back();

  NokScanOperator ungoverned(doc.get(), &*tree, nok);
  uint64_t total = 0;
  for (const NestedList& nl : Drain(&ungoverned)) total += CountCells(nl);
  ASSERT_GT(total, 0u);

  for (uint64_t budget = 0; budget <= total; ++budget) {
    util::QueryLimits limits;
    limits.max_nl_cells = budget;
    util::ResourceGuard guard(limits);
    guard.Arm();
    NokScanOperator scan(doc.get(), &*tree, nok, nullptr, &guard);
    GovernedDrain got = DrainGoverned(&scan, 3);
    EXPECT_EQ(scan.Stats().matches, got.rows) << "budget=" << budget;
    EXPECT_EQ(scan.Stats().nl_cells, got.cells) << "budget=" << budget;
    EXPECT_EQ(guard.Tripped(), budget < total);
  }
}

// -- One emission point: charging does not depend on the driver --------------

/// Cells an unlimited drain of `query`'s plan charges to its guard.
uint64_t UnlimitedCharge(const xml::Document* doc, const char* query,
                         opt::PlanOptions po) {
  auto path = xpath::ParsePath(query);
  auto tree = pattern::BuildFromPath(*path);
  EXPECT_TRUE(tree.ok()) << query;
  if (!tree.ok()) return 0;
  util::ResourceGuard guard;
  guard.Arm();
  po.guard = &guard;
  auto plan = opt::PlanQuery(doc, &*tree, po);
  EXPECT_TRUE(plan.ok()) << query;
  if (!plan.ok()) return 0;
  Drain(plan->trees[0].root.get(), po.exec.batch_rows);
  EXPECT_TRUE(guard.status().ok()) << query;
  return guard.CellsCharged();
}

TEST(BatchExecTest, CellChargeIndependentOfDriver) {
  // Every NoK scan driver hands its rows over through GetNextBatch, which
  // charges them: the lazy chunk loop, the materializing driver (cold
  // fill, warm replay, partitioned), the "~"-rooted one-node range and the
  // scans under a pipelined join must all charge an unlimited drain the
  // same cells.
  std::string xml = "<r>";
  for (int i = 0; i < 300; ++i) {
    xml += i % 3 == 0 ? "<a><b/><c/></a>" : "<a><c><b/></c><b/></a>";
  }
  xml += "</r>";
  auto doc = xml::ParseDocument(xml).MoveValue();
  for (const char* q : {"/r/a/b", "//a/b"}) {
    const uint64_t ref = UnlimitedCharge(doc.get(), q, {});
    EXPECT_GT(ref, 0u) << q;
    for (size_t threads : {1u, 4u}) {
      util::ThreadPool pool(threads);
      util::CacheOptions co;
      co.enabled = true;
      NokResultCache cache(co);
      for (const char* state : {"none", "cold", "warm"}) {
        opt::PlanOptions po;
        po.pool = threads > 1 ? &pool : nullptr;
        po.result_cache = std::string(state) == "none" ? nullptr : &cache;
        EXPECT_EQ(UnlimitedCharge(doc.get(), q, po), ref)
            << q << " threads=" << threads << " cache=" << state;
      }
      EXPECT_GT(cache.Stats().hits, 0u) << q << " threads=" << threads;
    }
  }
  const uint64_t separate = UnlimitedCharge(doc.get(), "//a//b", {});
  EXPECT_GT(separate, 0u);
  EXPECT_EQ(UnlimitedCharge(doc.get(), "//a//b", PipelinedPlan()), separate);
}

// -- Result-cache hits share the frozen arena ---------------------------------

/// Drains a fresh NokScanOperator over `nok` (optionally pooled and cached)
/// and renders its stream.
std::string DrainScan(const xml::Document& doc, const pattern::BlossomTree& t,
                      const pattern::NokTree* nok, util::ThreadPool* pool,
                      NokResultCache* cache) {
  NokScanOperator scan(&doc, &t, nok, pool, nullptr, cache);
  return DrainBatched(&scan, doc, 64);
}

TEST(BatchExecTest, CacheHitSharesFrozenArena) {
  // A result-cache hit lends the cached arena itself: the warm scan's
  // batches point into the entry the cache holds (no entry is copied), the
  // scan holds that entry while it streams it, and the replayed stream is
  // byte-identical to a cold, uncached scan. Then four threads replay the
  // same frozen arenas at once (the concurrent-readers case TSan checks).
  std::string xml = "<r>";
  for (int i = 0; i < 300; ++i) {
    xml += i % 3 == 0 ? "<a><b/><c/></a>" : "<a><c><b/></c><b/></a>";
  }
  xml += "</r>";
  auto doc = xml::ParseDocument(xml).MoveValue();
  auto path = xpath::ParsePath("//a/b");
  auto tree = pattern::BuildFromPath(*path);
  ASSERT_TRUE(tree.ok());
  pattern::Decomposition d = pattern::Decompose(*tree);
  const pattern::NokTree* nok = &d.noks.back();
  const std::string expected = DrainScan(*doc, *tree, nok, nullptr, nullptr);
  ASSERT_FALSE(expected.empty());

  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool pool(threads);
    util::ThreadPool* p = threads > 1 ? &pool : nullptr;
    util::CacheOptions co;
    co.enabled = true;
    NokResultCache cache(co);
    EXPECT_EQ(DrainScan(*doc, *tree, nok, p, &cache), expected);  // Cold.

    // The first partition's entry, as the scan keys it.
    std::vector<storage::NodeRange> parts;
    if (threads > 1) {
      parts = storage::PartitionSubtrees(*doc, threads);
    } else {
      parts.push_back({0, static_cast<xml::NodeId>(doc->NumNodes() - 1)});
    }
    NokCacheKey key{doc->generation(), pattern::CanonicalNok(*tree, *nok),
                    parts[0].begin, parts[0].end};
    std::shared_ptr<const nestedlist::Arena> held = cache.Get(key);
    ASSERT_NE(held, nullptr);
    ASSERT_FALSE(held->empty());
    // The entry is charged the arena's exact size, from element counts.
    const uint64_t exact = held->entries.size() * sizeof(nestedlist::Entry) +
                           held->groups.size() * sizeof(nestedlist::Group) +
                           held->rows.size() * sizeof(nestedlist::Row);
    EXPECT_EQ(held->Bytes(), exact);
    EXPECT_EQ(CachedNokScanBytes(key, *held), exact + key.nok.size() + 64);
    // ...and holds no more: the scan shrank it to fit before caching it.
    EXPECT_EQ(held->entries.capacity(), held->entries.size());
    EXPECT_EQ(held->groups.capacity(), held->groups.size());
    EXPECT_EQ(held->rows.capacity(), held->rows.size());
    if (parts.size() == 1) {
      EXPECT_EQ(cache.Stats().bytes, CachedNokScanBytes(key, *held));
    }
    const long holders = held.use_count();
    const size_t entries = held->entries.size();
    {
      NokScanOperator warm(doc.get(), &*tree, nok, p, nullptr, &cache);
      Batch batch;
      ASSERT_GT(warm.GetNextBatch(&batch, 64), 0u);
      EXPECT_EQ(&batch.arena(), held.get());  // Lent, not copied.
      EXPECT_GT(held.use_count(), holders);   // The scan shares the entry.
      EXPECT_EQ(warm.Stats().nodes_scanned, 0u);
    }
    EXPECT_EQ(held.use_count(), holders);
    EXPECT_EQ(held->entries.size(), entries);  // Frozen.
    EXPECT_EQ(DrainScan(*doc, *tree, nok, p, &cache), expected);  // Warm.

    // Concurrent readers of the same frozen arenas.
    std::vector<std::string> got(4);
    std::vector<std::thread> readers;
    for (size_t i = 0; i < got.size(); ++i) {
      readers.emplace_back([&, i] {
        got[i] = DrainScan(*doc, *tree, nok, nullptr, &cache);
      });
    }
    for (std::thread& t : readers) t.join();
    for (const std::string& g : got) EXPECT_EQ(g, expected);
    EXPECT_EQ(held->entries.size(), entries);
  }
}

}  // namespace
}  // namespace exec
}  // namespace blossomtree
