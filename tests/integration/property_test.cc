// Property-based testing: random documents × random path queries, with the
// navigational evaluator as the oracle. Every strategy (BNLJ always; a
// forced pipelined plan wherever the planner accepts it; TwigStack when the
// query is in its class) must return the oracle's node set, and every plan
// configuration must charge its NestedList cells the same way at every
// thread count and cache state, so a cell budget binds exactly.

#include <gtest/gtest.h>

#include <set>

#include "baseline/navigational.h"
#include "engine/engine.h"
#include "exec/result_cache.h"
#include "exec/twig_semijoin.h"
#include "exec/twigstack.h"
#include "index/btsi.h"
#include "index/structural_index.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "storage/btsx2.h"
#include "storage/disk_store.h"
#include "util/resource_guard.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace {

/// Random tree generator: small tag alphabet to force recursion and dense
/// matches; some nodes carry text for value predicates. With `attributes`,
/// some elements also carry an attribute `k` valued "0".."3" (the variant
/// draws extra random numbers, so it is a different document for a seed).
std::unique_ptr<xml::Document> RandomDoc(Rng* rng, size_t target_nodes,
                                         bool attributes = false) {
  static const char* kTags[] = {"a", "b", "c", "d", "e"};
  auto doc = std::make_unique<xml::Document>();
  size_t budget = target_nodes;
  std::function<void(uint32_t)> emit = [&](uint32_t depth) {
    if (budget == 0) return;
    --budget;
    doc->BeginElement(kTags[rng->Uniform(5)]);
    if (attributes && rng->Chance(0.4)) {
      doc->AddAttribute("k", std::to_string(rng->Uniform(4)));
    }
    if (rng->Chance(0.2)) {
      doc->AddText(std::to_string(rng->Uniform(4)));
    }
    if (depth < 12) {
      size_t fanout = rng->Uniform(4);  // 0..3 children.
      for (size_t i = 0; i < fanout && budget > 0; ++i) emit(depth + 1);
    }
    doc->EndElement();
  };
  doc->BeginElement("r");
  while (budget > 0) emit(1);
  doc->EndElement();
  EXPECT_TRUE(doc->Finish().ok());
  return doc;
}

/// Random path query over the same alphabet: 1-4 steps, mixed axes,
/// occasional predicates (existence, value, position). A leading "/" roots
/// the path at the document node, which plans a "~"-rooted NoK.
std::string RandomQuery(Rng* rng) {
  static const char* kTags[] = {"a", "b", "c", "d", "e", "r", "*"};
  std::string q;
  size_t steps = 1 + rng->Uniform(4);
  for (size_t i = 0; i < steps; ++i) {
    q += rng->Chance(i == 0 ? 0.7 : 0.6) ? "//" : "/";
    q += kTags[rng->Uniform(7)];
    if (rng->Chance(0.3)) {
      double r = rng->NextDouble();
      if (r < 0.5) {
        q += std::string("[") + (rng->Chance(0.5) ? "//" : "") +
             kTags[rng->Uniform(6)] + "]";
      } else if (r < 0.8) {
        q += std::string("[. = ") + std::to_string(rng->Uniform(4)) + "]";
      } else {
        q += std::string("[") + std::to_string(1 + rng->Uniform(3)) + "]";
      }
    }
  }
  return q;
}

/// Tags with an element below another element of the same tag, found by
/// walking every element's ancestors.
std::set<std::string> NestingTags(const xml::Document& doc) {
  std::set<std::string> out;
  for (xml::NodeId n = 0; n < doc.NumNodes(); ++n) {
    if (!doc.IsElement(n)) continue;
    for (xml::NodeId p = doc.Parent(n); p != xml::kNullNode;
         p = doc.Parent(p)) {
      if (doc.Tag(p) == doc.Tag(n)) {
        out.insert(doc.TagName(n));
        break;
      }
    }
  }
  return out;
}

/// Whether Theorem 2 may fail for a pipelined plan of `tree`: some `//`
/// edge hangs below a vertex (its parent or an ancestor of it) that is `*`,
/// an attribute, or a tag in `nesting`. Only then may a forced pipelined
/// plan be refused.
bool MayRefusePipelined(const pattern::BlossomTree& tree,
                        const std::set<std::string>& nesting) {
  for (pattern::VertexId w = 0; w < tree.NumVertices(); ++w) {
    if (tree.vertex(w).axis != xpath::Axis::kDescendant) continue;
    for (pattern::VertexId u = tree.vertex(w).parent;
         u != pattern::kNoVertex; u = tree.vertex(u).parent) {
      const pattern::Vertex& ux = tree.vertex(u);
      if (ux.IsVirtualRoot()) continue;
      if (ux.MatchesAnyTag() || (!ux.tag.empty() && ux.tag[0] == '@') ||
          nesting.count(ux.tag) > 0) {
        return true;
      }
    }
  }
  return false;
}

/// One governed EvaluatePathQuery run: its result and the cells it charged.
struct GovernedRun {
  Result<std::vector<xml::NodeId>> result;
  uint64_t cells = 0;
};

GovernedRun RunGoverned(const xml::Document* doc,
                        const pattern::BlossomTree& tree, opt::PlanOptions o,
                        uint64_t max_nl_cells) {
  util::QueryLimits limits;
  limits.max_nl_cells = max_nl_cells;
  util::ResourceGuard guard(limits);
  guard.Arm();
  o.guard = &guard;
  GovernedRun run{opt::EvaluatePathQuery(doc, &tree, o), 0};
  run.cells = guard.CellsCharged();
  return run;
}

/// The cell-budget property of one plan configuration: the charge C of an
/// unlimited run is the same serially and on `pool`, with no, a cold and a
/// warm result cache; a budget of C - 1 trips, and a budget of C returns the
/// oracle's nodes. `config` labels the configuration in failures.
void ExpectChargeBindsExactly(const xml::Document* doc,
                              const pattern::BlossomTree& tree,
                              const opt::PlanOptions& base,
                              util::ThreadPool* pool,
                              const std::vector<xml::NodeId>& oracle,
                              const char* config) {
  constexpr uint64_t kUnlimited = util::QueryLimits::kUnlimited;
  GovernedRun ref = RunGoverned(doc, tree, base, kUnlimited);
  ASSERT_TRUE(ref.result.ok()) << config << ": "
                               << ref.result.status().ToString();
  EXPECT_EQ(*ref.result, oracle) << config;
  const uint64_t charge = ref.cells;
  util::ThreadPool* pools[] = {nullptr, pool};
  for (util::ThreadPool* p : pools) {
    util::CacheOptions co;
    co.enabled = true;
    exec::NokResultCache cache(co);
    exec::NokResultCache* caches[] = {nullptr, &cache, &cache};  // Cold, warm.
    for (exec::NokResultCache* c : caches) {
      opt::PlanOptions o = base;
      o.pool = p;
      o.result_cache = c;
      GovernedRun run = RunGoverned(doc, tree, o, kUnlimited);
      ASSERT_TRUE(run.result.ok()) << config;
      EXPECT_EQ(*run.result, oracle) << config;
      EXPECT_EQ(run.cells, charge)
          << config << " parallel=" << (p != nullptr)
          << " cache=" << (c == nullptr ? "none" : "cold/warm");
    }
    opt::PlanOptions o = base;
    o.pool = p;
    if (charge > 0) {
      GovernedRun tight = RunGoverned(doc, tree, o, charge - 1);
      ASSERT_FALSE(tight.result.ok()) << config << " budget=" << charge - 1;
      EXPECT_EQ(tight.result.status().code(), StatusCode::kResourceExhausted)
          << config;
    }
    GovernedRun exact = RunGoverned(doc, tree, o, charge);
    ASSERT_TRUE(exact.result.ok()) << config << " budget=" << charge << ": "
                                   << exact.result.status().ToString();
    EXPECT_EQ(*exact.result, oracle) << config << " budget=" << charge;
  }
}

class PropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PropertyTest, RandomQueriesAgreeWithOracle) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  auto doc = RandomDoc(&rng, 120 + rng.Uniform(150));
  const std::set<std::string> nesting = NestingTags(*doc);
  util::ThreadPool pool(4);
  int pipelined_accepted = 0;
  for (int qi = 0; qi < 12; ++qi) {
    std::string query = RandomQuery(&rng);
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) + " query=" + query +
                 " doc=" + xml::Serialize(*doc).substr(0, 400));
    auto path = xpath::ParsePath(query);
    ASSERT_TRUE(path.ok()) << path.status().ToString();
    auto tree = pattern::BuildFromPath(*path);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();

    baseline::NavigationalEvaluator nav(doc.get());
    auto oracle = nav.EvaluatePath(*path);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    {
      opt::PlanOptions o;
      o.strategy = opt::JoinStrategy::kBoundedNestedLoop;
      ExpectChargeBindsExactly(doc.get(), *tree, o, &pool, *oracle, "BNLJ");
    }
    ExpectChargeBindsExactly(doc.get(), *tree, {}, &pool, *oracle, "auto");
    {
      opt::PlanOptions o;
      o.strategy = opt::JoinStrategy::kPipelined;
      auto plan = opt::PlanQuery(doc.get(), &*tree, o);
      if (plan.ok()) {
        ++pipelined_accepted;
        ExpectChargeBindsExactly(doc.get(), *tree, o, &pool, *oracle, "PL");
      } else {
        EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument)
            << plan.status().ToString();
        EXPECT_TRUE(MayRefusePipelined(*tree, nesting))
            << plan.status().ToString();
      }
    }
    {
      exec::TwigStack ts(doc.get(), &*tree);
      std::vector<xml::NodeId> got;
      Status st = ts.Run(tree->VertexOfVariable("result"), &got);
      if (st.ok()) {
        EXPECT_EQ(got, *oracle) << "TwigStack";
      } else {
        EXPECT_EQ(st.code(), StatusCode::kUnsupported);
      }
    }
    {
      exec::TwigSemijoin sj(doc.get(), &*tree);
      std::vector<xml::NodeId> got;
      Status st = sj.Run(tree->VertexOfVariable("result"), &got);
      if (st.ok()) {
        EXPECT_EQ(got, *oracle) << "TwigSemijoin";
      } else {
        EXPECT_EQ(st.code(), StatusCode::kUnsupported);
      }
    }
  }
  EXPECT_GT(pipelined_accepted, 0) << "seed=" << GetParam();
}

/// Reference cell count: every entry reachable from the row's top groups,
/// walked group by group.
uint64_t ReachableCells(const nestedlist::NestedList& nl) {
  uint64_t cells = 0;
  std::vector<nestedlist::Group> pending(nl.tops().begin(), nl.tops().end());
  while (!pending.empty()) {
    nestedlist::Group g = pending.back();
    pending.pop_back();
    for (const nestedlist::Entry& e : nl.entries(g)) {
      ++cells;
      for (nestedlist::Group c : nl.groups(e)) pending.push_back(c);
    }
  }
  return cells;
}

TEST_P(PropertyTest, CellCountIsReachableEntries) {
  // CountCells is the row's entry-run length. Every producer (scans cold
  // and cached, serial and partitioned, both //-joins with
  // their graft-and-prune rewrite) must leave each row owning exactly the
  // entries its groups reach, so that length equals a recursive count.
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  auto doc = RandomDoc(&rng, 120 + rng.Uniform(150));
  const std::set<std::string> nesting = NestingTags(*doc);
  util::ThreadPool pool(4);
  util::CacheOptions co;
  co.enabled = true;
  exec::NokResultCache cache(co);
  for (int qi = 0; qi < 8; ++qi) {
    std::string query = RandomQuery(&rng);
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) + " query=" + query);
    auto path = xpath::ParsePath(query);
    ASSERT_TRUE(path.ok()) << path.status().ToString();
    auto tree = pattern::BuildFromPath(*path);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    std::vector<opt::PlanOptions> configs(5);
    configs[0].strategy = opt::JoinStrategy::kBoundedNestedLoop;
    configs[2].pool = &pool;
    configs[2].result_cache = &cache;
    configs[3].pool = &pool;
    configs[3].result_cache = &cache;  // Warm.
    configs[4].strategy = opt::JoinStrategy::kPipelined;
    for (const opt::PlanOptions& o : configs) {
      auto plan = opt::PlanQuery(doc.get(), &*tree, o);
      if (!plan.ok() && o.strategy == opt::JoinStrategy::kPipelined &&
          plan.status().code() == StatusCode::kInvalidArgument &&
          MayRefusePipelined(*tree, nesting)) {
        continue;
      }
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      for (opt::PatternTreePlan& tp : plan->trees) {
        exec::Batch batch;
        uint64_t delivered = 0;
        while (tp.root->GetNextBatch(&batch, 7) > 0) {
          for (nestedlist::NestedList nl : batch) {
            EXPECT_EQ(exec::CountCells(nl), ReachableCells(nl));
            delivered += exec::CountCells(nl);
          }
        }
        EXPECT_EQ(tp.root->Stats().nl_cells, delivered);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest, ::testing::Range(0, 20));

/// Runs `query` through the BlossomTree engine at 1 and 4 intra-query
/// threads, without a result cache and twice through `shared` (cold or
/// warm, depending on what earlier queries left in it); every run must
/// return the navigational baseline's bytes. Share `shared` across a
/// document's queries, so a constrained pattern meets the entries of the
/// patterns before it.
void ExpectFlworMatchesOracle(const xml::Document& doc,
                              const std::string& query,
                              exec::NokResultCache* shared) {
  baseline::NavigationalEvaluator nav(&doc);
  auto want = nav.EvaluateQuery(query);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (unsigned threads : {1u, 4u}) {
    for (exec::NokResultCache* cache : {(exec::NokResultCache*)nullptr,
                                        shared, shared}) {
      engine::EngineOptions options;
      options.num_threads = threads;
      options.plan.result_cache = cache;
      engine::BlossomTreeEngine engine(&doc, options);
      auto got = engine.EvaluateQuery(query);
      ASSERT_TRUE(got.ok()) << "threads=" << threads << ": "
                            << got.status().ToString();
      EXPECT_EQ(*got, *want) << "threads=" << threads
                             << " cache=" << (cache != nullptr);
    }
  }
}

/// Random FLWOR queries: for/let bindings over random paths with simple
/// where-clauses — BlossomTree engine vs the navigational baseline.
class FlworPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FlworPropertyTest, RandomFlworsAgree) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  auto doc = RandomDoc(&rng, 60 + rng.Uniform(60));
  exec::NokResultCache cache(util::CacheOptions{});
  static const char* kTags[] = {"a", "b", "c", "d", "e"};
  for (int qi = 0; qi < 6; ++qi) {
    std::string t1 = kTags[rng.Uniform(5)];
    std::string t2 = kTags[rng.Uniform(5)];
    std::string t3 = kTags[rng.Uniform(5)];
    std::string query;
    double shape = rng.NextDouble();
    if (shape < 0.35) {
      query = "for $x in //" + t1 + " let $y := $x/" + t2 +
              " return <o>{ $y }</o>";
    } else if (shape < 0.7) {
      query = "for $x in //" + t1 + " for $y in $x//" + t2 +
              " return <o>{ $y }</o>";
    } else {
      query = "for $x in //" + t1 + ", $y in //" + t2 +
              " where $x << $y and deep-equal($x/" + t3 + ", $y/" + t3 +
              ") return <p/>";
    }
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) + " query=" + query);
    ExpectFlworMatchesOracle(*doc, query, &cache);
  }
}

/// Shapes beyond the three above: literal where-clauses, let plus where,
/// three pattern trees (also with interleaved slots), nested FLWORs over an
/// outer variable, same-FLWOR rebinding, order by, and paths through
/// non-blossom join endpoints. RandomDoc nests its five tags freely
/// (`<a><a>…</a></a>`), so the binder's dedup and ordering run.
TEST_P(FlworPropertyTest, WidenedShapesAgree) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 130363 + 11);
  auto doc = RandomDoc(&rng, 60 + rng.Uniform(60));
  exec::NokResultCache cache(util::CacheOptions{});
  static const char* kTags[] = {"a", "b", "c", "d", "e"};
  for (int qi = 0; qi < 8; ++qi) {
    std::string t1 = kTags[rng.Uniform(5)];
    std::string t2 = kTags[rng.Uniform(5)];
    std::string t3 = kTags[rng.Uniform(5)];
    // RandomDoc's text values are "0".."3"; "4" matches nothing.
    std::string lit = "\"" + std::to_string(rng.Uniform(5)) + "\"";
    std::string op = rng.Chance(0.5) ? " = " : " != ";
    std::string query;
    switch (rng.Uniform(11)) {
      case 0:
        query = "for $x in //" + t1 + " where $x/" + t2 + op + lit +
                " return <o>{ $x/" + t2 + " }</o>";
        break;
      case 1:
        query = "for $x in //" + t1 + " let $y := $x/" + t2 + " where $y" +
                op + lit + " or count($y) = " +
                std::to_string(rng.Uniform(3)) + " return <o>{ $y }</o>";
        break;
      case 2:
        query = "for $x in //" + t1 + ", $y in //" + t2 + ", $z in //" + t3 +
                " where $x << $y and $y << $z return <o>{ $z }</o>";
        break;
      case 3:
        query = "for $x in //" + t1 + ", $y in //" + t2 + ", $z in $x/" + t3 +
                " where $y/" + t3 + op + "$z return <o>{ $y }{ $z }</o>";
        break;
      case 4:
        query = "for $x in //" + t1 + " return <o>{ for $y in $x/" + t2 +
                " where $y" + op + lit + " return $y }</o>";
        break;
      case 5:
        query = "for $x in //" + t1 + " for $x in $x//" + t2 +
                " return $x";
        break;
      case 6:
        query = "for $x in //" + t1 + " let $x := $x/" + t2 +
                " return <n>{ $x }</n>";
        break;
      case 7:
        query = "for $x in //" + t1 + " order by $x/" + t2 +
                (rng.Chance(0.5) ? " descending" : "") +
                " return <o>{ $x/" + t2 + " }</o>";
        break;
      case 8:
        query = "for $x in //" + t1 + "//" + t2 + " return $x";
        break;
      case 9:
        query = "for $x in //" + t1 + "/" + t2 + ", $y in $x/" + t3 +
                " return <o>{ $y }</o>";
        break;
      default:
        query = "let $y := //" + t1 + (rng.Chance(0.5) ? "//" : "/") + t2 +
                " return <o>{ $y }</o>";
        break;
    }
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) + " query=" + query);
    ExpectFlworMatchesOracle(*doc, query, &cache);
  }
}

/// Where shapes around the conjuncts the builder pushes into the pattern
/// (`$v/p op "lit"`, `exists($v/p)`) and the ones it must leave residual:
/// multi-step and descendant operands, the literal on the left, a literal
/// next to a `<<` edge, under not(...) and or, a zero-step `$x op lit`,
/// numeric-canonical literals, let-bound operands, and attribute operands
/// on an attribute-bearing document.
TEST_P(FlworPropertyTest, WhereLiteralShapesAgree) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 201247 + 3);
  auto doc = RandomDoc(&rng, 60 + rng.Uniform(60));
  auto attr_doc = RandomDoc(&rng, 60 + rng.Uniform(60), /*attributes=*/true);
  exec::NokResultCache cache(util::CacheOptions{});
  exec::NokResultCache attr_cache(util::CacheOptions{});
  static const char* kTags[] = {"a", "b", "c", "d", "e"};
  // RandomDoc's values are "0".."3"; "01" and "1.0" equal "1" numerically,
  // and "4" matches nothing.
  static const char* kLiterals[] = {"0", "1", "2", "3", "4", "01", "1.0"};
  for (int qi = 0; qi < 16; ++qi) {
    std::string t1 = kTags[rng.Uniform(5)];
    std::string t2 = kTags[rng.Uniform(5)];
    std::string t3 = kTags[rng.Uniform(5)];
    std::string lit = std::string("\"") + kLiterals[rng.Uniform(7)] + "\"";
    std::string lit2 = std::string("\"") + kLiterals[rng.Uniform(7)] + "\"";
    std::string op = rng.Chance(0.5) ? " = " : " != ";
    const xml::Document* target = doc.get();
    exec::NokResultCache* target_cache = &cache;
    std::string query;
    switch (rng.Uniform(17)) {
      case 0:
        query = "for $x in //" + t1 + " where $x/" + t2 + "/" + t3 + op +
                lit + " return <o>{ $x/" + t2 + " }</o>";
        break;
      case 1:
        query = "for $x in //" + t1 + " where " + lit + op + "$x/" + t2 +
                " return $x";
        break;
      case 2:
        query = "for $x in //" + t1 + ", $y in //" + t2 + " where $x << $y" +
                " and $y/" + t3 + op + lit + " return <o>{ $x }{ $y }</o>";
        break;
      case 3:
        query = "for $x in //" + t1 + " where not($x/" + t2 + op + lit +
                ") return $x";
        break;
      case 4:
        query = "for $x in //" + t1 + " where $x/" + t2 + op + lit +
                " or $x/" + t3 + " = " + lit2 + " return $x";
        break;
      case 5:
        query = "for $x in //" + t1 + "/" + t2 + " where $x" + op + lit +
                " return <o>{ $x }</o>";
        break;
      case 6:
        query = "for $x in //" + t1 + " where $x//" + t2 + op + lit +
                " and exists($x/" + t3 + ") return $x";
        break;
      case 7:
        query = "for $x in //" + t1 + ", $y in $x/" + t2 + " where $y" + op +
                lit + " and $x/" + t3 + " = " + lit2 +
                " return <o>{ $y }</o>";
        break;
      case 8:
        query = "for $x in //" + t1 + " let $y := $x/" + t2 + " where $y" +
                op + lit + " and $x/" + t3 + op + lit2 +
                " return <o>{ $y }</o>";
        break;
      case 9:
        query = "for $x in //" + t1 + " where exists($x//" + t2 +
                ") and not(exists($x/" + t3 + ")) return $x";
        break;
      case 10:
        target = attr_doc.get();
        target_cache = &attr_cache;
        query = "for $x in //" + t1 + " where $x/@k" + op + lit +
                " return $x";
        break;
      case 11:
        // The binding's predicate compares the attribute too.
        target = attr_doc.get();
        target_cache = &attr_cache;
        query = "for $x in //" + t1 + "[@k = " + lit2 + "], $y in $x/" + t2 +
                " where $y/@k" + op + lit + " return <o>{ $y }</o>";
        break;
      case 12:
        // $x's vertex already carries the binding's value constraint.
        query = "for $x in //" + t1 + "[. = " + lit2 + "] where $x" + op +
                lit + " return $x";
        break;
      case 13:
        // The operand's own predicate already constrains its target.
        query = "for $x in //" + t1 + " where $x/" + t2 + "[. = " + lit2 +
                "]" + op + lit + " return $x";
        break;
      case 14:
        // Predicates the pattern cannot hold stay residual: a named self
        // step, a reverse axis.
        query = "for $x in //" + t1 + " where $x/*[self::" + t2 + "]" + op +
                lit + " return $x";
        break;
      case 15:
        query = "for $x in //" + t1 + " where $x/" + t2 + op + lit +
                " and $x/" + t3 + "[parent::" + t2 + "] = " + lit2 +
                " return $x";
        break;
      default:
        target = attr_doc.get();
        target_cache = &attr_cache;
        query = "for $x in //" + t1 + ", $y in //" + t2 + " where " + lit +
                " = $x/" + t3 + "/@k and $x/@k" + op + "$y/@k" +
                " return <o>{ $x }{ $y }</o>";
        break;
    }
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) + " query=" + query);
    ExpectFlworMatchesOracle(*target, query, target_cache);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlworPropertyTest, ::testing::Range(0, 12));

/// Flat document: record tags a/b under the root, field tags c/d under
/// them, leaf tag e (with text "0".."3") under those. No tag nests in
/// itself, so the planner pipelines where RandomDoc's recursion makes it
/// pick the bounded nested loop.
std::unique_ptr<xml::Document> FlatDoc(Rng* rng, size_t records) {
  auto doc = std::make_unique<xml::Document>();
  doc->BeginElement("r");
  for (size_t i = 0; i < records; ++i) {
    doc->BeginElement(rng->Chance(0.5) ? "a" : "b");
    for (size_t f = rng->Uniform(4); f > 0; --f) {
      doc->BeginElement(rng->Chance(0.5) ? "c" : "d");
      for (size_t l = rng->Uniform(3); l > 0; --l) {
        doc->BeginElement("e");
        doc->AddText(std::to_string(rng->Uniform(4)));
        doc->EndElement();
      }
      doc->EndElement();
    }
    doc->EndElement();
  }
  doc->EndElement();
  EXPECT_TRUE(doc->Finish().ok());
  return doc;
}

/// Existential `//` leaves, which the default plan evaluates as tag-stream
/// probes (DESIGN.md §14): bare and value-constrained leaves, two leaves on
/// one vertex, a leaf under a non-root NoK vertex, and `where exists($v//p)`
/// — on a recursive and a flat document, each answered from RAM and from a
/// mapped image with and without its .btsi index, at 1 and 4 threads, with
/// no, a cold and a warm result cache. Every answer is the navigational
/// baseline's bytes on the RAM document.
class ProbePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ProbePropertyTest, ExistentialLeavesAgreeEverywhere) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7727 + 29);
  static const char* kTags[] = {"a", "b", "c", "d", "e"};
  std::vector<std::string> queries;
  for (int qi = 0; qi < 8; ++qi) {
    std::string t1 = kTags[rng.Uniform(5)];
    std::string t2 = kTags[rng.Uniform(5)];
    std::string t3 = kTags[rng.Uniform(5)];
    std::string lit = "\"" + std::to_string(rng.Uniform(5)) + "\"";
    switch (rng.Uniform(7)) {
      case 0:
        queries.push_back("//" + t1 + "[//" + t2 + "]");
        break;
      case 1:
        queries.push_back("//" + t1 + "[//" + t2 + " = " + lit + "]/" + t3);
        break;
      case 2:
        queries.push_back("//" + t1 + "[//" + t2 + "][//" + t3 + "]");
        break;
      case 3:
        queries.push_back("//" + t1 + "[" + t2 + "[//" + t3 + "]]");
        break;
      case 4:
        queries.push_back("for $x in //" + t1 + " where exists($x//" + t2 +
                          ") return <o>{ $x/" + t3 + " }</o>");
        break;
      case 5:
        queries.push_back("/r/" + t1 + "[//" + t2 + "]//" + t3);
        break;
      default:
        queries.push_back("for $x in //" + t1 + "[//" + t2 + "], $y in $x/" +
                          t3 + " return $y");
        break;
    }
  }
  std::unique_ptr<xml::Document> docs[] = {
      RandomDoc(&rng, 80 + rng.Uniform(80)),
      FlatDoc(&rng, 20 + rng.Uniform(20))};
  for (size_t di = 0; di < 2; ++di) {
    const xml::Document& ram = *docs[di];
    const std::string path = ::testing::TempDir() + "/bt_probe_" +
                             std::to_string(GetParam()) + "_" +
                             std::to_string(di) + ".btsx2";
    ASSERT_TRUE(storage::WriteBtsx2(ram, path).ok());
    ASSERT_TRUE(index::WriteBtsi(*index::StructuralIndex::Build(ram),
                                 index::BtsiSidecarPath(path))
                    .ok());
    auto indexed = storage::DiskStore::Open(path);
    ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
    ASSERT_NE((*indexed)->index(), nullptr);
    storage::DiskStoreOptions no_index;
    no_index.load_index = false;
    auto bare = storage::DiskStore::Open(path, no_index);
    ASSERT_TRUE(bare.ok()) << bare.status().ToString();
    std::remove(path.c_str());
    std::remove(index::BtsiSidecarPath(path).c_str());
    struct Access {
      const char* name;
      const xml::Document* doc;
      const storage::DiskStore* store;
    };
    const Access accesses[] = {{"ram", &ram, nullptr},
                               {"mapped", (*bare)->document(), bare->get()},
                               {"mapped+btsi", (*indexed)->document(),
                                indexed->get()}};
    baseline::NavigationalEvaluator nav(&ram);
    for (const Access& access : accesses) {
      exec::NokResultCache cache(util::CacheOptions{});
      for (const std::string& query : queries) {
        SCOPED_TRACE("seed=" + std::to_string(GetParam()) + " doc=" +
                     std::to_string(di) + " access=" + access.name +
                     " query=" + query);
        auto want = nav.EvaluateQuery(query);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        for (unsigned threads : {1u, 4u}) {
          for (exec::NokResultCache* c :
               {(exec::NokResultCache*)nullptr, &cache, &cache}) {
            engine::EngineOptions options;
            options.num_threads = threads;
            options.plan.result_cache = c;
            options.plan.store = access.store;
            if (access.store != nullptr) {
              options.plan.index = access.store->index();
            }
            engine::BlossomTreeEngine engine(access.doc, options);
            auto got = engine.EvaluateQuery(query);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            EXPECT_EQ(*got, *want) << "threads=" << threads
                                   << " cache=" << (c != nullptr);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbePropertyTest, ::testing::Range(0, 8));

/// Fuzz-lite robustness: byte-mutated XML never crashes the parser, and
/// whatever still parses serializes to a re-parsable document; every random
/// document round-trips through a BTSX v2 image.
class RobustnessTest : public ::testing::TestWithParam<int> {};

TEST_P(RobustnessTest, MutatedXmlNeverCrashes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337 + 5);
  auto doc = RandomDoc(&rng, 60);
  std::string text = xml::Serialize(*doc);
  for (int i = 0; i < 60; ++i) {
    std::string mutated = text;
    size_t pos = rng.Uniform(mutated.size());
    double r = rng.NextDouble();
    if (r < 0.4) {
      mutated[pos] = static_cast<char>(rng.Uniform(256));
    } else if (r < 0.7) {
      mutated.erase(pos, 1 + rng.Uniform(4));
    } else {
      mutated.insert(pos, std::string(1 + rng.Uniform(3),
                                      static_cast<char>(rng.Uniform(128))));
    }
    auto parsed = xml::ParseDocument(mutated);
    if (parsed.ok()) {
      std::string again = xml::Serialize(**parsed);
      auto reparsed = xml::ParseDocument(again);
      EXPECT_TRUE(reparsed.ok())
          << "serialize produced unparsable output: " << again;
    }
  }
}

TEST_P(RobustnessTest, Btsx2RoundTripOnRandomDocs) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 65537 + 11);
  auto doc = RandomDoc(&rng, 50 + rng.Uniform(200));
  auto encoded = storage::EncodeBtsx2(*doc);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  auto view = storage::MapBtsx2(*encoded);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_TRUE(storage::ValidateBtsx2Deep(*view).ok());
  xml::Document adopted;
  ASSERT_TRUE(adopted.AdoptExternal(view->ToLayout()).ok());
  EXPECT_EQ(xml::Serialize(adopted), xml::Serialize(*doc));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RobustnessTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace blossomtree
