#include "engine/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <numeric>

#include "engine/binder.h"
#include "engine/where_eval.h"
#include "exec/operator.h"
#include "exec/value_ops.h"
#include "flwor/parser.h"
#include "pattern/builder.h"
#include "pattern/decompose.h"
#include "util/trace.h"

namespace blossomtree {
namespace engine {

BlossomTreeEngine::BlossomTreeEngine(const xml::Document* doc,
                                     EngineOptions options)
    : doc_(doc), options_(std::move(options)), guard_(options_.limits) {
  options_.plan.guard = &guard_;
  unsigned threads = options_.num_threads == 0
                         ? static_cast<unsigned>(
                               util::ThreadPool::DefaultThreads())
                         : options_.num_threads;
  if (threads > 1 && options_.plan.pool == nullptr) {
    pool_ = std::make_unique<util::ThreadPool>(threads);
    options_.plan.pool = pool_.get();
  }
  // Tracing is process-wide (spans land in per-thread rings regardless of
  // which engine issued them); any engine asking for it turns it on. An
  // already-running capture is left alone — Enable() restarts the capture,
  // which would drop spans a caller recorded before constructing the
  // engine (e.g. a CLI tracing its own query parse).
  if (options_.trace && !util::Tracer::Get().enabled()) {
    util::Tracer::Get().Enable();
  }
}

namespace {

/// Adds one query's probes of a cache to the `prefix`.hits/.misses
/// counters, and sets the cache-wide evictions, bytes and entries from
/// `now` as gauges (an eviction belongs to whichever insert needed room,
/// not to one query).
void AddCacheMetrics(util::MetricsRegistry* metrics, const std::string& prefix,
                     const exec::CacheProbes& probes,
                     const util::CacheStats& now) {
  metrics->GetCounter(prefix + ".hits")->Add(probes.hits);
  metrics->GetCounter(prefix + ".misses")->Add(probes.misses);
  auto set_gauge = [&](const char* name, uint64_t value) {
    util::Counter* gauge = metrics->GetCounter(prefix + name);
    gauge->Reset();
    gauge->Add(value);
  };
  set_gauge(".evictions", now.evictions);
  set_gauge(".bytes", now.bytes);
  set_gauge(".entries", now.entries);
}

}  // namespace

Result<std::string> BlossomTreeEngine::EvaluateQuery(std::string_view query) {
  last_profile_ = QueryProfile{};
  // Plan-cache level 1: verbatim query text → parsed AST. A hit skips the
  // parser entirely (and records no query.parse_ns sample — there was no
  // parse). Parse failures are never cached: the error re-surfaces each time.
  std::shared_ptr<const flwor::Expr> expr;
  if (options_.plan_cache != nullptr) {
    util::TraceSpan lookup("cache", "plan.parsed.lookup");
    expr = options_.plan_cache->GetParsed(std::string(query));
    last_profile_.plan_cache.Count(expr != nullptr);
  }
  if (expr == nullptr) {
    auto parse_start = std::chrono::steady_clock::now();
    Result<std::unique_ptr<flwor::Expr>> parsed =
        flwor::ParseQuery(query, options_.limits.ToParseLimits());
    if (!parsed.ok()) {
      EndQuery(nullptr, parse_start);
      return parsed.status();
    }
    if (options_.collect_metrics) {
      metrics_.GetHistogram("query.parse_ns")
          ->Record(util::NanosSince(parse_start));
    }
    expr = std::shared_ptr<const flwor::Expr>(parsed.MoveValue());
    if (options_.plan_cache != nullptr) {
      options_.plan_cache->PutParsed(std::string(query), expr);
    }
  }
  return RunToXml(*expr);
}

Result<std::string> BlossomTreeEngine::EvaluateToXml(
    const flwor::Expr& expr) {
  last_profile_ = QueryProfile{};
  return RunToXml(expr);
}

Result<std::string> BlossomTreeEngine::RunToXml(const flwor::Expr& expr) {
  util::TraceSpan span("engine", "query");
  auto start = std::chrono::steady_clock::now();
  guard_.Arm();  // The deadline clock starts here, not at construction.
  ResultBuilder out(doc_);
  Status status = EvalExpr(expr, Tuple{}, &out);
  if (status.ok() && guard_.Tripped()) status = guard_.status();
  Result<std::string> xml = status.ok() ? out.ToXml() : status;
  EndQuery(xml.ok() ? "engine.queries" : nullptr, start);
  return xml;
}

Result<std::vector<xml::NodeId>> BlossomTreeEngine::EvaluatePath(
    const xpath::PathExpr& path) {
  util::TraceSpan span("engine", "path");
  auto start = std::chrono::steady_clock::now();
  last_profile_ = QueryProfile{};
  guard_.Arm();
  Result<std::vector<xml::NodeId>> out = EvalPathPlan(path);
  if (out.ok() && guard_.Tripped()) out = guard_.status();
  if (out.ok() && options_.collect_metrics) {
    metrics_.GetCounter("engine.path_result_nodes")
        ->Add(static_cast<uint64_t>(out->size()));
  }
  EndQuery(out.ok() ? "engine.path_queries" : nullptr, start);
  return out;
}

void BlossomTreeEngine::EndQuery(const char* done_counter,
                                 std::chrono::steady_clock::time_point start) {
  if (!options_.collect_metrics) return;
  exec::ExecStats total = last_profile_.Totals();
  if (!last_profile_.operators.empty()) {
    metrics_.GetCounter("exec.rows")->Add(total.matches);
    metrics_.GetCounter("exec.nodes_scanned")->Add(total.nodes_scanned);
    metrics_.GetCounter("exec.comparisons")->Add(total.comparisons);
    metrics_.GetCounter("exec.nl_cells")->Add(total.nl_cells);
  }
  if (options_.plan_cache != nullptr) {
    AddCacheMetrics(&metrics_, "cache.plan", last_profile_.plan_cache,
                    options_.plan_cache->Stats());
  }
  if (options_.plan.result_cache != nullptr) {
    AddCacheMetrics(&metrics_, "cache.result", total.result_cache,
                    options_.plan.result_cache->Stats());
  }
  if (done_counter != nullptr) {
    metrics_.GetCounter(done_counter)->Increment();
    metrics_.GetHistogram("query.wall_ns")->Record(util::NanosSince(start));
  }
  // Snapshot last, so the profile's embedded registry includes this
  // query's counters.
  if (options_.collect_profile) last_profile_.metrics_json = metrics_.ToJson();
}

Result<std::vector<xml::NodeId>> BlossomTreeEngine::EvalPathPlan(
    const xpath::PathExpr& path) {
  // Plan-cache level 2: canonical path fingerprint → compiled BlossomTree +
  // decomposition (no slot bindings). The navigational fallback below
  // produces no compiled artifact and is never cached.
  std::shared_ptr<const CompiledFlwor> compiled;
  std::string key;
  if (options_.plan_cache != nullptr) {
    key = CanonicalPathKey(path);
    util::TraceSpan lookup("cache", "plan.path.lookup");
    compiled = options_.plan_cache->GetCompiled(key);
    last_profile_.plan_cache.Count(compiled != nullptr);
  }
  if (compiled == nullptr) {
    auto built = pattern::BuildFromPath(path);
    if (!built.ok()) {
      if (built.status().code() == StatusCode::kUnsupported) {
        // Constructs outside the BlossomTree subset (e.g. reverse axes)
        // degrade gracefully to navigational evaluation, whose matches are
        // charged as result rows like the plan's below.
        PathEvaluator ev(doc_);
        last_explain_ =
            "navigational fallback (" + built.status().message() + ")\n";
        BT_ASSIGN_OR_RETURN(std::vector<xml::NodeId> out, ev.Evaluate(path));
        if (!guard_.ChargeRows(out.size())) return guard_.status();
        return out;
      }
      return built.status();
    }
    auto fresh = std::make_shared<CompiledFlwor>();
    fresh->tree = built.MoveValue();
    fresh->decomposition = pattern::Decompose(fresh->tree);
    if (options_.plan_cache != nullptr) {
      options_.plan_cache->PutCompiled(key, fresh);
    }
    compiled = std::move(fresh);
  }
  BT_ASSIGN_OR_RETURN(opt::QueryPlan plan,
                      opt::PlanQuery(doc_, &compiled->tree, options_.plan,
                                     &compiled->decomposition));
  last_explain_ = plan.Explain();
  BT_ASSIGN_OR_RETURN(std::vector<xml::NodeId> out,
                      opt::DrainPathPlan(&plan, options_.plan));
  if (!guard_.ChargeRows(out.size())) return guard_.status();
  CollectProfile(&plan, path.ToString());
  return out;
}

void BlossomTreeEngine::CollectProfile(opt::QueryPlan* plan,
                                       const std::string& label) {
  if (!options_.collect_profile && !options_.collect_metrics) return;
  last_profile_.AddPlan(BuildQueryProfile(plan, label, EffectiveThreads()));
}

Status BlossomTreeEngine::EvalExpr(const flwor::Expr& expr, Tuple tuple,
                                   ResultBuilder* out) {
  switch (expr.kind) {
    case flwor::Expr::Kind::kPath: {
      std::vector<xml::NodeId> nodes;
      if (tuple.width() == 0 &&
          expr.path.start == xpath::PathExpr::StartKind::kRoot) {
        // Free-standing absolute path: use the BlossomTree plan. The guard
        // is already armed by the top-level entry point — EvaluatePath
        // would restart the deadline mid-query.
        BT_ASSIGN_OR_RETURN(nodes, EvalPathPlan(expr.path));
      } else {
        // Variable-/context-rooted paths are evaluated from the bindings.
        PathEvaluator ev(doc_);
        BT_ASSIGN_OR_RETURN(nodes, ev.EvaluateWith(expr.path, tuple, {}));
      }
      out->CopyNodes(nodes);
      return Status::OK();
    }
    case flwor::Expr::Kind::kConstructor:
      return out->Construct(*expr.ctor, [&](const flwor::Expr& item) {
        return EvalExpr(item, tuple, out);
      });
    case flwor::Expr::Kind::kFlwor:
      return EvalFlwor(*expr.flwor, tuple, out);
  }
  return Status::Internal("unhandled expression kind");
}

Status BlossomTreeEngine::EvalFlwor(const flwor::Flwor& flwor, Tuple tuple,
                                    ResultBuilder* out) {
  Result<TupleTable> tuples =
      tuple.width() == 0
          ? FlworTuples(flwor)
          : Status::Unsupported("nested FLWOR with free variables");
  if (!tuples.ok() && tuples.status().code() == StatusCode::kUnsupported) {
    // Bindings outside the BlossomTree subset (e.g. reverse axes) and
    // nested FLWORs under outer bindings: per-iteration evaluation.
    PathEvaluator ev(doc_);
    tuples = NaiveFlworTuples(flwor, tuple, &ev, &guard_);
  }
  BT_RETURN_NOT_OK(tuples.status());
  return EmitTuples(flwor, *tuples, out);
}

Result<std::shared_ptr<const CompiledFlwor>> BlossomTreeEngine::CompileFlwor(
    const flwor::Flwor& flwor) {
  // Plan-cache level 2: canonical FLWOR fingerprint → BlossomTree +
  // decomposition + slot bindings. Build failures (e.g. kUnsupported, which
  // FlworTuples' caller turns into the naive fallback) are never cached.
  std::string key;
  if (options_.plan_cache != nullptr) {
    key = CanonicalFlworKey(flwor);
    util::TraceSpan lookup("cache", "plan.flwor.lookup");
    std::shared_ptr<const CompiledFlwor> hit =
        options_.plan_cache->GetCompiled(key);
    last_profile_.plan_cache.Count(hit != nullptr);
    if (hit != nullptr) return hit;
  }
  // Only env-free FLWORs are compiled, so their slots start at 0.
  assert(flwor.bindings.empty() || flwor.bindings.front().var_slot == 0);
  auto compiled = std::make_shared<CompiledFlwor>();
  BT_ASSIGN_OR_RETURN(compiled->tree,
                      pattern::BuildFromFlwor(flwor, &compiled->residual));
  compiled->decomposition = pattern::Decompose(compiled->tree);
  compiled->bindings = ComputeSlotBindings(compiled->tree, flwor);
  if (options_.plan_cache != nullptr) {
    options_.plan_cache->PutCompiled(key, compiled);
  }
  return std::shared_ptr<const CompiledFlwor>(std::move(compiled));
}

Result<TupleTable> BlossomTreeEngine::FlworTuples(
    const flwor::Flwor& flwor) {
  util::TraceSpan span("engine", "flwor-tuples");
  BT_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledFlwor> compiled,
                      CompileFlwor(flwor));
  const pattern::BlossomTree& tree = compiled->tree;
  BT_ASSIGN_OR_RETURN(opt::QueryPlan plan,
                      opt::PlanQuery(doc_, &tree, options_.plan,
                                     &compiled->decomposition));
  // The where conjuncts the pattern does not enforce, in this AST; the
  // explanation ends with them.
  std::vector<const flwor::BoolExpr*> residual;
  std::string listed;
  if (!compiled->residual.empty()) {
    std::vector<const flwor::BoolExpr*> conjuncts =
        flwor::Conjuncts(*flwor.where);
    for (uint32_t i : compiled->residual) {
      residual.push_back(conjuncts.at(i));
      listed += (listed.empty() ? "" : " and ") +
                flwor::BoolExprToString(*conjuncts[i]);
    }
  }
  last_explain_ = plan.Explain() + "residual where: " +
                  (listed.empty() ? "none" : listed) + "\n";
  // Per pattern tree: drain the plan, bind its own slots. `owner[s]` is
  // the tree and column that bind tuple slot s.
  std::vector<TreeTuples> per_tree;
  std::vector<std::pair<size_t, size_t>> owner(flwor.bindings.size());
  for (opt::PatternTreePlan& tp : plan.trees) {
    nestedlist::Arena lists =
        exec::Drain(tp.root.get(), options_.plan.exec.batch_rows);
    if (guard_.Tripped()) return guard_.status();
    TreeTuples& tt = per_tree.emplace_back();
    BT_RETURN_NOT_OK(EnumerateBindings(tree, tp.tops, lists,
                                       compiled->bindings,
                                       flwor.bindings.size(), &guard_, &tt));
    for (size_t j = 0; j < tt.slots.size(); ++j) {
      owner[tt.slots[j]] = {per_tree.size() - 1, j};
    }
  }
  CollectProfile(&plan, "flwor");
  // Crossing edges (<<, value joins, deep-equal) are evaluated by the
  // naive nested loop over the per-tree rows (paper §4.3), `row[t]` being
  // tree t's: the first tree outermost, each tuple charged as it is formed
  // and filtered by the residual where conjuncts at once, so only
  // survivors are held.
  std::vector<size_t> row(per_tree.size(), 0);
  TupleTable kept{flwor.bindings.size()};
  PathEvaluator ev(doc_);
  uint64_t formed = 0;
  bool more = std::all_of(
      per_tree.begin(), per_tree.end(),
      [](const TreeTuples& tt) { return tt.rows.rows > 0; });
  while (more) {
    if (!guard_.ChargeRows(1)) return guard_.status();
    if ((++formed & 0x1FF) == 0 && !guard_.Check()) return guard_.status();
    for (auto [t, j] : owner) kept.Push(per_tree[t].rows.Slot(row[t], j));
    kept.EndRow();
    bool pass = true;
    for (size_t c = 0; pass && c < residual.size(); ++c) {
      BT_ASSIGN_OR_RETURN(pass, EvalWhere(*residual[c], kept.Row(kept.rows - 1),
                                          *doc_, &ev));
    }
    if (!pass) kept.PopRow();
    // The next combination, the last tree innermost.
    more = false;
    for (size_t t = per_tree.size(); !more && t-- > 0;) {
      more = ++row[t] < per_tree[t].rows.rows;
      if (!more) row[t] = 0;
    }
  }
  // The FLWOR's own loop order is ascending slots; trees whose slots
  // interleave (`for $a in //a, $b in //b, $c in $a/c`) leave the nested
  // loop out of it, and a permutation of the rows restores it.
  if (!kept.StrictlyAscending()) return kept.SortedDistinct();
  return kept;
}

Status BlossomTreeEngine::EmitTuples(const flwor::Flwor& flwor,
                                     const TupleTable& tuples,
                                     ResultBuilder* out) {
  util::TraceSpan span("engine", "emit");
  if (options_.collect_metrics) {
    metrics_.GetCounter("engine.flwor_tuples")->Add(tuples.rows);
  }
  PathEvaluator ev(doc_);
  BT_ASSIGN_OR_RETURN(std::vector<uint32_t> order,
                      OrderTuples(flwor, &ev, tuples));
  uint64_t emitted = 0;
  for (uint32_t r : order) {
    if ((++emitted & 0xFF) == 0 && !guard_.Check()) return guard_.status();
    BT_RETURN_NOT_OK(EvalExpr(*flwor.ret, tuples.Row(r), out));
  }
  return Status::OK();
}

Result<std::vector<uint32_t>> OrderTuples(const flwor::Flwor& flwor,
                                          PathEvaluator* evaluator,
                                          const TupleTable& tuples) {
  std::vector<uint32_t> order(tuples.rows);
  std::iota(order.begin(), order.end(), 0u);
  if (!flwor.order_by.has_value()) return order;
  std::vector<std::string> keys;
  for (uint32_t r : order) {
    BT_ASSIGN_OR_RETURN(
        std::vector<xml::NodeId> nodes,
        evaluator->EvaluateWith(*flwor.order_by, tuples.Row(r), {}));
    // A key ending in an attribute step sorts on the attribute's value.
    keys.push_back(nodes.empty()
                       ? ""
                       : exec::OperandValue(*evaluator->doc(), nodes[0],
                                            FinalAttribute(*flwor.order_by)));
  }
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return flwor.order_descending ? keys[a] > keys[b] : keys[a] < keys[b];
  });
  return order;
}

Result<TupleTable> NaiveFlworTuples(const flwor::Flwor& flwor, Tuple base,
                                    PathEvaluator* evaluator,
                                    util::ResourceGuard* guard) {
  TupleTable tuples{base.width()};
  tuples.PushTuple(base);
  tuples.EndRow();
  for (size_t i = 0; i < flwor.bindings.size(); ++i) {
    const flwor::Binding& b = flwor.bindings[i];
    const bool let = b.kind == flwor::Binding::Kind::kLet;
    // The last binding forms complete tuples: each is charged as a result
    // row as it is formed, before the where filter, as FlworTuples does.
    const bool complete = i + 1 == flwor.bindings.size() && guard != nullptr;
    // Each binding appends its slot: bindings take consecutive slots
    // after the enclosing scope's.
    assert(b.var_slot == tuples.width);
    TupleTable next{tuples.width + 1};
    for (size_t r = 0; r < tuples.rows; ++r) {
      // Each iteration re-runs a full path evaluation, so one guard sample
      // per iteration is already amortized.
      if (guard != nullptr && !guard->Check()) return guard->status();
      // The path expression is re-evaluated for every iteration of the
      // enclosing loop — the inefficiency BlossomTree eliminates.
      BT_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                          evaluator->EvaluateWith(b.path, tuples.Row(r), {}));
      std::span<const xml::NodeId> bound(nodes);
      // A let binds the whole sequence once, a for each node in turn.
      for (size_t k = 0; k < (let ? 1 : nodes.size()); ++k) {
        if (complete && !guard->ChargeRows(1)) return guard->status();
        next.PushTuple(tuples.Row(r));
        next.Push(let ? bound : bound.subspan(k, 1));
        next.EndRow();
      }
    }
    tuples = std::move(next);
  }
  if (flwor.where == nullptr) return tuples;
  TupleTable kept{tuples.width};
  for (size_t r = 0; r < tuples.rows; ++r) {
    BT_ASSIGN_OR_RETURN(bool ok, EvalWhere(*flwor.where, tuples.Row(r),
                                           *evaluator->doc(), evaluator));
    if (!ok) continue;
    kept.PushTuple(tuples.Row(r));
    kept.EndRow();
  }
  return kept;
}

}  // namespace engine
}  // namespace blossomtree
