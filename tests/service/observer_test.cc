// Tests for the service observability plane (DESIGN.md §15): the query
// flight recorder, slow-query log, per-tenant labeled metrics, windowed
// snapshots, and the determinism contract (recorder on never perturbs the
// deterministic counter surface). CI's TSan stress step runs the Service*
// suites and CacheAttributionTest via --gtest_filter.

#include "service/observer.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "service/corpus.h"
#include "service/query_service.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/status.h"
#include "xml/parser.h"

namespace blossomtree {
namespace service {
namespace {

std::unique_ptr<xml::Document> DblpDoc(double scale = 0.02) {
  datagen::GenOptions o;
  o.scale = scale;
  o.seed = 7;
  return datagen::GenerateDataset(datagen::Dataset::kD5Dblp, o);
}

/// 50 books and one magazine, each with a title.
std::unique_ptr<xml::Document> BookDoc() {
  std::string xml = "<lib>";
  for (int i = 0; i < 50; ++i) {
    xml += "<book><title>t" + std::to_string(i) + "</title></book>";
  }
  xml += "<mag><title>m</title></mag></lib>";
  return xml::ParseDocument(xml).MoveValue();
}

CorpusOptions CachedCorpus() {
  CorpusOptions copts;
  copts.plan_cache.enabled = true;
  copts.result_cache.enabled = true;
  return copts;
}

constexpr char kArticles[] = "for $a in //article return $a/title";

/// The served mix the determinism test replays at several slot counts.
constexpr const char* kMix[] = {
    "//article/title",
    "//phdthesis/author",
    "//article[year = \"omega\"]/title",
    "for $a in //phdthesis return <hit>{$a/school}</hit>",
};

TEST(ServiceObserverTest, FingerprintIsStableFnv1a) {
  // Pinned constants: fingerprints land in logs and dashboards, so the
  // hash must never drift across builds or platforms.
  EXPECT_EQ(FingerprintQuery(""), 14695981039346656037ull);
  EXPECT_EQ(FingerprintQuery("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(FingerprintQuery("//a"), FingerprintQuery("//b"));
}

TEST(ServiceObserverTest, RecordsEveryTerminalOutcomeWithStatusLabels) {
  Corpus corpus;
  ASSERT_TRUE(corpus.Add("dblp", DblpDoc()).ok());
  ServiceOptions sopts;
  sopts.slots = 1;
  sopts.max_queue = 2;
  QueryService svc(&corpus, sopts);
  auto session = svc.CreateSession("alice");

  // Unknown document: a terminal not_found outcome, recorded like any
  // other completion.
  EXPECT_EQ(svc.Execute(*session, "nope", "//a").status().code(),
            StatusCode::kNotFound);

  // Burst past the queue bound: some submissions are rejected with
  // kResourceExhausted (same setup the admission tests rely on).
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 64; ++i) {
    tickets.push_back(svc.Submit(*session, "dblp", kArticles));
  }
  uint64_t ok = 0;
  uint64_t rejected = 0;
  for (auto& t : tickets) {
    if (t->Wait().ok()) {
      ++ok;
    } else {
      ASSERT_EQ(t->Wait().status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  ASSERT_GT(rejected, 0u);

  // Status-labeled counters reproduce the ticket-side truth exactly —
  // including rejections, which never reach RunQuery.
  auto counters = svc.metrics().CounterValues();
  EXPECT_EQ(counters["service.queries{status=\"ok\"}"], ok);
  EXPECT_EQ(counters["service.queries{status=\"rejected\"}"], rejected);
  EXPECT_EQ(counters["service.queries{status=\"not_found\"}"], 1u);

  // Rejected submissions land in the service.e2e_ns rollups under their
  // status label (the unlabeled histogram stays queries-that-ran only).
  auto hists = svc.metrics().HistogramSnapshots();
  EXPECT_EQ(hists["service.e2e_ns{status=\"rejected\"}"].count, rejected);
  EXPECT_EQ(hists["service.e2e_ns{status=\"ok\"}"].count, ok);

  // Per-tenant labeled series carry the same split.
  EXPECT_EQ(
      counters["service.tenant.queries{tenant=\"alice\",status=\"ok\"}"], ok);
  EXPECT_EQ(counters["service.tenant.rejected{tenant=\"alice\"}"],
            rejected + 1);  // not_found is an admission-time rejection too.

  // The flight recorder retained every outcome (65 <= default capacity)
  // and the rollup over its window agrees.
  EXPECT_EQ(svc.observer()->TotalRecorded(), 65u);
  auto rollups = svc.observer()->TenantRollups();
  ASSERT_EQ(rollups.size(), 1u);
  EXPECT_EQ(rollups[0].tenant, "alice");
  EXPECT_EQ(rollups[0].completed, ok);
  EXPECT_EQ(rollups[0].rejected, rejected);
  EXPECT_EQ(rollups[0].not_found, 1u);
  EXPECT_EQ(rollups[0].admitted, ok);

  // Summaries are retrievable by id, carry the query fingerprint, and an
  // admission-time rejection is marked not-admitted.
  bool saw_rejected = false;
  for (const QuerySummary& s : svc.observer()->Recent(65)) {
    EXPECT_EQ(s.fingerprint, FingerprintQuery(s.query));
    QuerySummary by_id;
    ASSERT_TRUE(svc.observer()->FindSummary(s.id, &by_id));
    EXPECT_EQ(by_id.StatusLabel(), s.StatusLabel());
    if (s.StatusLabel() == "rejected") {
      saw_rejected = true;
      EXPECT_FALSE(s.admitted);
    }
  }
  EXPECT_TRUE(saw_rejected);
}

TEST(ServiceObserverTest, SlowLogCapturesGroundTruthPlans) {
  Corpus corpus;  // No caches: work counters match a standalone engine.
  ASSERT_TRUE(corpus.Add("dblp", DblpDoc()).ok());
  ServiceOptions sopts;
  sopts.slots = 1;
  sopts.collect_profile = true;
  sopts.observer.slow_threshold_ns = 0;  // Every query is "slow".
  QueryService svc(&corpus, sopts);
  auto session = svc.CreateSession("t");
  ASSERT_TRUE(svc.Execute(*session, "dblp", kArticles).ok());

  // Ground truth: a standalone serial profiling engine over an identical
  // build (profiles' deterministic text is a pure function of doc + plan).
  auto ref_doc = DblpDoc();
  engine::EngineOptions eo;
  eo.num_threads = 1;
  eo.collect_profile = true;
  engine::BlossomTreeEngine ref(ref_doc.get(), eo);
  ASSERT_TRUE(ref.EvaluateQuery(kArticles).ok());
  WorkCounters want = WorkCounters::FromProfile(ref.LastProfile());

  auto slow = svc.observer()->SlowLog();
  ASSERT_EQ(slow.size(), 1u);
  const SlowQueryRecord& rec = slow[0];
  EXPECT_EQ(rec.summary.work.nodes_scanned, want.nodes_scanned);
  EXPECT_EQ(rec.summary.work.comparisons, want.comparisons);
  EXPECT_EQ(rec.summary.work.matches, want.matches);
  EXPECT_EQ(rec.summary.work.nl_cells, want.nl_cells);
  EXPECT_FALSE(rec.explain_analyze.empty());
  EXPECT_NE(rec.explain_analyze.find("Nok"), std::string::npos)
      << rec.explain_analyze;
  EXPECT_FALSE(rec.profile_json.empty());
  EXPECT_FALSE(rec.metrics_json.empty());

  // FindSlow resolves the same record by recorder id, and the JSON dump of
  // the log is well-formed despite embedded plan text.
  SlowQueryRecord by_id;
  ASSERT_TRUE(svc.observer()->FindSlow(rec.summary.id, &by_id));
  EXPECT_EQ(by_id.explain_analyze, rec.explain_analyze);
  auto parsed = util::ParseJson(svc.observer()->SlowJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // The recorded access-path mix matches the reference engine's plan too:
  // the forced profiling the observer relies on is the same profile a
  // client with collect_profile sees.
  AccessPathMix want_paths = AccessPathMix::FromProfile(ref.LastProfile());
  const AccessPathMix& got_paths = rec.summary.paths;
  EXPECT_EQ(got_paths.scan_ops, want_paths.scan_ops);
  EXPECT_EQ(got_paths.merged_views, want_paths.merged_views);
  EXPECT_EQ(got_paths.seek_ops, want_paths.seek_ops);
}

TEST(ServiceObserverTest, SlowLogCacheCountsAreTheQuerysOwn) {
  // A per-query engine over the corpus caches: its registry must carry
  // this query's cache probes, not the caches' lifetime totals.
  Corpus corpus(CachedCorpus());
  ASSERT_TRUE(corpus.Add("lib", BookDoc()).ok());
  ServiceOptions sopts;
  sopts.slots = 1;
  sopts.observer.slow_threshold_ns = 0;
  QueryService svc(&corpus, sopts);
  auto session = svc.CreateSession("t");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(svc.Execute(*session, "lib", "//book/title").ok());
  }
  const SlowQueryRecord last = svc.observer()->SlowLog().front();
  // A warm run hits the text and compiled-path plan-cache levels once
  // each, and the serial scan's result cache once.
  EXPECT_EQ(last.summary.plan_cache_hits, 2u);
  EXPECT_EQ(last.summary.result_cache_hits, 1u);
  auto metrics = util::ParseJson(last.metrics_json);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const util::JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->NumberOr("cache.plan.hits", -1), 2.0);
  EXPECT_EQ(counters->NumberOr("cache.result.hits", -1), 1.0);
}

TEST(ServiceObserverTest, SummaryCoversEveryPlanOfAQuery) {
  Corpus corpus;
  ASSERT_TRUE(corpus.Add("lib", BookDoc()).ok());
  ServiceOptions sopts;
  sopts.slots = 1;
  QueryService svc(&corpus, sopts);
  auto session = svc.CreateSession("t");
  auto run = [&](const char* query) {
    Result<std::string> r = svc.Execute(*session, "lib", query);
    EXPECT_TRUE(r.ok()) << query;
    return r.ok() ? *r : std::string();
  };
  run("//book/title");
  uint64_t books = svc.observer()->Recent(1)[0].work.matches;
  run("//mag/title");
  uint64_t mags = svc.observer()->Recent(1)[0].work.matches;
  std::string both = run("<r>{//book/title}{//mag/title}</r>");
  size_t titles = 0;
  for (size_t at = both.find("<title>"); at != std::string::npos;
       at = both.find("<title>", at + 1)) {
    ++titles;
  }
  EXPECT_EQ(titles, 51u);
  // The two-plan query's summary sums both plans, not only the last.
  EXPECT_EQ(books + mags, 51u);
  EXPECT_EQ(svc.observer()->Recent(1)[0].work.matches, books + mags);
}

TEST(CacheAttributionTest, SummariesSumToCacheStatsUnderConcurrency) {
  // Per-query hits are counted at the probes, so under 4 concurrent slots
  // (and partitioned scans) the summaries add up to the caches' own
  // counters exactly — no neighbour's hit lands in another query.
  Corpus corpus(CachedCorpus());
  ASSERT_TRUE(corpus.Add("dblp", DblpDoc(0.01)).ok());
  ServiceOptions sopts;
  sopts.slots = 4;
  sopts.intra_query_threads = 2;
  sopts.max_queue = 256;
  QueryService svc(&corpus, sopts);
  const util::CacheStats plan_before = corpus.plan_cache()->Stats();
  const util::CacheStats result_before = corpus.result_cache()->Stats();
  std::vector<std::shared_ptr<Session>> sessions;
  for (int c = 0; c < 4; ++c) {
    sessions.push_back(svc.CreateSession("c" + std::to_string(c)));
  }
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  constexpr size_t kQueries = 240;
  for (size_t i = 0; i < kQueries; ++i) {
    tickets.push_back(svc.Submit(*sessions[i % sessions.size()], "dblp",
                                 kMix[i % std::size(kMix)]));
  }
  for (auto& t : tickets) ASSERT_TRUE(t->Wait().ok());

  ASSERT_EQ(svc.observer()->TotalRecorded(), kQueries);
  uint64_t plan_hits = 0;
  uint64_t result_hits = 0;
  for (const QuerySummary& s : svc.observer()->Recent(kQueries)) {
    plan_hits += s.plan_cache_hits;
    result_hits += s.result_cache_hits;
  }
  EXPECT_EQ(plan_hits, corpus.plan_cache()->Stats().hits - plan_before.hits);
  EXPECT_EQ(result_hits,
            corpus.result_cache()->Stats().hits - result_before.hits);
  EXPECT_GT(plan_hits, 0u);
  EXPECT_GT(result_hits, 0u);
}

TEST(ServiceObserverTest, DeterministicCountersIdenticalAcrossSlots) {
  // The acceptance contract: with the observer on at defaults, per-query
  // deterministic work counters are bitwise-identical at 1, 2, and 4 slots
  // (caches off so warmth cannot vary the work).
  std::map<uint64_t, std::vector<uint64_t>> per_slots_work;
  for (size_t slots : {1u, 2u, 4u}) {
    Corpus corpus;
    ASSERT_TRUE(corpus.Add("dblp", DblpDoc()).ok());
    ServiceOptions sopts;
    sopts.slots = slots;
    sopts.max_queue = 64;
    QueryService svc(&corpus, sopts);
    auto session = svc.CreateSession("t");
    std::vector<std::shared_ptr<QueryTicket>> tickets;
    for (int rep = 0; rep < 4; ++rep) {
      for (const char* q : kMix) {
        tickets.push_back(svc.Submit(*session, "dblp", q));
      }
    }
    for (auto& t : tickets) ASSERT_TRUE(t->Wait().ok());

    // Aggregate recorded work per query fingerprint; the map must be
    // identical at every slot count.
    std::map<uint64_t, std::vector<uint64_t>> work;
    for (const QuerySummary& s : svc.observer()->Recent(64)) {
      auto& w = work[s.fingerprint];
      if (w.empty()) w.resize(7, 0);
      w[0] += s.work.nodes_scanned;
      w[1] += s.work.index_entries;
      w[2] += s.work.comparisons;
      w[3] += s.work.matches;
      w[4] += s.work.nl_cells;
      w[5] += s.paths.scan_ops;
      w[6] += s.paths.seek_ops;
    }
    if (per_slots_work.empty()) {
      per_slots_work = work;
      ASSERT_EQ(work.size(), 4u);  // One fingerprint per mix entry.
    } else {
      EXPECT_EQ(work, per_slots_work) << "slots=" << slots;
    }
  }
}

TEST(ServiceObserverTest, RecorderOverflowIsBoundedAndCountsDrops) {
  Corpus corpus;
  ASSERT_TRUE(corpus.Add("dblp", DblpDoc(0.01)).ok());
  ServiceOptions sopts;
  sopts.slots = 2;
  sopts.observer.recorder_capacity = 8;
  sopts.observer.recorder_shards = 2;
  sopts.observer.slow_log_capacity = 3;
  sopts.observer.slow_threshold_ns = 0;
  QueryService svc(&corpus, sopts);
  auto session = svc.CreateSession("t");
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(svc.Execute(*session, "dblp", "//phdthesis/author").ok());
  }
  EXPECT_EQ(svc.observer()->TotalRecorded(), 30u);
  // Ids 1..30 split evenly over 2 shards of 4 slots each: 8 retained, the
  // overwritten remainder counted exactly.
  EXPECT_EQ(svc.observer()->Recent(100).size(), 8u);
  EXPECT_EQ(svc.observer()->RecorderDropped(), 22u);
  // The slow log is bounded separately and keeps the newest entries.
  auto slow = svc.observer()->SlowLog();
  ASSERT_EQ(slow.size(), 3u);
  EXPECT_GT(slow[0].summary.id, slow[1].summary.id);
  EXPECT_GT(slow[1].summary.id, slow[2].summary.id);
}

TEST(ServiceObserverTest, QueryTextIsTruncatedToBound) {
  util::MetricsRegistry reg;
  ObserverOptions oo;
  oo.max_recorded_query_bytes = 8;
  ServiceObserver obs(&reg, oo);
  QuerySummary s;
  s.id = obs.NextId();
  s.query = "0123456789abcdef";
  obs.RecordCompletion(std::move(s));
  EXPECT_EQ(obs.Recent(1)[0].query, "01234567");
}

TEST(ServiceObserverTest, DisabledObserverRecordsNothing) {
  util::MetricsRegistry reg;
  ObserverOptions oo;
  oo.enabled = false;
  ServiceObserver obs(&reg, oo);
  QuerySummary s;
  s.id = 1;
  s.tenant = "t";
  obs.RecordCompletion(std::move(s));
  EXPECT_TRUE(obs.Recent(10).empty());
  EXPECT_TRUE(reg.CounterValues().empty());
}

TEST(ServiceObserverTest, WindowMergeIsOrderIndependent) {
  util::MetricsRegistry reg;
  ObserverOptions oo;
  ServiceObserver obs(&reg, oo);
  uint64_t gauge_value = 0;
  obs.set_gauge_sampler([&gauge_value] {
    std::map<std::string, uint64_t> g;
    g["g.depth"] = gauge_value;
    return g;
  });

  // Three windows with distinct counter deltas, histogram deltas, and
  // gauge values.
  std::vector<MetricsWindow> windows;
  for (uint64_t i = 1; i <= 3; ++i) {
    reg.GetCounter("c.total")->Add(i);
    reg.GetCounter("c.only_" + std::to_string(i))->Add(7);
    reg.GetHistogram("h.lat")->Record(i * 100);
    gauge_value = i * 10;
    windows.push_back(obs.SampleWindow());
  }
  // Each window carries only its own delta.
  EXPECT_EQ(windows[1].counters.at("c.total"), 2u);
  EXPECT_EQ(windows[1].histograms.at("h.lat").count, 1u);
  EXPECT_EQ(windows[2].gauges.at("g.depth"), 30u);
  EXPECT_EQ(windows[0].counters.count("c.only_3"), 0u);

  // Merging any permutation yields identical JSON: counters/histograms
  // sum, the span takes the outer bounds, gauges come from the newest
  // constituent window.
  const int perms[][3] = {{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}};
  std::string expected;
  for (const auto& perm : perms) {
    MetricsWindow merged = windows[perm[0]];
    merged.MergeFrom(windows[perm[1]]);
    merged.MergeFrom(windows[perm[2]]);
    EXPECT_EQ(merged.counters.at("c.total"), 6u);
    EXPECT_EQ(merged.histograms.at("h.lat").count, 3u);
    EXPECT_EQ(merged.gauges.at("g.depth"), 30u);
    EXPECT_EQ(merged.seq, 3u);
    if (expected.empty()) {
      expected = merged.ToJson();
    } else {
      EXPECT_EQ(merged.ToJson(), expected);
    }
  }

  // The ring retains all three windows and the dump is well-formed.
  EXPECT_EQ(obs.Windows().size(), 3u);
  auto parsed = util::ParseJson(obs.WindowsJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

TEST(ServiceObserverTest, ObservabilityReportRendersEverySurface) {
  Corpus corpus;
  ASSERT_TRUE(corpus.Add("dblp", DblpDoc(0.01)).ok());
  ServiceOptions sopts;
  sopts.slots = 2;
  sopts.observer.slow_threshold_ns = 0;
  QueryService svc(&corpus, sopts);
  auto a = svc.CreateSession("alice");
  auto b = svc.CreateSession("bob");
  ASSERT_TRUE(svc.Execute(*a, "dblp", "//article/title").ok());
  ASSERT_TRUE(svc.Execute(*b, "dblp", "//phdthesis/author").ok());
  svc.observer()->SampleWindow();

  service::ObservabilityReport report = svc.ObservabilityReport();
  EXPECT_NE(report.prometheus.find("# TYPE service_queries counter"),
            std::string::npos);
  EXPECT_NE(report.prometheus.find("service_queries{status=\"ok\"} 2"),
            std::string::npos);
  EXPECT_NE(
      report.prometheus.find("service_tenant_queries{tenant=\"alice\","),
      std::string::npos);
  EXPECT_NE(report.prometheus.find("# TYPE service_slots gauge"),
            std::string::npos);
  EXPECT_NE(report.prometheus.find("trace_dropped_events"),
            std::string::npos);
  EXPECT_NE(report.top_text.find("alice"), std::string::npos);
  EXPECT_NE(report.top_text.find("bob"), std::string::npos);

  // Every JSON surface parses, queries-with-quotes and plan text included.
  for (const std::string* json :
       {&report.recent_json, &report.slow_json, &report.windows_json}) {
    auto parsed = util::ParseJson(*json);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << *json;
  }

  // The flight-recorder dump reproduces both queries, newest first.
  auto recent = util::ParseJson(report.recent_json);
  const util::JsonValue* arr = recent->Find("recent");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->AsArray().size(), 2u);
  EXPECT_EQ(arr->AsArray()[0].StringOr("tenant", ""), "bob");
  EXPECT_EQ(arr->AsArray()[1].StringOr("tenant", ""), "alice");
}

}  // namespace
}  // namespace service
}  // namespace blossomtree
