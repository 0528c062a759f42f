// Multi-client service benchmark (DESIGN.md §12): drives a QueryService
// over a shared corpus with an open-loop arrival schedule — queries are
// submitted on a fixed cadence from round-robin client sessions regardless
// of completions, the way real clients load a server — and reports p50/p99
// end-to-end latency and queue delay from the service.* histograms.
//
// The BENCH_service.json artifact carries one deterministic per-operator
// profile per query, computed on a standalone serial engine (work counters
// are pure functions of the plan at a fixed seed/scale, so the perf gate
// diffs them exactly); the service run's latency and queue-delay
// histograms ride along as timing context the gate ignores.
//
// Exit status is non-zero when any service result deviates from the
// uncached serial reference (the zero-wrong-results invariant: admission
// control may reject under overload, but an accepted query must return
// exactly the serial bytes) or when any query fails for a reason other
// than admission rejection.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_profile.h"
#include "bench_util.h"
#include "datagen/datagen.h"
#include "engine/engine.h"
#include "service/corpus.h"
#include "service/query_service.h"
#include "util/json.h"
#include "util/metrics.h"

using blossomtree::bench::BenchFlags;
using blossomtree::bench::ParseFlags;
using blossomtree::bench::ProfileSink;
using blossomtree::bench::TimeSeconds;
using blossomtree::bench::WithContext;
using blossomtree::datagen::Dataset;
using blossomtree::datagen::DatasetName;
using blossomtree::datagen::GenerateDataset;
using blossomtree::datagen::GenOptions;

namespace {

struct QueryCase {
  const char* id;
  const char* text;
};

// The served mix: s1 is a broad low-selectivity scan, s2/s3 hit rare tags
// (the shared result cache's sweet spot once warm), s4 exercises the
// FLWOR pipeline per tuple. All run through EvaluateQuery, the service's
// single entry point.
constexpr QueryCase kQueries[] = {
    {"s1", "//article/title"},
    {"s2", "//phdthesis/author"},
    {"s3", "//article[year = \"omega\"]/title"},
    {"s4", "for $a in //phdthesis return <hit>{$a/school}</hit>"},
};

constexpr size_t kNumQueries = sizeof(kQueries) / sizeof(kQueries[0]);

/// One extra open-loop pass over a fresh corpus (cold caches, fresh
/// service) with the observer on or off — the overhead comparison must not
/// inherit warmth from the artifact run. Returns the mean accepted e2e in
/// nanoseconds; `accepted_out`/`bad_out` report the pass's outcome mix.
double OverheadPass(bool observer_on, const GenOptions& gen, size_t clients,
                    size_t per_client, size_t slots,
                    std::chrono::nanoseconds interval, size_t* accepted_out,
                    size_t* bad_out) {
  blossomtree::service::CorpusOptions copts;
  copts.plan_cache.enabled = true;
  copts.result_cache.enabled = true;
  blossomtree::service::Corpus corpus(copts);
  if (!corpus.Add("dblp", GenerateDataset(Dataset::kD5Dblp, gen)).ok()) {
    *bad_out = clients * per_client;
    return 0;
  }
  blossomtree::service::ServiceOptions sopts;
  sopts.slots = slots;
  sopts.max_queue = clients * per_client;
  sopts.observer.enabled = observer_on;
  sopts.observer.slow_threshold_ns = 0;  // Worst case: every query is "slow".
  sopts.observer.slow_log_capacity = 8;
  blossomtree::service::QueryService svc(&corpus, sopts);
  std::vector<std::shared_ptr<blossomtree::service::Session>> sessions;
  for (size_t c = 0; c < clients; ++c) {
    sessions.push_back(svc.CreateSession("client-" + std::to_string(c)));
  }
  const size_t total = clients * per_client;
  std::vector<std::shared_ptr<blossomtree::service::QueryTicket>> tickets;
  tickets.reserve(total);
  auto start = std::chrono::steady_clock::now();
  for (size_t n = 0; n < total; ++n) {
    std::this_thread::sleep_until(start + interval * n);
    tickets.push_back(svc.Submit(*sessions[n % clients], "dblp",
                                 kQueries[n % kNumQueries].text));
  }
  svc.Drain();
  uint64_t e2e_sum = 0;
  size_t accepted = 0;
  size_t bad = 0;
  for (auto& ticket : tickets) {
    const auto& r = ticket->Wait();
    if (r.ok()) {
      e2e_sum += ticket->e2e_ns();
      ++accepted;
    } else if (r.status().code() !=
               blossomtree::StatusCode::kResourceExhausted) {
      ++bad;
    }
  }
  *accepted_out = accepted;
  *bad_out = bad;
  return accepted > 0 ? static_cast<double>(e2e_sum) /
                            static_cast<double>(accepted)
                      : 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseFlags(argc, argv, /*default_scale=*/0.05);
  size_t clients = 4;
  size_t per_client = 16;
  size_t slots = 4;
  bool observer_on = true;
  bool overhead_check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      clients = std::strtoul(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--per-client=", 13) == 0) {
      per_client = std::strtoul(argv[i] + 13, nullptr, 10);
    } else if (std::strncmp(argv[i], "--slots=", 8) == 0) {
      slots = std::strtoul(argv[i] + 8, nullptr, 10);
    } else if (std::strcmp(argv[i], "--no-observer") == 0) {
      observer_on = false;
    } else if (std::strcmp(argv[i], "--overhead-check") == 0) {
      overhead_check = true;
    }
  }
  if (clients == 0) clients = 1;
  if (slots == 0) slots = 1;

  GenOptions o;
  o.scale = flags.scale;
  o.seed = flags.seed;

  blossomtree::service::CorpusOptions copts;
  copts.plan_cache.enabled = true;
  copts.result_cache.enabled = true;
  blossomtree::service::Corpus corpus(copts);
  {
    blossomtree::Status st =
        corpus.Add("dblp", GenerateDataset(Dataset::kD5Dblp, o));
    if (!st.ok()) {
      std::fprintf(stderr, "corpus: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  auto shared_doc = corpus.Get("dblp");

  // Serial uncached reference: the bytes every accepted service query must
  // reproduce, plus the mean serial latency the arrival cadence is derived
  // from.
  std::vector<std::string> expected(kNumQueries);
  double serial_mean_s = 0;
  for (size_t i = 0; i < kNumQueries; ++i) {
    blossomtree::engine::EngineOptions plain;
    plain.num_threads = 1;
    blossomtree::engine::BlossomTreeEngine ref(shared_doc->doc(), plain);
    blossomtree::Result<std::string> r = std::string{};
    serial_mean_s +=
        TimeSeconds([&] { r = ref.EvaluateQuery(kQueries[i].text); });
    if (!r.ok()) {
      std::fprintf(stderr, "%s reference error: %s\n", kQueries[i].id,
                   r.status().ToString().c_str());
      return 1;
    }
    expected[i] = r.MoveValue();
  }
  serial_mean_s /= kNumQueries;

  // Deterministic per-query work profiles for the gate, from a dedicated
  // serial engine outside any timed path.
  ProfileSink sink("service");
  sink.AddDatasetLabel(DatasetName(Dataset::kD5Dblp));
  sink.SetThreads(static_cast<unsigned>(slots));
  std::vector<std::string> profile_json(kNumQueries);
  for (size_t i = 0; i < kNumQueries; ++i) {
    blossomtree::engine::EngineOptions popts;
    popts.num_threads = 1;
    popts.collect_profile = true;
    blossomtree::engine::BlossomTreeEngine prof(shared_doc->doc(), popts);
    if (prof.EvaluateQuery(kQueries[i].text).ok()) {
      profile_json[i] = prof.LastProfile().ToJson();
    }
  }

  // Open-loop schedule: one arrival every serial_mean/slots seconds keeps
  // the offered load near the service's capacity without tripping
  // admission control (the queue bound absorbs the bursts).
  blossomtree::service::ServiceOptions sopts;
  sopts.slots = slots;
  sopts.max_queue = clients * per_client;
  sopts.observer.enabled = observer_on;
  // Threshold 0: every query qualifies for the slow log, so the uploaded
  // BENCH_service_slowlog.json carries real captured plans (the log is
  // bounded by slow_log_capacity; timings here are not gated).
  sopts.observer.slow_threshold_ns = 0;
  blossomtree::service::QueryService svc(&corpus, sopts);
  std::vector<std::shared_ptr<blossomtree::service::Session>> sessions;
  for (size_t c = 0; c < clients; ++c) {
    sessions.push_back(svc.CreateSession("client-" + std::to_string(c)));
  }

  const size_t total = clients * per_client;
  const auto interval = std::chrono::nanoseconds(static_cast<uint64_t>(
      serial_mean_s / static_cast<double>(slots) * 1e9));
  std::printf(
      "Service bench: %zu clients x %zu queries, %zu slots, "
      "arrival interval %.2f ms (scale=%.2f)\n\n",
      clients, per_client, slots,
      static_cast<double>(interval.count()) / 1e6, flags.scale);

  std::vector<std::pair<size_t, std::shared_ptr<
                                    blossomtree::service::QueryTicket>>>
      tickets;
  tickets.reserve(total);
  auto start = std::chrono::steady_clock::now();
  for (size_t n = 0; n < total; ++n) {
    std::this_thread::sleep_until(start + interval * n);
    size_t q = n % kNumQueries;
    tickets.emplace_back(
        q, svc.Submit(*sessions[n % clients], "dblp", kQueries[q].text));
  }
  svc.Drain();
  double wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();

  // Zero-wrong-results check plus per-query timing histograms for the
  // artifact.
  std::vector<blossomtree::util::Histogram> e2e(kNumQueries);
  std::vector<blossomtree::util::Histogram> qdelay(kNumQueries);
  // Ticket-side ground truth per tenant, to cross-check the observer's
  // rollups below: completed and rejected counts as the clients saw them.
  std::map<std::string, std::pair<uint64_t, uint64_t>> tenant_truth;
  size_t wrong = 0;
  size_t rejected = 0;
  size_t failed = 0;
  for (auto& [q, ticket] : tickets) {
    const auto& r = ticket->Wait();
    if (r.ok()) {
      if (*r != expected[q]) ++wrong;
      e2e[q].Record(ticket->e2e_ns());
      qdelay[q].Record(ticket->queue_delay_ns());
      ++tenant_truth[ticket->tenant()].first;
    } else if (r.status().code() ==
               blossomtree::StatusCode::kResourceExhausted) {
      ++rejected;
      ++tenant_truth[ticket->tenant()].second;
    } else {
      std::fprintf(stderr, "%s failed: %s\n", kQueries[q].id,
                   r.status().ToString().c_str());
      ++failed;
    }
  }

  std::printf("  %-3s %10s %10s %10s %10s\n", "id", "e2e_p50_ms",
              "e2e_p99_ms", "qd_p50_ms", "qd_p99_ms");
  for (size_t q = 0; q < kNumQueries; ++q) {
    auto es = e2e[q].Snapshot();
    auto qs = qdelay[q].Snapshot();
    std::printf("  %-3s %10.3f %10.3f %10.3f %10.3f\n", kQueries[q].id,
                static_cast<double>(es.Quantile(0.5)) / 1e6,
                static_cast<double>(es.Quantile(0.99)) / 1e6,
                static_cast<double>(qs.Quantile(0.5)) / 1e6,
                static_cast<double>(qs.Quantile(0.99)) / 1e6);
    if (!profile_json[q].empty()) {
      std::string context = "\"dataset\": \"" +
                            std::string(DatasetName(Dataset::kD5Dblp)) +
                            "\", \"id\": \"" + std::string(kQueries[q].id) +
                            "\", \"variant\": \"service\", \"latency_ns\": " +
                            es.ToJson() + ", \"queue_delay_ns\": " +
                            qs.ToJson();
      sink.Add(WithContext(context, profile_json[q]));
    }
  }

  std::printf(
      "\n  admitted=%llu completed=%llu rejected=%zu failed=%zu "
      "wall=%.2fs throughput=%.0f q/s\n",
      static_cast<unsigned long long>(
          svc.metrics().GetCounter("service.admitted")->value()),
      static_cast<unsigned long long>(
          svc.metrics().GetCounter("service.completed")->value()),
      rejected, failed, wall_s,
      wall_s > 0 ? static_cast<double>(total - rejected - failed) / wall_s
                 : 0.0);
  sink.WriteAndReport();

  if (wrong > 0) {
    std::printf("FAIL: %zu service results deviate from the serial "
                "reference\n",
                wrong);
    return 1;
  }
  if (failed > 0) {
    std::printf("FAIL: %zu queries failed outside admission control\n",
                failed);
    return 1;
  }

  // Observer bookkeeping must agree with the ticket-side ground truth:
  // every submission recorded, every outcome in the status-labeled rollups,
  // and the per-tenant rollup reproducing the clients' own counts.
  if (observer_on) {
    size_t obs_fail = 0;
    uint64_t recorded = svc.observer()->TotalRecorded();
    if (recorded != total) {
      std::printf("FAIL: observer recorded %llu of %zu submissions\n",
                  static_cast<unsigned long long>(recorded), total);
      ++obs_fail;
    }
    uint64_t labeled = 0;
    for (const auto& [name, value] : svc.metrics().CounterValues()) {
      if (name.rfind("service.queries{", 0) == 0) labeled += value;
    }
    if (labeled != total) {
      std::printf(
          "FAIL: status-labeled service.queries counters sum to %llu, "
          "expected %zu\n",
          static_cast<unsigned long long>(labeled), total);
      ++obs_fail;
    }
    if (total <= svc.observer()->options().recorder_capacity) {
      for (const auto& r : svc.observer()->TenantRollups()) {
        auto it = tenant_truth.find(r.tenant);
        uint64_t want_ok = it == tenant_truth.end() ? 0 : it->second.first;
        uint64_t want_rej = it == tenant_truth.end() ? 0 : it->second.second;
        if (r.completed != want_ok || r.rejected != want_rej) {
          std::printf(
              "FAIL: tenant %s rollup completed=%llu rejected=%llu, "
              "tickets say %llu/%llu\n",
              r.tenant.c_str(), static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.rejected),
              static_cast<unsigned long long>(want_ok),
              static_cast<unsigned long long>(want_rej));
          ++obs_fail;
        }
      }
    }
    if (obs_fail > 0) return 1;

    // CI artifacts: the scrapeable exposition, the slow-query log and the
    // flight recorder. The JSON dumps must parse.
    blossomtree::service::ObservabilityReport report =
        svc.ObservabilityReport();
    const std::pair<const char*, const std::string*> artifacts[] = {
        {"BENCH_service_exposition.txt", &report.prometheus},
        {"BENCH_service_slowlog.json", &report.slow_json},
        {"BENCH_service_recent.json", &report.recent_json},
    };
    for (const auto& [path, text] : artifacts) {
      std::FILE* f = std::fopen(path, "w");
      if (f != nullptr) {
        std::fwrite(text->data(), 1, text->size(), f);
        std::fclose(f);
        std::printf("  wrote %s (%zu bytes)\n", path, text->size());
      }
    }
    for (const std::string* json : {&report.slow_json, &report.recent_json}) {
      auto parsed = blossomtree::util::ParseJson(*json);
      if (!parsed.ok()) {
        std::printf("FAIL: observer JSON dump does not parse: %s\n",
                    parsed.status().ToString().c_str());
        return 1;
      }
    }
  }

  // Recorder-on vs recorder-off overhead: two fresh cold-cache passes (the
  // on-pass with threshold 0, so every query also pays the slow-log
  // capture). The bound is generous — this is a tripwire for accidental
  // per-node instrumentation, not a microbenchmark.
  if (overhead_check) {
    size_t acc_off = 0;
    size_t bad_off = 0;
    size_t acc_on = 0;
    size_t bad_on = 0;
    double off_ns = OverheadPass(false, o, clients, per_client, slots,
                                 interval, &acc_off, &bad_off);
    double on_ns = OverheadPass(true, o, clients, per_client, slots, interval,
                                &acc_on, &bad_on);
    std::printf(
        "\n  overhead: mean e2e off=%.3f ms (n=%zu) on=%.3f ms (n=%zu)\n",
        off_ns / 1e6, acc_off, on_ns / 1e6, acc_on);
    if (bad_off + bad_on > 0) {
      std::printf("FAIL: %zu queries failed during overhead passes\n",
                  bad_off + bad_on);
      return 1;
    }
    if (on_ns > off_ns * 1.5 + 20e6) {
      std::printf(
          "FAIL: observer-on mean e2e exceeds off x1.5 + 20 ms bound\n");
      return 1;
    }
    std::printf("  overhead within bound (on <= off x1.5 + 20 ms)\n");
  }

  std::printf("OK: every accepted query returned the exact serial bytes\n");
  return 0;
}
