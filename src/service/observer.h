#ifndef BLOSSOMTREE_SERVICE_OBSERVER_H_
#define BLOSSOMTREE_SERVICE_OBSERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "engine/query_profile.h"
#include "util/metrics.h"
#include "util/status.h"

namespace blossomtree {
namespace service {

/// \brief FNV-1a 64-bit fingerprint of a query text: the identity flight-
/// recorder entries and per-fingerprint rollups aggregate by. Stable across
/// runs and platforms (pure byte hash, no pointers, no seeds).
uint64_t FingerprintQuery(std::string_view query);

/// \brief The deterministic work counters of one query: its profile's
/// QueryProfile::Totals() — bitwise-identical at every thread count (the
/// DESIGN.md §8 contract the recorder inherits).
struct WorkCounters {
  uint64_t nodes_scanned = 0;
  uint64_t index_entries = 0;
  uint64_t comparisons = 0;
  uint64_t matches = 0;
  uint64_t nl_cells = 0;

  void MergeFrom(const WorkCounters& o) {
    nodes_scanned += o.nodes_scanned;
    index_entries += o.index_entries;
    comparisons += o.comparisons;
    matches += o.matches;
    nl_cells += o.nl_cells;
  }

  static WorkCounters FromProfile(const engine::QueryProfile& profile);
};

/// \brief The access-path mix of one executed plan, classified from the
/// profile's operator labels: how many NoKs ran as scans of their tag stream
/// or range, index seeks (scans of a value-index run), and zero-probe
/// short-circuits (a seek whose candidate set was empty — the DataGuide
/// proved the path absent or the value run matched nothing). "Which plans
/// stopped scanning" is the per-query ground truth the optimizer work feeds
/// on (DESIGN.md §15).
struct AccessPathMix {
  uint64_t scan_ops = 0;      ///< NokScan operators (tag-stream scans).
  /// Always 0: every NoK runs its own scan. Kept for readers of the field.
  uint64_t merged_views = 0;
  uint64_t seek_ops = 0;      ///< IndexSeek operators (index-run scans).
  uint64_t empty_seeks = 0;   ///< Seeks that probed nothing (short-circuit).

  void MergeFrom(const AccessPathMix& o) {
    scan_ops += o.scan_ops;
    merged_views += o.merged_views;
    seek_ops += o.seek_ops;
    empty_seeks += o.empty_seeks;
  }

  static AccessPathMix FromProfile(const engine::QueryProfile& profile);
};

/// \brief One flight-recorder entry: the always-on per-query summary
/// recorded for every terminal outcome — completed, rejected, unknown
/// document, cancelled, failed (DESIGN.md §15). Everything here is either
/// already known at completion time or read from the query's own
/// engine::QueryProfile; nothing is recomputed from the document.
struct QuerySummary {
  uint64_t id = 0;  ///< Monotonic recorder id (1-based; 0 = empty slot).
  std::string tenant;
  std::string document;
  std::string query;  ///< Possibly truncated to max_recorded_query_bytes.
  uint64_t fingerprint = 0;
  StatusCode code = StatusCode::kOk;
  bool admitted = false;  ///< False for admission-time rejection/not-found.
  uint64_t queue_delay_ns = 0;
  uint64_t run_ns = 0;
  uint64_t e2e_ns = 0;
  unsigned threads = 1;  ///< Intra-query parallelism the query ran with.
  WorkCounters work;
  AccessPathMix paths;
  /// Corpus-cache hits of this query alone, from its profile: counted at
  /// the engine's plan-cache lookups and the NoK scans' result-cache
  /// probes, so exact under any concurrency.
  uint64_t plan_cache_hits = 0;
  uint64_t result_cache_hits = 0;

  /// \brief The status label the metrics series use: "ok", "rejected"
  /// (admission), "not_found", "cancelled", "resource_exhausted" (a
  /// per-query limit tripped while running), "failed".
  std::string_view StatusLabel() const;

  std::string ToJson() const;
  /// \brief One-line human form for `btserve recent`.
  std::string ToLine() const;
};

/// \brief A slow-query log entry: the flight-recorder summary plus the full
/// plan and metrics detail captured only for queries over the latency
/// threshold (capturing them for every query would violate the overhead
/// budget).
struct SlowQueryRecord {
  QuerySummary summary;
  std::string explain_analyze;  ///< EXPLAIN ANALYZE text of the actual run.
  std::string profile_json;     ///< engine::QueryProfile::ToJson().
  std::string metrics_json;     ///< The query's own engine registry.

  std::string ToJson() const;
};

/// \brief Per-tenant aggregation over the flight recorder's retained
/// window (the labeled `service.tenant.*` metrics cover the full service
/// lifetime; this rollup answers "who is burning the pool *right now*").
struct TenantRollup {
  std::string tenant;
  uint64_t admitted = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t not_found = 0;
  uint64_t cancelled = 0;
  uint64_t failed = 0;  ///< Includes resource_exhausted trips while running.
  uint64_t total_e2e_ns = 0;
  util::HistogramSnapshot e2e;
  WorkCounters work;
};

/// \brief Per-query-fingerprint aggregation over the recorder window: the
/// "top queries" surface (`btserve top`).
struct FingerprintRollup {
  uint64_t fingerprint = 0;
  std::string example_query;
  uint64_t count = 0;
  uint64_t ok_count = 0;
  uint64_t error_count = 0;
  uint64_t total_e2e_ns = 0;
  WorkCounters work;
  AccessPathMix paths;
};

/// \brief One time-windowed delta of the service metrics registry, so rates
/// (queries/s, rejections/s, scan bytes/s) are computable from any two
/// consecutive samples. Counters and histograms are deltas since the
/// previous sample; gauges are point-in-time values at the sample instant.
///
/// MergeFrom is commutative and associative over a fixed set of windows
/// (counters/histograms sum; the span takes the min/max bounds; gauges come
/// from the constituent with the greatest (end_ns, seq)), so merging any
/// permutation of the same windows renders identical JSON — the same
/// determinism contract HistogramSnapshot::MergeFrom pins.
struct MetricsWindow {
  uint64_t seq = 0;
  uint64_t start_ns = 0;  ///< Nanoseconds since the observer epoch.
  uint64_t end_ns = 0;
  std::map<std::string, uint64_t> counters;  ///< Deltas; zero deltas elided.
  /// Bucket/count/sum are windowed deltas; min/max are lifetime values of
  /// the underlying histogram (a log2 bucket delta cannot recover them).
  std::map<std::string, util::HistogramSnapshot> histograms;
  std::map<std::string, uint64_t> gauges;

  void MergeFrom(const MetricsWindow& o);
  std::string ToJson() const;
};

/// \brief Observer knobs (DESIGN.md §15). Defaults are the always-on
/// production settings: summaries for everything, detail only for slow
/// queries.
struct ObserverOptions {
  bool enabled = true;
  /// Flight-recorder entries retained across all shards.
  size_t recorder_capacity = 1024;
  /// Recorder shards: completion-time recording takes one shard mutex, so
  /// concurrent slots contend only 1/shards of the time.
  size_t recorder_shards = 8;
  /// Queries with e2e_ns >= threshold additionally capture full plan detail
  /// into the slow log. 0 captures every query (test/bench mode).
  uint64_t slow_threshold_ns = 250'000'000;
  size_t slow_log_capacity = 32;
  /// Windowed metrics snapshots retained (SampleWindow ring).
  size_t window_capacity = 64;
  /// Stored query-text prefix per summary (bounds recorder memory).
  size_t max_recorded_query_bytes = 256;
  /// Per-tenant labeled counters/histograms in the service registry.
  bool tenant_metrics = true;
};

/// \brief The service observability plane (DESIGN.md §15): an always-on
/// query flight recorder (bounded sharded ring of QuerySummary), a
/// threshold-gated slow-query log, per-tenant labeled metrics, and periodic
/// time-windowed registry snapshots — all fed by QueryService at query
/// completion, all readable while traffic is running.
///
/// Overhead discipline: when disabled the only cost on the query path is
/// one branch on `enabled()`. Enabled, recording happens once per query
/// *completion* (never per node or per batch), takes one shard mutex, and
/// never blocks other shards. Reading (Recent/SlowLog/rollups/exposition)
/// locks shards briefly to copy and aggregates outside the locks.
///
/// Determinism: summaries carry deterministic work counters, plus wall
/// timings and per-query cache hits (which follow scheduling and cache
/// warmth, and live only in their own fields) — recording
/// them never perturbs query results or the deterministic counter surface,
/// which stays bitwise-identical at 1/2/4 slots with the recorder on (the
/// observer test and the bench_service gate pin this).
class ServiceObserver {
 public:
  ServiceObserver(util::MetricsRegistry* registry, ObserverOptions options);

  bool enabled() const { return options_.enabled; }
  const ObserverOptions& options() const { return options_; }

  /// \brief Installs the gauge sampler (queue depth, resident bytes, ...)
  /// SampleWindow and the exposition surface call. Set once at service
  /// construction, before traffic.
  void set_gauge_sampler(
      std::function<std::map<std::string, uint64_t>()> sampler) {
    gauge_sampler_ = std::move(sampler);
  }

  /// \brief True when a query with this end-to-end latency belongs in the
  /// slow log — the caller builds the (expensive) detail strings only then.
  bool IsSlow(uint64_t e2e_ns) const {
    return enabled() && e2e_ns >= options_.slow_threshold_ns;
  }

  /// \brief Assigns the next recorder id (1-based, monotonic).
  uint64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// \brief Records one terminal outcome: stamps the summary into the
  /// flight recorder, bumps the status-labeled (and per-tenant) metrics,
  /// and — when `detail` is non-null — appends to the slow log. `detail`
  /// is consumed. No-op when disabled.
  void RecordCompletion(QuerySummary summary,
                        SlowQueryRecord* detail = nullptr);

  /// \brief Captures one time-windowed snapshot of the registry (deltas
  /// since the previous sample) plus current gauges, appends it to the
  /// window ring, and returns it.
  MetricsWindow SampleWindow();

  /// \brief Current gauges from the installed sampler, plus the observer's
  /// own (`observer.recorder_entries`, `observer.recorder_dropped`,
  /// `observer.slow_entries`, `trace.dropped_events`).
  std::map<std::string, uint64_t> Gauges() const;

  /// \brief Newest-first summaries from the recorder, at most `n`.
  std::vector<QuerySummary> Recent(size_t n) const;

  /// \brief Looks up a retained summary by recorder id.
  bool FindSummary(uint64_t id, QuerySummary* out) const;

  /// \brief Slow-log entries, newest first.
  std::vector<SlowQueryRecord> SlowLog() const;

  /// \brief Looks up a slow-log entry by recorder id.
  bool FindSlow(uint64_t id, SlowQueryRecord* out) const;

  /// \brief Retained windows, oldest first.
  std::vector<MetricsWindow> Windows() const;

  /// \brief Per-tenant aggregation over the recorder's retained window,
  /// sorted by tenant name.
  std::vector<TenantRollup> TenantRollups() const;

  /// \brief Per-fingerprint aggregation over the recorder's retained
  /// window, sorted by total e2e descending (ties: fingerprint ascending),
  /// at most `n`.
  std::vector<FingerprintRollup> TopFingerprints(size_t n) const;

  /// \brief Summaries ever recorded / evicted from the ring by overwrite.
  uint64_t TotalRecorded() const;
  uint64_t RecorderDropped() const;

  // Rendered surfaces (btserve, CI artifacts).
  std::string RecentJson(size_t n) const;
  std::string SlowJson() const;
  std::string WindowsJson() const;
  std::string TopText(size_t n) const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::vector<QuerySummary> ring;  ///< Slot id 0 = never written.
    uint64_t written = 0;            ///< Entries ever stored in this shard.
  };

  util::MetricsRegistry* registry_;
  ObserverOptions options_;
  std::function<std::map<std::string, uint64_t>()> gauge_sampler_;

  std::atomic<uint64_t> next_id_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_capacity_ = 0;

  mutable std::mutex slow_mu_;
  std::deque<SlowQueryRecord> slow_;  ///< Newest at the back.

  mutable std::mutex window_mu_;
  std::deque<MetricsWindow> windows_;  ///< Oldest at the front.
  uint64_t window_seq_ = 0;
  uint64_t last_sample_ns_ = 0;
  std::map<std::string, uint64_t> last_counters_;
  std::map<std::string, util::HistogramSnapshot> last_histograms_;

  std::chrono::steady_clock::time_point epoch_;
};

/// \brief The one-call observability dump (DESIGN.md §15):
/// QueryService::ObservabilityReport() renders every surface at once — the
/// Prometheus exposition (registry + gauges), the flight-recorder and
/// slow-log JSON dumps, the per-tenant/per-fingerprint rollup text, and the
/// windowed snapshots.
struct ObservabilityReport {
  std::string prometheus;
  std::string recent_json;
  std::string slow_json;
  std::string top_text;
  std::string windows_json;
};

}  // namespace service
}  // namespace blossomtree

#endif  // BLOSSOMTREE_SERVICE_OBSERVER_H_
