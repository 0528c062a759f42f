#ifndef BLOSSOMTREE_UTIL_METRICS_H_
#define BLOSSOMTREE_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

namespace blossomtree {
namespace util {

/// \brief Steady-clock nanoseconds elapsed since `start`: the unit every
/// latency histogram and per-query timing field records.
inline uint64_t NanosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// \brief A monotonically increasing named counter (relaxed atomics: totals
/// are exact, ordering is irrelevant).
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Plain-value snapshot of a Histogram: copyable, mergeable, and the
/// surface quantiles/JSON render from. Merging sums buckets (commutative and
/// associative), so any merge order over the same snapshots yields the same
/// result — the determinism contract the 1/2/4-thread tests pin.
struct HistogramSnapshot {
  /// Bucket i counts values v with 2^(i-1) <= v < 2^i (bucket 0: v == 0).
  static constexpr int kNumBuckets = 65;

  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  ///< Meaningful only when count > 0.
  uint64_t max = 0;
  std::array<uint64_t, kNumBuckets> buckets{};

  void MergeFrom(const HistogramSnapshot& o);

  /// \brief Upper bound of the bucket containing the q-quantile (q in
  /// [0,1]); 0 when empty. Deterministic (pure function of the buckets).
  uint64_t Quantile(double q) const;

  /// \brief {"count":..,"sum":..,"min":..,"max":..,"p50":..,"p90":..,
  /// "p99":..,"buckets":[[upper_bound,count],...]} — only occupied buckets
  /// are listed.
  std::string ToJson() const;
};

/// \brief Log₂-bucketed latency histogram. Record() is thread-safe and
/// lock-free; read through Snapshot().
class Histogram {
 public:
  void Record(uint64_t value);
  HistogramSnapshot Snapshot() const;
  /// \brief Folds a snapshot in (bucket-wise addition — same commutative
  /// merge as HistogramSnapshot::MergeFrom).
  void MergeSnapshot(const HistogramSnapshot& s);
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, HistogramSnapshot::kNumBuckets>
      buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// \brief One key="value" pair of a labeled metric name (DESIGN.md §15).
struct MetricLabel {
  std::string_view key;
  std::string_view value;
};

/// \brief Builds the registry name of a labeled series:
/// `base{k1="v1",k2="v2"}`. Label values are escaped (backslash, double
/// quote, newline) so the stored name is already exposition-safe; labels
/// render in the order given (callers use one fixed order per family, which
/// keeps the exposition deterministic). `base` must not contain '{'.
std::string LabeledMetricName(std::string_view base,
                              std::initializer_list<MetricLabel> labels);

/// \brief A registry of named counters and latency histograms (DESIGN.md
/// §10). Lookup is mutex-guarded and returns stable pointers (hot paths
/// look up once and cache); recording through the returned objects is
/// lock-free.
///
/// Series names may carry labels via LabeledMetricName: the registry treats
/// the full string as the key, and the exposition surfaces split it back
/// into family + labels.
///
/// Three render surfaces with different contracts:
///  - CountersText(): counters only, sorted by name — deterministic for
///    deterministic counter values (the cross-thread bitwise-identity
///    surface; latency histograms are excluded by design).
///  - ToJson(): counters + full histogram summaries (quantiles are wall
///    time, so this surface is NOT cross-run comparable).
///  - PrometheusText(): the scrapeable text exposition (DESIGN.md §15) —
///    counters and full cumulative-bucket histograms with # TYPE headers,
///    names sanitized to the Prometheus charset, label sets preserved.
///    Line order is a pure function of the registered names.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// \brief Zeroes every registered counter and histogram (pointers handed
  /// out stay valid).
  void Reset();

  /// \brief Folds another registry in: counters add, histograms merge.
  void MergeFrom(const MetricsRegistry& other);

  std::string CountersText() const;
  std::string ToJson() const;
  std::string PrometheusText() const;

  /// \brief Plain-value snapshots of every registered series, for windowed
  /// delta computation and merge-order-independence tests: counters by full
  /// (possibly labeled) name, histograms likewise.
  std::map<std::string, uint64_t> CounterValues() const;
  std::map<std::string, HistogramSnapshot> HistogramSnapshots() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// \brief Renders a gauge map (point-in-time values sampled outside the
/// registry, e.g. queue depths and resident bytes) in the same Prometheus
/// text format, with `# TYPE <family> gauge` headers. Names may be labeled
/// via LabeledMetricName; ordering follows the (sorted) map.
std::string PrometheusGaugesText(const std::map<std::string, uint64_t>& gauges);

}  // namespace util
}  // namespace blossomtree

#endif  // BLOSSOMTREE_UTIL_METRICS_H_
