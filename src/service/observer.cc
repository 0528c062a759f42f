#include "service/observer.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "pattern/fingerprint.h"
#include "util/json.h"
#include "util/trace.h"

namespace blossomtree {
namespace service {

namespace {

using util::AppendJsonEscaped;

// Keys are escaped too: labeled series names ('x{status="ok"}') carry
// quotes and are used as JSON object keys in the window dumps.
void AppendField(std::string* out, std::string_view key, uint64_t value,
                 bool* first) {
  if (!*first) *out += ", ";
  *first = false;
  *out += '"';
  AppendJsonEscaped(out, key);
  *out += "\": ";
  *out += std::to_string(value);
}

void AppendField(std::string* out, std::string_view key, std::string_view value,
                 bool* first) {
  if (!*first) *out += ", ";
  *first = false;
  *out += '"';
  AppendJsonEscaped(out, key);
  *out += "\": \"";
  AppendJsonEscaped(out, value);
  *out += '"';
}

/// Fingerprints render as fixed-width hex strings: 64-bit values do not
/// round-trip through JSON doubles.
std::string FingerprintHex(uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

std::string MillisString(uint64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(nanos) / 1e6);
  return buf;
}

bool HasLabelPrefix(const std::string& label, std::string_view prefix) {
  return label.size() >= prefix.size() &&
         std::string_view(label).substr(0, prefix.size()) == prefix;
}

}  // namespace

uint64_t FingerprintQuery(std::string_view query) {
  return pattern::FingerprintHash(query);
}

WorkCounters WorkCounters::FromProfile(const engine::QueryProfile& profile) {
  exec::ExecStats total = profile.Totals();
  WorkCounters w;
  w.nodes_scanned = total.nodes_scanned;
  w.index_entries = total.index_entries;
  w.comparisons = total.comparisons;
  w.matches = total.matches;
  w.nl_cells = total.nl_cells;
  return w;
}

AccessPathMix AccessPathMix::FromProfile(const engine::QueryProfile& profile) {
  AccessPathMix m;
  for (const engine::OperatorProfile& op : profile.operators) {
    if (HasLabelPrefix(op.label, "IndexSeek(")) {
      ++m.seek_ops;
      // A seek that touched no nodes and produced no matches probed an
      // empty candidate run: the DataGuide or the value index proved the
      // path dead before any document access.
      if (op.stats.nodes_scanned == 0 && op.stats.matches == 0) {
        ++m.empty_seeks;
      }
    } else if (HasLabelPrefix(op.label, "NokScan(")) {
      ++m.scan_ops;
    }
  }
  return m;
}

std::string_view QuerySummary::StatusLabel() const {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kResourceExhausted:
      return admitted ? "resource_exhausted" : "rejected";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kCancelled:
      return "cancelled";
    default:
      return "failed";
  }
}

std::string QuerySummary::ToJson() const {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "id", id, &first);
  AppendField(&out, "tenant", tenant, &first);
  AppendField(&out, "document", document, &first);
  AppendField(&out, "query", query, &first);
  AppendField(&out, "fingerprint", FingerprintHex(fingerprint), &first);
  AppendField(&out, "status", StatusLabel(), &first);
  AppendField(&out, "admitted", admitted ? uint64_t{1} : uint64_t{0}, &first);
  AppendField(&out, "queue_delay_ns", queue_delay_ns, &first);
  AppendField(&out, "run_ns", run_ns, &first);
  AppendField(&out, "e2e_ns", e2e_ns, &first);
  AppendField(&out, "threads", threads, &first);
  out += ", \"work\": {";
  bool wf = true;
  AppendField(&out, "nodes_scanned", work.nodes_scanned, &wf);
  AppendField(&out, "index_entries", work.index_entries, &wf);
  AppendField(&out, "comparisons", work.comparisons, &wf);
  AppendField(&out, "matches", work.matches, &wf);
  AppendField(&out, "nl_cells", work.nl_cells, &wf);
  out += "}, \"paths\": {";
  bool pf = true;
  AppendField(&out, "scan_ops", paths.scan_ops, &pf);
  AppendField(&out, "merged_views", paths.merged_views, &pf);
  AppendField(&out, "seek_ops", paths.seek_ops, &pf);
  AppendField(&out, "empty_seeks", paths.empty_seeks, &pf);
  out += "}";
  first = false;
  AppendField(&out, "plan_cache_hits", plan_cache_hits, &first);
  AppendField(&out, "result_cache_hits", result_cache_hits, &first);
  out += "}";
  return out;
}

std::string QuerySummary::ToLine() const {
  std::string out = "#" + std::to_string(id);
  out += " [";
  out += tenant;
  out += "/";
  out += document;
  out += "] ";
  out += StatusLabel();
  out += " e2e=" + MillisString(e2e_ns) + "ms";
  out += " qd=" + MillisString(queue_delay_ns) + "ms";
  out += " scanned=" + std::to_string(work.nodes_scanned);
  out += " seeks=" + std::to_string(paths.seek_ops);
  if (paths.empty_seeks > 0) {
    out += " (empty=" + std::to_string(paths.empty_seeks) + ")";
  }
  out += " matches=" + std::to_string(work.matches);
  out += " \"";
  out += query;
  out += "\"";
  return out;
}

std::string SlowQueryRecord::ToJson() const {
  std::string out = "{\"summary\": ";
  out += summary.ToJson();
  out += ", \"explain_analyze\": \"";
  AppendJsonEscaped(&out, explain_analyze);
  out += "\", \"profile\": ";
  out += profile_json.empty() ? "null" : profile_json;
  out += ", \"metrics\": ";
  out += metrics_json.empty() ? "null" : metrics_json;
  out += "}";
  return out;
}

void MetricsWindow::MergeFrom(const MetricsWindow& o) {
  // Gauges come from whichever constituent sampled last; compare before
  // the bounds below clobber end_ns so the choice is order-independent.
  if (std::make_pair(o.end_ns, o.seq) > std::make_pair(end_ns, seq)) {
    gauges = o.gauges;
  }
  seq = std::max(seq, o.seq);
  start_ns = std::min(start_ns, o.start_ns);
  end_ns = std::max(end_ns, o.end_ns);
  for (const auto& [name, delta] : o.counters) counters[name] += delta;
  for (const auto& [name, snap] : o.histograms) {
    histograms[name].MergeFrom(snap);
  }
}

std::string MetricsWindow::ToJson() const {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "seq", seq, &first);
  AppendField(&out, "start_ns", start_ns, &first);
  AppendField(&out, "end_ns", end_ns, &first);
  out += ", \"counters\": {";
  bool cf = true;
  for (const auto& [name, delta] : counters) {
    if (delta == 0) continue;
    AppendField(&out, name, delta, &cf);
  }
  out += "}, \"histograms\": {";
  bool hf = true;
  for (const auto& [name, snap] : histograms) {
    if (snap.count == 0) continue;
    if (!hf) out += ", ";
    hf = false;
    out += '"';
    AppendJsonEscaped(&out, name);
    out += "\": ";
    out += snap.ToJson();
  }
  out += "}, \"gauges\": {";
  bool gf = true;
  for (const auto& [name, value] : gauges) {
    AppendField(&out, name, value, &gf);
  }
  out += "}}";
  return out;
}

ServiceObserver::ServiceObserver(util::MetricsRegistry* registry,
                                 ObserverOptions options)
    : registry_(registry),
      options_(options),
      epoch_(std::chrono::steady_clock::now()) {
  if (options_.recorder_shards == 0) options_.recorder_shards = 1;
  if (options_.recorder_capacity < options_.recorder_shards) {
    options_.recorder_capacity = options_.recorder_shards;
  }
  shard_capacity_ = (options_.recorder_capacity + options_.recorder_shards -
                     1) /
                    options_.recorder_shards;
  shards_.reserve(options_.recorder_shards);
  for (size_t i = 0; i < options_.recorder_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->ring.resize(shard_capacity_);
    shards_.push_back(std::move(shard));
  }
}

void ServiceObserver::RecordCompletion(QuerySummary summary,
                                       SlowQueryRecord* detail) {
  if (!enabled()) return;
  if (summary.query.size() > options_.max_recorded_query_bytes) {
    summary.query.resize(options_.max_recorded_query_bytes);
  }

  // Status-labeled service rollups: every terminal outcome — including
  // admission-time rejections — lands in service.queries / service.e2e_ns
  // under its status label.
  std::string_view status = summary.StatusLabel();
  registry_
      ->GetCounter(util::LabeledMetricName("service.queries",
                                           {{"status", status}}))
      ->Increment();
  registry_
      ->GetHistogram(util::LabeledMetricName("service.e2e_ns",
                                             {{"status", status}}))
      ->Record(summary.e2e_ns);

  if (options_.tenant_metrics) {
    const std::string& t = summary.tenant;
    registry_
        ->GetCounter(util::LabeledMetricName(
            "service.tenant.queries", {{"tenant", t}, {"status", status}}))
        ->Increment();
    registry_
        ->GetCounter(util::LabeledMetricName(
            summary.admitted ? "service.tenant.admitted"
                             : "service.tenant.rejected",
            {{"tenant", t}}))
        ->Increment();
    registry_
        ->GetHistogram(util::LabeledMetricName("service.tenant.e2e_ns",
                                               {{"tenant", t}}))
        ->Record(summary.e2e_ns);
    if (summary.work.nodes_scanned > 0) {
      registry_
          ->GetCounter(util::LabeledMetricName(
              "service.tenant.nodes_scanned", {{"tenant", t}}))
          ->Add(summary.work.nodes_scanned);
    }
    if (summary.work.nl_cells > 0) {
      registry_
          ->GetCounter(util::LabeledMetricName("service.tenant.nl_cells",
                                               {{"tenant", t}}))
          ->Add(summary.work.nl_cells);
    }
  }

  if (detail != nullptr) {
    SlowQueryRecord rec = std::move(*detail);
    rec.summary = summary;
    std::lock_guard<std::mutex> lock(slow_mu_);
    slow_.push_back(std::move(rec));
    while (slow_.size() > options_.slow_log_capacity) slow_.pop_front();
  }

  size_t shard_idx = static_cast<size_t>(summary.id) % shards_.size();
  Shard& shard = *shards_[shard_idx];
  size_t pos =
      static_cast<size_t>(summary.id / shards_.size()) % shard_capacity_;
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.ring[pos] = std::move(summary);
  ++shard.written;
}

MetricsWindow ServiceObserver::SampleWindow() {
  std::map<std::string, uint64_t> counters = registry_->CounterValues();
  std::map<std::string, util::HistogramSnapshot> hists =
      registry_->HistogramSnapshots();
  std::map<std::string, uint64_t> gauges = Gauges();

  std::lock_guard<std::mutex> lock(window_mu_);
  MetricsWindow w;
  w.seq = ++window_seq_;
  w.start_ns = last_sample_ns_;
  w.end_ns = util::NanosSince(epoch_);
  for (const auto& [name, value] : counters) {
    auto it = last_counters_.find(name);
    uint64_t prev = it == last_counters_.end() ? 0 : it->second;
    if (value > prev) w.counters[name] = value - prev;
  }
  for (const auto& [name, snap] : hists) {
    auto it = last_histograms_.find(name);
    util::HistogramSnapshot delta = snap;
    if (it != last_histograms_.end()) {
      const util::HistogramSnapshot& prev = it->second;
      delta.count -= std::min(delta.count, prev.count);
      delta.sum -= std::min(delta.sum, prev.sum);
      for (int i = 0; i < util::HistogramSnapshot::kNumBuckets; ++i) {
        delta.buckets[i] -= std::min(delta.buckets[i], prev.buckets[i]);
      }
    }
    if (delta.count > 0) w.histograms[name] = delta;
  }
  w.gauges = std::move(gauges);
  last_counters_ = std::move(counters);
  last_histograms_ = std::move(hists);
  last_sample_ns_ = w.end_ns;
  windows_.push_back(w);
  while (windows_.size() > options_.window_capacity) windows_.pop_front();
  return w;
}

std::map<std::string, uint64_t> ServiceObserver::Gauges() const {
  std::map<std::string, uint64_t> gauges;
  if (gauge_sampler_) gauges = gauge_sampler_();
  gauges["observer.recorder_entries"] =
      std::min<uint64_t>(TotalRecorded(), options_.recorder_capacity);
  gauges["observer.recorder_dropped"] = RecorderDropped();
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    gauges["observer.slow_entries"] = slow_.size();
  }
  gauges["trace.dropped_events"] = util::Tracer::Get().DroppedEvents();
  return gauges;
}

std::vector<QuerySummary> ServiceObserver::Recent(size_t n) const {
  std::vector<QuerySummary> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const QuerySummary& s : shard->ring) {
      if (s.id != 0) out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const QuerySummary& a, const QuerySummary& b) {
              return a.id > b.id;
            });
  if (out.size() > n) out.resize(n);
  return out;
}

bool ServiceObserver::FindSummary(uint64_t id, QuerySummary* out) const {
  if (id == 0 || shards_.empty()) return false;
  const Shard& shard = *shards_[static_cast<size_t>(id) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  size_t pos = static_cast<size_t>(id / shards_.size()) % shard_capacity_;
  if (shard.ring[pos].id == id) {
    *out = shard.ring[pos];
    return true;
  }
  return false;
}

std::vector<SlowQueryRecord> ServiceObserver::SlowLog() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  std::vector<SlowQueryRecord> out(slow_.rbegin(), slow_.rend());
  return out;
}

bool ServiceObserver::FindSlow(uint64_t id, SlowQueryRecord* out) const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  for (const SlowQueryRecord& rec : slow_) {
    if (rec.summary.id == id) {
      *out = rec;
      return true;
    }
  }
  return false;
}

std::vector<MetricsWindow> ServiceObserver::Windows() const {
  std::lock_guard<std::mutex> lock(window_mu_);
  return std::vector<MetricsWindow>(windows_.begin(), windows_.end());
}

std::vector<TenantRollup> ServiceObserver::TenantRollups() const {
  std::map<std::string, TenantRollup> by_tenant;
  std::map<std::string, util::Histogram> e2e;
  for (const QuerySummary& s : Recent(options_.recorder_capacity)) {
    TenantRollup& r = by_tenant[s.tenant];
    r.tenant = s.tenant;
    if (s.admitted) ++r.admitted;
    switch (s.code) {
      case StatusCode::kOk:
        ++r.completed;
        break;
      case StatusCode::kResourceExhausted:
        if (s.admitted) {
          ++r.failed;
        } else {
          ++r.rejected;
        }
        break;
      case StatusCode::kNotFound:
        ++r.not_found;
        break;
      case StatusCode::kCancelled:
        ++r.cancelled;
        break;
      default:
        ++r.failed;
    }
    r.total_e2e_ns += s.e2e_ns;
    r.work.MergeFrom(s.work);
    e2e[s.tenant].Record(s.e2e_ns);
  }
  std::vector<TenantRollup> out;
  out.reserve(by_tenant.size());
  for (auto& [tenant, rollup] : by_tenant) {
    rollup.e2e = e2e[tenant].Snapshot();
    out.push_back(std::move(rollup));
  }
  return out;
}

std::vector<FingerprintRollup> ServiceObserver::TopFingerprints(
    size_t n) const {
  std::map<uint64_t, FingerprintRollup> by_fp;
  for (const QuerySummary& s : Recent(options_.recorder_capacity)) {
    FingerprintRollup& r = by_fp[s.fingerprint];
    r.fingerprint = s.fingerprint;
    if (r.example_query.empty()) r.example_query = s.query;
    ++r.count;
    if (s.code == StatusCode::kOk) {
      ++r.ok_count;
    } else {
      ++r.error_count;
    }
    r.total_e2e_ns += s.e2e_ns;
    r.work.MergeFrom(s.work);
    r.paths.MergeFrom(s.paths);
  }
  std::vector<FingerprintRollup> out;
  out.reserve(by_fp.size());
  for (auto& [fp, rollup] : by_fp) out.push_back(std::move(rollup));
  std::sort(out.begin(), out.end(),
            [](const FingerprintRollup& a, const FingerprintRollup& b) {
              if (a.total_e2e_ns != b.total_e2e_ns) {
                return a.total_e2e_ns > b.total_e2e_ns;
              }
              return a.fingerprint < b.fingerprint;
            });
  if (out.size() > n) out.resize(n);
  return out;
}

uint64_t ServiceObserver::TotalRecorded() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->written;
  }
  return total;
}

uint64_t ServiceObserver::RecorderDropped() const {
  uint64_t dropped = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (shard->written > shard_capacity_) {
      dropped += shard->written - shard_capacity_;
    }
  }
  return dropped;
}

std::string ServiceObserver::RecentJson(size_t n) const {
  std::string out = "{\"recent\": [";
  bool first = true;
  for (const QuerySummary& s : Recent(n)) {
    if (!first) out += ",";
    first = false;
    out += "\n  ";
    out += s.ToJson();
  }
  out += "\n], \"total_recorded\": " + std::to_string(TotalRecorded());
  out += ", \"dropped\": " + std::to_string(RecorderDropped());
  out += "}\n";
  return out;
}

std::string ServiceObserver::SlowJson() const {
  std::string out = "{\"threshold_ns\": " +
                    std::to_string(options_.slow_threshold_ns);
  out += ", \"slow\": [";
  bool first = true;
  for (const SlowQueryRecord& rec : SlowLog()) {
    if (!first) out += ",";
    first = false;
    out += "\n  ";
    out += rec.ToJson();
  }
  out += "\n]}\n";
  return out;
}

std::string ServiceObserver::WindowsJson() const {
  std::string out = "{\"windows\": [";
  bool first = true;
  for (const MetricsWindow& w : Windows()) {
    if (!first) out += ",";
    first = false;
    out += "\n  ";
    out += w.ToJson();
  }
  out += "\n]}\n";
  return out;
}

std::string ServiceObserver::TopText(size_t n) const {
  std::string out = "tenants (recorder window):\n";
  for (const TenantRollup& r : TenantRollups()) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  %-12s admitted=%llu completed=%llu rejected=%llu "
                  "not_found=%llu cancelled=%llu failed=%llu "
                  "p50=%sms p99=%sms scanned=%llu\n",
                  r.tenant.c_str(),
                  static_cast<unsigned long long>(r.admitted),
                  static_cast<unsigned long long>(r.completed),
                  static_cast<unsigned long long>(r.rejected),
                  static_cast<unsigned long long>(r.not_found),
                  static_cast<unsigned long long>(r.cancelled),
                  static_cast<unsigned long long>(r.failed),
                  MillisString(r.e2e.Quantile(0.5)).c_str(),
                  MillisString(r.e2e.Quantile(0.99)).c_str(),
                  static_cast<unsigned long long>(r.work.nodes_scanned));
    out += buf;
  }
  out += "top queries by total e2e (recorder window):\n";
  for (const FingerprintRollup& r : TopFingerprints(n)) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "  %s n=%llu ok=%llu err=%llu total=%sms scanned=%llu "
                  "seeks=%llu empty=%llu\n    ",
                  FingerprintHex(r.fingerprint).c_str(),
                  static_cast<unsigned long long>(r.count),
                  static_cast<unsigned long long>(r.ok_count),
                  static_cast<unsigned long long>(r.error_count),
                  MillisString(r.total_e2e_ns).c_str(),
                  static_cast<unsigned long long>(r.work.nodes_scanned),
                  static_cast<unsigned long long>(r.paths.seek_ops),
                  static_cast<unsigned long long>(r.paths.empty_seeks));
    out += buf;
    out += r.example_query;
    out += "\n";
  }
  return out;
}

}  // namespace service
}  // namespace blossomtree
