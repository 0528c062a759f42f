#include "util/trace.h"

#include <cstdio>

#include "util/json.h"

namespace blossomtree {
namespace util {

std::vector<TraceEvent> TraceRing::Snapshot() const {
  uint64_t count = count_.load(std::memory_order_relaxed);
  std::vector<TraceEvent> out;
  if (count == 0) return out;
  uint64_t n = count < kCapacity ? count : kCapacity;
  out.reserve(n);
  uint64_t start = count - n;  // Oldest retained event.
  for (uint64_t i = start; i < count; ++i) {
    out.push_back(events_[i % kCapacity]);
  }
  return out;
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // Leaked: outlives exiting threads.
  return *tracer;
}

std::shared_ptr<TraceRing> Tracer::RegisterRing() {
  std::lock_guard<std::mutex> lock(mu_);
  auto ring = std::make_shared<TraceRing>(next_tid_++);
  rings_.push_back(ring);
  return ring;
}

TraceRing* Tracer::Ring() {
  // The registry keeps a shared_ptr, so a ring written by a pool worker
  // remains exportable after that worker exits.
  thread_local std::shared_ptr<TraceRing> ring = RegisterRing();
  return ring.get();
}

void Tracer::Enable() {
  Clear();
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Record(char ph, const char* cat, std::string_view name,
                    double value) {
  if (!enabled()) return;
  uint64_t ts = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  Ring()->Record(ph, cat, name, value, ts);
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& ring : rings_) ring->Clear();
}

uint64_t Tracer::DroppedEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->DroppedCount();
  return total;
}

size_t Tracer::EventCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& ring : rings_) {
    uint64_t n = ring->TotalRecorded();
    total += n < TraceRing::kCapacity ? n : TraceRing::kCapacity;
  }
  return total;
}

std::string Tracer::ExportJson() const {
  std::vector<std::shared_ptr<TraceRing>> rings;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rings = rings_;
  }
  std::string out = "{\"traceEvents\": [\n";
  out +=
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"ts\": 0, \"pid\": 1, "
      "\"tid\": 0, \"args\": {\"name\": \"blossomtree\"}}";
  for (const auto& ring : rings) {
    char meta[128];
    std::snprintf(meta, sizeof(meta),
                  ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"ts\": 0, "
                  "\"pid\": 1, \"tid\": %u, \"args\": {\"name\": \"%s%u\"}}",
                  ring->tid(), ring->tid() == 0 ? "main/" : "thread/",
                  ring->tid());
    out += meta;
    for (const TraceEvent& e : ring->Snapshot()) {
      char buf[96];
      // Chrome "ts" is in microseconds; fractional values are accepted.
      std::snprintf(buf, sizeof(buf),
                    ",\n  {\"ph\": \"%c\", \"ts\": %.3f, \"pid\": 1, "
                    "\"tid\": %u, \"cat\": \"%s\", \"name\": \"",
                    e.ph, static_cast<double>(e.ts_nanos) / 1e3, ring->tid(),
                    e.cat != nullptr ? e.cat : "");
      out += buf;
      AppendJsonEscaped(&out, e.name);
      out += '"';
      if (e.ph == 'C') {
        std::snprintf(buf, sizeof(buf), ", \"args\": {\"value\": %.3f}",
                      e.value);
        out += buf;
      } else if (e.ph == 'i') {
        out += ", \"s\": \"t\"";  // Thread-scoped instant.
      }
      out += '}';
    }
  }
  uint64_t dropped = 0;
  for (const auto& ring : rings) dropped += ring->DroppedCount();
  out += "\n], \"droppedEvents\": " + std::to_string(dropped) +
         ", \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

Status Tracer::ExportJsonFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file: " + path);
  }
  std::string json = ExportJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::IOError("short write to trace file: " + path);
  }
  return Status::OK();
}

}  // namespace util
}  // namespace blossomtree
