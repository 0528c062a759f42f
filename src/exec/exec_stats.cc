#include "exec/exec_stats.h"

#include <cstdio>

namespace blossomtree {
namespace exec {

namespace {

void AppendCounter(std::string* out, const char* name, uint64_t v) {
  if (v == 0) return;
  if (!out->empty()) out->push_back(' ');
  out->append(name);
  out->push_back('=');
  out->append(std::to_string(v));
}

}  // namespace

std::string ExecStats::Counters() const {
  std::string out;
  AppendCounter(&out, "nodes", nodes_scanned);
  AppendCounter(&out, "index", index_entries);
  AppendCounter(&out, "cmp", comparisons);
  AppendCounter(&out, "rows", matches);
  AppendCounter(&out, "cells", nl_cells);
  AppendCounter(&out, "peak_bytes", peak_buffer_bytes);
  AppendCounter(&out, "rescans", rescans);
  if (out.empty()) out = "rows=0";
  return out;
}

std::string ExecStats::Summary() const {
  char time_buf[32];
  std::snprintf(time_buf, sizeof(time_buf), "%.3f",
                static_cast<double>(wall_nanos) / 1e6);
  std::string out = Counters();
  out += " time=";
  out += time_buf;
  out += "ms";
  return out;
}

}  // namespace exec
}  // namespace blossomtree
