#include "engine/query_profile.h"

#include <algorithm>
#include <cstdio>

#include "util/json.h"

namespace blossomtree {
namespace engine {

namespace {

std::string MsString(uint64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(nanos) / 1e6);
  return buf;
}

}  // namespace

void QueryProfile::AddOperator(std::string label, int depth,
                               const exec::ExecStats& s,
                               double estimated_rows) {
  OperatorProfile op;
  op.label = std::move(label);
  op.depth = depth;
  op.estimated_rows = estimated_rows;
  op.stats = s;
  operators.push_back(std::move(op));
}

std::string QueryProfile::ToJson() const {
  std::string out = "{\"query\": \"";
  util::AppendJsonEscaped(&out, query);
  out += "\", \"strategy\": \"";
  util::AppendJsonEscaped(&out, strategy);
  out += "\", \"threads\": " + std::to_string(threads) + ", ";
  out += "\"total_wall_ms\": " + MsString(total_wall_nanos) + ", ";
  out += "\"operators\": [";
  for (size_t i = 0; i < operators.size(); ++i) {
    const OperatorProfile& op = operators[i];
    if (i > 0) out += ", ";
    out += "{\"label\": \"";
    util::AppendJsonEscaped(&out, op.label);
    out += "\", \"depth\": " + std::to_string(op.depth);
    if (op.estimated_rows >= 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", op.estimated_rows);
      out += ", \"estimated_rows\": ";
      out += buf;
    }
    const exec::ExecStats& s = op.stats;
    out += ", \"wall_ms\": " + MsString(s.wall_nanos);
    out += ", \"nodes_scanned\": " + std::to_string(s.nodes_scanned);
    out += ", \"index_entries\": " + std::to_string(s.index_entries);
    out += ", \"comparisons\": " + std::to_string(s.comparisons);
    out += ", \"rows\": " + std::to_string(s.matches);
    out += ", \"nl_cells\": " + std::to_string(s.nl_cells);
    out += ", \"peak_buffer_bytes\": " +
           std::to_string(s.peak_buffer_bytes);
    out += ", \"rescans\": " + std::to_string(s.rescans);
    out += "}";
  }
  out += "]";
  if (!metrics_json.empty()) out += ", \"metrics\": " + metrics_json;
  out += "}";
  return out;
}

void QueryProfile::AddPlan(QueryProfile plan) {
  if (plan_starts_.empty()) {
    query = std::move(plan.query);
    strategy = std::move(plan.strategy);
    threads = plan.threads;
  }
  total_wall_nanos += plan.total_wall_nanos;
  const std::vector<OperatorProfile>& rows = plan.operators;
  auto same_row = [](const OperatorProfile& a, const OperatorProfile& b) {
    return a.depth == b.depth && a.label == b.label;
  };
  for (size_t p = 0; p < plan_starts_.size(); ++p) {
    size_t begin = plan_starts_[p];
    size_t end = p + 1 < plan_starts_.size() ? plan_starts_[p + 1]
                                            : operators.size();
    if (end - begin != rows.size() ||
        !std::equal(rows.begin(), rows.end(), operators.begin() + begin,
                    same_row)) {
      continue;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      operators[begin + i].stats.MergeFrom(rows[i].stats);
    }
    return;
  }
  plan_starts_.push_back(operators.size());
  operators.insert(operators.end(),
                   std::make_move_iterator(plan.operators.begin()),
                   std::make_move_iterator(plan.operators.end()));
}

exec::ExecStats QueryProfile::Totals() const {
  exec::ExecStats total;
  for (const OperatorProfile& op : operators) total.MergeFrom(op.stats);
  return total;
}

std::string QueryProfile::ToText() const { return Render(false); }

std::string QueryProfile::ExplainAnalyze() const {
  return operators.empty() ? std::string() : Render(true);
}

std::string QueryProfile::Render(bool analyze) const {
  // Two passes: size the label column first, so the counter column starts
  // at one fixed offset whatever the tree depth, label length, or counter
  // magnitude (7+-digit counters used to shear the layout).
  std::vector<std::string> lines;
  lines.reserve(operators.size());
  size_t width = 0;
  for (const OperatorProfile& op : operators) {
    std::string line(static_cast<size_t>(op.depth) * 2, ' ');
    line += op.label;
    if (analyze && op.estimated_rows >= 0) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "  (est rows=%.1f)", op.estimated_rows);
      line += buf;
    }
    width = std::max(width, line.size());
    lines.push_back(std::move(line));
  }
  std::string out = "strategy: " + strategy + "\n";
  for (size_t i = 0; i < operators.size(); ++i) {
    const exec::ExecStats& s = operators[i].stats;
    lines[i].append(width - lines[i].size() + 2, ' ');
    out += lines[i];
    out += analyze ? "(actual: " + s.Summary() + ")" : s.Counters();
    out += "\n";
  }
  return out;
}

QueryProfile BuildQueryProfile(opt::QueryPlan* plan, std::string query,
                               unsigned threads) {
  QueryProfile profile;
  profile.query = std::move(query);
  profile.strategy = plan->StrategyName();
  profile.threads = threads;
  plan->FinishAll();
  opt::ForEachOperator(
      *plan, [&](const exec::NestedListOperator& op, int depth) {
        profile.AddOperator(op.Label(), depth, op.Stats(),
                            op.estimated_rows());
      });
  for (const opt::PatternTreePlan& tp : plan->trees) {
    if (tp.root != nullptr) {
      profile.total_wall_nanos += tp.root->Stats().wall_nanos;
    }
  }
  return profile;
}

}  // namespace engine
}  // namespace blossomtree
