#include "opt/cost_model.h"

#include <algorithm>
#include <cmath>

namespace blossomtree {
namespace opt {

namespace {

/// Selectivity of a value constraint (no value histograms yet; a fixed
/// factor keeps estimates order-of-magnitude sane).
constexpr double kValueSelectivity = 0.1;

bool IsConcreteTag(const pattern::Vertex& v) {
  return !v.IsVirtualRoot() && !v.MatchesAnyTag() &&
         (v.tag.empty() || v.tag[0] != '@');
}

}  // namespace

CostModel::CostModel(const xml::Document* doc,
                     const index::StructuralIndex* index)
    : doc_(doc), index_(index) {
  // A structurally stale index would size probes against the wrong
  // dictionary; fall back to the fixed selectivity rather than misestimate.
  if (index_ != nullptr && !index_->Matches(*doc)) index_ = nullptr;
  mean_subtree_.assign(doc->tags().size(), 1.0);
  for (xml::TagId t = 0; t < doc->tags().size(); ++t) {
    const auto& nodes = doc->TagIndex(t);
    if (nodes.empty()) continue;
    double total = 0;
    for (xml::NodeId n : nodes) {
      total += static_cast<double>(doc->SubtreeEnd(n) - n + 1);
    }
    mean_subtree_[t] = total / static_cast<double>(nodes.size());
  }
}

double CostModel::TagCount(const std::string& tag) const {
  if (tag == "*" || tag == "~") {
    return static_cast<double>(doc_->NumElements());
  }
  xml::TagId t = doc_->tags().Lookup(tag);
  if (t == xml::kNullTag) return 0;
  return static_cast<double>(doc_->TagIndex(t).size());
}

double CostModel::AvgSubtreeSize(const std::string& tag) const {
  if (tag == "*" || tag == "~") {
    return doc_->NumElements() == 0
               ? 1.0
               : static_cast<double>(doc_->NumNodes()) /
                     static_cast<double>(doc_->NumElements());
  }
  xml::TagId t = doc_->tags().Lookup(tag);
  if (t == xml::kNullTag || t >= mean_subtree_.size()) return 1.0;
  return mean_subtree_[t];
}

double CostModel::ValueSelectivity(const pattern::Vertex& v) const {
  if (!v.value) return 1.0;
  if (index_ != nullptr && IsConcreteTag(v)) {
    xml::TagId t = doc_->tags().Lookup(v.tag);
    if (t != xml::kNullTag) {
      return index_->EstimateValueSelectivity(t, v.value->op,
                                              v.value->literal);
    }
  }
  return kValueSelectivity;
}

double CostModel::EstimateVertexMatches(const pattern::BlossomTree& tree,
                                        pattern::VertexId v) const {
  const pattern::Vertex& vx = tree.vertex(v);
  double base = vx.IsVirtualRoot() ? 1.0 : TagCount(vx.tag);
  if (base == 0) return 0;
  double selectivity = 1.0;
  if (vx.value) selectivity *= ValueSelectivity(vx);
  if (vx.position > 0) selectivity *= 0.5;
  double n = std::max<double>(1.0, static_cast<double>(doc_->NumElements()));
  for (pattern::VertexId c : vx.children) {
    const pattern::Vertex& cx = tree.vertex(c);
    if (cx.mode == pattern::EdgeMode::kLet) continue;  // Optional.
    double child_matches = EstimateVertexMatches(tree, c);
    // Containment: the probability that a given v-subtree holds one of the
    // child matches ≈ child_matches × (avg subtree of v) / N, capped at 1.
    double scope = vx.IsVirtualRoot() ? n : AvgSubtreeSize(vx.tag);
    double p = std::min(1.0, child_matches * scope / n);
    selectivity *= p;
  }
  return base * selectivity;
}

double CostModel::EstimateResult(const pattern::BlossomTree& tree) const {
  pattern::VertexId result = tree.VertexOfVariable("result");
  if (result == pattern::kNoVertex) {
    if (tree.roots().empty()) return 0;
    result = tree.roots()[0];
  }
  // Result nodes must match their own subtree and lie under a chain of
  // matching ancestors; approximate with the result vertex's own matches
  // scaled by each ancestor's existence probability.
  double estimate = EstimateVertexMatches(tree, result);
  double n = std::max<double>(1.0, static_cast<double>(doc_->NumElements()));
  for (pattern::VertexId a = tree.vertex(result).parent;
       a != pattern::kNoVertex; a = tree.vertex(a).parent) {
    const pattern::Vertex& ax = tree.vertex(a);
    if (ax.IsVirtualRoot()) break;
    double anc = EstimateVertexMatches(tree, a);
    double cover = std::min(1.0, anc * AvgSubtreeSize(ax.tag) / n);
    estimate *= cover;
  }
  return estimate;
}

CostEstimate CostModel::EstimatePipelined(
    const pattern::BlossomTree& tree) const {
  CostEstimate out;
  out.cardinality = EstimateResult(tree);
  pattern::Decomposition d = pattern::Decompose(tree);
  double n = static_cast<double>(doc_->NumNodes());
  size_t scans = 0;
  for (const pattern::NokTree& nok : d.noks) {
    if (nok.vertices.size() == 1 && tree.vertex(nok.root).IsVirtualRoot()) {
      continue;
    }
    ++scans;
    // Matching work ≈ one constraint check per scanned node per root
    // candidate, plus subtree work on root hits.
    out.cpu_cost += n + EstimateVertexMatches(tree, nok.root) *
                            AvgSubtreeSize(tree.vertex(nok.root).tag);
  }
  out.io_cost = n * static_cast<double>(scans);
  // Pipelined merges are linear in their inputs.
  for (const pattern::Connection& c : d.connections) {
    out.cpu_cost += EstimateVertexMatches(tree, c.from) +
                    EstimateVertexMatches(tree, c.to);
  }
  return out;
}

CostEstimate CostModel::EstimateBnlj(const pattern::BlossomTree& tree) const {
  CostEstimate out;
  out.cardinality = EstimateResult(tree);
  pattern::Decomposition d = pattern::Decompose(tree);
  double n = static_cast<double>(doc_->NumNodes());
  bool outer_scanned = false;
  for (const pattern::NokTree& nok : d.noks) {
    if (nok.vertices.size() == 1 && tree.vertex(nok.root).IsVirtualRoot()) {
      continue;
    }
    if (!outer_scanned) {
      out.io_cost += n;  // The base NoK scans the document once.
      outer_scanned = true;
    }
  }
  for (const pattern::Connection& c : d.connections) {
    if (tree.vertex(c.from).IsVirtualRoot()) continue;
    // Each outer match triggers a bounded inner re-scan of its subtree.
    double outer = EstimateVertexMatches(tree, c.from);
    double range = AvgSubtreeSize(tree.vertex(c.from).tag);
    out.io_cost += outer * range;
    out.cpu_cost += outer * range;
  }
  return out;
}

CostEstimate CostModel::EstimateTwigStack(
    const pattern::BlossomTree& tree) const {
  CostEstimate out;
  out.cardinality = EstimateResult(tree);
  // Streams: one entry per element of each query tag.
  for (pattern::VertexId v = 0; v < tree.NumVertices(); ++v) {
    const pattern::Vertex& vx = tree.vertex(v);
    if (vx.IsVirtualRoot()) continue;
    out.io_cost += IsConcreteTag(vx)
                       ? TagCount(vx.tag)
                       : static_cast<double>(doc_->NumElements());
  }
  // Solution expansion + merge ≈ path solutions (≥ result size).
  out.cpu_cost = out.io_cost + out.cardinality * 4;
  return out;
}

const char* EngineToString(PlanAdvice::Engine engine) {
  switch (engine) {
    case PlanAdvice::Engine::kPipelined:
      return "pipelined";
    case PlanAdvice::Engine::kBnlj:
      return "bounded-nested-loop";
    case PlanAdvice::Engine::kTwigStack:
      return "twigstack";
  }
  return "?";
}

PlanAdvice AdvisePlan(const xml::Document& doc,
                      const pattern::BlossomTree& tree) {
  CostModel model(&doc);
  PlanAdvice advice;
  advice.pipelined = model.EstimatePipelined(tree);
  advice.bnlj = model.EstimateBnlj(tree);
  advice.twigstack = model.EstimateTwigStack(tree);

  // Correctness gate: pipelined joins need every join's outer tag to be
  // non-nesting (Theorem 2 per tag).
  advice.pipelined_safe = true;
  pattern::Decomposition d = pattern::Decompose(tree);
  for (const pattern::Connection& c : d.connections) {
    const pattern::Vertex& from = tree.vertex(c.from);
    if (from.IsVirtualRoot()) continue;
    if (!IsConcreteTag(from)) {
      advice.pipelined_safe = false;
      break;
    }
    xml::TagId t = doc.tags().Lookup(from.tag);
    if (t != xml::kNullTag && doc.TagRecursionDegree(t) > 1) {
      advice.pipelined_safe = false;
      break;
    }
  }

  double best = advice.twigstack.Total();
  advice.engine = PlanAdvice::Engine::kTwigStack;
  if (advice.pipelined_safe && advice.pipelined.Total() < best) {
    best = advice.pipelined.Total();
    advice.engine = PlanAdvice::Engine::kPipelined;
  }
  if (advice.bnlj.Total() < best) {
    best = advice.bnlj.Total();
    advice.engine = PlanAdvice::Engine::kBnlj;
  }
  advice.rationale =
      std::string("estimated totals: pipelined=") +
      std::to_string(advice.pipelined.Total()) +
      (advice.pipelined_safe ? "" : " (unsafe: nesting outer tag)") +
      ", bnlj=" + std::to_string(advice.bnlj.Total()) +
      ", twigstack=" + std::to_string(advice.twigstack.Total()) +
      " -> " + EngineToString(advice.engine);
  return advice;
}

std::string CalibrationReport::ToString() const {
  std::string out;
  for (const CalibrationEntry& e : entries) {
    out += e.label + ": est=" + std::to_string(e.estimated_rows) +
           " actual=" + std::to_string(e.actual_rows) +
           " ratio=" + std::to_string(e.ratio) +
           (e.flagged ? " FLAGGED" : "") + "\n";
  }
  out += std::to_string(num_flagged) + "/" +
         std::to_string(entries.size()) + " operators flagged\n";
  return out;
}

CalibrationReport CheckCalibration(const QueryPlan& plan, double tolerance) {
  CalibrationReport report;
  ForEachOperator(plan, [&](const exec::NestedListOperator& op, int) {
    double est = op.estimated_rows();
    if (est < 0) return;  // Planned without estimate_cardinalities.
    CalibrationEntry e;
    e.label = op.Label();
    e.estimated_rows = est;
    e.actual_rows = op.Stats().matches;
    double act = static_cast<double>(e.actual_rows);
    e.ratio = (std::max(est, act) + 1.0) / (std::min(est, act) + 1.0);
    e.flagged = e.ratio > tolerance;
    if (e.flagged) ++report.num_flagged;
    report.entries.push_back(std::move(e));
  });
  return report;
}

}  // namespace opt
}  // namespace blossomtree
