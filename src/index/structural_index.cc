#include "index/structural_index.h"

#include <algorithm>
#include <unordered_map>

#include "util/strings.h"

namespace blossomtree {
namespace index {

namespace {

constexpr uint32_t kU32Max = static_cast<uint32_t>(-1);

uint64_t GuideChildKey(uint32_t parent, xml::TagId tag) {
  return (static_cast<uint64_t>(parent) << 32) | tag;
}

}  // namespace

std::unique_ptr<StructuralIndex> StructuralIndex::Build(
    const xml::Document& doc) {
  auto idx = std::unique_ptr<StructuralIndex>(new StructuralIndex());
  idx->generation_ = doc.generation();
  idx->num_nodes_ = doc.NumNodes();
  idx->num_elements_ = doc.NumElements();
  const size_t num_tags = doc.tags().size();
  idx->tag_names_.reserve(num_tags);
  for (xml::TagId t = 0; t < num_tags; ++t) {
    idx->tag_names_.push_back(doc.tags().Name(t));
  }

  idx->stats_.assign(num_tags, TagStats{});

  // One preorder pass builds the DataGuide and accumulates every element's
  // string-value (capped): each text node appends to all open ancestors,
  // matching Document::StringValue's document-order concatenation.
  idx->guide_.push_back(GuideNode{xml::kNullTag, kNoGuideNode, 1, {}});
  std::unordered_map<uint64_t, uint32_t> guide_child;
  struct Open {
    xml::NodeId subtree_end;
    uint32_t guide;
    xml::TagId tag;
    xml::NodeId node;
    std::string accum;
    bool overlong = false;
  };
  std::vector<Open> stack;
  auto close_one = [&](Open& o) {
    if (o.overlong ||
        idx->value_pool_.size() + o.accum.size() >
            static_cast<size_t>(kU32Max)) {
      ++idx->stats_[o.tag].overlong_values;
      return;
    }
    idx->values_.push_back(
        ValueEntry{o.tag, o.node, static_cast<uint32_t>(idx->value_pool_.size()),
                   static_cast<uint32_t>(o.accum.size())});
    idx->value_pool_.append(o.accum);
  };
  for (xml::NodeId n = 0; n < doc.NumNodes(); ++n) {
    while (!stack.empty() && n > stack.back().subtree_end) {
      close_one(stack.back());
      stack.pop_back();
    }
    if (doc.IsElement(n)) {
      uint32_t parent_guide = stack.empty() ? 0 : stack.back().guide;
      xml::TagId t = doc.Tag(n);
      uint64_t key = GuideChildKey(parent_guide, t);
      auto [it, inserted] = guide_child.try_emplace(
          key, static_cast<uint32_t>(idx->guide_.size()));
      if (inserted) {
        idx->guide_.push_back(GuideNode{t, parent_guide, 0, {}});
      }
      ++idx->guide_[it->second].count;
      stack.push_back(Open{doc.SubtreeEnd(n), it->second, t, n, {}, false});
    } else {
      std::string_view text = doc.Text(n);
      for (Open& o : stack) {
        if (o.overlong) continue;
        if (o.accum.size() + text.size() > kMaxIndexedValueBytes) {
          o.overlong = true;
          o.accum.clear();
          o.accum.shrink_to_fit();
          continue;
        }
        o.accum.append(text);
      }
    }
  }
  while (!stack.empty()) {
    close_one(stack.back());
    stack.pop_back();
  }

  // Sorted views: byte order for string probes, numeric order for numeric
  // ones. Ties break on NodeId so every equality run is in document order.
  std::sort(idx->values_.begin(), idx->values_.end(),
            [&](const ValueEntry& a, const ValueEntry& b) {
              if (a.tag != b.tag) return a.tag < b.tag;
              std::string_view av = idx->ValueOf(a);
              std::string_view bv = idx->ValueOf(b);
              if (av != bv) return av < bv;
              return a.node < b.node;
            });
  idx->numerics_.reserve(idx->values_.size() / 4);
  for (const ValueEntry& e : idx->values_) {
    double d;
    if (ParseDouble(idx->ValueOf(e), &d)) {
      idx->numerics_.push_back(NumericEntry{e.tag, e.node, d});
    }
  }
  std::sort(idx->numerics_.begin(), idx->numerics_.end(),
            [](const NumericEntry& a, const NumericEntry& b) {
              if (a.tag != b.tag) return a.tag < b.tag;
              if (a.key < b.key) return true;
              if (b.key < a.key) return false;
              return a.node < b.node;
            });

  idx->LinkGuide();
  return idx;
}

std::unique_ptr<StructuralIndex> StructuralIndex::FromParts(
    uint64_t generation, uint64_t num_nodes, uint64_t num_elements,
    std::vector<std::string> tag_names, std::vector<GuideNode> guide,
    std::vector<TagStats> stats, std::vector<ValueEntry> values,
    std::vector<NumericEntry> numerics, std::string value_pool) {
  auto idx = std::unique_ptr<StructuralIndex>(new StructuralIndex());
  idx->generation_ = generation;
  idx->num_nodes_ = num_nodes;
  idx->num_elements_ = num_elements;
  idx->tag_names_ = std::move(tag_names);
  idx->guide_ = std::move(guide);
  idx->stats_ = std::move(stats);
  idx->values_ = std::move(values);
  idx->numerics_ = std::move(numerics);
  idx->value_pool_ = std::move(value_pool);
  idx->LinkGuide();
  return idx;
}

void StructuralIndex::LinkGuide() {
  guide_by_tag_.assign(tag_names_.size(), {});
  for (uint32_t g = 0; g < guide_.size(); ++g) {
    guide_[g].children.clear();
  }
  for (uint32_t g = 1; g < guide_.size(); ++g) {
    guide_[guide_[g].parent].children.push_back(g);
    if (guide_[g].tag < guide_by_tag_.size()) {
      guide_by_tag_[guide_[g].tag].push_back(g);
    }
  }
}

bool StructuralIndex::Matches(const xml::Document& doc) const {
  if (doc.NumNodes() != num_nodes_) return false;
  if (doc.NumElements() != num_elements_) return false;
  if (doc.tags().size() != tag_names_.size()) return false;
  for (xml::TagId t = 0; t < tag_names_.size(); ++t) {
    if (doc.tags().Name(t) != tag_names_[t]) return false;
  }
  return true;
}

const TagStats& StructuralIndex::Stats(xml::TagId t) const {
  static const TagStats kEmpty;
  return t < stats_.size() ? stats_[t] : kEmpty;
}

EqualitySeek StructuralIndex::SeekEquality(xml::TagId t,
                                           std::string_view literal) const {
  EqualitySeek out;
  if (t >= tag_names_.size()) {
    // Unknown tag: provably zero matches.
    out.usable = true;
    return out;
  }
  double d;
  if (ParseDouble(literal, &d)) {
    // Numeric probe: CompareValues compares numerically whenever the
    // element value parses too, so the answer is the numeric-view run — but
    // only if every value of the tag made it into the index (an over-long
    // numeric value would be missed).
    if (stats_[t].overlong_values != 0) return out;
    auto lo = std::lower_bound(
        numerics_.begin(), numerics_.end(), std::make_pair(t, d),
        [](const NumericEntry& e, const std::pair<xml::TagId, double>& p) {
          if (e.tag != p.first) return e.tag < p.first;
          return e.key < p.second;
        });
    for (auto it = lo; it != numerics_.end() && it->tag == t &&
                       !(d < it->key) && !(it->key < d);
         ++it) {
      out.nodes.push_back(it->node);
    }
    out.usable = true;
    return out;
  }
  // String probe: byte equality (a non-numeric literal never compares
  // numerically). Values longer than the cap are unindexed, and a literal
  // longer than the cap could equal one of them — fall back in that case.
  if (literal.size() > kMaxIndexedValueBytes) return out;
  auto lo = std::lower_bound(
      values_.begin(), values_.end(), std::make_pair(t, literal),
      [this](const ValueEntry& e,
             const std::pair<xml::TagId, std::string_view>& p) {
        if (e.tag != p.first) return e.tag < p.first;
        return ValueOf(e) < p.second;
      });
  for (auto it = lo;
       it != values_.end() && it->tag == t && ValueOf(*it) == literal; ++it) {
    out.nodes.push_back(it->node);
  }
  out.usable = true;
  return out;
}

double StructuralIndex::CountEquality(xml::TagId t,
                                      std::string_view literal) const {
  EqualitySeek seek = SeekEquality(t, literal);
  if (!seek.usable) return -1.0;
  return static_cast<double>(seek.nodes.size());
}

double StructuralIndex::EstimateValueSelectivity(
    xml::TagId t, xpath::CompareOp op, std::string_view literal) const {
  // The tag's element count: every element lies on exactly one guide path.
  double total = 0;
  if (t < guide_by_tag_.size()) {
    for (uint32_t g : guide_by_tag_[t]) {
      total += static_cast<double>(guide_[g].count);
    }
  }
  if (total <= 0) return 1.0;
  switch (op) {
    case xpath::CompareOp::kEq: {
      double c = CountEquality(t, literal);
      return c < 0 ? 0.1 : c / total;
    }
    case xpath::CompareOp::kNeq: {
      double c = CountEquality(t, literal);
      return c < 0 ? 0.9 : (total - c) / total;
    }
    case xpath::CompareOp::kLt:
    case xpath::CompareOp::kLe:
    case xpath::CompareOp::kGt:
    case xpath::CompareOp::kGe: {
      double d;
      if (!ParseDouble(literal, &d)) return 0.1;
      // Order statistics over the numeric view: the fraction of numeric
      // values on the satisfying side of the literal. Non-numeric values
      // (string-compared against the number) are approximated as
      // non-matching — an estimate, not an answer.
      auto lo = std::lower_bound(
          numerics_.begin(), numerics_.end(), std::make_pair(t, d),
          [](const NumericEntry& e, const std::pair<xml::TagId, double>& p) {
            if (e.tag != p.first) return e.tag < p.first;
            return e.key < p.second;
          });
      auto tag_begin = std::lower_bound(
          numerics_.begin(), numerics_.end(), t,
          [](const NumericEntry& e, xml::TagId tag) { return e.tag < tag; });
      auto tag_end = std::lower_bound(
          numerics_.begin(), numerics_.end(),
          static_cast<xml::TagId>(t + 1),
          [](const NumericEntry& e, xml::TagId tag) { return e.tag < tag; });
      double below = static_cast<double>(lo - tag_begin);
      double eq = 0;
      for (auto it = lo; it != tag_end && !(d < it->key) && !(it->key < d);
           ++it) {
        ++eq;
      }
      double above = static_cast<double>(tag_end - lo) - eq;
      double hit = 0;
      if (op == xpath::CompareOp::kLt) hit = below;
      if (op == xpath::CompareOp::kLe) hit = below + eq;
      if (op == xpath::CompareOp::kGt) hit = above;
      if (op == xpath::CompareOp::kGe) hit = above + eq;
      return std::min(1.0, std::max(hit / total, 1.0 / (total + 1.0)));
    }
  }
  return 0.1;
}

bool StructuralIndex::EmbedFrom(uint32_t g,
                                const std::vector<std::string>& steps,
                                size_t i) const {
  if (i >= steps.size()) return true;
  for (uint32_t c : guide_[g].children) {
    if (steps[i] != "*" && tag_names_[guide_[c].tag] != steps[i]) continue;
    if (EmbedFrom(c, steps, i + 1)) return true;
  }
  return false;
}

bool StructuralIndex::CanMatchPaths(
    const std::vector<pattern::NokPath>& paths) const {
  if (paths.empty()) return true;
  // All paths of a NoK share steps[0] (the NoK root); anchor candidates are
  // the guide nodes matching it, and every path must embed from the *same*
  // anchor.
  const std::string& root_tag = paths[0].steps[0];
  std::vector<uint32_t> anchors;
  if (root_tag == "~") {
    anchors.push_back(0);
  } else if (root_tag == "*") {
    anchors.reserve(guide_.size() - 1);
    for (uint32_t g = 1; g < guide_.size(); ++g) anchors.push_back(g);
  } else {
    for (xml::TagId t = 0; t < tag_names_.size(); ++t) {
      if (tag_names_[t] == root_tag) {
        anchors = guide_by_tag_[t];
        break;
      }
    }
  }
  for (uint32_t g : anchors) {
    bool all = true;
    for (const pattern::NokPath& p : paths) {
      if (!EmbedFrom(g, p.steps, 1)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

}  // namespace index
}  // namespace blossomtree
