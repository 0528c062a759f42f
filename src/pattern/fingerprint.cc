#include "pattern/fingerprint.h"

#include "xpath/ast.h"

namespace blossomtree {
namespace pattern {

namespace {

/// Injective string field: "<len>:<bytes>".
void AppendString(std::string_view s, std::string* out) {
  out->append(std::to_string(s.size()));
  out->push_back(':');
  out->append(s);
}

void AppendVertex(const BlossomTree& tree, const NokTree& nok, VertexId v,
                  std::string* out) {
  const Vertex& vx = tree.vertex(v);
  out->push_back('v');
  out->push_back('{');
  AppendString(vx.tag, out);
  out->push_back(',');
  // The incoming edge matters even for the NoK root: a root re-rooted by a
  // // connection matches descendants of its join partner, while a pattern
  // root anchors at document top level.
  out->append(xpath::AxisToString(vx.axis));
  out->push_back(',');
  out->push_back(vx.mode == EdgeMode::kLet ? 'l' : 'f');
  out->push_back(',');
  out->append(std::to_string(vx.position));
  if (vx.value.has_value()) {
    out->push_back(',');
    out->append(xpath::CompareOpToString(vx.value->op));
    AppendString(vx.value->literal, out);
  }
  if (vx.returning) {
    // The NestedList a scan emits is shaped by the global returning tree:
    // each entry's group vector is sized by the slot's children, and nesting
    // positions come from Dewey IDs — both can involve slots in *other*
    // NoKs (connected by //). Bake them into the key so two structurally
    // equal NoKs from differently shaped queries never collide.
    SlotId s = tree.SlotOfVertex(v);
    out->append(",ret@");
    out->append(tree.slot(s).dewey.ToString());
    out->append("[");
    for (SlotId child : tree.slot(s).children) {
      out->append(tree.slot(child).dewey.ToString());
      out->push_back(';');
    }
    out->push_back(']');
  }
  out->push_back('}');
  out->push_back('(');
  for (VertexId child : vx.children) {
    if (nok.Contains(child)) AppendVertex(tree, nok, child, out);
  }
  out->push_back(')');
  // Probes filter the NoK's matches: a probed NoK and the bare one it came
  // from emit different streams.
  for (const Connection& c : nok.probes) {
    if (c.from != v) continue;
    const Vertex& to = tree.vertex(c.to);
    out->append("p{");
    AppendString(to.tag, out);
    if (to.value.has_value()) {
      out->push_back(',');
      out->append(xpath::CompareOpToString(to.value->op));
      AppendString(to.value->literal, out);
    }
    out->push_back('}');
  }
}

}  // namespace

std::string CanonicalNok(const BlossomTree& tree, const NokTree& nok) {
  std::string out;
  out.reserve(64 * nok.vertices.size());
  out.append("nok:");
  AppendVertex(tree, nok, nok.root, &out);
  return out;
}

uint64_t FingerprintHash(std::string_view s) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis.
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime.
  }
  return h;
}

}  // namespace pattern
}  // namespace blossomtree
