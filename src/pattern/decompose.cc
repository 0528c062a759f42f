#include "pattern/decompose.h"

#include <algorithm>
#include <deque>

#include "pattern/fingerprint.h"

namespace blossomtree {
namespace pattern {

bool NokTree::Contains(VertexId v) const {
  return std::find(vertices.begin(), vertices.end(), v) != vertices.end();
}

Decomposition Decompose(const BlossomTree& tree) {
  Decomposition out;
  out.nok_of_vertex.assign(tree.NumVertices(), 0);

  // Algorithm 1: S holds roots of pending NoK trees; T (the DFS worklist)
  // holds members of the NoK under construction.
  std::deque<VertexId> S(tree.roots().begin(), tree.roots().end());
  while (!S.empty()) {
    VertexId u = S.front();
    S.pop_front();
    NokTree t;
    t.root = u;
    t.vertices.push_back(u);
    std::deque<VertexId> T;
    T.push_back(u);
    while (!T.empty()) {
      VertexId w = T.front();
      T.pop_front();
      for (VertexId c : tree.vertex(w).children) {
        const Vertex& cv = tree.vertex(c);
        if (xpath::IsLocalAxis(cv.axis)) {
          t.vertices.push_back(c);
          T.push_back(c);
        } else {
          S.push_back(c);
          out.connections.push_back(Connection{w, c, cv.axis, cv.mode});
        }
      }
    }
    uint32_t idx = static_cast<uint32_t>(out.noks.size());
    for (VertexId v : t.vertices) out.nok_of_vertex[v] = idx;
    t.fingerprint = CanonicalNok(tree, t);
    out.noks.push_back(std::move(t));
  }
  return out;
}

std::string Decomposition::ToString(const BlossomTree& tree) const {
  std::string out;
  for (size_t i = 0; i < noks.size(); ++i) {
    out += "NoK" + std::to_string(i) + ": {";
    for (size_t k = 0; k < noks[i].vertices.size(); ++k) {
      if (k > 0) out += ", ";
      out += tree.vertex(noks[i].vertices[k]).tag;
    }
    out += "}\n";
  }
  for (const Connection& c : connections) {
    out += "conn: " + tree.vertex(c.from).tag + " " +
           xpath::AxisToString(c.axis) + " " + tree.vertex(c.to).tag +
           (c.mode == EdgeMode::kLet ? " (l)" : " (f)") + "\n";
  }
  return out;
}

}  // namespace pattern
}  // namespace blossomtree
