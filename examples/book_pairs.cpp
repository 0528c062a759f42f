// The paper's running example, end to end: Example 1's FLWOR query over
// Example 2's bibliography. Prints every intermediate artifact the paper
// shows — the BlossomTree (Figure 1), its NoK decomposition (Algorithm 1),
// the per-NoK NestedLists with placeholders (Example 4), the chosen plan,
// and the final <book-pair> output (Example 2).

#include <cstdio>

#include "baseline/navigational.h"
#include "engine/engine.h"
#include "exec/nok_scan.h"
#include "flwor/parser.h"
#include "nestedlist/ops.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "pattern/decompose.h"
#include "xml/parser.h"

using namespace blossomtree;

namespace {

constexpr const char* kBibXml =
    "<bib>"
    "<book><title>Maximum Security</title></book>"
    "<book><title>The Art of Computer Programming</title>"
    "<author><last>Knuth</last><first>Donald</first></author></book>"
    "<book><title>Terrorist Hunter</title></book>"
    "<book><title>TeX Book</title>"
    "<author><last>Knuth</last><first>Donald</first></author></book>"
    "</bib>";

constexpr const char* kQuery = R"(
<bib>
{
for $book1 in doc("bib.xml")//book,
    $book2 in doc("bib.xml")//book
let $aut1 := $book1/author
let $aut2 := $book2/author
where $book1 << $book2
  and not($book1/title = $book2/title)
  and deep-equal($aut1, $aut2)
return
  <book-pair>
    { $book1/title }
    { $book2/title }
  </book-pair>
}
</bib>
)";

}  // namespace

int main() {
  auto parsed = xml::ParseDocument(kBibXml);
  if (!parsed.ok()) return 1;
  auto doc = parsed.MoveValue();

  auto expr = flwor::ParseQuery(kQuery);
  if (!expr.ok()) {
    std::fprintf(stderr, "%s\n", expr.status().ToString().c_str());
    return 1;
  }

  // 1. The BlossomTree (paper Figure 1).
  auto tree = pattern::BuildFromQuery(**expr);
  if (!tree.ok()) {
    std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  std::printf("=== BlossomTree (Figure 1) ===\n%s\n",
              tree->ToString().c_str());

  // 2. NoK decomposition (Algorithm 1).
  pattern::Decomposition decomp = pattern::Decompose(*tree);
  std::printf("=== NoK decomposition (Algorithm 1) ===\n%s\n",
              decomp.ToString(*tree).c_str());

  // 3. NoK pattern matching outputs (Example 4's NestedLists).
  std::printf("=== NoK NestedLists (Example 4) ===\n");
  nestedlist::OccurrenceLabeler label(doc.get());
  for (size_t i = 0; i < decomp.noks.size(); ++i) {
    if (tree->vertex(decomp.noks[i].root).IsVirtualRoot() &&
        decomp.noks[i].vertices.size() == 1) {
      continue;  // Trivial "~" NoK.
    }
    std::printf("NoK%zu matches:\n", i);
    exec::NokScanOperator scan(doc.get(), &*tree, &decomp.noks[i]);
    for (const nestedlist::NestedList& nl : exec::Drain(&scan)) {
      std::printf("  %s\n", nestedlist::ToString(nl, label).c_str());
    }
  }

  // 4. The plan and the final result (Example 2's output).
  engine::BlossomTreeEngine engine(doc.get());
  auto result = engine.EvaluateToXml(**expr);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("\n=== plan ===\n%s", engine.LastExplain().c_str());
  std::printf("\n=== result (Example 2) ===\n%s\n", result->c_str());

  // 5. Cross-check with the navigational baseline.
  baseline::NavigationalEvaluator nav(doc.get());
  auto nav_result = nav.EvaluateToXml(**expr);
  std::printf("\nnavigational baseline agrees: %s\n",
              nav_result.ok() && *nav_result == *result ? "yes" : "NO");
  return 0;
}
