#include "pattern/builder.h"

#include <gtest/gtest.h>

#include "baseline/navigational.h"
#include "engine/engine.h"
#include "flwor/parser.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace pattern {
namespace {

BlossomTree FromPath(std::string_view path) {
  auto p = xpath::ParsePath(path);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  auto t = BuildFromPath(*p);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return t.MoveValue();
}

BlossomTree FromQuery(std::string_view q) {
  auto e = flwor::ParseQuery(q);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  auto t = BuildFromQuery(**e);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return t.MoveValue();
}

/// The residual conjunct positions BuildFromFlwor reports for `q`.
std::vector<uint32_t> Residual(std::string_view q) {
  auto e = flwor::ParseQuery(q);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  if (!e.ok()) return {99};
  std::vector<uint32_t> residual;
  auto t = BuildFromFlwor(*(*e)->flwor, &residual);
  EXPECT_TRUE(t.ok()) << q << ": " << t.status().ToString();
  return residual;
}

TEST(BuilderTest, SimplePath) {
  BlossomTree t = FromPath("/a/b");
  // Vertices: ~, a, b.
  ASSERT_EQ(t.NumVertices(), 3u);
  EXPECT_EQ(t.roots().size(), 1u);
  EXPECT_TRUE(t.vertex(t.roots()[0]).IsVirtualRoot());
  VertexId b = t.VertexOfVariable("result");
  ASSERT_NE(b, kNoVertex);
  EXPECT_EQ(t.vertex(b).tag, "b");
  EXPECT_EQ(t.vertex(b).axis, xpath::Axis::kChild);
  // Only b is returning.
  EXPECT_EQ(t.NumSlots(), 1u);
  EXPECT_EQ(t.slot(t.SlotOfVertex(b)).dewey.ToString(), "1");
}

// Top-level `$v/p op "lit"` and `exists($v/p)` conjuncts on a for-bound $v
// leave the residual where-clause; every other conjunct stays.
TEST(BuilderTest, WhereConjunctsPushedIntoThePattern) {
  struct Case {
    const char* query;
    std::vector<uint32_t> residual;
  };
  const Case cases[] = {
      {"for $b in //book where $b/title = \"x\" return $b", {}},
      {"for $b in //book where \"x\" != $b/a/b return $b", {}},
      {"for $b in //book where $b//c = \"x\" return $b", {}},
      {"for $b in //book where $b = \"7\" return $b", {}},
      {"for $b in //book where exists($b/year) return $b", {}},
      {"for $b in //book where $b/@id = \"7\" return $b", {}},
      {"for $a in //a, $b in //b where $a << $b and $b/c = \"1\" and "
       "$a/d = $b/d return $b",
       {0, 2}},
      {"for $b in //book where not($b/title = \"x\") return $b", {0}},
      {"for $b in //book where empty($b/title) return $b", {0}},
      {"for $b in //book where $b/title = \"x\" or $b/y = \"1\" return $b",
       {0}},
      {"for $b in //book where count($b/author) = 2 return $b", {0}},
      {"for $b in //book let $t := $b/title where $t = \"x\" return $b",
       {0}},
      {"for $b in //book where //title = \"x\" and $b/y = \"1\" return $b",
       {0}},
      // The binding's own value constraint leaves no room on $b's vertex.
      {"for $b in //book[. = \"y\"] where $b = \"x\" return $b", {0}},
      {"for $b in //book/@id where $b = \"x\" return $b", {0}},
      {"for $b in //book where $b/parent::a = \"x\" return $b", {0}},
      {"for $b in //book where $b/@id/x = \"x\" return $b", {0}},
      {"for $b in //book where $b/self::x = \"x\" return $b", {0}},
      // The operand's predicates: a constraint on its target leaves no room
      // for the literal, and named self steps and reverse axes have no
      // pattern form. Predicates below the target are pushed with it.
      {"for $b in //book where $b/t[. = \"y\"] = \"x\" return $b", {0}},
      {"for $b in //book where $b/*[self::t] = \"x\" return $b", {0}},
      {"for $b in //book where $b/t[parent::book] = \"x\" return $b", {0}},
      {"for $b in //book where exists($b/t[.//c/parent::d]) return $b", {0}},
      {"for $b in //book where exists($b/t[. = \"1\"][. = \"2\"]) "
       "return $b",
       {0}},
      {"for $b in //book where $b/t[c = \"y\"][.//d] = \"x\" and "
       "exists($b/t[. = \"1\"]) return $b",
       {}},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Residual(c.query), c.residual) << c.query;
  }
  // A conjunct left residual adds no vertex, also after a failed attempt.
  const char* refused[] = {
      "for $b in //book where $b/t[. = \"y\"] = \"x\" return $b",
      "for $b in //book where $b/t[parent::book] = \"x\" return $b",
  };
  for (const char* q : refused) {
    EXPECT_EQ(FromQuery(q).NumVertices(), 2u) << q;  // ~, book.
  }
  // The pushed conjunct is the predicate's value constraint, mandatory.
  BlossomTree t = FromQuery(
      "for $b in //book where \"x\" != $b/title return $b");
  ASSERT_EQ(t.NumVertices(), 3u);  // ~, book, title.
  const Vertex& title = t.vertex(2);
  EXPECT_EQ(title.tag, "title");
  EXPECT_EQ(title.mode, EdgeMode::kFor);
  EXPECT_FALSE(title.returning);
  ASSERT_TRUE(title.value.has_value());
  EXPECT_EQ(title.value->op, xpath::CompareOp::kNeq);
  EXPECT_EQ(title.value->literal, "x");
}

TEST(BuilderTest, DescendantEdgesMarkEndpointsReturning) {
  BlossomTree t = FromPath("//a//b");
  // ~, a, b; a and b returning (global-edge endpoints; b also the result).
  ASSERT_EQ(t.NumVertices(), 3u);
  EXPECT_EQ(t.NumSlots(), 2u);
  SlotId sa = t.SlotOfDewey(DeweyId({1}));
  SlotId sb = t.SlotOfDewey(DeweyId({1, 1}));
  ASSERT_NE(sa, kNoSlot);
  ASSERT_NE(sb, kNoSlot);
  EXPECT_EQ(t.vertex(t.slot(sa).vertex).tag, "a");
  EXPECT_EQ(t.vertex(t.slot(sb).vertex).tag, "b");
  EXPECT_EQ(t.slot(sb).parent, sa);
}

TEST(BuilderTest, PredicateSubtreeIsNotReturning) {
  BlossomTree t = FromPath("/a[b]/c");
  // ~, a, b(predicate), c. Only c returning.
  ASSERT_EQ(t.NumVertices(), 4u);
  EXPECT_EQ(t.NumSlots(), 1u);
  VertexId c = t.VertexOfVariable("result");
  EXPECT_EQ(t.vertex(c).tag, "c");
}

TEST(BuilderTest, PredicateWithDescendantCreatesSlots) {
  BlossomTree t = FromPath("//a[//b]/c");
  // a//b cut edge: a and b returning; c result.
  EXPECT_EQ(t.NumSlots(), 3u);
  SlotId sa = t.SlotOfDewey(DeweyId({1}));
  ASSERT_NE(sa, kNoSlot);
  EXPECT_EQ(t.slot(sa).children.size(), 2u);  // b and c below a.
}

TEST(BuilderTest, ValuePredicate) {
  BlossomTree t = FromPath("/book[author = \"Smith\"]/title");
  VertexId author = kNoVertex;
  for (VertexId v = 0; v < t.NumVertices(); ++v) {
    if (t.vertex(v).tag == "author") author = v;
  }
  ASSERT_NE(author, kNoVertex);
  ASSERT_TRUE(t.vertex(author).value.has_value());
  EXPECT_EQ(t.vertex(author).value->literal, "Smith");
  EXPECT_EQ(t.vertex(author).value->op, xpath::CompareOp::kEq);
}

TEST(BuilderTest, SelfValuePredicate) {
  BlossomTree t = FromPath("//author[. = \"Smith\"]");
  VertexId a = t.VertexOfVariable("result");
  ASSERT_TRUE(t.vertex(a).value.has_value());
  EXPECT_EQ(t.vertex(a).value->literal, "Smith");
}

/// The result vertex `path` builds, after checking it is the only vertex
/// besides the virtual root.
Vertex ResultVertex(std::string_view path) {
  BlossomTree t = FromPath(path);
  EXPECT_EQ(t.NumVertices(), 2u) << path;
  return t.vertex(t.VertexOfVariable("result"));
}

StatusCode PathBuildCode(std::string_view path) {
  auto p = xpath::ParsePath(path);
  EXPECT_TRUE(p.ok()) << path << ": " << p.status().ToString();
  return p.ok() ? BuildFromPath(*p).status().code() : StatusCode::kOk;
}

// A self step's name test stays on the vertex it filters: a named test
// narrows a "*" vertex of its own step and is a no-op on a vertex of that
// tag, as are "self::*" and "."; any other shape is left to the navigator.
TEST(BuilderTest, SelfStepNameTests) {
  EXPECT_EQ(ResultVertex("//*[self::a]").tag, "a");
  EXPECT_EQ(ResultVertex("//*/self::a").tag, "a");
  EXPECT_EQ(ResultVertex("//a[self::a]").tag, "a");
  EXPECT_EQ(ResultVertex("//a/self::*").tag, "a");
  EXPECT_EQ(ResultVertex("//*[self::*]").tag, "*");
  EXPECT_EQ(ResultVertex("//*[.]").tag, "*");
  EXPECT_EQ(ResultVertex("//*[self::a = \"1\"]").tag, "a");
  Vertex second_a = ResultVertex("//a[self::a][2]");
  EXPECT_EQ(second_a.tag, "a");
  EXPECT_EQ(second_a.position, 2);
  // Positions count among all elements (xml::SiblingRank on "*"), so a
  // positional predicate pins the "*" test: `*[self::a][2]` is not `a[2]`.
  EXPECT_EQ(PathBuildCode("//*[self::a][2]"), StatusCode::kUnsupported);
  EXPECT_EQ(PathBuildCode("//*[2][self::a]"), StatusCode::kUnsupported);
  EXPECT_EQ(PathBuildCode("//*[2]/self::a"), StatusCode::kUnsupported);
  EXPECT_EQ(PathBuildCode("//a/self::*[1]"), StatusCode::kUnsupported);
  EXPECT_EQ(PathBuildCode("//b[self::a]"), StatusCode::kUnsupported);
  EXPECT_EQ(PathBuildCode("//*[b/self::a]"), StatusCode::kUnsupported);
  EXPECT_EQ(PathBuildCode("/self::a"), StatusCode::kUnsupported);
  EXPECT_EQ(PathBuildCode("//@k/self::a"), StatusCode::kUnsupported);
  // A variable's vertex is shared with its binding: never narrowed.
  auto e = flwor::ParseQuery("for $x in //*, $y in $x/self::a return $y");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(BuildFromQuery(**e).status().code(), StatusCode::kUnsupported);
}

TEST(BuilderTest, PositionPredicate) {
  BlossomTree t = FromPath("//book[2]");
  VertexId b = t.VertexOfVariable("result");
  EXPECT_EQ(t.vertex(b).position, 2);
}

TEST(BuilderTest, Example1Blossoms) {
  constexpr const char* kExample1 = R"(
    for $book1 in doc("bib.xml")//book,
        $book2 in doc("bib.xml")//book
    let $aut1 := $book1/author
    let $aut2 := $book2/author
    where $book1 << $book2
      and not($book1/title = $book2/title)
      and deep-equal($aut1, $aut2)
    return <book-pair>{ $book1/title }{ $book2/title }</book-pair>
  )";
  BlossomTree t = FromQuery(kExample1);

  // Two pattern-tree roots (two doc()-anchored for-clauses).
  EXPECT_EQ(t.roots().size(), 2u);

  // Blossoms: book1, book2, aut1, aut2, plus title vertices from where.
  VertexId b1 = t.VertexOfVariable("book1");
  VertexId b2 = t.VertexOfVariable("book2");
  VertexId a1 = t.VertexOfVariable("aut1");
  VertexId a2 = t.VertexOfVariable("aut2");
  ASSERT_NE(b1, kNoVertex);
  ASSERT_NE(b2, kNoVertex);
  ASSERT_NE(a1, kNoVertex);
  ASSERT_NE(a2, kNoVertex);

  // let-edges are l-annotated.
  EXPECT_EQ(t.vertex(a1).mode, EdgeMode::kLet);
  EXPECT_EQ(t.vertex(a2).mode, EdgeMode::kLet);
  EXPECT_EQ(t.vertex(b1).mode, EdgeMode::kFor);

  // Dewey IDs per paper §3.3: super-root with book1 = 1.1, book2 = 1.2.
  EXPECT_EQ(t.slot(t.SlotOfVariable("book1")).dewey.ToString(), "1.1");
  EXPECT_EQ(t.slot(t.SlotOfVariable("book2")).dewey.ToString(), "1.2");
  // aut1 and the book1/title vertex are 1.1.x.
  EXPECT_TRUE(
      t.slot(t.SlotOfVariable("book1"))
          .dewey.IsAncestorOf(t.slot(t.SlotOfVariable("aut1")).dewey));

  // Crossing edges: <<, not(=) on titles, deep-equal on authors.
  ASSERT_EQ(t.cross_edges().size(), 3u);
  EXPECT_EQ(t.cross_edges()[0].kind, CrossKind::kDocBefore);
  EXPECT_FALSE(t.cross_edges()[0].negated);
  EXPECT_EQ(t.cross_edges()[1].kind, CrossKind::kValueEq);
  EXPECT_TRUE(t.cross_edges()[1].negated);
  EXPECT_EQ(t.cross_edges()[2].kind, CrossKind::kDeepEqual);
  EXPECT_EQ(t.cross_edges()[2].left, a1);
  EXPECT_EQ(t.cross_edges()[2].right, a2);

  // The slot mode of aut1 is l (let-bound).
  EXPECT_EQ(t.slot(t.SlotOfVariable("aut1")).mode, EdgeMode::kLet);
  EXPECT_EQ(t.slot(t.SlotOfVariable("book1")).mode, EdgeMode::kFor);
}

TEST(BuilderTest, WhereTitleVerticesAreShared) {
  // $b/title referenced twice (where + another comparison) creates one
  // vertex.
  BlossomTree t = FromQuery(
      "for $a in //x, $b in //y where $a/t = $b/t and $a/t != $b/t "
      "return $a");
  size_t t_under_a = 0;
  VertexId a = t.VertexOfVariable("a");
  for (VertexId c : t.vertex(a).children) {
    if (t.vertex(c).tag == "t") ++t_under_a;
  }
  EXPECT_EQ(t_under_a, 1u);
}

TEST(BuilderTest, VariableChainExtendsVertex) {
  BlossomTree t = FromQuery(
      "for $a in //x for $b in $a/y/z return $b");
  VertexId b = t.VertexOfVariable("b");
  ASSERT_NE(b, kNoVertex);
  EXPECT_EQ(t.vertex(b).tag, "z");
  // Chain: x <- y <- z through one pattern tree; single root.
  EXPECT_EQ(t.roots().size(), 1u);
}

TEST(BuilderTest, DocAfterSwapsOperands) {
  BlossomTree t = FromQuery(
      "for $a in //x, $b in //y where $a >> $b return $a");
  ASSERT_EQ(t.cross_edges().size(), 1u);
  EXPECT_EQ(t.cross_edges()[0].kind, CrossKind::kDocBefore);
  EXPECT_EQ(t.cross_edges()[0].left, t.VertexOfVariable("b"));
  EXPECT_EQ(t.cross_edges()[0].right, t.VertexOfVariable("a"));
}

TEST(BuilderTest, OrBranchesProduceNoCrossEdges) {
  BlossomTree t = FromQuery(
      "for $a in //x, $b in //y where $a = $b or $a << $b return $a");
  EXPECT_TRUE(t.cross_edges().empty());
}

TEST(BuilderTest, ErrorUnboundVariable) {
  // Unbound references fail the parse, before any data is seen: the same
  // query over //none and over //g must not differ.
  for (const char* q : {"for $a in $nope/x return $a",
                        "for $a in //none return <x>{$b}</x>",
                        "for $a in //g return <x>{$b}</x>"}) {
    auto e = flwor::ParseQuery(q);
    ASSERT_FALSE(e.ok()) << q;
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument) << q;
    EXPECT_NE(e.status().message().find("unbound variable $"),
              std::string::npos)
        << q;
  }
}

TEST(BuilderTest, RebindingMatchesOracle) {
  // Each binding has its own slot, so a rebound name shadows the outer
  // binding, as in XQuery.
  auto doc = xml::ParseDocument(
      "<r><g><k>1</k><k>2</k></g><g><k>3</k></g><g/></r>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  for (const char* q : {"for $a in //g for $a in $a/k return $a",
                        "for $a in //g let $a := $a/k return <n>{$a}</n>"}) {
    engine::BlossomTreeEngine engine(doc->get());
    baseline::NavigationalEvaluator nav(doc->get());
    auto got = engine.EvaluateQuery(q);
    auto want = nav.EvaluateQuery(q);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    EXPECT_EQ(*got, *want) << q;
  }
  auto nav = baseline::NavigationalEvaluator(doc->get()).EvaluateQuery(
      "for $a in //g for $a in $a/k return $a");
  ASSERT_TRUE(nav.ok());
  EXPECT_EQ(*nav, "<k>1</k><k>2</k><k>3</k>");
}

TEST(BuilderTest, ToStringMentionsStructure) {
  BlossomTree t = FromPath("//a[//b]/c");
  std::string s = t.ToString();
  EXPECT_NE(s.find("~"), std::string::npos);
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("($result)"), std::string::npos);
}

}  // namespace
}  // namespace pattern
}  // namespace blossomtree
