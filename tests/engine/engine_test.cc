#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/navigational.h"
#include "flwor/parser.h"
#include "util/json.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace engine {
namespace {

std::unique_ptr<xml::Document> Parse(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

/// Paper Example 2's input document.
constexpr const char* kBibXml =
    "<bib>"
    "<book><title>Maximum Security</title></book>"
    "<book><title>The Art of Computer Programming</title>"
    "<author><last>Knuth</last><first>Donald</first></author></book>"
    "<book><title>Terrorist Hunter</title></book>"
    "<book><title>TeX Book</title>"
    "<author><last>Knuth</last><first>Donald</first></author></book>"
    "</bib>";

/// Paper Example 1's query.
constexpr const char* kExample1Query = R"(
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

/// Paper Example 2's expected output (the original has a "Hunger" typo for
/// the copied title; the correct echo of the input is "Hunter").
constexpr const char* kExample2Output =
    "<bib>"
    "<book-pair>"
    "<title>Maximum Security</title>"
    "<title>Terrorist Hunter</title>"
    "</book-pair>"
    "<book-pair>"
    "<title>The Art of Computer Programming</title>"
    "<title>TeX Book</title>"
    "</book-pair>"
    "</bib>";

TEST(EngineTest, Example1ProducesExample2Output) {
  auto doc = Parse(kBibXml);
  BlossomTreeEngine engine(doc.get());
  auto r = engine.EvaluateQuery(kExample1Query);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, kExample2Output);
}

TEST(EngineTest, NavigationalBaselineAgreesOnExample1) {
  auto doc = Parse(kBibXml);
  baseline::NavigationalEvaluator nav(doc.get());
  auto r = nav.EvaluateQuery(kExample1Query);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, kExample2Output);
  EXPECT_GT(nav.NodesVisited(), 0u);
}

TEST(EngineTest, SimpleForReturn) {
  auto doc = Parse("<r><k>1</k><k>2</k></r>");
  BlossomTreeEngine engine(doc.get());
  auto r = engine.EvaluateQuery("for $x in //k return <v>{ $x }</v>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "<v><k>1</k></v><v><k>2</k></v>");
}

TEST(EngineTest, LetBindsWholeSequence) {
  auto doc = Parse("<r><g><k>1</k><k>2</k></g><g><k>3</k></g></r>");
  BlossomTreeEngine engine(doc.get());
  auto r = engine.EvaluateQuery(
      "for $g in //g let $ks := $g/k return <n>{ $ks }</n>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "<n><k>1</k><k>2</k></n><n><k>3</k></n>");
}

TEST(EngineTest, LetOverEmptyIsEmptySequence) {
  auto doc = Parse("<r><g><k>1</k></g><g/></r>");
  BlossomTreeEngine engine(doc.get());
  auto r = engine.EvaluateQuery(
      "for $g in //g let $ks := $g/k return <n>{ $ks }</n>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "<n><k>1</k></n><n/>");
}

TEST(EngineTest, WhereValueFilter) {
  auto doc = Parse("<r><k>1</k><k>2</k><k>3</k></r>");
  BlossomTreeEngine engine(doc.get());
  auto r = engine.EvaluateQuery(
      "for $x in //k where $x = 2 return <hit>{ $x }</hit>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "<hit><k>2</k></hit>");
}

TEST(EngineTest, OrderBy) {
  auto doc = Parse("<r><k>b</k><k>a</k><k>c</k></r>");
  BlossomTreeEngine engine(doc.get());
  auto r = engine.EvaluateQuery("for $x in //k order by $x return $x");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "<k>a</k><k>b</k><k>c</k>");
  auto r2 = engine.EvaluateQuery(
      "for $x in //k order by $x descending return $x");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, "<k>c</k><k>b</k><k>a</k>");
}

TEST(EngineTest, ChainedForVariables) {
  auto doc = Parse("<r><b><t>x</t><t>y</t></b><b><t>z</t></b></r>");
  BlossomTreeEngine engine(doc.get());
  auto r = engine.EvaluateQuery(
      "for $b in //b for $t in $b/t return <p>{ $t }</p>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "<p><t>x</t></p><p><t>y</t></p><p><t>z</t></p>");
}

TEST(EngineTest, CrossProductOfTwoTrees) {
  auto doc = Parse("<r><a>1</a><a>2</a><c>9</c></r>");
  BlossomTreeEngine engine(doc.get());
  auto r = engine.EvaluateQuery(
      "for $x in //a, $y in //c return <p>{ $x }{ $y }</p>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "<p><a>1</a><c>9</c></p><p><a>2</a><c>9</c></p>");
}

TEST(EngineTest, IsComparison) {
  auto doc = Parse("<r><a/><a/></r>");
  BlossomTreeEngine engine(doc.get());
  auto r = engine.EvaluateQuery(
      "for $x in //a, $y in //a where $x is $y return <same/>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "<same/><same/>");  // Two of four pairs are identical.
}

TEST(EngineTest, PathQueryThroughEngine) {
  auto doc = Parse("<r><a><b/></a><a/></r>");
  BlossomTreeEngine engine(doc.get());
  auto p = xpath::ParsePath("//a[//b]");
  ASSERT_TRUE(p.ok());
  auto r = engine.EvaluatePath(*p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 1u);
  EXPECT_FALSE(engine.LastExplain().empty());
}

TEST(EngineTest, CollectProfileExposesExplainAnalyzeAndJson) {
  auto doc = Parse("<r><a><b/></a><a/><a><b/><b/></a></r>");
  EngineOptions opts;
  opts.collect_profile = true;
  BlossomTreeEngine engine(doc.get(), opts);
  // Off until the first query.
  EXPECT_TRUE(engine.LastExplainAnalyze().empty());

  auto p = xpath::ParsePath("//a[//b]");
  ASSERT_TRUE(p.ok());
  auto r = engine.EvaluatePath(*p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(engine.LastExplainAnalyze().find("actual:"), std::string::npos);
  const QueryProfile& prof = engine.LastProfile();
  EXPECT_FALSE(prof.operators.empty());
  uint64_t rows = 0;
  for (const OperatorProfile& op : prof.operators) rows += op.stats.matches;
  EXPECT_GT(rows, 0u);
  // JSON export parses structurally: balanced braces, expected keys.
  std::string json = prof.ToJson();
  EXPECT_NE(json.find("\"operators\":"), std::string::npos);
  EXPECT_NE(json.find("\"rows\":"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));

  // FLWOR queries refresh the profile too.
  auto q = engine.EvaluateQuery("for $a in //a return <o>{ $a }</o>");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(engine.LastProfile().query, "flwor");
}

TEST(EngineTest, ProfileJsonEscapesControlCharacters) {
  auto doc = Parse("<r><book><title>a\tb</title></book></r>");
  EngineOptions opts;
  opts.collect_profile = true;
  BlossomTreeEngine engine(doc.get(), opts);
  auto p = xpath::ParsePath("//book[title = \"a\tb\"]/title");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_TRUE(engine.EvaluatePath(*p).ok());
  const QueryProfile& prof = engine.LastProfile();
  ASSERT_NE(prof.query.find('\t'), std::string::npos) << prof.query;
  auto parsed = util::ParseJson(prof.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->StringOr("query", ""), prof.query);
}

TEST(EngineTest, ProfileRecordsEveryPlanAndMergesRepeatedSites) {
  auto doc = Parse("<r><a><b/></a><a/><c><b/></c></r>");
  EngineOptions opts;
  opts.num_threads = 1;
  opts.collect_profile = true;
  BlossomTreeEngine engine(doc.get(), opts);
  ASSERT_TRUE(engine.EvaluateQuery("//a").ok());
  const QueryProfile one = engine.LastProfile();
  ASSERT_TRUE(engine.EvaluateQuery("//c/b").ok());
  const QueryProfile other = engine.LastProfile();

  // Two different plan sites: both plans' rows, in execution order.
  ASSERT_TRUE(engine.EvaluateQuery("<o>{//a}{//c/b}</o>").ok());
  const QueryProfile& both = engine.LastProfile();
  ASSERT_EQ(both.operators.size(),
            one.operators.size() + other.operators.size());
  EXPECT_EQ(both.operators.front().label, one.operators.front().label);
  EXPECT_EQ(both.operators.back().label, other.operators.back().label);
  EXPECT_EQ(both.Totals().matches,
            one.Totals().matches + other.Totals().matches);
  EXPECT_EQ(both.query, one.query);  // The first plan names the record.

  // The same plan site twice: one set of rows, stats summed.
  ASSERT_TRUE(engine.EvaluateQuery("<o>{//a}{//a}</o>").ok());
  const QueryProfile& twice = engine.LastProfile();
  ASSERT_EQ(twice.operators.size(), one.operators.size());
  EXPECT_EQ(twice.Totals().matches, 2 * one.Totals().matches);
  EXPECT_EQ(twice.Totals().nodes_scanned, 2 * one.Totals().nodes_scanned);
  EXPECT_NE(engine.LastExplainAnalyze().find("(actual: "), std::string::npos);
}

TEST(EngineTest, ProfileOffByDefault) {
  auto doc = Parse("<r><a/></r>");
  BlossomTreeEngine engine(doc.get());
  auto p = xpath::ParsePath("//a");
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(engine.EvaluatePath(*p).ok());
  EXPECT_TRUE(engine.LastExplainAnalyze().empty());
  EXPECT_TRUE(engine.LastProfile().operators.empty());
}

TEST(EngineTest, ConstructorWithAttributesAndText) {
  auto doc = Parse("<r><k>v</k></r>");
  BlossomTreeEngine engine(doc.get());
  auto r = engine.EvaluateQuery(
      R"(<out kind="test">prefix { //k } suffix</out>)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, R"(<out kind="test">prefix<k>v</k>suffix</out>)");
}

TEST(EngineTest, NestedFlworWithFreeVariable) {
  auto doc = Parse("<r><g><k>1</k><k>2</k></g></r>");
  BlossomTreeEngine engine(doc.get());
  auto r = engine.EvaluateQuery(
      "for $g in //g return <o>{ for $k in $g/k return <i>{ $k }</i> }</o>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "<o><i><k>1</k></i><i><k>2</k></i></o>");
}

TEST(EngineTest, EnginesAgreeOnFlworSuite) {
  auto doc = Parse(
      "<lib><shelf><book><t>b</t><y>2</y></book>"
      "<book><t>a</t><y>1</y></book></shelf>"
      "<shelf><book><t>c</t></book></shelf></lib>");
  const char* queries[] = {
      "for $b in //book return <t>{ $b/t }</t>",
      "for $s in //shelf for $b in $s/book return <p>{ $b/t }</p>",
      "for $b in //book where $b/y = 1 return $b/t",
      "for $b in //book let $y := $b/y return <e>{ $y }</e>",
      "for $b in //book order by $b/t return $b/t",
      "for $a in //book, $b in //book where $a << $b and "
      "deep-equal($a/y, $b/y) return <pair/>",
  };
  for (const char* q : queries) {
    BlossomTreeEngine engine(doc.get());
    baseline::NavigationalEvaluator nav(doc.get());
    auto r1 = engine.EvaluateQuery(q);
    auto r2 = nav.EvaluateQuery(q);
    ASSERT_TRUE(r1.ok()) << q << ": " << r1.status().ToString();
    ASSERT_TRUE(r2.ok()) << q << ": " << r2.status().ToString();
    EXPECT_EQ(*r1, *r2) << q;
  }
}

/// Checks that both engines answer `query` on `xml` with exactly
/// `expected`. These bytes are written out by hand, not taken from the
/// navigational engine: both engines hold FLWOR tuples in the same
/// TupleTable, so a fault in the table would agree with itself.
void ExpectPinnedBytes(const char* xml, const char* query,
                       const char* expected) {
  SCOPED_TRACE(query);
  auto doc = Parse(xml);
  for (unsigned threads : {1u, 4u}) {
    EngineOptions options;
    options.num_threads = threads;
    BlossomTreeEngine engine(doc.get(), options);
    auto got = engine.EvaluateQuery(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, expected) << "threads=" << threads;
  }
  baseline::NavigationalEvaluator nav(doc.get());
  auto nav_got = nav.EvaluateQuery(query);
  ASSERT_TRUE(nav_got.ok()) << nav_got.status().ToString();
  EXPECT_EQ(*nav_got, expected);
}

// $a and $c form one pattern tree, $b another, so the nested loop runs
// (a, c) outside b; the rows are put back in the FLWOR's (a, b, c) order.
TEST(EngineTest, PinnedInterleavedSlots) {
  ExpectPinnedBytes(
      "<r><a><c>1</c><c>2</c></a><b>x</b><a><c>3</c></a><b>y</b></r>",
      "for $a in //a, $b in //b, $c in $a/c return <t>{ $c }{ $b }</t>",
      "<t><c>1</c><b>x</b></t><t><c>2</c><b>x</b></t>"
      "<t><c>1</c><b>y</b></t><t><c>2</c><b>y</b></t>"
      "<t><c>3</c><b>x</b></t><t><c>3</c><b>y</b></t>");
}

// The let slot sits between two for slots; on the second g it binds the
// empty sequence, a zero-length run in the middle of the row.
TEST(EngineTest, PinnedEmptyLetBesideFor) {
  ExpectPinnedBytes(
      "<r><g><k>1</k></g><g/><h>y</h><h>z</h></r>",
      "for $g in //g let $ks := $g/k for $h in //h "
      "return <n>{ $ks }{ $h }</n>",
      "<n><k>1</k><h>y</h></n><n><k>1</k><h>z</h></n>"
      "<n><h>y</h></n><n><h>z</h></n>");
}

// Tied keys keep their document order under a descending sort.
TEST(EngineTest, PinnedDescendingOrderIsStable) {
  ExpectPinnedBytes(
      R"(<r><k v="2">a</k><k v="1">b</k><k v="2">c</k><k v="1">d</k></r>)",
      "for $x in //k order by $x/@v descending return $x",
      R"(<k v="2">a</k><k v="2">c</k><k v="1">b</k><k v="1">d</k>)");
}

// The inner FLWOR iterates the outer let's sequence, empty on the second
// g, from a base tuple of the outer table.
TEST(EngineTest, PinnedNestedFlworOverOuterLet) {
  ExpectPinnedBytes(
      "<r><g><k>1</k><k>2</k></g><g/></r>",
      "for $g in //g let $ks := $g/k "
      "return <o>{ for $k in $ks return <i>{ $k }</i> }</o>",
      "<o><i><k>1</k></i><i><k>2</k></i></o><o/>");
}

// k lies under both g's: two embeddings of //g//k bind it, one row holds
// it. Bound per g, it appears once for each.
TEST(EngineTest, PinnedRecursiveEmbeddingsBindOnce) {
  const char* xml = "<r><g><g><k>1</k></g></g></r>";
  ExpectPinnedBytes(xml, "for $k in //g//k return <v>{ $k }</v>",
                    "<v><k>1</k></v>");
  ExpectPinnedBytes(xml, "for $g in //g let $k := $g//k return <n>{ $k }</n>",
                    "<n><k>1</k></n><n><k>1</k></n>");
}

// Existential `//` leaves are tag-stream probes under the default plan
// (DESIGN.md §14). A tag absent from the document, and a value no entry
// meets, fail every probe.
TEST(EngineTest, PinnedProbeTagAbsent) {
  const char* xml = "<r><a><b>1</b></a></r>";
  ExpectPinnedBytes(xml, "//a[//zz]", "");
  ExpectPinnedBytes(xml, "//a[//b = \"9\"]", "");
  ExpectPinnedBytes(xml, "for $a in //a where exists($a//zz) return $a", "");
}

// The first a's last descendant is its b; the b after the second a lies
// just past that a's SubtreeEnd. With a value, the scan of a's b entries
// passes the b that fails it and stops at the SubtreeEnd.
TEST(EngineTest, PinnedProbeHitAtSubtreeEnd) {
  ExpectPinnedBytes("<r><a><c/><x><b/></x></a><a><c/></a><b/></r>",
                    "//a[//b]", "<a><c/><x><b/></x></a>");
  ExpectPinnedBytes(
      "<r><a><b>1</b><b>2</b></a><a><b>1</b></a><b>2</b></r>",
      "//a[//b = \"2\"]", "<a><b>1</b><b>2</b></a>");
}

// The probe sits on c, below the NoK root a. The outer a's c (the later
// one) is probed first, then the inner a's c, which lies before it: the
// cursor must seek back to find the inner c's b.
TEST(EngineTest, PinnedProbeReseeksWhenNodeDescends) {
  ExpectPinnedBytes("<r><a><a><c><b/></c></a><c/></a></r>", "//a[c[//b]]",
                    "<a><c><b/></c></a>");
  ExpectPinnedBytes("<r><a><a><c><b/></c></a><c/></a></r>",
                    "//a[c[//b]][c]", "<a><c><b/></c></a>");
}

// Both engines copy result nodes through ResultBuilder's one serializer
// walk, whose attribute-owner cursor carries over from node to node. The
// three cases below move it backwards or skip it forward.

// Nested result roots: each inner a is copied again after the outer a's
// walk passed it. In the second document an attribute owner (c) follows
// the inner a inside the outer one, so the cursor must seek back.
TEST(EngineTest, PinnedNestedRootsWithAttributes) {
  ExpectPinnedBytes(
      R"(<r><a k="1"><b/><a k="2">t&amp;</a></a><a k="3"/></r>)", "//a",
      R"(<a k="1"><b/><a k="2">t&amp;</a></a><a k="2">t&amp;</a>)"
      R"(<a k="3"/>)");
  ExpectPinnedBytes(R"(<r><a k="1"><a k="2"/><c j="x"/></a></r>)", "//a",
                    R"(<a k="1"><a k="2"/><c j="x"/></a><a k="2"/>)");
}

// A descending order by copies the p's backwards, each past the attribute
// owners of the one copied before it.
TEST(EngineTest, PinnedDescendingCopiesPastAttributeOwners) {
  ExpectPinnedBytes(
      R"(<r><p id="1"><q x="a"/></p><p id="2"><q x="b"/>v</p><p id="3"/></r>)",
      "for $p in //p order by $p/@id descending return $p",
      R"(<p id="3"/><p id="2"><q x="b"/>v</p><p id="1"><q x="a"/></p>)");
}

// The first result root follows some attribute owners: the cursor skips
// them, and attaches no owner to a root that has none.
TEST(EngineTest, PinnedFirstRootAfterAttributeOwners) {
  const char* xml =
      R"(<r><s a="1"/><s a="2"><t/></s><u><v w="x">y</v></u><v w="z"/></r>)";
  ExpectPinnedBytes(xml, "//t", "<t/>");
  ExpectPinnedBytes(xml, "//u", R"(<u><v w="x">y</v></u>)");
  ExpectPinnedBytes(xml, "//v", R"(<v w="x">y</v><v w="z"/>)");
}

/// Checks that the engine answers path `query` with the bytes of
/// `PathEvaluator`'s nodes, and plans it as a BlossomTree iff `planned`
/// (else it takes the navigational fallback).
void ExpectPathEvaluatorBytes(const xml::Document& doc, const char* query,
                              bool planned) {
  SCOPED_TRACE(query);
  auto path = xpath::ParsePath(query);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  PathEvaluator ev(&doc);
  auto nodes = ev.Evaluate(*path);
  ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();
  std::string expected;
  for (xml::NodeId n : *nodes) xml::AppendSubtree(doc, n, &expected);
  BlossomTreeEngine engine(&doc);
  auto got = engine.EvaluateQuery(query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, expected);
  std::string explain = engine.LastExplain();
  bool fallback = explain.rfind("navigational fallback", 0) == 0;
  EXPECT_EQ(fallback, !planned) << explain;
}

// Self steps keep their name test on the pattern path: the engine's bytes
// equal the navigational evaluator's for "self::a", "self::*" and ".", and
// a shape the pattern cannot express falls back to that evaluator.
TEST(EngineTest, SelfStepsMatchThePathEvaluator) {
  auto doc = Parse("<r><a><b>1</b></a><c><b>1</b><a>t</a></c><a/>x</r>");
  ExpectPathEvaluatorBytes(*doc, "//*[self::a]", true);
  ExpectPathEvaluatorBytes(*doc, "//*/self::a", true);
  ExpectPathEvaluatorBytes(*doc, "//*[self::a = \"t\"]", true);
  ExpectPathEvaluatorBytes(*doc, "//c/*[self::a]", true);
  ExpectPathEvaluatorBytes(*doc, "//a[self::a]", true);
  ExpectPathEvaluatorBytes(*doc, "//*[self::*]", true);
  ExpectPathEvaluatorBytes(*doc, "//*[self::*]/b", true);
  ExpectPathEvaluatorBytes(*doc, "//b[.]", true);
  ExpectPathEvaluatorBytes(*doc, "//*[. = \"1\"]", true);
  ExpectPathEvaluatorBytes(*doc, "//*[self::a][1]", false);
  ExpectPathEvaluatorBytes(*doc, "//*[1][self::a]", false);
  ExpectPathEvaluatorBytes(*doc, "//b[self::a]", false);
  ExpectPathEvaluatorBytes(*doc, "//*[b/self::a]", false);
}

}  // namespace
}  // namespace engine
}  // namespace blossomtree
