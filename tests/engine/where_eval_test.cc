#include "engine/where_eval.h"

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "flwor/parser.h"
#include "xml/parser.h"

namespace blossomtree {
namespace engine {
namespace {

std::unique_ptr<xml::Document> Parse(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

/// Tuple slots of $x and $y in WhereFixture's query.
constexpr size_t kX = 0;
constexpr size_t kY = 1;

/// Parses a query "for $x in //q, $y in //q where <CLAUSE> return $x" and
/// extracts the where expression.
struct WhereFixture {
  std::unique_ptr<flwor::Expr> expr;
  const flwor::BoolExpr* where = nullptr;

  explicit WhereFixture(const std::string& clause) {
    auto r = flwor::ParseQuery("for $x in //q, $y in //q where " + clause +
                               " return $x");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) {
      expr = r.MoveValue();
      where = expr->flwor->where.get();
    }
  }
};

/// Node sequences per tuple slot, written as one row of a TupleTable.
using Slots = std::vector<std::vector<xml::NodeId>>;

TupleTable OneRow(const Slots& slots) {
  TupleTable table{slots.size()};
  for (const std::vector<xml::NodeId>& run : slots) table.Push(run);
  table.EndRow();
  return table;
}

bool Eval(const xml::Document& doc, const flwor::BoolExpr& where,
          const Slots& env) {
  PathEvaluator ev(&doc);
  TupleTable table = OneRow(env);
  auto r = EvalWhere(where, table.Row(0), doc, &ev);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() && *r;
}

TEST(WhereEvalTest, DocOrderComparisons) {
  auto doc = Parse("<r><a/><b/></r>");
  Slots env(2);
  env[kX] = {1};
  env[kY] = {2};
  WhereFixture lt("$x << $y");
  EXPECT_TRUE(Eval(*doc, *lt.where, env));
  WhereFixture gt("$x >> $y");
  EXPECT_FALSE(Eval(*doc, *gt.where, env));
  // Empty operand → false.
  env[kY] = {};
  EXPECT_FALSE(Eval(*doc, *lt.where, env));
}

TEST(WhereEvalTest, IsIdentity) {
  auto doc = Parse("<r><a/><a/></r>");
  Slots env(2);
  env[kX] = {1};
  env[kY] = {1};
  WhereFixture is("$x is $y");
  EXPECT_TRUE(Eval(*doc, *is.where, env));
  env[kY] = {2};
  EXPECT_FALSE(Eval(*doc, *is.where, env));
}

TEST(WhereEvalTest, GeneralEqOverPaths) {
  auto doc = Parse("<r><g><v>1</v><v>2</v></g><g><v>2</v></g></r>");
  Slots env(2);
  env[kX] = {1};  // First g.
  env[kY] = {6};  // Second g (nodes: r=0 g=1 v=2 t=3 v=4 t=5 g=6 ...).
  WhereFixture eq("$x/v = $y/v");
  EXPECT_TRUE(Eval(*doc, *eq.where, env));  // 2 = 2.
  WhereFixture neq("$x/v != $y/v");
  EXPECT_TRUE(Eval(*doc, *neq.where, env));  // 1 != 2.
}

TEST(WhereEvalTest, LiteralComparisons) {
  auto doc = Parse("<r><g><v>7</v></g></r>");
  Slots env(2);
  env[kX] = {1};
  WhereFixture eq("$x/v = 7");
  EXPECT_TRUE(Eval(*doc, *eq.where, env));
  WhereFixture eq2("$x/v = \"7\"");
  EXPECT_TRUE(Eval(*doc, *eq2.where, env));
  WhereFixture eq3("$x/v = 8");
  EXPECT_FALSE(Eval(*doc, *eq3.where, env));
}

TEST(WhereEvalTest, DeepEqualOnSequences) {
  auto doc = Parse(
      "<r><g><a><n>k</n></a></g><g><a><n>k</n></a></g><g/></r>");
  auto gs = doc->TagIndex(doc->tags().Lookup("g"));
  Slots env(2);
  env[kX] = {gs[0]};
  env[kY] = {gs[1]};
  WhereFixture de("deep-equal($x/a, $y/a)");
  EXPECT_TRUE(Eval(*doc, *de.where, env));
  env[kY] = {gs[2]};
  EXPECT_FALSE(Eval(*doc, *de.where, env));
  // Both empty → deep-equal((), ()) is true (Example 2's key case).
  env[kX] = {gs[2]};
  EXPECT_TRUE(Eval(*doc, *de.where, env));
}

TEST(WhereEvalTest, BooleanConnectives) {
  auto doc = Parse("<r><a/><b/></r>");
  Slots env(2);
  env[kX] = {1};
  env[kY] = {2};
  WhereFixture both("$x << $y and $x is $x");
  EXPECT_TRUE(Eval(*doc, *both.where, env));
  WhereFixture either("$x >> $y or $x << $y");
  EXPECT_TRUE(Eval(*doc, *either.where, env));
  WhereFixture neither("$x >> $y or $y << $x");
  EXPECT_FALSE(Eval(*doc, *neither.where, env));
  WhereFixture negated("not($x >> $y)");
  EXPECT_TRUE(Eval(*doc, *negated.where, env));
}

TEST(WhereEvalTest, ExistsAndEmpty) {
  auto doc = Parse("<r><g><v/></g><g/></r>");
  auto gs = doc->TagIndex(doc->tags().Lookup("g"));
  Slots env(2);
  env[kX] = {gs[0]};
  WhereFixture ex("exists($x/v)");
  EXPECT_TRUE(Eval(*doc, *ex.where, env));
  WhereFixture em("empty($x/v)");
  EXPECT_FALSE(Eval(*doc, *em.where, env));
  env[kX] = {gs[1]};
  EXPECT_FALSE(Eval(*doc, *ex.where, env));
  EXPECT_TRUE(Eval(*doc, *em.where, env));
}

TEST(WhereEvalTest, CountComparisons) {
  auto doc = Parse("<r><g><v/><v/></g><g><v/></g></r>");
  auto gs = doc->TagIndex(doc->tags().Lookup("g"));
  Slots env(2);
  env[kX] = {gs[0]};
  WhereFixture two("count($x/v) = 2");
  EXPECT_TRUE(Eval(*doc, *two.where, env));
  env[kX] = {gs[1]};
  EXPECT_FALSE(Eval(*doc, *two.where, env));
  WhereFixture pair("count($x/v) = count($x/v)");
  EXPECT_TRUE(Eval(*doc, *pair.where, env));
}

TEST(WhereEvalTest, EndToEndExistsAndCountInQueries) {
  auto doc = Parse("<r><g><v/><v/></g><g/></r>");
  BlossomTreeEngine engine(doc.get());
  auto r1 = engine.EvaluateQuery(
      "for $g in //g where exists($g/v) return <hit/>");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(*r1, "<hit/>");
  auto r2 = engine.EvaluateQuery(
      "for $g in //g where empty($g/v) return <none/>");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(*r2, "<none/>");
  auto r3 = engine.EvaluateQuery(
      "for $g in //g where count($g/v) = 2 return <two/>");
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(*r3, "<two/>");
}

// Operands ending in an attribute step compare the attribute's value, not
// the owner element's text, in literal comparisons and in joins alike.
TEST(WhereEvalTest, AttributeOperandsCompareTheAttributeValue) {
  // Nodes: r=0, q=1, "w"=2, q=3, "v"=4 (attributes are out of band).
  auto doc = Parse(R"(<r><q x="v">w</q><q x="w">v</q></r>)");
  Slots env(2);
  env[kX] = {1};
  env[kY] = {3};
  WhereFixture lit("$x/@x = \"v\"");
  EXPECT_TRUE(Eval(*doc, *lit.where, env));
  WhereFixture lit_left("\"v\" = $y/@x");
  EXPECT_FALSE(Eval(*doc, *lit_left.where, env));
  WhereFixture neq("$y/@x != \"w\"");
  EXPECT_FALSE(Eval(*doc, *neq.where, env));
  // Attribute "v" of $x against the text "v" of $y, then against $y's
  // attribute "w".
  WhereFixture to_text("$x/@x = $y");
  EXPECT_TRUE(Eval(*doc, *to_text.where, env));
  WhereFixture to_attr("$x/@x = $y/@x");
  EXPECT_FALSE(Eval(*doc, *to_attr.where, env));

  // The navigational oracle and the BlossomTree engine agree end to end.
  const char* query = "for $a in //q where $a/@x = \"v\" return $a";
  PathEvaluator ev(doc.get());
  auto parsed = flwor::ParseQuery(query);
  ASSERT_TRUE(parsed.ok());
  auto tuples = NaiveFlworTuples(*(*parsed)->flwor, Tuple{}, &ev);
  ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
  ASSERT_EQ(tuples->rows, 1u);
  std::span<const xml::NodeId> bound = tuples->Slot(0, 0);
  EXPECT_EQ(std::vector<xml::NodeId>(bound.begin(), bound.end()),
            (std::vector<xml::NodeId>{1}));
  BlossomTreeEngine engine(doc.get());
  auto got = engine.EvaluateQuery(query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, R"(<q x="v">w</q>)");
}

// An order-by key ending in an attribute step sorts on the attribute's
// value; elements without the attribute sort first (empty key).
TEST(WhereEvalTest, OrderByAttributeSortsOnItsValue) {
  auto doc = Parse(R"(<r><q x="w">a</q><q>c</q><q x="v">b</q></r>)");
  BlossomTreeEngine engine(doc.get());
  auto got = engine.EvaluateQuery("for $a in //q order by $a/@x return $a");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, R"(<q>c</q><q x="v">b</q><q x="w">a</q>)");
}

TEST(WhereEvalTest, ErrorsOnNonSingletonDocOrder) {
  auto doc = Parse("<r><a/><a/><b/></r>");
  Slots env(2);
  env[kX] = {1, 2};
  env[kY] = {3};
  WhereFixture lt("$x << $y");
  PathEvaluator ev(doc.get());
  TupleTable table = OneRow(env);
  auto r = EvalWhere(*lt.where, table.Row(0), *doc, &ev);
  EXPECT_FALSE(r.ok());
}

TEST(WhereEvalTest, UnboundVariableErrors) {
  // An unbound operand is a static error of the parse, whatever the data.
  auto r = flwor::ParseQuery("for $x in //q where $missing = 1 return $x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("unbound variable $missing"),
            std::string::npos);
}

}  // namespace
}  // namespace engine
}  // namespace blossomtree
