#include "flwor/parser.h"

#include <gtest/gtest.h>

namespace blossomtree {
namespace flwor {
namespace {

// The paper's Example 1 query, verbatim (modulo whitespace).
constexpr const char* kExample1 = R"(
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

std::unique_ptr<Expr> Parse(std::string_view q) {
  auto r = ParseQuery(q);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.MoveValue() : nullptr;
}

TEST(FlworParserTest, Example1Structure) {
  auto e = Parse(kExample1);
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->kind, Expr::Kind::kConstructor);
  EXPECT_EQ(e->ctor->name, "bib");
  ASSERT_EQ(e->ctor->items.size(), 1u);
  ASSERT_EQ(e->ctor->items[0].kind, ConstructorItem::Kind::kExpr);

  const Expr& inner = *e->ctor->items[0].expr;
  ASSERT_EQ(inner.kind, Expr::Kind::kFlwor);
  const Flwor& f = *inner.flwor;

  ASSERT_EQ(f.bindings.size(), 4u);
  EXPECT_EQ(f.bindings[0].kind, Binding::Kind::kFor);
  EXPECT_EQ(f.bindings[0].var, "book1");
  EXPECT_EQ(f.bindings[0].path.document, "bib.xml");
  EXPECT_EQ(f.bindings[1].kind, Binding::Kind::kFor);
  EXPECT_EQ(f.bindings[1].var, "book2");
  EXPECT_EQ(f.bindings[2].kind, Binding::Kind::kLet);
  EXPECT_EQ(f.bindings[2].var, "aut1");
  EXPECT_EQ(f.bindings[2].path.variable, "book1");
  EXPECT_EQ(f.bindings[3].kind, Binding::Kind::kLet);

  ASSERT_NE(f.where, nullptr);
  ASSERT_EQ(f.where->kind, BoolExpr::Kind::kAnd);

  ASSERT_NE(f.ret, nullptr);
  ASSERT_EQ(f.ret->kind, Expr::Kind::kConstructor);
  EXPECT_EQ(f.ret->ctor->name, "book-pair");
  EXPECT_EQ(f.ret->ctor->items.size(), 2u);
}

TEST(FlworParserTest, Example1WhereConjuncts) {
  auto e = Parse(kExample1);
  const Flwor& f = *e->ctor->items[0].expr->flwor;
  // ((a << b and not(=)) and deep-equal) — left-assoc 'and'.
  const BoolExpr& top = *f.where;
  ASSERT_EQ(top.kind, BoolExpr::Kind::kAnd);
  const BoolExpr& de = *top.children[1];
  EXPECT_EQ(de.kind, BoolExpr::Kind::kCompare);
  EXPECT_EQ(de.op, WhereOp::kDeepEqual);
  EXPECT_EQ(de.left.path.variable, "aut1");
  EXPECT_EQ(de.right.path.variable, "aut2");

  const BoolExpr& left = *top.children[0];
  ASSERT_EQ(left.kind, BoolExpr::Kind::kAnd);
  const BoolExpr& lt = *left.children[0];
  EXPECT_EQ(lt.op, WhereOp::kDocBefore);
  EXPECT_EQ(lt.left.path.variable, "book1");
  const BoolExpr& nt = *left.children[1];
  ASSERT_EQ(nt.kind, BoolExpr::Kind::kNot);
  EXPECT_EQ(nt.children[0]->op, WhereOp::kEq);
  EXPECT_EQ(nt.children[0]->left.path.ToString(), "$book1/title");
}

TEST(FlworParserTest, BarePathQuery) {
  auto e = Parse("//a[//b]//c");
  ASSERT_EQ(e->kind, Expr::Kind::kPath);
  EXPECT_EQ(e->path.steps.size(), 2u);
}

TEST(FlworParserTest, SimpleForReturn) {
  auto e = Parse("for $x in /a/b return $x/c");
  ASSERT_EQ(e->kind, Expr::Kind::kFlwor);
  const Flwor& f = *e->flwor;
  ASSERT_EQ(f.bindings.size(), 1u);
  EXPECT_EQ(f.where, nullptr);
  ASSERT_EQ(f.ret->kind, Expr::Kind::kPath);
  EXPECT_EQ(f.ret->path.ToString(), "$x/c");
}

TEST(FlworParserTest, LetOnly) {
  auto e = Parse("let $x := //a return $x");
  ASSERT_EQ(e->kind, Expr::Kind::kFlwor);
  EXPECT_EQ(e->flwor->bindings[0].kind, Binding::Kind::kLet);
}

TEST(FlworParserTest, OrderBy) {
  auto e = Parse("for $x in //a order by $x/k return $x");
  ASSERT_TRUE(e->flwor->order_by.has_value());
  EXPECT_EQ(e->flwor->order_by->ToString(), "$x/k");
  EXPECT_FALSE(e->flwor->order_descending);
}

TEST(FlworParserTest, OrderByDescending) {
  auto e = Parse("for $x in //a order by $x/k descending return $x");
  EXPECT_TRUE(e->flwor->order_descending);
}

TEST(FlworParserTest, WhereLiteralComparison) {
  auto e = Parse("for $x in //a where $x/b = \"v\" return $x");
  const BoolExpr& w = *e->flwor->where;
  EXPECT_EQ(w.kind, BoolExpr::Kind::kCompare);
  EXPECT_EQ(w.op, WhereOp::kEq);
  EXPECT_EQ(w.right.kind, Operand::Kind::kLiteral);
  EXPECT_EQ(w.right.literal, "v");
}

TEST(FlworParserTest, WhereNumericLiteral) {
  auto e = Parse("for $x in //a where $x/b = 42 return $x");
  EXPECT_EQ(e->flwor->where->right.literal, "42");
}

TEST(FlworParserTest, WhereOr) {
  auto e = Parse("for $x in //a where $x/b = 1 or $x/b = 2 return $x");
  EXPECT_EQ(e->flwor->where->kind, BoolExpr::Kind::kOr);
}

TEST(FlworParserTest, WhereIsAndIsnot) {
  auto e = Parse("for $x in //a, $y in //b where $x is $y return $x");
  EXPECT_EQ(e->flwor->where->op, WhereOp::kIs);
  auto e2 = Parse("for $x in //a, $y in //b where $x isnot $y return $x");
  ASSERT_EQ(e2->flwor->where->kind, BoolExpr::Kind::kNot);
  EXPECT_EQ(e2->flwor->where->children[0]->op, WhereOp::kIs);
}

TEST(FlworParserTest, WhereDocAfter) {
  auto e = Parse("for $x in //a, $y in //a where $x >> $y return $x");
  EXPECT_EQ(e->flwor->where->op, WhereOp::kDocAfter);
}

TEST(FlworParserTest, NestedConstructors) {
  auto e = Parse("for $x in //a return <r><inner>text</inner>{ $x }</r>");
  const Constructor& c = *e->flwor->ret->ctor;
  ASSERT_EQ(c.items.size(), 2u);
  EXPECT_EQ(c.items[0].kind, ConstructorItem::Kind::kElement);
  EXPECT_EQ(c.items[0].expr->ctor->name, "inner");
  EXPECT_EQ(c.items[0].expr->ctor->items[0].kind,
            ConstructorItem::Kind::kText);
  EXPECT_EQ(c.items[0].expr->ctor->items[0].text, "text");
  EXPECT_EQ(c.items[1].kind, ConstructorItem::Kind::kExpr);
}

TEST(FlworParserTest, ConstructorWithAttributes) {
  auto e = Parse(R"(<r kind="x">{ //a }</r>)");
  ASSERT_EQ(e->kind, Expr::Kind::kConstructor);
  ASSERT_EQ(e->ctor->attributes.size(), 1u);
  EXPECT_EQ(e->ctor->attributes[0].first, "kind");
  EXPECT_EQ(e->ctor->attributes[0].second, "x");
}

TEST(FlworParserTest, SelfClosingConstructor) {
  auto e = Parse("<empty/>");
  ASSERT_EQ(e->kind, Expr::Kind::kConstructor);
  EXPECT_TRUE(e->ctor->items.empty());
}

TEST(FlworParserTest, MultipleForClauses) {
  auto e = Parse(
      "for $a in //x for $b in //y where $a << $b return <p>{ $a }</p>");
  EXPECT_EQ(e->flwor->bindings.size(), 2u);
}

// -- Errors -------------------------------------------------------------------

TEST(FlworParserTest, ErrorMissingReturn) {
  EXPECT_FALSE(ParseQuery("for $x in //a").ok());
}

TEST(FlworParserTest, ResolvesVariablesToSlots) {
  // Each binding takes the next slot (outer FLWORs included); a reference
  // reads the innermost binding of its name, so the second $a shadows the
  // first from the binding after it on.
  auto e = Parse(
      "for $a in //g for $a in $a/k let $b := $a/m "
      "order by $b return <o>{for $c in $b/x where $c = $a return $a}</o>");
  ASSERT_NE(e, nullptr);
  const Flwor& f = *e->flwor;
  ASSERT_EQ(f.bindings.size(), 3u);
  EXPECT_EQ(f.bindings[0].var_slot, 0u);
  EXPECT_EQ(f.bindings[1].var_slot, 1u);
  EXPECT_EQ(f.bindings[1].path.var_slot, 0u);
  EXPECT_EQ(f.bindings[2].var_slot, 2u);
  EXPECT_EQ(f.bindings[2].path.var_slot, 1u);
  EXPECT_EQ(f.order_by->var_slot, 2u);
  const Flwor& inner = *f.ret->ctor->items[0].expr->flwor;
  EXPECT_EQ(inner.bindings[0].var_slot, 3u);
  EXPECT_EQ(inner.bindings[0].path.var_slot, 2u);
  EXPECT_EQ(inner.where->left.path.var_slot, 3u);
  EXPECT_EQ(inner.where->right.path.var_slot, 1u);
  EXPECT_EQ(inner.ret->path.var_slot, 1u);
  // A FLWOR's variables leave scope after its return expression.
  auto sibling = Parse(
      "<r>{for $a in //g return $a}{for $b in //h return $b}</r>");
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(sibling->ctor->items[1].expr->flwor->bindings[0].var_slot, 0u);
  EXPECT_EQ(ParseQuery("<r>{for $a in //g return $a}{$a}</r>").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FlworParserTest, ErrorVariableInPredicate) {
  EXPECT_FALSE(ParseQuery("for $a in //g return //k[$a]").ok());
}

TEST(FlworParserTest, ErrorMissingIn) {
  EXPECT_FALSE(ParseQuery("for $x //a return $x").ok());
}

TEST(FlworParserTest, ErrorBadVariable) {
  EXPECT_FALSE(ParseQuery("for x in //a return x").ok());
}

TEST(FlworParserTest, ErrorUnbalancedConstructor) {
  EXPECT_FALSE(ParseQuery("<a>{ //b }</c>").ok());
}

TEST(FlworParserTest, ErrorUnterminatedEmbedded) {
  EXPECT_FALSE(ParseQuery("<a>{ //b </a>").ok());
}

TEST(FlworParserTest, ErrorTrailingInput) {
  EXPECT_FALSE(ParseQuery("//a extra").ok());
}

TEST(FlworParserTest, ErrorWhereWithoutComparison) {
  EXPECT_FALSE(ParseQuery("for $x in //a where return $x").ok());
}

// Regression (fuzz corpus: flwor/deep_parens.txt): ~100k-deep nesting once
// recursed ParseBool/ParsePrimary off the stack; the depth guard now
// rejects it with a clean error.
TEST(FlworParserTest, DeeplyNestedParensRejectedNotCrash) {
  const size_t kDepth = 100'000;
  std::string q = "for $x in /a where ";
  q.append(kDepth, '(');
  q += "$x = \"1\"";
  q.append(kDepth, ')');
  q += " return $x";
  auto r = ParseQuery(q);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("depth"), std::string::npos)
      << r.status().ToString();
}

TEST(FlworParserTest, NestingWithinDepthLimitParses) {
  std::string q = "for $x in /a where ";
  q.append(50, '(');
  q += "$x = \"1\"";
  q.append(50, ')');
  q += " return $x";
  auto r = ParseQuery(q);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(FlworParserTest, InputSizeLimitRejectsOversizedQuery) {
  util::ParseLimits limits;
  limits.max_input_bytes = 8;
  auto r = ParseQuery("for $x in /a return $x", limits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace flwor
}  // namespace blossomtree
