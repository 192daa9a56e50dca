// Unit tests for the XQuery parser: AST shapes, precedence, paths and
// abbreviations, predicates, constructors (with AVTs and escapes),
// FLWOR/quantifier binding lists, prolog declarations, and errors.
#include <gtest/gtest.h>

#include "xquery/parser.h"

namespace exrquy {
namespace {

ExprPtr MustParse(const std::string& text) {
  Result<ExprPtr> r = ParseExpression(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.ok() ? std::move(r).value() : nullptr;
}

// Round-trip through ExprToString is a compact way to pin AST shapes.
std::string Shape(const std::string& text) {
  ExprPtr e = MustParse(text);
  return e ? ExprToString(*e) : "<parse error>";
}

TEST(ParserTest, Literals) {
  EXPECT_EQ(Shape("42"), "42");
  EXPECT_EQ(Shape("\"hi\""), "\"hi\"");
  EXPECT_EQ(Shape("()"), "()");
}

TEST(ParserTest, ArithmeticPrecedence) {
  EXPECT_EQ(Shape("1 + 2 * 3"), "(1 + (2 * 3))");
  EXPECT_EQ(Shape("(1 + 2) * 3"), "((1 + 2) * 3)");
  EXPECT_EQ(Shape("1 - 2 - 3"), "((1 - 2) - 3)");
  EXPECT_EQ(Shape("6 idiv 2 mod 2"), "((6 idiv 2) mod 2)");
  EXPECT_EQ(Shape("-1 + 2"), "(-(1) + 2)");
}

TEST(ParserTest, ComparisonKinds) {
  ExprPtr gen = MustParse("$a = $b");
  EXPECT_EQ(gen->kind, ExprKind::kGeneralComp);
  ExprPtr val = MustParse("$a eq $b");
  EXPECT_EQ(val->kind, ExprKind::kValueComp);
  ExprPtr node = MustParse("$a << $b");
  EXPECT_EQ(node->kind, ExprKind::kNodeComp);
  EXPECT_EQ(node->op, BinOp::kBefore);
  ExprPtr is = MustParse("$a is $b");
  EXPECT_EQ(is->op, BinOp::kIs);
}

TEST(ParserTest, ComparisonBindsLooserThanArithmetic) {
  EXPECT_EQ(Shape("$a > 5 + 3"), "($a > (5 + 3))");
}

TEST(ParserTest, LogicalPrecedence) {
  EXPECT_EQ(Shape("$a or $b and $c"), "($a or ($b and $c))");
}

TEST(ParserTest, SetOpsPrecedence) {
  // union binds tighter than '*'; intersect tighter than union.
  ExprPtr e = MustParse("$a | $b intersect $c");
  EXPECT_EQ(e->kind, ExprKind::kSetOp);
  EXPECT_EQ(e->op, BinOp::kUnion);
  EXPECT_EQ(e->children[1]->op, BinOp::kIntersect);
}

TEST(ParserTest, PathSteps) {
  EXPECT_EQ(Shape("$a/b/c"), "$a/child::b/child::c");
  EXPECT_EQ(Shape("$a/@id"), "$a/attribute::id");
  EXPECT_EQ(Shape("$a/.."), "$a/parent::node()");
  EXPECT_EQ(Shape("$a/*"), "$a/child::*");
  EXPECT_EQ(Shape("$a/text()"), "$a/child::text()");
  EXPECT_EQ(Shape("$a/node()"), "$a/child::node()");
}

TEST(ParserTest, ExplicitAxes) {
  EXPECT_EQ(Shape("$a/descendant::x"), "$a/descendant::x");
  EXPECT_EQ(Shape("$a/ancestor-or-self::*"), "$a/ancestor-or-self::*");
  EXPECT_EQ(Shape("$a/following-sibling::y"), "$a/following-sibling::y");
}

TEST(ParserTest, DoubleSlashDesugars) {
  EXPECT_EQ(Shape("$a//c"), "$a/descendant-or-self::node()/child::c");
}

TEST(ParserTest, RelativePathUsesContextItem) {
  EXPECT_EQ(Shape("$a/b[c/@id = 1]"),
            "$a/child::b[(./child::c/attribute::id = 1)]");
}

TEST(ParserTest, ParenthesizedFilterStep) {
  EXPECT_EQ(Shape("$a//(c|d)"),
            "$a/descendant-or-self::node()/((./child::c | ./child::d))");
}

TEST(ParserTest, Predicates) {
  EXPECT_EQ(Shape("$a/b[1]"), "$a/child::b[1]");
  EXPECT_EQ(Shape("$a/b[last()]"), "$a/child::b[last()]");
  EXPECT_EQ(Shape("$a/b[1][2]"), "$a/child::b[1][2]");
  EXPECT_EQ(Shape("($a//b)[2]"), "$a/descendant-or-self::node()/child::b[2]");
}

TEST(ParserTest, FlworFull) {
  ExprPtr e = MustParse(
      "for $x at $p in $s let $y := $x + 1 where $y > 2 "
      "order by $y descending return ($x, $y)");
  ASSERT_EQ(e->kind, ExprKind::kFlwor);
  ASSERT_EQ(e->clauses.size(), 2u);
  EXPECT_EQ(e->clauses[0].kind, FlworClause::Kind::kFor);
  EXPECT_EQ(e->clauses[0].var, "x");
  EXPECT_EQ(e->clauses[0].pos_var, "p");
  EXPECT_EQ(e->clauses[1].kind, FlworClause::Kind::kLet);
  ASSERT_TRUE(e->where != nullptr);
  ASSERT_EQ(e->order_by.size(), 1u);
  EXPECT_TRUE(e->order_by[0].descending);
}

TEST(ParserTest, FlworMultiBinding) {
  ExprPtr e = MustParse("for $a in (1), $b in (2) return $a + $b");
  ASSERT_EQ(e->clauses.size(), 2u);
  EXPECT_EQ(e->clauses[1].var, "b");
}

TEST(ParserTest, CommaAfterReturnIsSequence) {
  ExprPtr e = MustParse("(for $x in (1) return $x, 3)");
  ASSERT_EQ(e->kind, ExprKind::kSequence);
  EXPECT_EQ(e->children[0]->kind, ExprKind::kFlwor);
  EXPECT_EQ(e->children[1]->kind, ExprKind::kIntLit);
}

TEST(ParserTest, QuantifiersDesugarMultipleBinders) {
  ExprPtr e = MustParse("some $a in (1), $b in (2) satisfies $a = $b");
  ASSERT_EQ(e->kind, ExprKind::kQuantified);
  EXPECT_EQ(e->string_value, "a");
  EXPECT_EQ(e->children[1]->kind, ExprKind::kQuantified);
  EXPECT_EQ(e->children[1]->string_value, "b");
}

TEST(ParserTest, EveryMarkedWithAnd) {
  ExprPtr e = MustParse("every $a in (1) satisfies $a > 0");
  EXPECT_EQ(e->op, BinOp::kAnd);
}

TEST(ParserTest, IfThenElse) {
  ExprPtr e = MustParse("if ($a) then 1 else 2");
  ASSERT_EQ(e->kind, ExprKind::kIf);
  ASSERT_EQ(e->children.size(), 3u);
}

TEST(ParserTest, FunctionCallsNormalizeFnPrefix) {
  ExprPtr e = MustParse("fn:count((1,2))");
  EXPECT_EQ(e->kind, ExprKind::kFunctionCall);
  EXPECT_EQ(e->string_value, "count");
  ExprPtr l = MustParse("local:f(1, 2)");
  EXPECT_EQ(l->string_value, "local:f");
  EXPECT_EQ(l->children.size(), 2u);
}

TEST(ParserTest, OrderedUnorderedExpr) {
  ExprPtr e = MustParse("unordered { $a }");
  ASSERT_EQ(e->kind, ExprKind::kOrderedExpr);
  EXPECT_EQ(e->mode, OrderingMode::kUnordered);
  ExprPtr o = MustParse("ordered { $a }");
  EXPECT_EQ(o->mode, OrderingMode::kOrdered);
}

TEST(ParserTest, ElementCtorBasic) {
  ExprPtr e = MustParse("<a/>");
  ASSERT_EQ(e->kind, ExprKind::kElementCtor);
  EXPECT_EQ(e->string_value, "a");
  EXPECT_TRUE(e->parts.empty());
}

TEST(ParserTest, ElementCtorWithContent) {
  ExprPtr e = MustParse("<a>text {$x} more <b/>{1+1}</a>");
  ASSERT_EQ(e->kind, ExprKind::kElementCtor);
  ASSERT_EQ(e->parts.size(), 5u);
  EXPECT_EQ(e->parts[0].text, "text ");
  EXPECT_EQ(e->parts[1].expr->kind, ExprKind::kVarRef);
  EXPECT_EQ(e->parts[2].text, " more ");
  EXPECT_EQ(e->parts[3].expr->kind, ExprKind::kElementCtor);
  EXPECT_EQ(e->parts[4].expr->kind, ExprKind::kArith);
}

TEST(ParserTest, ElementCtorAttributes) {
  ExprPtr e = MustParse(R"(<a id="x{$i}y" class="fixed"/>)");
  ASSERT_EQ(e->children.size(), 2u);
  const Expr& id = *e->children[0];
  EXPECT_EQ(id.kind, ExprKind::kAttributeCtor);
  ASSERT_EQ(id.parts.size(), 3u);
  EXPECT_EQ(id.parts[0].text, "x");
  EXPECT_EQ(id.parts[1].expr->kind, ExprKind::kVarRef);
  EXPECT_EQ(id.parts[2].text, "y");
  EXPECT_EQ(e->children[1]->parts[0].text, "fixed");
}

TEST(ParserTest, CtorBraceEscapes) {
  ExprPtr e = MustParse(R"(<a k="{{not-expr}}">lit {{x}}</a>)");
  EXPECT_EQ(e->children[0]->parts[0].text, "{not-expr}");
  EXPECT_EQ(e->parts[0].text, "lit {x}");
}

TEST(ParserTest, CtorBoundaryWhitespaceStripped) {
  ExprPtr e = MustParse("<a>  <b/>  </a>");
  ASSERT_EQ(e->parts.size(), 1u);
  EXPECT_EQ(e->parts[0].expr->kind, ExprKind::kElementCtor);
}

TEST(ParserTest, CtorEntityDecoding) {
  ExprPtr e = MustParse("<a>&lt;x&gt;</a>");
  ASSERT_EQ(e->parts.size(), 1u);
  EXPECT_EQ(e->parts[0].text, "<x>");
  // Element content and attribute values reject malformed references,
  // as an XML document does.
  for (const char* q : {"<a>&foo;</a>", "<a>a&b</a>", R"(<a x="&#0;"/>)",
                        R"(<a x="{1}&#12a;"/>)"}) {
    Result<Query> r = ParseQuery(q);
    ASSERT_FALSE(r.ok()) << q;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << q;
  }
}

TEST(ParserTest, NestedCtorAndExprInterleaving) {
  ExprPtr e = MustParse("<a><b>{ <c>{$v}</c> }</b></a>");
  ASSERT_EQ(e->parts.size(), 1u);
  const Expr& b = *e->parts[0].expr;
  ASSERT_EQ(b.parts.size(), 1u);
  EXPECT_EQ(b.parts[0].expr->kind, ExprKind::kElementCtor);
}

TEST(ParserTest, TextConstructor) {
  ExprPtr e = MustParse("text { \"abc\" }");
  EXPECT_EQ(e->kind, ExprKind::kTextCtor);
}

TEST(ParserTest, PrologOrderingAndFunctions) {
  Result<Query> q = ParseQuery(
      "declare ordering unordered; "
      "declare function local:f($a, $b) { $a + $b }; "
      "local:f(1, 2)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->has_ordering_decl);
  EXPECT_EQ(q->default_ordering, OrderingMode::kUnordered);
  ASSERT_EQ(q->functions.size(), 1u);
  EXPECT_EQ(q->functions[0].name, "local:f");
  EXPECT_EQ(q->functions[0].params,
            (std::vector<std::string>{"a", "b"}));
}

TEST(ParserTest, PrologTypeAnnotationsSkipped) {
  Result<Query> q = ParseQuery(
      "declare function local:f($a as xs:integer) as xs:integer { $a }; "
      "local:f(1)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->functions[0].params.size(), 1u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseExpression("for $x in").ok());
  EXPECT_FALSE(ParseExpression("1 +").ok());
  EXPECT_FALSE(ParseExpression("<a><b></a>").ok());
  EXPECT_FALSE(ParseExpression("$x[").ok());
  EXPECT_FALSE(ParseExpression("if (1) then 2").ok());
  EXPECT_FALSE(ParseExpression("/a").ok());  // absolute paths unsupported
  EXPECT_FALSE(ParseExpression("1 2").ok());
}

TEST(ParserTest, RobustAgainstGarbage) {
  // Random byte soup must produce a Status, never a crash or hang. The
  // generator biases toward XQuery-ish characters to reach deeper states.
  const char kAlphabet[] =
      "abcxyz $./@[]{}()<>\"'=!:;,*|+-0123456789 forletinreturn";
  uint64_t state = 0xfeed;
  auto next = [&] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 500; ++i) {
    std::string text;
    size_t len = next() % 60;
    for (size_t c = 0; c < len; ++c) {
      text += kAlphabet[next() % (sizeof(kAlphabet) - 1)];
    }
    Result<Query> r = ParseQuery(text);
    (void)r;  // ok or error — both fine; no crash is the assertion
  }
  SUCCEED();
}

TEST(ParserTest, RobustAgainstTruncations) {
  // Every prefix of a complex query must parse or fail cleanly.
  const std::string query =
      R"(declare function local:f($a) { $a + 1 };
         for $x at $p in doc("d.xml")//item[@k = "v"][2]
         let $y := <e a="{ $x }">t{ local:f($p) }</e>
         where some $z in (1 to 5) satisfies $z = $p
         order by $y descending
         return unordered { ($y, $x/.., $x//text()) })";
  for (size_t len = 0; len <= query.size(); ++len) {
    Result<Query> r = ParseQuery(query.substr(0, len));
    (void)r;
  }
  SUCCEED();
}

TEST(ParserTest, CloneProducesEqualShape) {
  ExprPtr e = MustParse(
      "for $x in $s where $x > 1 order by $x return <a k=\"{$x}\">{$x}</a>");
  ExprPtr c = CloneExpr(*e);
  EXPECT_EQ(ExprToString(*e), ExprToString(*c));
}

}  // namespace
}  // namespace exrquy
