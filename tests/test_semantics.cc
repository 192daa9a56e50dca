// A broad XQuery semantics battery run through the full pipeline,
// parameterized over the two experimental configurations in ordered mode
// (whose results must be identical). Covers FLWOR nesting, predicates,
// quantifiers, comparisons, arithmetic/atomization, string functions,
// constructors, set operations, axes, conditionals, ordering, and
// dynamic errors.
#include <gtest/gtest.h>

#include "api/session.h"

namespace exrquy {
namespace {

constexpr char kDoc[] = R"(
<library>
  <book id="b1" year="2003"><title>Staircase Join</title>
    <authors><author>Grust</author><author>van Keulen</author>
      <author>Teubner</author></authors>
    <price>12.50</price></book>
  <book id="b2" year="2004"><title>XQuery on SQL Hosts</title>
    <authors><author>Grust</author><author>Sakr</author>
      <author>Teubner</author></authors>
    <price>8.75</price></book>
  <book id="b3" year="2007"><title>eXrQuy</title>
    <authors><author>Grust</author><author>Rittinger</author>
      <author>Teubner</author></authors>
    <price>10</price></book>
  <journal id="j1"><title>VLDB Journal</title></journal>
</library>)";

// Param: exploit order indifference (in ordered mode) or not — results
// must be identical either way.
class SemanticsTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(session_.LoadDocument("lib.xml", kDoc).ok());
  }

  QueryOptions Opts() {
    QueryOptions o;
    o.enable_order_indifference = GetParam();
    o.default_ordering = OrderingMode::kOrdered;
    return o;
  }

  std::string Run(const std::string& query) {
    Result<QueryResult> r = session_.Execute(query, Opts());
    EXPECT_TRUE(r.ok()) << query << "\n  " << r.status().ToString();
    return r.ok() ? r->serialized : "<error>";
  }

  Status RunError(const std::string& query) {
    Result<QueryResult> r = session_.Execute(query, Opts());
    EXPECT_FALSE(r.ok()) << query;
    return r.ok() ? Status::Ok() : r.status();
  }

  Session session_;
};

TEST_P(SemanticsTest, NestedFlworWithLets) {
  EXPECT_EQ(Run(R"(
    for $b in doc("lib.xml")/library/book
    let $n := count($b/authors/author)
    let $t := $b/title/text()
    where $n >= 3
    return <r n="{ $n }">{ $t }</r>)"),
            "<r n=\"3\">Staircase Join</r>"
            "<r n=\"3\">XQuery on SQL Hosts</r>"
            "<r n=\"3\">eXrQuy</r>");
}

TEST_P(SemanticsTest, NestedForCrossProductOrder) {
  EXPECT_EQ(Run("for $x in (1,2) for $y in (10,20) return $x * $y"),
            "10 20 20 40");
}

TEST_P(SemanticsTest, LetBindsSequenceNotIteration) {
  EXPECT_EQ(Run("let $s := (1,2,3) return count($s)"), "3");
  EXPECT_EQ(Run("for $x in (1,2) let $s := ($x, $x) return count($s)"),
            "2 2");
}

TEST_P(SemanticsTest, PredicateBooleanWithPaths) {
  EXPECT_EQ(Run(R"(
    for $b in doc("lib.xml")/library/book[authors/author = "Sakr"]
    return $b/@id)"),
            "id=\"b2\"");
}

TEST_P(SemanticsTest, PredicatePositional) {
  EXPECT_EQ(Run(R"((doc("lib.xml")//author)[1]/text())"), "Grust");
  EXPECT_EQ(Run(R"((doc("lib.xml")//book)[last()]/title/text())"),
            "eXrQuy");
  EXPECT_EQ(Run(R"(doc("lib.xml")//book[2]/@id)"), "id=\"b2\"");
}

TEST_P(SemanticsTest, PredicateChained) {
  EXPECT_EQ(Run(R"(doc("lib.xml")//author[. = "Grust"][2]/../../@id)"),
            "id=\"b2\"");
}

TEST_P(SemanticsTest, PredicateComparingAttribute) {
  EXPECT_EQ(Run(R"(doc("lib.xml")//book[@year > 2003]/@id)"),
            "id=\"b2\" id=\"b3\"");
}

TEST_P(SemanticsTest, QuantifiersNested) {
  EXPECT_EQ(Run(R"(
    some $b in doc("lib.xml")//book satisfies
      every $a in $b/authors/author satisfies string-length($a) > 4)"),
            "true");
  EXPECT_EQ(Run(R"(
    every $b in doc("lib.xml")//book satisfies $b/price > 9)"), "false");
}

TEST_P(SemanticsTest, GeneralComparisonExistential) {
  EXPECT_EQ(Run(R"(doc("lib.xml")//price > 12)"), "true");
  EXPECT_EQ(Run(R"(doc("lib.xml")//price > 13)"), "false");
  EXPECT_EQ(Run("() = ()"), "false");
  EXPECT_EQ(Run("(1,2) != (1,2)"), "true");  // existential pairs
}

TEST_P(SemanticsTest, ArithmeticOnAtomizedNodes) {
  EXPECT_EQ(Run(R"(sum(doc("lib.xml")//price))"), "31.25");
  EXPECT_EQ(Run(R"(avg(doc("lib.xml")//price) * 3)"), "31.25");
  EXPECT_EQ(Run(R"(max(doc("lib.xml")//price))"), "12.5");
  EXPECT_EQ(Run(R"(min(doc("lib.xml")//price))"), "8.75");
}

TEST_P(SemanticsTest, EmptySequenceArithmetic) {
  EXPECT_EQ(Run(R"(doc("lib.xml")//journal/price * 2)"), "");
  EXPECT_EQ(Run("() + 1"), "");
}

TEST_P(SemanticsTest, StringFunctions) {
  EXPECT_EQ(Run(R"(contains("staircase", "stair"))"), "true");
  EXPECT_EQ(Run(R"(contains("abc", "x"))"), "false");
  EXPECT_EQ(Run(R"(concat("a", "b", 3))"), "ab3");
  EXPECT_EQ(Run(R"(string-length("hello"))"), "5");
  EXPECT_EQ(Run(R"(string(doc("lib.xml")//book[3]/price))"), "10");
  EXPECT_EQ(Run(R"(number("2.5") * 2)"), "5");
}

TEST_P(SemanticsTest, BooleanFunctions) {
  EXPECT_EQ(Run("not(1 = 2)"), "true");
  EXPECT_EQ(Run("boolean((0))"), "false");
  EXPECT_EQ(Run(R"(boolean(doc("lib.xml")//journal))"), "true");
  EXPECT_EQ(Run("true() and false()"), "false");
  EXPECT_EQ(Run("true() or false()"), "true");
}

TEST_P(SemanticsTest, DistinctValues) {
  Result<QueryResult> r = session_.Execute(
      R"(count(distinct-values(doc("lib.xml")//author)))", Opts());
  ASSERT_TRUE(r.ok());
  // Grust, van Keulen, Teubner, Sakr, Rittinger.
  EXPECT_EQ(r->serialized, "5");
}

TEST_P(SemanticsTest, DataAtomizes) {
  EXPECT_EQ(Run(R"(data(doc("lib.xml")//book[1]/@year) + 1)"), "2004");
}

TEST_P(SemanticsTest, SetOperations) {
  EXPECT_EQ(Run(R"(count(doc("lib.xml")//book | doc("lib.xml")//journal))"),
            "4");
  EXPECT_EQ(Run(R"(count(doc("lib.xml")//book | doc("lib.xml")//book))"),
            "3");
  EXPECT_EQ(Run(R"(count(doc("lib.xml")//* intersect doc("lib.xml")//book))"),
            "3");
  EXPECT_EQ(
      Run(R"(count(doc("lib.xml")/library/* except doc("lib.xml")//book))"),
      "1");
}

TEST_P(SemanticsTest, AxesBeyondChildDescendant) {
  EXPECT_EQ(Run(R"(count(doc("lib.xml")//author/parent::authors))"), "3");
  EXPECT_EQ(
      Run(R"(count((doc("lib.xml")//author)[1]/ancestor::*))"), "3");
  EXPECT_EQ(
      Run(R"(doc("lib.xml")//book[1]/following-sibling::book[1]/@id)"),
      "id=\"b2\"");
  EXPECT_EQ(Run(R"(doc("lib.xml")//journal/preceding-sibling::book[1]/@id)"),
            "id=\"b1\"");
  EXPECT_EQ(Run(R"(count(doc("lib.xml")//journal/preceding::author))"), "9");
  EXPECT_EQ(Run(R"(count(doc("lib.xml")//book[3]/following::*))"), "2");
  EXPECT_EQ(Run(R"(count(doc("lib.xml")//price/self::price))"), "3");
}

TEST_P(SemanticsTest, ConditionalsInsideIteration) {
  EXPECT_EQ(Run(R"(
    for $b in doc("lib.xml")/library/book
    return if ($b/price > 10) then "pricey" else "fair")"),
            "pricey fair fair");
  EXPECT_EQ(Run("if (()) then 1 else 2"), "2");
}

TEST_P(SemanticsTest, ConstructorsNestedWithAttributes) {
  EXPECT_EQ(Run(R"(
    <shelf n="{ count(doc("lib.xml")//book) }">
      <top>{ doc("lib.xml")//book[1]/title/text() }</top>
    </shelf>)"),
            "<shelf n=\"3\"><top>Staircase Join</top></shelf>");
}

TEST_P(SemanticsTest, ConstructorCopiesSubtrees) {
  // The copied book keeps its structure; the original is unchanged.
  EXPECT_EQ(Run(R"(
    let $c := <copy>{ doc("lib.xml")//book[3] }</copy>
    return ($c/book/@id, count(doc("lib.xml")//book)))"),
            "id=\"b3\" 3");
}

TEST_P(SemanticsTest, ConstructorAtomicContentJoining) {
  EXPECT_EQ(Run("<e>{ 1, 2, \"x\" }</e>"), "<e>1 2 x</e>");
  EXPECT_EQ(Run("<e>a{ 1 }b</e>"), "<e>a1b</e>");
}

TEST_P(SemanticsTest, AttributeValueTemplates) {
  EXPECT_EQ(Run(R"(<e a="x{ 1 + 1 }y" b="{ (1,2,3) }"/>)"),
            "<e a=\"x2y\" b=\"1 2 3\"/>");
  EXPECT_EQ(Run(R"(<e empty="{ () }"/>)"), "<e empty=\"\"/>");
}

TEST_P(SemanticsTest, TextConstructor) {
  EXPECT_EQ(Run("<e>{ text { \"ab\" } }</e>"), "<e>ab</e>");
}

TEST_P(SemanticsTest, NodeIdentityAndOrder) {
  EXPECT_EQ(Run(R"(
    let $b := doc("lib.xml")//book[1]
    return ($b is $b, $b is doc("lib.xml")//book[1],
            $b << doc("lib.xml")//journal))"),
            "true true true");
  // Constructed nodes have fresh identity.
  EXPECT_EQ(Run("let $a := <x/> let $b := <x/> return $a is $b"), "false");
  EXPECT_EQ(Run("let $a := <x/> return $a is $a"), "true");
}

TEST_P(SemanticsTest, OrderByVariants) {
  EXPECT_EQ(Run(R"(
    for $b in doc("lib.xml")/library/book
    order by number($b/price) return $b/@id)"),
            "id=\"b2\" id=\"b3\" id=\"b1\"");
  EXPECT_EQ(Run(R"(
    for $b in doc("lib.xml")/library/book
    order by number($b/price) descending return $b/@id)"),
            "id=\"b1\" id=\"b3\" id=\"b2\"");
  // String keys sort lexicographically.
  EXPECT_EQ(Run(R"(
    for $b in doc("lib.xml")/library/book
    order by $b/title return ($b/title/text())[1])"),
            "Staircase Join XQuery on SQL Hosts eXrQuy");
}

TEST_P(SemanticsTest, OrderByTwoKeys) {
  EXPECT_EQ(Run(R"(
    for $x in (3, 1, 2, 1)
    order by $x mod 2, $x return $x)"),
            "2 1 1 3");
}

TEST_P(SemanticsTest, UserFunctions) {
  EXPECT_EQ(Run(R"(
    declare function local:tax($p) { $p * 1.2 };
    sum(for $b in doc("lib.xml")//book return local:tax($b/price)))"),
            "37.5");
}

TEST_P(SemanticsTest, SequenceFlattening) {
  EXPECT_EQ(Run("((1, (2, 3)), 4)"), "1 2 3 4");
  EXPECT_EQ(Run("count(((1,2), (), (3)))"), "3");
}

TEST_P(SemanticsTest, DynamicErrors) {
  EXPECT_EQ(RunError("1 idiv 0").code(), StatusCode::kTypeError);
  EXPECT_EQ(RunError(R"("a" + 1)").code(), StatusCode::kTypeError);
  EXPECT_EQ(RunError("data(<a>nope</a>) + 1").code(),
            StatusCode::kTypeError);
  EXPECT_EQ(RunError(R"(doc("unknown.xml"))").code(), StatusCode::kNotFound);
  EXPECT_EQ(RunError("(1)/a").code(), StatusCode::kTypeError);
  // EBV of a multi-item atomic sequence.
  EXPECT_EQ(RunError("if ((1,2)) then 1 else 2").code(),
            StatusCode::kTypeError);
}

TEST_P(SemanticsTest, WhereOverEmptyBindingYieldsEmpty) {
  EXPECT_EQ(Run("for $x in () where $x > 1 return $x"), "");
  EXPECT_EQ(Run("count(for $x in (1,2) where $x > 9 return $x)"), "0");
}

TEST_P(SemanticsTest, CountOnEmptyPerIteration) {
  EXPECT_EQ(Run(R"(
    for $b in doc("lib.xml")/library/*
    return count($b/authors/author))"),
            "3 3 3 0");
}

INSTANTIATE_TEST_SUITE_P(Configs, SemanticsTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "exploit" : "baseline";
                         });

}  // namespace
}  // namespace exrquy
