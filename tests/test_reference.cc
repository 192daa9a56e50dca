// Differential testing: the independent tree-walking reference
// interpreter (src/ref/) against the full algebraic pipeline (compiler +
// rewriter + columnar engine) in the baseline ordered-mode configuration.
// Exact result-sequence equality is required; any divergence localizes a
// bug in one of the two stacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "ref/interp.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"

namespace exrquy {
namespace {

constexpr char kDoc[] = R"(
<shop>
  <dept id="d1" floor="2">
    <item price="12"><name>lamp</name><tag>home</tag></item>
    <item price="7"><name>mug</name></item>
  </dept>
  <dept id="d2" floor="1">
    <item price="30"><name>chair</name><tag>home</tag><tag>wood</tag></item>
  </dept>
  <dept id="d3" floor="2"/>
</shop>)";

class ReferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(session_.LoadDocument("s.xml", kDoc).ok());
    ASSERT_TRUE(
        session_.LoadDocument("t.xml", "<a><b><c/><d/></b><c/></a>").ok());
  }

  // Runs via the reference interpreter (normalized, ordered semantics).
  Result<std::vector<std::string>> RunRef(const std::string& query) {
    EXRQUY_ASSIGN_OR_RETURN(Query parsed, ParseQuery(query));
    NormalizeOptions norm;
    norm.insert_unordered = false;
    EXRQUY_RETURN_IF_ERROR(Normalize(&parsed, norm));
    std::map<StrId, NodeIdx> docs;
    docs[session_.strings().Intern("s.xml")] =
        session_.store().fragment(0).root;
    docs[session_.strings().Intern("t.xml")] =
        session_.store().fragment(1).root;
    RefInterpreter interp(&session_.store(), &session_.strings(), docs);
    EXRQUY_ASSIGN_OR_RETURN(std::vector<Value> items, interp.Eval(*parsed.body));
    return interp.Render(items);
  }

  void ExpectAgree(const std::string& query) {
    QueryOptions baseline;
    baseline.enable_order_indifference = false;
    Result<QueryResult> compiled = session_.Execute(query, baseline);
    Result<std::vector<std::string>> ref = RunRef(query);
    ASSERT_EQ(compiled.ok(), ref.ok())
        << query << "\ncompiled: " << compiled.status().ToString()
        << "\nref:      " << ref.status().ToString();
    if (!compiled.ok()) return;
    EXPECT_EQ(compiled->items, *ref) << query;

    // The fully enabled configuration in ordered mode must agree too.
    QueryOptions exploit;
    Result<QueryResult> optimized = session_.Execute(query, exploit);
    ASSERT_TRUE(optimized.ok()) << query;
    if (query.find("distinct-values") == std::string::npos) {
      EXPECT_EQ(optimized->items, *ref) << query << " (optimized)";
    }
  }

  Session session_;
};

TEST_F(ReferenceTest, PathsAndPredicates) {
  ExpectAgree(R"(doc("s.xml")/shop/dept/item/name)");
  ExpectAgree(R"(doc("s.xml")//item[@price > 10]/name/text())");
  ExpectAgree(R"(doc("s.xml")//item[1])");
  ExpectAgree(R"(doc("s.xml")//item[last()])");
  ExpectAgree(R"(doc("s.xml")//item[position() >= 2]/name)");
  ExpectAgree(R"(doc("s.xml")//item[tag = "wood"])");
  ExpectAgree(R"(doc("s.xml")//dept[not(item)]/@id)");
  ExpectAgree(R"(doc("s.xml")//tag/..)");
  ExpectAgree(R"(doc("t.xml")//(c|d))");
  ExpectAgree(R"(doc("s.xml")//item/ancestor::dept/@id)");
  ExpectAgree(R"(doc("s.xml")//dept[2]/preceding-sibling::dept)");
  ExpectAgree(R"(doc("s.xml")//name/following::tag)");
}

TEST_F(ReferenceTest, FlworShapes) {
  ExpectAgree(R"(for $d in doc("s.xml")/shop/dept
                 return count($d/item))");
  ExpectAgree(R"(for $d in doc("s.xml")/shop/dept
                 let $n := count($d//tag)
                 where $n > 0
                 return <dept tags="{ $n }">{ $d/@id }</dept>)");
  ExpectAgree(R"(for $d in doc("s.xml")/shop/dept
                 for $i in $d/item
                 return concat($d/@id, ":", $i/name))");
  ExpectAgree(R"(for $i at $p in doc("s.xml")//item
                 return <x p="{ $p }">{ $i/name/text() }</x>)");
  ExpectAgree(R"(for $i in doc("s.xml")//item
                 order by number($i/@price) descending
                 return $i/name/text())");
  ExpectAgree(R"(for $d in doc("s.xml")/shop/dept
                 order by $d/@floor, $d/@id descending
                 return $d/@id)");
}

TEST_F(ReferenceTest, ComparisonsAndLogic) {
  ExpectAgree(R"(doc("s.xml")//item/@price > 20)");
  ExpectAgree(R"(doc("s.xml")//item/@price = 7)");
  ExpectAgree("(1, 2, 3) != (3, 4)");
  ExpectAgree("() = (1)");
  ExpectAgree(R"(doc("s.xml")//item[1] << doc("s.xml")//item[2])");
  ExpectAgree(R"(doc("s.xml")//dept[1] is doc("s.xml")//dept[@id = "d1"])");
  ExpectAgree(R"(exists(doc("s.xml")//tag) and count(doc("s.xml")//tag) > 2)");
  ExpectAgree(R"(some $i in doc("s.xml")//item satisfies $i/@price < 10)");
  ExpectAgree(R"(every $i in doc("s.xml")//item satisfies $i/name)");
}

TEST_F(ReferenceTest, ArithmeticAndAggregates) {
  ExpectAgree(R"(sum(doc("s.xml")//item/@price))");
  ExpectAgree(R"(avg(doc("s.xml")//item/@price))");
  ExpectAgree(R"(max(doc("s.xml")//item/@price))");
  ExpectAgree(R"(min(doc("s.xml")//item/@price) + 0.5)");
  ExpectAgree(R"(count(doc("s.xml")//item) * 10 - 5)");
  ExpectAgree("7 idiv 2");
  ExpectAgree("7 mod 2");
  ExpectAgree("-(3.5) * 2");
  ExpectAgree("() + 1");
  ExpectAgree("sum(())");
  ExpectAgree("sum(1 to 100)");
  ExpectAgree(R"(max(("9", "10", "8")))");
  ExpectAgree(R"(min(doc("s.xml")//name))");
  ExpectAgree("max((9007199254740993, 9007199254740992, 1))");
  ExpectAgree("min((3, 2.5e0, 2))");
  ExpectAgree("max((true(), false()))");
  ExpectAgree(R"(max((1, "a")))");             // both must fail
  ExpectAgree(R"(min((data(<a>x</a>), 1)))");  // both must fail
  ExpectAgree(R"(for $s in ("9", "10", "8") order by $s return $s)");
  ExpectAgree(R"(for $i in doc("s.xml")//item
                 order by $i/name descending return $i/@price)");
  ExpectAgree("for $x in (9007199254740993, 9007199254740992, 1) "
              "order by $x return $x");
}

TEST_F(ReferenceTest, StringsAndBuiltins) {
  ExpectAgree(R"(string-join(doc("s.xml")//name/text(), ", "))");
  ExpectAgree(R"(contains(string(doc("s.xml")//name[1]), "am"))");
  ExpectAgree(R"(upper-case(concat("a", "b", "c")))");
  ExpectAgree(R"(substring("abcdef", 2, 3))");
  ExpectAgree(R"(normalize-space("  x   y "))");
  ExpectAgree(R"(string-length(string(doc("s.xml")//name[2])))");
  ExpectAgree(R"(for $n in doc("s.xml")//dept return name($n))");
  ExpectAgree("reverse((1, 2, 3))");
  ExpectAgree("subsequence((1,2,3,4,5), 2, 3)");
  ExpectAgree(R"(distinct-values(doc("s.xml")//tag))");
  ExpectAgree("floor(2.7) + ceiling(0.1) + round(0.5) + abs(-2)");
}

TEST_F(ReferenceTest, Constructors) {
  ExpectAgree(R"(<r n="{ count(doc("s.xml")//item) }">{
                   doc("s.xml")//item[1]/name }</r>)");
  ExpectAgree(R"(<r>{ 1, "x", 2 }</r>)");
  ExpectAgree(R"(<r>a{ 1 }b</r>)");
  ExpectAgree(R"(<r>{ doc("s.xml")//item[2]/@price }</r>)");
  ExpectAgree("text { \"t\" }");
  ExpectAgree(R"(let $c := <wrap>{ doc("t.xml")/a/b }</wrap>
                 return ($c/b/c, count($c//d)))");
}

TEST_F(ReferenceTest, ConditionalsAndCardinality) {
  ExpectAgree(R"(for $i in doc("s.xml")//item
                 return if ($i/@price > 10) then "x" else "y")");
  ExpectAgree("if (()) then 1 else 2");
  ExpectAgree("zero-or-one(())");
  ExpectAgree("exactly-one(doc(\"s.xml\")/shop)/dept[1]/@id");
  ExpectAgree("exactly-one(())");         // both must fail
  ExpectAgree("one-or-more(())");         // both must fail
  ExpectAgree("1 idiv 0");                // both must fail
  ExpectAgree("\"a\" + 1");               // both must fail
  ExpectAgree("if ((1,2)) then 1 else 2");  // both must fail
}

TEST_F(ReferenceTest, SetOperations) {
  ExpectAgree(R"(doc("s.xml")//item | doc("s.xml")//dept)");
  ExpectAgree(R"(doc("s.xml")//* intersect doc("s.xml")//item)");
  ExpectAgree(R"(doc("s.xml")//dept except doc("s.xml")//dept[item])");
}

// Randomized differential sweep with the same generator family the
// equivalence tests use, but compared against the reference interpreter.
TEST_F(ReferenceTest, RandomizedQueries) {
  uint64_t state = 0x5eed;
  auto next = [&] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 60; ++i) {
    int price = static_cast<int>(next() % 40);
    int k = 1 + static_cast<int>(next() % 3);
    std::string query;
    switch (next() % 6) {
      case 0:
        query = "count(doc(\"s.xml\")//item[@price > " +
                std::to_string(price) + "])";
        break;
      case 1:
        query = "for $d in doc(\"s.xml\")/shop/dept return count($d/item[" +
                std::to_string(k) + "])";
        break;
      case 2:
        query = "doc(\"s.xml\")//item[" + std::to_string(k) + "]/name";
        break;
      case 3:
        query = "sum(doc(\"s.xml\")//item[@price <= " +
                std::to_string(price) + "]/@price)";
        break;
      case 4:
        query = "for $i in doc(\"s.xml\")//item order by number($i/@price) "
                "return concat($i/name, \"-\", " +
                std::to_string(price) + ")";
        break;
      default:
        query = "(doc(\"s.xml\")//tag, doc(\"s.xml\")//name)[" +
                std::to_string(k) + "]";
        break;
    }
    ExpectAgree(query);
  }
}

// Scalar edge cases swept by the correctness pass: both stacks must
// agree on F&O integer semantics — sign rules, exactness past 2^53,
// INT64 boundaries, and the FOAR0001/FOAR0002 error conditions (where
// agreement means both fail).
// NaN is unordered in comparisons and sorts below every number in
// `order by`. Both stacks share ValueOps, so agreement alone proves
// nothing here: each query's literal expected result is asserted on the
// reference interpreter and on the compiled pipeline (baseline and
// optimized), in both ordering modes.
TEST_F(ReferenceTest, NaNIsUnorderedAndSortsFirst) {
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {
          {"(0e0 div 0e0) = 1", {"false"}},
          {"(0e0 div 0e0) != 1", {"true"}},
          {"(0e0 div 0e0) < 1", {"false"}},
          {"(0e0 div 0e0) >= 1", {"false"}},
          {"(0e0 div 0e0) = (0e0 div 0e0)", {"false"}},
          {"(0e0 div 0e0) != (0e0 div 0e0)", {"true"}},
          {"for $x in (3, 2, 0e0 div 0e0, 1, 0) order by $x return $x",
           {"NaN", "0", "1", "2", "3"}},
          {"for $x in (3, 0e0 div 0e0, 2, 0e0 div 0e0, 1) "
           "order by $x descending return $x",
           {"3", "2", "1", "NaN", "NaN"}},
          {"max((1, 0e0 div 0e0, 3))", {"NaN"}},
          {"min((1, 0e0 div 0e0, 3))", {"NaN"}},
      };
  for (const auto& [query, want] : cases) {
    Result<std::vector<std::string>> ref = RunRef(query);
    ASSERT_TRUE(ref.ok()) << query << ": " << ref.status().ToString();
    EXPECT_EQ(*ref, want) << query << " (reference)";
    for (bool baseline : {true, false}) {
      for (OrderingMode mode :
           {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
        QueryOptions o;
        o.enable_order_indifference = !baseline;
        o.default_ordering = mode;
        Result<QueryResult> r = session_.Execute(query, o);
        ASSERT_TRUE(r.ok()) << query << ": " << r.status().ToString();
        EXPECT_EQ(r->items, want)
            << query << (baseline ? " (baseline" : " (optimized")
            << (mode == OrderingMode::kOrdered ? ", ordered)"
                                               : ", unordered)");
      }
    }
  }
}

TEST_F(ReferenceTest, ScalarEdgeCases) {
  // idiv truncation and mod sign rules, all sign combinations.
  ExpectAgree("7 idiv 2");
  ExpectAgree("7 idiv -2");
  ExpectAgree("-7 idiv 2");
  ExpectAgree("-7 idiv -2");
  ExpectAgree("7 mod 2");
  ExpectAgree("7 mod -2");
  ExpectAgree("-7 mod 2");
  ExpectAgree("-7 mod -2");
  // Exactness beyond the double mantissa (pre-fix: idiv lost the +1).
  ExpectAgree("9007199254740993 idiv 1");
  ExpectAgree("9007199254740993 mod 9007199254740992");
  // INT64 boundaries. INT64_MIN has no literal form (the unary minus
  // applies to an out-of-range positive literal), so build it by
  // subtraction.
  ExpectAgree("(-9223372036854775807 - 1) idiv -1");  // FOAR0002 on both
  ExpectAgree("(-9223372036854775807 - 1) mod -1");   // exactly 0 on both
  ExpectAgree("9223372036854775807 + 1");             // FOAR0002 on both
  ExpectAgree("0 - (-9223372036854775807 - 1)");      // FOAR0002 on both
  ExpectAgree("-(-9223372036854775807 - 1)");         // unary negation
  ExpectAgree("3037000500 * 3037000500");             // mul overflow
  // Division by zero, every operator.
  ExpectAgree("1 div 0");
  ExpectAgree("1 idiv 0");
  ExpectAgree("1 mod 0");
  // Double-path idiv: truncation and the NaN/INF/overflow errors.
  ExpectAgree("7.5 idiv 2");
  ExpectAgree("-7.5 idiv 2");
  ExpectAgree("1.0 idiv 0.0");
  ExpectAgree("(1e300 * 1e300) idiv 2");  // INF dividend
  ExpectAgree("1e300 idiv 1.0");          // quotient overflows int64
}

// Spec values (XQuery F&O, XSD) for the numeric edge cases of
// fn:substring, fn:subsequence, fn:abs, fn:round, fn:number, fn:max,
// fn:min, order by keys, negative zero and the xs:double cast, on the
// reference interpreter and on Session::Execute in both ordering modes. The differential tests above cannot see a
// fault both stacks share.
TEST_F(ReferenceTest, NumericEdgeCasesFollowTheSpec) {
  struct Case {
    const char* query;
    std::vector<std::string> items;
    const char* error;  // a substring of the expected failure, or null
  };
  const Case kCases[] = {
      {R"(substring("abcdef", 2, 1 div 0e0))", {"bcdef"}, nullptr},
      {R"(substring("abc", 0 div 0e0))", {""}, nullptr},
      {R"(substring("abcde", -1.5, 4))", {"ab"}, nullptr},
      {R"(substring("abcde", 2.5))", {"cde"}, nullptr},
      {R"(substring("abc", 1, 1e300))", {"abc"}, nullptr},
      {R"(substring("abcde", -1 div 0e0))", {"abcde"}, nullptr},
      {R"(substring("motor car", 6))", {" car"}, nullptr},
      {R"(substring("12345", 1.5, 2.6))", {"234"}, nullptr},
      {R"(substring("12345", 0, 3))", {"12"}, nullptr},
      {R"(substring("12345", 5, -3))", {""}, nullptr},
      {R"(substring("12345", -3, 5))", {"1"}, nullptr},
      {R"(substring("12345", 0 div 0E0, 3))", {""}, nullptr},
      {R"(substring("12345", 1, 0 div 0E0))", {""}, nullptr},
      {R"(substring("12345", -42, 1 div 0E0))", {"12345"}, nullptr},
      {R"(substring("12345", -1 div 0E0, 1 div 0E0))", {""}, nullptr},
      {"subsequence((1, 2, 3), 2, 1 div 0e0)", {"2", "3"}, nullptr},
      {"subsequence((1, 2, 3, 4, 5), -1.5, 4)", {"1", "2"}, nullptr},
      {"subsequence((1, 2, 3, 4, 5), 1.5, 2.6)", {"2", "3", "4"}, nullptr},
      {"subsequence((1, 2, 3), 0 div 0e0)", {}, nullptr},
      {"subsequence((1, 2, 3), -1 div 0e0, 1 div 0e0)", {}, nullptr},
      {"abs(-9223372036854775807 - 1)", {}, "FOAR0002"},
      {"abs(-9223372036854775807)", {"9223372036854775807"}, nullptr},
      {"abs(-3)", {"3"}, nullptr},
      {"round(0.49999999999999994e0)", {"0"}, nullptr},
      {"round(2.5)", {"3"}, nullptr},
      {"round(-2.5)", {"-2"}, nullptr},
      {"round(-2.6)", {"-3"}, nullptr},
      {"round(4503599627370497e0) - 4503599627370496", {"1"}, nullptr},
      // Negative zero: round on [-0.5, 0) returns it, and it renders as
      // -0.
      {"round(-0.3e0)", {"-0"}, nullptr},
      {"round(-0.5e0)", {"-0"}, nullptr},
      {"round(0.3e0)", {"0"}, nullptr},
      {"1 div round(-0.3e0)", {"-INF"}, nullptr},
      {"-0e0", {"-0"}, nullptr},
      {"string(-0e0)", {"-0"}, nullptr},
      // fn:max / fn:min and order by keys: integers compare exactly and
      // stay integers, xs:string is never cast to a number (only
      // untypedAtomic is), a double promotes the result, and values of
      // incomparable types raise.
      {R"(max(("9", "10")))", {"9"}, nullptr},
      {R"(min(("9", "10")))", {"10"}, nullptr},
      {"max((9007199254740993, 9007199254740992))", {"9007199254740993"},
       nullptr},
      {"min((9007199254740993, 9007199254740992))", {"9007199254740992"},
       nullptr},
      {"max((-9223372036854775807 - 1, 9223372036854775807))",
       {"9223372036854775807"}, nullptr},
      {"max((2, 1.5e0)) div 4", {"0.5"}, nullptr},
      {"max((data(<a>10</a>), data(<a>9</a>)))", {"10"}, nullptr},
      {R"(max((1, "a")))", {}, "incomparable"},
      {R"(for $s in ("9", "10", "8") order by $s return $s)",
       {"10", "8", "9"}, nullptr},
      {"for $x in (9007199254740993, 9007199254740992) order by $x "
       "return $x",
       {"9007199254740992", "9007199254740993"}, nullptr},
      {"for $x in (9007199254740993, 9007199254740992) "
       "order by $x descending return $x",
       {"9007199254740993", "9007199254740992"}, nullptr},
      // fn:number is NaN wherever the xs:double cast fails, and on ();
      // the cast accepts only the XSD lexical space (no hex, no "inf").
      // Its argument is xs:anyAtomicType?, so two items raise.
      {R"(number((1, "2")))", {}, "fn:number: argument has 2 item(s)"},
      {R"(number("7"))", {"7"}, nullptr},
      {R"(number("abc"))", {"NaN"}, nullptr},
      {R"(number(""))", {"NaN"}, nullptr},
      {"number(<a/>)", {"NaN"}, nullptr},
      {"number(())", {"NaN"}, nullptr},
      {"count(number(()))", {"1"}, nullptr},
      {R"(number("0x10"))", {"NaN"}, nullptr},
      {R"(number("-0x1p3"))", {"NaN"}, nullptr},
      {R"(number("inf"))", {"NaN"}, nullptr},
      {R"(number("infinity"))", {"NaN"}, nullptr},
      {R"(number("nan"))", {"NaN"}, nullptr},
      {R"(number("1 e3"))", {"NaN"}, nullptr},
      {R"(number("."))", {"NaN"}, nullptr},
      {R"(number("1e"))", {"NaN"}, nullptr},
      {R"(number(" -INF "))", {"-INF"}, nullptr},
      {R"(number("+INF"))", {"INF"}, nullptr},
      {R"(number("NaN"))", {"NaN"}, nullptr},
      {R"(number(" +1.5E1 "))", {"15"}, nullptr},
      {R"(number(".5") * 4)", {"2"}, nullptr},
      {R"(number("5.") + 1)", {"6"}, nullptr},
      {"number(true())", {"1"}, nullptr},
      {"data(<a>0x10</a>) + 1", {}, "FORG0001"},
      {"data(<a>infinity</a>) > 1", {}, "FORG0001"},
      {"data(<a> 12 </a>) + 1", {"13"}, nullptr},
  };
  auto expect = [](const Case& c, const char* who, const Status& status,
                   const std::vector<std::string>& items) {
    if (c.error != nullptr) {
      EXPECT_NE(status.message().find(c.error), std::string::npos)
          << who << ": " << c.query << " -> " << status.ToString();
      return;
    }
    ASSERT_TRUE(status.ok()) << who << ": " << c.query << " -> "
                             << status.ToString();
    EXPECT_EQ(items, c.items) << who << ": " << c.query;
  };
  QueryOptions unordered;
  unordered.default_ordering = OrderingMode::kUnordered;
  for (const Case& c : kCases) {
    Result<std::vector<std::string>> ref = RunRef(c.query);
    expect(c, "reference", ref.status(),
           ref.ok() ? *ref : std::vector<std::string>{});
    for (bool unord : {false, true}) {
      Result<QueryResult> r =
          session_.Execute(c.query, unord ? unordered : QueryOptions{});
      expect(c, unord ? "unordered" : "ordered", r.status(),
             r.ok() ? r->items : std::vector<std::string>{});
    }
  }
}

// Spec values (XQuery 3.12.3, F&O 3.1) for function conversion and order
// by keys: an argument of occurrence exactly-one or `?` that holds
// several items raises XPTY0004 (a cardinality error here); an empty
// xs:string? argument stands for ""; fn:name and fn:string give "" and
// the numeric functions () for (); an order by key is atomized to at
// most one value, an untypedAtomic key compares as xs:string, and an
// empty key sorts least, or greatest under `empty greatest`, with NaN
// just above it under `empty least`. A call with more or fewer arguments
// than its signature row takes is a type error. On the reference
// interpreter and on Session::Execute with order indifference off, on,
// and in unordered mode (where only `order by` fixes the order, so other
// results are compared as multisets).
TEST_F(ReferenceTest, FunctionConversionFollowsTheSpec) {
  struct Case {
    const char* query;
    std::vector<std::string> items;
    StatusCode error;
  };
  constexpr StatusCode kOk = StatusCode::kOk;
  constexpr StatusCode kCard = StatusCode::kCardinalityError;
  const char* kKeys =
      "for $x in (1, 2, 3) order by (if ($x = 2) then () else $x)";
  const char* kNaN =
      "for $x in (1, 2, 3) order by (if ($x = 1) then () else "
      "if ($x = 2) then 0 div 0e0 else 5)";
  const char* kStrKeys =
      R"(for $x in ("b", "a", "c") order by (if ($x = "a") then () else $x))";
  auto q = [](const char* head, const char* tail) {
    return std::string(head) + tail;
  };
  const std::string keyed[] = {
      q(kKeys, " return $x"),
      q(kKeys, " empty least return $x"),
      q(kKeys, " empty greatest return $x"),
      q(kKeys, " descending return $x"),
      q(kKeys, " descending empty greatest return $x"),
      q(kNaN, " return $x"),
      q(kNaN, " empty greatest return $x"),
      q(kStrKeys, " return $x"),
      q(kStrKeys, " empty greatest return $x"),
  };
  const Case kCases[] = {
      {"string((1, 2))", {}, kCard},
      {R"(upper-case(("a", "b")))", {}, kCard},
      {R"(concat("a", ("b", "c")))", {}, kCard},
      {"name((<a/>, <b/>))", {}, kCard},
      {"round((1.5, 2.5))", {}, kCard},
      {R"(substring("abc", ()))", {}, kCard},
      {R"(substring("abc", 1, (1, 2)))", {}, kCard},
      {"for $x in <a><n>ab</n><n>c</n></a> return string-length($x/n)",
       {},
       kCard},
      {"string-length(())", {"0"}, kOk},
      {R"(contains("abc", ()))", {"true"}, kOk},
      {R"(contains((), "a"))", {"false"}, kOk},
      {R"(starts-with((), ""))", {"true"}, kOk},
      {R"(ends-with("abc", ()))", {"true"}, kOk},
      {R"(concat("a", ()))", {"a"}, kOk},
      {"concat((), ())", {""}, kOk},
      {R"(concat("a", "b", "c"))", {"abc"}, kOk},
      {"count(string(()))", {"1"}, kOk},
      {"string(())", {""}, kOk},
      {"name(())", {""}, kOk},
      {"local-name(())", {""}, kOk},
      {"upper-case(())", {""}, kOk},
      {"lower-case(())", {""}, kOk},
      {"normalize-space(())", {""}, kOk},
      {"substring((), 2)", {""}, kOk},
      {"abs(())", {}, kOk},
      {"count(round(()))", {"0"}, kOk},
      {"floor(())", {}, kOk},
      {"ceiling(())", {}, kOk},
      {"sum(())", {"0"}, kOk},
      {"count(())", {"0"}, kOk},
      {"max(())", {}, kOk},
      {"avg(())", {}, kOk},
      {"data((1, 2))", {"1", "2"}, kOk},
      {"for $x in (<a><n>ab</n></a>, <a/>) return string-length($x/n)",
       {"2", "0"},
       kOk},
      {R"(for $x in (<a><n>ab</n></a>, <a/>) return concat("[", $x/n, "]"))",
       {"[ab]", "[]"},
       kOk},
      {"for $x in (<a k='1'/>, <a/>) return name($x/@k)", {"k", ""}, kOk},
      {"for $x in (<a>10</a>, <a>9</a>) order by $x return string($x)",
       {"10", "9"},
       kOk},
      {"for $x in (1, 2) order by ($x, 5) return $x", {}, kCard},
      {"count(1, 2)", {}, StatusCode::kTypeError},
      {R"(string-length("ab", 7))", {}, StatusCode::kTypeError},
      {R"(contains("a"))", {}, StatusCode::kTypeError},
      {"for $x in (2, 1) order by $x empty banana return $x", {},
       StatusCode::kInvalidArgument},
      {keyed[0].c_str(), {"2", "1", "3"}, kOk},
      {keyed[1].c_str(), {"2", "1", "3"}, kOk},
      {keyed[2].c_str(), {"1", "3", "2"}, kOk},
      {keyed[3].c_str(), {"3", "1", "2"}, kOk},
      {keyed[4].c_str(), {"2", "3", "1"}, kOk},
      {keyed[5].c_str(), {"1", "2", "3"}, kOk},
      {keyed[6].c_str(), {"2", "3", "1"}, kOk},
      {keyed[7].c_str(), {"a", "b", "c"}, kOk},
      {keyed[8].c_str(), {"b", "c", "a"}, kOk},
  };
  auto expect = [](const Case& c, const std::string& who,
                   const Status& status, std::vector<std::string> items,
                   bool as_multiset) {
    EXPECT_EQ(status.code(), c.error)
        << who << ": " << c.query << " -> " << status.ToString();
    if (!status.ok() || c.error != kOk) return;
    std::vector<std::string> want = c.items;
    if (as_multiset) {
      std::sort(items.begin(), items.end());
      std::sort(want.begin(), want.end());
    }
    EXPECT_EQ(items, want) << who << ": " << c.query;
  };
  QueryOptions baseline;
  baseline.enable_order_indifference = false;
  QueryOptions unordered;
  unordered.default_ordering = OrderingMode::kUnordered;
  for (const Case& c : kCases) {
    Result<std::vector<std::string>> ref = RunRef(c.query);
    expect(c, "reference", ref.status(),
           ref.ok() ? *ref : std::vector<std::string>{}, false);
    const bool keyed_order =
        std::string(c.query).find("order by") != std::string::npos;
    for (const auto& [who, options] :
         {std::pair<const char*, QueryOptions>{"baseline", baseline},
          {"ordered", QueryOptions{}},
          {"unordered", unordered}}) {
      Result<QueryResult> r = session_.Execute(c.query, options);
      expect(c, who, r.status(),
             r.ok() ? r->items : std::vector<std::string>{},
             options.default_ordering == OrderingMode::kUnordered &&
                 !keyed_order);
    }
  }
}

// `to` at the ends of the integer range: neither the span b - a nor the
// step past b may overflow, and a double bound outside int64_t (or NaN)
// fails cleanly instead of being cast with undefined behavior.
TEST_F(ReferenceTest, RangeBoundsAtTheIntegerLimits) {
  const std::string top =
      "count((9223372036854775807 - 2) to 9223372036854775807)";
  ExpectAgree(top);
  Result<QueryResult> r = session_.Execute(top, QueryOptions{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->serialized, "3");
  ExpectAgree("(9223372036854775807 - 1) to 9223372036854775807");
  ExpectAgree("(-9223372036854775807 - 1) to (-9223372036854775807)");
  ExpectAgree("5 to 3");
  for (const char* q : {"count((-9223372036854775807 - 1) to 5)",
                        "count(1e300 to 1e300)", "count(1 to 1e300)",
                        "count(number(\"NaN\") to 3)",
                        "count(-1e19 to 0)"}) {
    ExpectAgree(q);
    EXPECT_FALSE(session_.Execute(q, QueryOptions{}).ok()) << q;
  }
}

}  // namespace
}  // namespace exrquy
