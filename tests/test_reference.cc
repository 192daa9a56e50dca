// Differential testing: the independent tree-walking reference
// interpreter (src/ref/) against the full algebraic pipeline (compiler +
// rewriter + columnar engine) in the baseline ordered-mode configuration.
// Exact result-sequence equality is required; any divergence localizes a
// bug in one of the two stacks.
#include <gtest/gtest.h>

#include <string>
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

}  // namespace
}  // namespace exrquy
