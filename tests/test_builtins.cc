// Built-in function battery: range expressions, string functions,
// numeric functions, node-name accessors, string-join, and fn:reverse
// (whose order sensitivity must survive all rewriting).
#include <gtest/gtest.h>

#include "api/session.h"

namespace exrquy {
namespace {

class BuiltinsTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        session_.LoadDocument("d.xml", "<r a=\"1\"><x>one</x><y/></r>")
            .ok());
  }

  QueryOptions Opts() {
    QueryOptions o;
    o.enable_order_indifference = GetParam();
    return o;
  }

  std::string Run(const std::string& query) {
    Result<QueryResult> r = session_.Execute(query, Opts());
    EXPECT_TRUE(r.ok()) << query << "\n  " << r.status().ToString();
    return r.ok() ? r->serialized : "<error>";
  }

  Session session_;
};

TEST_P(BuiltinsTest, RangeExpression) {
  EXPECT_EQ(Run("1 to 5"), "1 2 3 4 5");
  EXPECT_EQ(Run("3 to 3"), "3");
  EXPECT_EQ(Run("5 to 3"), "");
  EXPECT_EQ(Run("count(1 to 100)"), "100");
  EXPECT_EQ(Run("sum(1 to 10)"), "55");
}

TEST_P(BuiltinsTest, RangeInsideFor) {
  EXPECT_EQ(Run("for $i in 1 to 3 return $i * $i"), "1 4 9");
  EXPECT_EQ(Run("for $i in 1 to 2 return (for $j in 1 to $i return $j)"),
            "1 1 2");
}

TEST_P(BuiltinsTest, ReverseIsOrderSensitive) {
  EXPECT_EQ(Run("reverse((1, 2, 3))"), "3 2 1");
  EXPECT_EQ(Run("reverse(())"), "");
  EXPECT_EQ(Run("for $x in reverse(1 to 3) return $x * 10"), "30 20 10");
  // reverse(reverse(e)) = e, even with all rewrites on.
  EXPECT_EQ(Run("reverse(reverse((1,2,3)))"), "1 2 3");
}

TEST_P(BuiltinsTest, StringJoin) {
  EXPECT_EQ(Run(R"(string-join(("a","b","c"), "-"))"), "a-b-c");
  EXPECT_EQ(Run(R"(string-join((), "-"))"), "");
  EXPECT_EQ(Run(R"(string-join(("x"), ", "))"), "x");
  // Sequence order matters for string-join.
  EXPECT_EQ(Run(R"(string-join(reverse(("a","b")), ""))"), "ba");
}

TEST_P(BuiltinsTest, StartsEndsWith) {
  EXPECT_EQ(Run(R"(starts-with("staircase", "stair"))"), "true");
  EXPECT_EQ(Run(R"(starts-with("a", "abc"))"), "false");
  EXPECT_EQ(Run(R"(ends-with("staircase", "case"))"), "true");
  EXPECT_EQ(Run(R"(ends-with("staircase", "stair"))"), "false");
}

TEST_P(BuiltinsTest, CaseFolding) {
  EXPECT_EQ(Run(R"(upper-case("MonetDB/xq"))"), "MONETDB/XQ");
  EXPECT_EQ(Run(R"(lower-case("MonetDB"))"), "monetdb");
}

TEST_P(BuiltinsTest, NormalizeSpace) {
  EXPECT_EQ(Run(R"(normalize-space("  a   b  c "))"), "a b c");
  EXPECT_EQ(Run(R"(normalize-space(""))"), "");
}

TEST_P(BuiltinsTest, Substring) {
  EXPECT_EQ(Run(R"(substring("motor car", 6))"), " car");
  EXPECT_EQ(Run(R"(substring("metadata", 4, 3))"), "ada");
  EXPECT_EQ(Run(R"(substring("12345", 0, 3))"), "12");
  EXPECT_EQ(Run(R"(substring("12345", 1.5, 2.6))"), "234");
}

TEST_P(BuiltinsTest, NumericFunctions) {
  EXPECT_EQ(Run("abs(-7)"), "7");
  EXPECT_EQ(Run("abs(-2.5)"), "2.5");
  EXPECT_EQ(Run("floor(2.7)"), "2");
  EXPECT_EQ(Run("ceiling(2.1)"), "3");
  EXPECT_EQ(Run("round(2.5)"), "3");
  EXPECT_EQ(Run("round(-2.5)"), "-2");  // round half toward +inf
  EXPECT_EQ(Run("floor(5)"), "5");
}

TEST_P(BuiltinsTest, NodeNames) {
  EXPECT_EQ(Run(R"(for $n in doc("d.xml")/r/* return name($n))"), "x y");
  EXPECT_EQ(Run(R"(name(doc("d.xml")/r/@a))"), "a");
  EXPECT_EQ(Run(R"(local-name(doc("d.xml")/r))"), "r");
}

TEST_P(BuiltinsTest, CardinalityChecksPass) {
  EXPECT_EQ(Run("zero-or-one(())"), "");
  EXPECT_EQ(Run("zero-or-one((7))"), "7");
  EXPECT_EQ(Run("exactly-one(5)"), "5");
  EXPECT_EQ(Run("count(one-or-more((1,2,3)))"), "3");
  // Per-iteration checks inside a FLWOR.
  EXPECT_EQ(Run(R"(for $n in doc("d.xml")/r/x
                   return exactly-one($n/text()))"),
            "one");
}

TEST_P(BuiltinsTest, CardinalityChecksFail) {
  auto code = [&](const std::string& q) {
    Result<QueryResult> r = session_.Execute(q, Opts());
    EXPECT_FALSE(r.ok()) << q;
    return r.ok() ? StatusCode::kOk : r.status().code();
  };
  EXPECT_EQ(code("zero-or-one((1,2))"), StatusCode::kCardinalityError);
  EXPECT_EQ(code("exactly-one(())"), StatusCode::kCardinalityError);
  EXPECT_EQ(code("exactly-one((1,2))"), StatusCode::kCardinalityError);
  EXPECT_EQ(code("one-or-more(())"), StatusCode::kCardinalityError);
  // The check is per iteration: <y/> has no text.
  EXPECT_EQ(code(R"(for $n in doc("d.xml")/r/*
                    return exactly-one($n/text()))"),
            StatusCode::kCardinalityError);
}

// Function conversion per iteration: an empty argument stands for "" (or
// gives the row's result), and an empty order by key sorts least unless
// `empty greatest` says otherwise.
TEST_P(BuiltinsTest, EmptyArgumentsPerIteration) {
  EXPECT_EQ(Run("string-length(())"), "0");
  EXPECT_EQ(Run(R"(for $n in doc("d.xml")/r/*
                   return string-length($n/text()))"),
            "3 0");
  EXPECT_EQ(Run(R"(for $n in doc("d.xml")/r/*
                   return concat("[", $n/text(), "]"))"),
            "[one] []");
  EXPECT_EQ(Run(R"(for $n in doc("d.xml")/r/*
                   return contains($n/text(), ""))"),
            "true true");
  EXPECT_EQ(Run(R"(count(for $n in doc("d.xml")/r/* return abs($n/@b)))"),
            "0");
  EXPECT_EQ(Run(R"(for $n in doc("d.xml")/r/*
                   return string-length(name($n/@a)))"),
            "0 0");
  EXPECT_EQ(Run(R"(for $n in doc("d.xml")/r/* order by $n/text()
                   return name($n))"),
            "y x");
  EXPECT_EQ(Run(R"(for $n in doc("d.xml")/r/*
                   order by $n/text() empty greatest return name($n))"),
            "x y");
}

TEST_P(BuiltinsTest, PluralArgumentsRaise) {
  for (const char* q : {
           R"(string-length(doc("d.xml")/r/*))",
           R"(for $n in doc("d.xml")/r return upper-case($n/*))",
           R"(for $n in doc("d.xml")/r return substring("ab", (1, 2)))",
           R"(for $n in doc("d.xml")/r order by $n/* return 1)",
       }) {
    Result<QueryResult> r = session_.Execute(q, Opts());
    EXPECT_EQ(r.status().code(), StatusCode::kCardinalityError)
        << q << " -> " << r.status().ToString();
  }
}

TEST_P(BuiltinsTest, MixedWithAggregates) {
  EXPECT_EQ(Run("max(for $i in 1 to 5 return $i mod 3)"), "2");
  EXPECT_EQ(Run("count((1 to 3)[. mod 2 = 1])"), "2");
}

TEST_P(BuiltinsTest, PositionPredicates) {
  EXPECT_EQ(Run("(10, 20, 30, 40)[position() < 3]"), "10 20");
  EXPECT_EQ(Run("(10, 20, 30, 40)[position() >= 3]"), "30 40");
  EXPECT_EQ(Run("(10, 20, 30)[position() = 2]"), "20");
  EXPECT_EQ(Run("(10, 20, 30)[2 <= position()]"), "20 30");
  EXPECT_EQ(Run("(10, 20, 30)[position() != 2]"), "10 30");
  EXPECT_EQ(Run(R"(count(doc("d.xml")/r/*[position() > 1]))"), "1");
}

TEST_P(BuiltinsTest, Subsequence) {
  EXPECT_EQ(Run("subsequence((1,2,3,4,5), 2)"), "2 3 4 5");
  EXPECT_EQ(Run("subsequence((1,2,3,4,5), 2, 2)"), "2 3");
  EXPECT_EQ(Run("subsequence((1,2,3), 0, 2)"), "1");
  EXPECT_EQ(Run("subsequence((), 1, 2)"), "");
  EXPECT_EQ(Run("for $x in (1,2) return subsequence(($x, $x*10), 2, 1)"),
            "10 20");
}

INSTANTIATE_TEST_SUITE_P(Configs, BuiltinsTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "exploit" : "baseline";
                         });

}  // namespace
}  // namespace exrquy
