// End-to-end smoke tests: the paper's running examples evaluated through
// the full pipeline.
#include <gtest/gtest.h>

#include "api/session.h"

namespace exrquy {
namespace {

// The XML fragment of Figure 1, bound to document "t.xml" (root a).
constexpr char kFig1[] = "<a><b><c/><d/></b><c/></a>";

class SmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(session_.LoadDocument("t.xml", kFig1).ok());
  }

  std::string Run(const std::string& query, QueryOptions options = {}) {
    Result<QueryResult> r = session_.Execute(query, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << query;
    return r.ok() ? r->serialized : "<error: " + r.status().ToString() + ">";
  }

  Session session_;
};

TEST_F(SmokeTest, Literal) { EXPECT_EQ(Run("42"), "42"); }

TEST_F(SmokeTest, Sequence) { EXPECT_EQ(Run("(1, 2, 3)"), "1 2 3"); }

TEST_F(SmokeTest, Arithmetic) { EXPECT_EQ(Run("1 + 2 * 3"), "7"); }

TEST_F(SmokeTest, ForReturn) {
  // Expression (5) of the paper: iter -> seq.
  EXPECT_EQ(Run("for $x in (1, 2) return ($x, $x * 10)"), "1 10 2 20");
}

TEST_F(SmokeTest, NestedFor) {
  // Expression (6).
  EXPECT_EQ(Run("for $x in (1, 2) for $y in (10, 20) return $x + $y"),
            "11 21 12 22");
}

TEST_F(SmokeTest, PathChild) {
  EXPECT_EQ(Run(R"(doc("t.xml")/a/b/c)"), "<c/>");
}

TEST_F(SmokeTest, PathDescendant) {
  // $t//(c|d) of Section 1 yields (c1, d, c2) in document order.
  EXPECT_EQ(Run(R"(for $t in doc("t.xml")/a return count($t//c))"), "2");
}

TEST_F(SmokeTest, UnionDocOrder) {
  QueryOptions baseline;
  baseline.enable_order_indifference = false;
  Result<QueryResult> r = session_.Execute(
      R"(let $t := doc("t.xml")/a return $t//c | $t//d)", baseline);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->items.size(), 3u);
  EXPECT_EQ(r->items[0], "<c/>");  // c1
  EXPECT_EQ(r->items[1], "<d/>");
  EXPECT_EQ(r->items[2], "<c/>");  // c2
}

TEST_F(SmokeTest, ElementConstruction) {
  EXPECT_EQ(Run("<e pos=\"1\">{ 1 + 1 }</e>"), "<e pos=\"1\">2</e>");
}

TEST_F(SmokeTest, ForAtPositional) {
  // Expression (4).
  EXPECT_EQ(
      Run(R"(for $x at $p in ("a", "b", "c")
             return <e pos="{ $p }">{ $x }</e>)"),
      "<e pos=\"1\">a</e><e pos=\"2\">b</e><e pos=\"3\">c</e>");
}

TEST_F(SmokeTest, IfThenElse) {
  EXPECT_EQ(Run("for $x in (1, 2, 3) return if ($x < 3) then $x else 99"),
            "1 2 99");
}

TEST_F(SmokeTest, Quantifier) {
  EXPECT_EQ(Run("some $x in (1, 2, 3) satisfies $x > 2"), "true");
  EXPECT_EQ(Run("every $x in (1, 2, 3) satisfies $x > 2"), "false");
}

TEST_F(SmokeTest, CountEmptyExists) {
  EXPECT_EQ(Run(R"(count(doc("t.xml")//c))"), "2");
  EXPECT_EQ(Run(R"(empty(doc("t.xml")//x))"), "true");
  EXPECT_EQ(Run(R"(exists(doc("t.xml")//d))"), "true");
}

TEST_F(SmokeTest, GeneralComparison) {
  EXPECT_EQ(Run("(1, 2) = (2, 3)"), "true");
  EXPECT_EQ(Run("(1, 2) = (3, 4)"), "false");
}

TEST_F(SmokeTest, WhereClause) {
  EXPECT_EQ(Run("for $x in (1, 2, 3, 4) where $x mod 2 = 0 return $x"),
            "2 4");
}

TEST_F(SmokeTest, LetClause) {
  EXPECT_EQ(Run("let $x := (1, 2, 3) return count($x)"), "3");
}

TEST_F(SmokeTest, NodeComparison) {
  // Expression (3): seq order establishes doc order in new fragments.
  EXPECT_EQ(Run(R"(let $t := doc("t.xml")/a
                   let $b := $t//b, $d := $t//d,
                       $e := <e>{ $d, $b }</e>
                   return ($b << $d, $e/b << $e/d))"),
            "true false");
}

TEST_F(SmokeTest, PositionalPredicate) {
  EXPECT_EQ(Run(R"(for $t in doc("t.xml")/a return $t//c[1] is ($t//c)[1])"),
            "true");
  EXPECT_EQ(Run(R"(count(doc("t.xml")//c[2]))"), "1");
}

TEST_F(SmokeTest, UnorderedSameMultiset) {
  // unordered {} admits any permutation; the multiset must be stable.
  QueryOptions on;
  QueryOptions off;
  off.enable_order_indifference = false;
  std::string q = R"(unordered { for $t in doc("t.xml")/a return $t//(c|d) })";
  Result<QueryResult> a = session_.Execute(q, on);
  Result<QueryResult> b = session_.Execute(q, off);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  std::vector<std::string> ia = a->items;
  std::vector<std::string> ib = b->items;
  std::sort(ia.begin(), ia.end());
  std::sort(ib.begin(), ib.end());
  EXPECT_EQ(ia, ib);
  EXPECT_EQ(ia.size(), 3u);
}

TEST_F(SmokeTest, OrderBy) {
  EXPECT_EQ(Run(R"(for $x in (3, 1, 2) order by $x descending return $x)"),
            "3 2 1");
}

}  // namespace
}  // namespace exrquy
