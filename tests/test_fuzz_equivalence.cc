// Grammar-based fuzzing: randomly generated queries over randomly
// generated documents, executed by the reference interpreter and in the
// baseline and the fully enabled configuration. Invariants:
//
//   * all succeed or all fail with the same status code — rewriting must
//     not introduce or mask errors, and a plural argument to a function
//     that takes at most one item raises the same error in both stacks;
//   * ordered mode results are identical, the reference's included;
//   * unordered mode results are multiset-equal.
//
// The generator deliberately produces queries whose sub-expressions can
// be empty, plural, or type-heterogeneous, to push the EBV / aggregation
// / comparison paths and the cardinality checks and empty-argument
// defaults that function calls and order by keys are lowered to.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "api/session.h"
#include "provenance_check.h"
#include "ref/interp.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"

namespace exrquy {
namespace {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  int Below(int n) { return static_cast<int>(Next() % n); }

 private:
  uint64_t state_;
};

std::string RandomDoc(Rng* rng) {
  std::string xml = "<top>";
  int groups = 2 + rng->Below(3);
  for (int g = 0; g < groups; ++g) {
    xml += "<g k=\"" + std::to_string(rng->Below(9)) + "\">";
    int leaves = rng->Below(4);
    for (int l = 0; l < leaves; ++l) {
      int v = rng->Below(30);
      xml += (rng->Below(2) != 0)
                 ? "<n>" + std::to_string(v) + "</n>"
                 : "<m v=\"" + std::to_string(v) + "\"/>";
    }
    xml += "</g>";
  }
  xml += "</top>";
  return xml;
}

// A node-sequence expression (all items nodes).
std::string NodeExpr(Rng* rng, int depth, const std::string& var);
// A numeric/atomic expression (single item or empty).
std::string AtomicExpr(Rng* rng, int depth, const std::string& var);
// A boolean expression.
std::string BoolExpr(Rng* rng, int depth, const std::string& var);

// A path below `var` (or the first group) that may hold no node, one, or
// several per iteration.
std::string MaybePath(Rng* rng, const std::string& var) {
  const char* steps[] = {"/n[2]", "/n[1]", "/@k", "/m[1]/@v", "/n", "//@v"};
  return (var.empty() ? R"(doc("f.xml")/top/g[1])" : var) +
         steps[rng->Below(static_cast<int>(std::size(steps)))];
}

// A string or numeric builtin over such paths.
std::string BuiltinExpr(Rng* rng, const std::string& var) {
  switch (rng->Below(6)) {
    case 0:
      return "string-length(" + MaybePath(rng, var) + ")";
    case 1:
      return "round(" + MaybePath(rng, var) + ")";
    case 2:
      return "number(" + MaybePath(rng, var) + ")";
    case 3:
      return "concat(" + MaybePath(rng, var) + ", \"-\", " +
             MaybePath(rng, var) + ")";
    case 4:
      return "upper-case(name(" + MaybePath(rng, var) + "))";
    default:
      return "substring(string(" + MaybePath(rng, var) + "), 2)";
  }
}

std::string NodeExpr(Rng* rng, int depth, const std::string& var) {
  if (depth <= 0) return var.empty() ? R"(doc("f.xml")/top/g)" : var;
  switch (rng->Below(6)) {
    case 0:
      return NodeExpr(rng, depth - 1, var) + "/n";
    case 1:
      return NodeExpr(rng, depth - 1, var) + "//m";
    case 2:
      return "(" + NodeExpr(rng, depth - 1, var) + " | " +
             NodeExpr(rng, depth - 1, var) + ")";
    case 3:
      return NodeExpr(rng, depth - 1, var) + "[" +
             std::to_string(1 + rng->Below(3)) + "]";
    case 4:
      return NodeExpr(rng, depth - 1, var) + "[" +
             BoolExpr(rng, 0, ".") + "]";
    default:
      return R"(doc("f.xml")//g)";
  }
}

// Scalar edge literals for the arithmetic productions: INT64 boundaries,
// the first integer a double cannot represent, and an operand whose
// square overflows — steering the fuzz through the exact-integer,
// FOAR0001 and FOAR0002 paths (divergence would mean one stack wraps,
// loses precision, or errors where the other does not).
const char* kEdgeLiterals[] = {
    "9223372036854775807",
    "(-9223372036854775807 - 1)",
    "9007199254740993",
    "3037000500",
    "-1",
};

std::string AtomicExpr(Rng* rng, int depth, const std::string& var) {
  if (depth <= 0) return std::to_string(rng->Below(20));
  switch (rng->Below(9)) {
    case 0:
      return "count(" + NodeExpr(rng, depth - 1, var) + ")";
    case 7:
      return rng->Below(2) != 0
                 ? "string-length(" + MaybePath(rng, var) + ")"
                 : "round(" + MaybePath(rng, var) + ")";
    case 1:
      return "sum(" + NodeExpr(rng, depth - 1, var) + "/@v)";
    case 2:
      return "(" + AtomicExpr(rng, depth - 1, var) + " + " +
             AtomicExpr(rng, depth - 1, var) + ")";
    case 3:
      return "(" + AtomicExpr(rng, depth - 1, var) + " * " +
             std::to_string(1 + rng->Below(4)) + ")";
    case 4:
      return "(" + AtomicExpr(rng, depth - 1, var) + " idiv " +
             std::to_string(1 + rng->Below(6)) + ")";
    case 5:
      // The divisor can evaluate to 0: both configurations must then
      // fail identically (FOAR0001).
      return "(" + AtomicExpr(rng, depth - 1, var) + " mod " +
             AtomicExpr(rng, depth - 1, var) + ")";
    case 6:
      return kEdgeLiterals[rng->Below(
          static_cast<int>(std::size(kEdgeLiterals)))];
    default:
      return std::to_string(rng->Below(20));
  }
}

std::string BoolExpr(Rng* rng, int depth, const std::string& var) {
  std::string ctx = var.empty() ? R"(doc("f.xml")//g)" : var;
  switch (rng->Below(5)) {
    case 0:
      return AtomicExpr(rng, depth, var) + " > " + AtomicExpr(rng, depth, var);
    case 1:
      return "exists(" + NodeExpr(rng, depth, var) + ")";
    case 2:
      return ctx + "/@k = " + std::to_string(rng->Below(9));
    case 3:
      return "some $s in " + ctx + " satisfies $s/@k > " +
             std::to_string(rng->Below(9));
    default:
      return "not(" + BoolExpr(rng, depth > 0 ? depth - 1 : 0, var) + ")";
  }
}

std::string RandomQuery(Rng* rng) {
  switch (rng->Below(7)) {
    case 5:
      return "for $x in " + NodeExpr(rng, 1, "") + " return " +
             BuiltinExpr(rng, "$x");
    case 6:
      return "for $x in " + NodeExpr(rng, 1, "") + " order by " +
             MaybePath(rng, "$x") +
             (rng->Below(2) != 0 ? " descending" : "") +
             (rng->Below(2) != 0 ? " empty greatest" : "") + " return " +
             BuiltinExpr(rng, "$x");
    case 0:
      return "for $x in " + NodeExpr(rng, 2, "") + " return count($x//n)";
    case 1:
      return "for $x in " + NodeExpr(rng, 2, "") + " where " +
             BoolExpr(rng, 1, "$x") + " return <r>{ $x/@k }</r>";
    case 2:
      return "for $x in " + NodeExpr(rng, 1, "") +
             " order by number($x/@k), count($x/n) return name($x)";
    case 3:
      return AtomicExpr(rng, 3, "");
    default:
      return "(" + BoolExpr(rng, 2, "") + ", " + AtomicExpr(rng, 2, "") +
             ")";
  }
}

// Runs `query` through the reference interpreter (ordered semantics).
Result<std::vector<std::string>> RunRef(Session& session,
                                        const std::string& query) {
  EXRQUY_ASSIGN_OR_RETURN(Query parsed, ParseQuery(query));
  NormalizeOptions norm;
  norm.insert_unordered = false;
  EXRQUY_RETURN_IF_ERROR(Normalize(&parsed, norm));
  std::map<StrId, NodeIdx> docs;
  docs[session.strings().Intern("f.xml")] = session.store().fragment(0).root;
  RefInterpreter interp(&session.store(), &session.strings(), docs);
  EXRQUY_ASSIGN_OR_RETURN(std::vector<Value> items, interp.Eval(*parsed.body));
  return interp.Render(items);
}

class FuzzEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzEquivalenceTest, ConfigurationsAgree) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  Session session;
  ASSERT_TRUE(session.LoadDocument("f.xml", RandomDoc(&rng)).ok());

  QueryOptions baseline;
  baseline.enable_order_indifference = false;
  QueryOptions exploit_ordered;
  QueryOptions exploit_unordered;
  exploit_unordered.default_ordering = OrderingMode::kUnordered;
  // Fuzzed plans double as verifier input: every optimizer pass over
  // every generated query is statically checked (opt/verify.h); a
  // rewrite breaking an invariant fails the run with a named diagnostic
  // rather than (possibly) a silently wrong answer.
  exploit_ordered.verify_each_pass = true;
  exploit_unordered.verify_each_pass = true;

  int executed = 0;
  for (int i = 0; i < 40; ++i) {
    std::string query = RandomQuery(&rng);
    Result<QueryResult> a = session.Execute(query, baseline);
    Result<QueryResult> b = session.Execute(query, exploit_ordered);
    Result<QueryResult> c = session.Execute(query, exploit_unordered);
    Result<std::vector<std::string>> ref = RunRef(session, query);

    ASSERT_EQ(a.status().code(), b.status().code())
        << query << "\nbaseline: " << a.status().ToString()
        << "\nexploit:  " << b.status().ToString();
    ASSERT_EQ(a.status().code(), c.status().code())
        << query << "\nbaseline: " << a.status().ToString()
        << "\nunordered: " << c.status().ToString();
    ASSERT_EQ(a.status().code(), ref.status().code())
        << query << "\nbaseline: " << a.status().ToString()
        << "\nreference: " << ref.status().ToString();
    if (!a.ok()) continue;  // all failed identically: fine
    ++executed;
    EXPECT_EQ(a->items, *ref) << query;
    EXPECT_EQ(a->items, b->items) << query;
    std::vector<std::string> sa = a->items;
    std::vector<std::string> sc = c->items;
    std::sort(sa.begin(), sa.end());
    std::sort(sc.begin(), sc.end());
    EXPECT_EQ(sa, sc) << query;
  }
  // The generator must produce mostly executable queries.
  EXPECT_GT(executed, 20);
}

// The same corpus as plans: on both roots of each fuzzed query in both
// modes, order provenance is attributed liveness (provenance_check.h).
TEST_P(FuzzEquivalenceTest, ProvenanceIsAttributedLiveness) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  Session session;
  ASSERT_TRUE(session.LoadDocument("f.xml", RandomDoc(&rng)).ok());
  QueryOptions unordered;
  unordered.default_ordering = OrderingMode::kUnordered;
  int planned = 0;
  for (int i = 0; i < 40; ++i) {
    std::string query = RandomQuery(&rng);
    for (const QueryOptions& options : {QueryOptions{}, unordered}) {
      Result<QueryPlans> p = session.Plan(query, options);
      if (!p.ok()) continue;
      ++planned;
      ExpectAttributedLiveness(*p, query);
    }
  }
  EXPECT_GT(planned, 40);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalenceTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace exrquy
