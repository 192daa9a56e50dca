// Regression guards for the paper's plan-shape claims (Figures 6, 9, 10
// and Section 7), asserted as unit tests so refactoring the compiler or
// the rewriter cannot silently lose them. The benches print the same
// quantities; these tests pin them.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "algebra/stats.h"
#include "api/opcounts.h"
#include "api/session.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace exrquy {
namespace {

class PlanShapesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    session_ = new Session();
    XMarkOptions options;
    options.scale = 0.004;
    ASSERT_TRUE(
        session_->LoadDocument("auction.xml", GenerateXMark(options)).ok());
    ASSERT_TRUE(
        session_->LoadDocument("t.xml", "<a><b><c/><d/></b><c/></a>").ok());
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }

  PlanStats Stats(const std::string& query, const QueryOptions& options,
                  bool optimized) {
    Result<QueryPlans> p = session_->Plan(query, options);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return CollectPlanStats(*p->dag,
                            optimized ? p->optimized : p->initial);
  }

  static QueryOptions BaselineOpts() {
    QueryOptions o;
    o.enable_order_indifference = false;
    return o;
  }

  static QueryOptions UnorderedOpts() {
    QueryOptions o;
    o.default_ordering = OrderingMode::kUnordered;
    return o;
  }

  static Session* session_;
};

Session* PlanShapesTest::session_ = nullptr;

// Figure 6(a)/(b): under mode unordered, all % but ONE are traded for #
// in the emitted Q6 plan; the residual % implements iter->seq.
TEST_F(PlanShapesTest, Fig6UnorderedLeavesExactlyOneRowNum) {
  PlanStats ordered = Stats(XMarkQueryText("Q6"), BaselineOpts(), false);
  PlanStats unordered = Stats(XMarkQueryText("Q6"), UnorderedOpts(), false);
  EXPECT_GE(ordered.rownum_ops, 5u);
  EXPECT_EQ(ordered.rowid_ops, 0u);
  EXPECT_EQ(unordered.rownum_ops, 1u);
  EXPECT_GE(unordered.rowid_ops, 5u);
}

// Figure 9 + Section 7: after CDA and the constant/arbitrary-column
// weakening, no % remains in Q6's plan — "any residual traces of order"
// are gone — and the plan shrank substantially.
TEST_F(PlanShapesTest, Fig9NoResidualOrderInQ6) {
  PlanStats emitted = Stats(XMarkQueryText("Q6"), UnorderedOpts(), false);
  PlanStats optimized = Stats(XMarkQueryText("Q6"), UnorderedOpts(), true);
  EXPECT_EQ(optimized.rownum_ops, 0u);
  EXPECT_LT(optimized.total_ops, emitted.total_ops);
  // Step merging: dos::node()/child::item became descendant::item.
  EXPECT_LT(optimized.step_ops, emitted.step_ops);
}

// Section 4.1: Q11's DAG shrinks by roughly the paper's 235 -> 141
// proportion (-40 %); we assert at least a quarter goes away and the %
// population collapses.
TEST_F(PlanShapesTest, Q11CdaReduction) {
  PlanStats emitted = Stats(XMarkQueryText("Q11"), UnorderedOpts(), false);
  PlanStats optimized = Stats(XMarkQueryText("Q11"), UnorderedOpts(), true);
  EXPECT_LT(optimized.total_ops * 4, emitted.total_ops * 3);
  EXPECT_LE(optimized.rownum_ops, 1u);
}

// Figure 10: unordered { $t//(c|d) } loses the union's Distinct and
// every % — '|' became ','.
TEST_F(PlanShapesTest, Fig10UnionBecomesConcatenation) {
  const std::string q =
      R"(unordered { for $t in doc("t.xml")/a return $t//(c|d) })";
  PlanStats baseline = Stats(q, BaselineOpts(), true);
  PlanStats enabled = Stats(q, QueryOptions{}, true);
  EXPECT_GT(baseline.rownum_ops, 0u);
  EXPECT_GT(baseline.distinct_ops, enabled.distinct_ops);
  EXPECT_EQ(enabled.rownum_ops, 0u);

  QueryOptions no_disjoint;
  no_disjoint.distinct_elimination = false;
  PlanStats kept = Stats(q, no_disjoint, true);
  EXPECT_EQ(kept.distinct_ops, enabled.distinct_ops + 1);
}

// The mode-independent rules: count's argument is order indifferent in
// *either* mode, so even under ordered mode the optimized plan for a
// count over a path carries no %.
TEST_F(PlanShapesTest, AggregatesShedOrderInOrderedModeToo) {
  QueryOptions ordered;  // exploit on, mode ordered
  PlanStats s = Stats(R"(count(doc("auction.xml")//item))", ordered, true);
  EXPECT_EQ(s.rownum_ops, 0u);
  EXPECT_EQ(s.step_ops, 1u);  // merged descendant::item
}

// Baseline plans keep strict order derivation: across the whole XMark
// set they carry at least as many % as the order-indifferent plans, and
// the # population only ever comes from predicate context numbering
// (which is order-free in any configuration) — never from the paper's
// rules, so enabling them strictly grows it.
TEST_F(PlanShapesTest, BaselineKeepsStrictOrderDerivation) {
  for (const XMarkQuery& q : XMarkQueries()) {
    PlanStats base = Stats(q.text, BaselineOpts(), true);
    PlanStats enabled = Stats(q.text, UnorderedOpts(), true);
    EXPECT_GE(base.rownum_ops, enabled.rownum_ops) << q.name;
    EXPECT_LE(base.rowid_ops, enabled.rowid_ops) << q.name;
    EXPECT_GT(base.rownum_ops, 0u) << q.name;
  }
}

// Key-based Distinct elimination (opt/analyses.h key + cardinality
// domains): Q1's unordered plan carries a Distinct over a subplan whose
// schema retains a key column, a fact only the key analysis can
// establish — no structural rule (step disjointness, set-typed input)
// applies. With only distinct_by_keys toggled, that Distinct must go.
TEST_F(PlanShapesTest, KeyFactsEliminateADistinctNothingElseCan) {
  QueryOptions with = UnorderedOpts();
  QueryOptions without = UnorderedOpts();
  without.distinct_by_keys = false;
  PlanStats on = Stats(XMarkQueryText("Q1"), with, true);
  PlanStats off = Stats(XMarkQueryText("Q1"), without, true);
  EXPECT_LT(on.distinct_ops, off.distinct_ops);

  // And across the whole corpus the flag is monotone: turning it on
  // never leaves more Distincts behind.
  for (const XMarkQuery& q : XMarkQueries()) {
    PlanStats a = Stats(q.text, with, true);
    PlanStats b = Stats(q.text, without, true);
    EXPECT_LE(a.distinct_ops, b.distinct_ops) << q.name;
    EXPECT_LE(a.total_ops, b.total_ops) << q.name;
  }
}

// The committed Figure 6-style operator-count report must match a fresh
// rendering byte for byte: any change to the rewriter's %-elimination
// power or to its per-family rewrite traffic (either direction) has to
// be re-committed deliberately via tools/gen_opcounts.
TEST_F(PlanShapesTest, OpCountReportMatchesGolden) {
  Result<std::string> report = OpCountReport(session_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::string path =
      std::string(EXRQUY_TEST_CORPUS_DIR) + "/opcounts/xmark_opcounts.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(*report, golden.str())
      << "operator counts drifted from " << path
      << " — regenerate with tools/gen_opcounts if deliberate";
}

// The corpus-wide count of surviving % in ordered mode must never creep
// back above the committed level (the order-dependency trade brought it
// from 100 down to 81). The byte-exact golden above
// catches any drift; this guard names the quantity the paper cares
// about and fails with a number, not a diff.
TEST_F(PlanShapesTest, OrderedModeSurvivingSortsDoNotRegress) {
  size_t surviving = 0;
  for (const XMarkQuery& q : XMarkQueries()) {
    surviving += Stats(q.text, QueryOptions{}, true).rownum_ops;
  }
  EXPECT_LE(surviving, 81u);
  // And the order-dependency trade must be doing real corpus-wide work:
  // turning it off leaves strictly more % behind.
  size_t without = 0;
  QueryOptions off;
  off.rownum_by_od = false;
  for (const XMarkQuery& q : XMarkQueries()) {
    without += Stats(q.text, off, true).rownum_ops;
  }
  EXPECT_LT(surviving, without);
}

// Optimization is monotone across the whole XMark set: never more
// operators, never more % after rewriting.
TEST_F(PlanShapesTest, RewritesMonotoneOnXMark) {
  for (const XMarkQuery& q : XMarkQueries()) {
    PlanStats before = Stats(q.text, UnorderedOpts(), false);
    PlanStats after = Stats(q.text, UnorderedOpts(), true);
    EXPECT_LE(after.total_ops, before.total_ops) << q.name;
    EXPECT_LE(after.rownum_ops, before.rownum_ops) << q.name;
    EXPECT_LE(after.step_ops, before.step_ops) << q.name;
  }
}

}  // namespace
}  // namespace exrquy
