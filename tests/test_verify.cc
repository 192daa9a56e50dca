// The plan verifier (opt/verify.h): every class of malformed plan must
// be rejected with a diagnostic naming the violated invariant and the
// offending operator id, and every plan the compiler and optimizer
// actually produce — all 20 XMark queries, before and after each
// optimizer pass — must verify clean.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "api/session.h"
#include "opt/pipeline.h"
#include "opt/verify.h"
#include "xmark/queries.h"

namespace exrquy {
namespace {

using col::item;
using col::iter;
using col::pos;

class VerifyTest : public ::testing::Test {
 protected:
  // (iter, pos, item) literal rows.
  OpId Triples(std::vector<std::array<int64_t, 3>> rows) {
    LitTable t;
    t.cols = {iter(), pos(), item()};
    for (const auto& r : rows) {
      t.rows.push_back(
          {Value::Int(r[0]), Value::Int(r[1]), Value::Int(r[2])});
    }
    return dag_.Lit(std::move(t));
  }

  // Asserts that verification fails citing `invariant` and the given op.
  void ExpectRejected(OpId root, const std::string& invariant, OpId bad) {
    Status st = VerifyPlan(dag_, root);
    ASSERT_FALSE(st.ok()) << "expected a [" << invariant << "] rejection";
    EXPECT_NE(st.message().find("[" + invariant + "]"), std::string::npos)
        << st.message();
    EXPECT_NE(st.message().find("op " + std::to_string(bad)),
              std::string::npos)
        << st.message();
  }

  Dag dag_;
};

TEST_F(VerifyTest, AcceptsWellFormedPlans) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}, {2, 1, 9}});
  ColId rank = ColSym("vrank");
  OpId rn = dag_.RowNum(l, rank, {{pos(), false}}, iter());
  OpId proj =
      dag_.Project(rn, {{iter(), iter()}, {pos(), rank}, {item(), item()}});
  EXPECT_TRUE(VerifyPlan(dag_, proj).ok());
}

TEST_F(VerifyTest, RejectsDanglingColumnReference) {
  OpId l = Triples({{1, 1, 5}});
  Op op;
  op.kind = OpKind::kSelect;
  op.children = {l};
  op.col = ColSym("vnot_there");
  OpId bad = dag_.AddUnchecked(std::move(op), {iter(), pos(), item()});
  ExpectRejected(bad, "dangling-column", bad);
}

TEST_F(VerifyTest, RejectsDuplicateOutputColumn) {
  OpId l = Triples({{1, 1, 5}});
  ColId x = ColSym("vx");
  Op op;
  op.kind = OpKind::kProject;
  op.children = {l};
  op.proj = {{x, iter()}, {x, item()}};
  OpId bad = dag_.AddUnchecked(std::move(op), {x, x});
  ExpectRejected(bad, "duplicate-column", bad);
}

TEST_F(VerifyTest, RejectsWrongFunArity) {
  OpId l = Triples({{1, 1, 5}});
  ColId res = ColSym("vsum");
  Op op;
  op.kind = OpKind::kFun;
  op.children = {l};
  op.fun = FunKind::kAdd;
  op.col = res;
  op.args = {item()};  // add is binary
  OpId bad = dag_.AddUnchecked(std::move(op), {iter(), pos(), item(), res});
  ExpectRejected(bad, "fun-arity", bad);
}

TEST_F(VerifyTest, RejectsCyclicEdge) {
  OpId l = Triples({{1, 1, 5}});
  Op op;
  op.kind = OpKind::kDistinct;
  op.children = {static_cast<OpId>(dag_.size())};  // points at itself
  (void)l;
  OpId bad = dag_.AddUnchecked(std::move(op), {iter(), pos(), item()});
  ExpectRejected(bad, "acyclicity", bad);
}

TEST_F(VerifyTest, RejectsNoOpChild) {
  Op op;
  op.kind = OpKind::kDistinct;
  op.children = {kNoOp};
  OpId bad = dag_.AddUnchecked(std::move(op), {item()});
  ExpectRejected(bad, "op-out-of-range", bad);
}

TEST_F(VerifyTest, RejectsWrongChildArity) {
  OpId l = Triples({{1, 1, 5}});
  Op op;
  op.kind = OpKind::kUnion;
  op.children = {l};  // needs two inputs
  OpId bad = dag_.AddUnchecked(std::move(op), {iter(), pos(), item()});
  ExpectRejected(bad, "child-arity", bad);
}

TEST_F(VerifyTest, RejectsForgedSchema) {
  OpId l = Triples({{1, 1, 5}});
  Op op;
  op.kind = OpKind::kDistinct;
  op.children = {l};
  // Claims a column the input cannot deliver.
  OpId bad = dag_.AddUnchecked(std::move(op),
                               {iter(), pos(), item(), ColSym("vghost")});
  ExpectRejected(bad, "schema-mismatch", bad);
}

TEST_F(VerifyTest, RejectsMisalignedUnion) {
  OpId l = Triples({{1, 1, 5}});
  OpId r = dag_.Empty({iter(), pos()});
  Op op;
  op.kind = OpKind::kUnion;
  op.children = {l, r};
  OpId bad = dag_.AddUnchecked(std::move(op), {iter(), pos(), item()});
  ExpectRejected(bad, "union-schema", bad);
}

TEST_F(VerifyTest, RejectsSharedConstructorIds) {
  OpId content = Triples({{1, 1, 5}});
  LitTable loop_t;
  loop_t.cols = {iter()};
  loop_t.rows = {{Value::Int(1)}};
  OpId loop = dag_.Lit(std::move(loop_t));
  OpId e1 = dag_.Elem(StrPool::kEmpty, content, loop);
  // A second constructor stamped with the first one's id: hash-consing
  // would have been allowed to merge them, destroying node identity.
  Op op = dag_.op(e1);
  Op forged;
  forged.kind = OpKind::kTextNode;
  forged.children = {content, loop};
  forged.constructor_id = op.constructor_id;
  OpId e2 = dag_.AddUnchecked(std::move(forged), {iter(), item()});
  OpId u = dag_.AddUnchecked(
      [&] {
        Op un;
        un.kind = OpKind::kUnion;
        un.children = {e1, e2};
        return un;
      }(),
      {iter(), item()});
  ExpectRejected(u, "constructor-sharing", e2);
}

TEST_F(VerifyTest, RejectsInvalidCardinalityBounds) {
  OpId l = Triples({{1, 1, 5}});
  LitTable loop_t;
  loop_t.cols = {iter()};
  loop_t.rows = {{Value::Int(1)}};
  OpId loop = dag_.Lit(std::move(loop_t));
  Op op;
  op.kind = OpKind::kCardCheck;
  op.children = {l, loop};
  op.min_card = 2;
  op.max_card = 1;  // empty interval
  OpId bad = dag_.AddUnchecked(std::move(op), {iter(), pos(), item()});
  ExpectRejected(bad, "card-bounds", bad);
}

TEST_F(VerifyTest, RejectsFalseKeyClaim) {
  // item repeats across rows, so it cannot be a key.
  OpId l = Triples({{1, 1, 5}, {2, 1, 5}});
  FactsAudit facts(&dag_);
  OpFacts claim;
  claim.keys.insert(item());
  Status st = CheckClaims(dag_, l, claim, facts.Get(l));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("[property-claim]"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("key claim"), std::string::npos)
      << st.message();
  // iter genuinely is a key here, so that claim passes.
  OpFacts good;
  good.keys.insert(iter());
  EXPECT_TRUE(CheckClaims(dag_, l, good, facts.Get(l)).ok());
}

// An assertion allowing two rows per iteration makes nothing a key: the
// plan verifies, and an iter key planted on it through the plan's
// analysis cache (where the rewriter and the verifier read it) is a
// [property-claim].
TEST_F(VerifyTest, CatchesIterKeyClaimOnWideCardCheck) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}});
  LitTable loop_t;
  loop_t.cols = {iter()};
  loop_t.rows = {{Value::Int(1)}};
  OpId loop = dag_.Lit(std::move(loop_t));
  OpId cc = dag_.CardCheck(l, loop, 0, 2, StrId{0});
  PlanFacts facts(&dag_);
  ASSERT_TRUE(VerifyPlan(dag_, cc, {}, &facts).ok());
  ColSet& keys = const_cast<ColSet&>(facts.analyses.keys.Get(cc));
  ASSERT_EQ(keys.count(iter()), 0u);
  keys.insert(iter());
  Status st = VerifyPlan(dag_, cc, {}, &facts);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("[property-claim] op " + std::to_string(cc) +
                              " "),
            std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("key claim"), std::string::npos)
      << st.message();
}

TEST_F(VerifyTest, RejectsFalseConstantClaim) {
  OpId l = Triples({{1, 1, 5}, {2, 1, 7}});
  FactsAudit facts(&dag_);
  OpFacts claim;
  claim.constant.insert(item());  // 5 vs 7
  Status st = CheckClaims(dag_, l, claim, facts.Get(l));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("constant claim"), std::string::npos)
      << st.message();
  OpFacts good;
  good.constant.insert(pos());  // 1 in every row
  EXPECT_TRUE(CheckClaims(dag_, l, good, facts.Get(l)).ok());
}

TEST_F(VerifyTest, DerivedFactsTrackRowIdAndAggregates) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}, {2, 1, 9}});
  ColId rid = ColSym("vrid");
  OpId numbered = dag_.RowId(l, rid);
  ColId cnt = ColSym("vcnt");
  OpId counts = dag_.Aggr(numbered, AggrKind::kCount, cnt, kNoCol, iter());
  FactsAudit facts(&dag_);
  // # produces a fresh key in arbitrary order.
  EXPECT_TRUE(facts.Get(numbered).keys.count(rid) != 0);
  EXPECT_TRUE(facts.Get(numbered).arbitrary.count(rid) != 0);
  // Grouped aggregation keys its partition column.
  EXPECT_TRUE(facts.Get(counts).keys.count(iter()) != 0);
  // A global aggregate has exactly one row.
  ColId total = ColSym("vtotal");
  OpId global = dag_.Aggr(l, AggrKind::kCount, total, kNoCol, kNoCol);
  FactsAudit global_facts(&dag_);
  EXPECT_TRUE(global_facts.Get(global).at_most_one_row);
  EXPECT_TRUE(global_facts.Get(global).constant.count(total) != 0);
  // The interval bounds underlying those booleans: a literal is [n, n],
  // # and grouped aggregation preserve/bound it, a global aggregate is
  // exactly one row.
  EXPECT_EQ(facts.Get(l).min_rows, 3u);
  EXPECT_EQ(facts.Get(l).max_rows, 3u);
  EXPECT_EQ(facts.Get(numbered).min_rows, 3u);
  EXPECT_EQ(facts.Get(numbered).max_rows, 3u);
  EXPECT_EQ(facts.Get(counts).min_rows, 1u);
  EXPECT_EQ(facts.Get(counts).max_rows, 3u);
  EXPECT_EQ(global_facts.Get(global).min_rows, 1u);
  EXPECT_EQ(global_facts.Get(global).max_rows, 1u);
}

TEST_F(VerifyTest, CheckCardClaimRequiresContainment) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}, {2, 1, 9}});
  FactsAudit facts(&dag_);  // derived interval is [3, 3]
  CardRange sound;
  sound.min = 0;
  sound.max = 10;
  EXPECT_TRUE(CheckCardClaim(dag_, l, sound, facts.Get(l)).ok());
  CardRange lying;  // claims at most 2 rows — excludes the derived [3,3]
  lying.min = 0;
  lying.max = 2;
  Status st = CheckCardClaim(dag_, l, lying, facts.Get(l));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("[cardinality-claim]"), std::string::npos)
      << st.message();
  CardRange lying_min;  // claims at least 4 rows
  lying_min.min = 4;
  lying_min.max = kUnboundedRows;
  EXPECT_FALSE(CheckCardClaim(dag_, l, lying_min, facts.Get(l)).ok());
}

TEST_F(VerifyTest, PipelineRejectsMalformedInputWithDotDump) {
  OpId l = Triples({{1, 1, 5}});
  Op op;
  op.kind = OpKind::kSelect;
  op.children = {l};
  op.col = ColSym("vbroken");
  OpId bad = dag_.AddUnchecked(std::move(op), {iter(), pos(), item()});

  StrPool strings;
  OptimizeOptions options;
  options.verify_each_pass = true;
  options.strings = &strings;
  Result<OpId> opt = Optimize(&dag_, bad, options);
  ASSERT_FALSE(opt.ok());
  const std::string& msg = opt.status().message();
  EXPECT_NE(msg.find("initial plan (compiler output)"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("[dangling-column]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("digraph plan"), std::string::npos) << msg;
}

// Every XMark query must verify clean as compiled, as optimized, and
// after every individual optimizer pass (verify_each_pass verifies each
// pass's output, so a clean run here certifies each intermediate plan).
TEST(VerifyXMarkTest, AllQueriesVerifyBeforeAndAfterEveryPass) {
  Session session;
  for (bool unordered : {false, true}) {
    for (const XMarkQuery& q : XMarkQueries()) {
      QueryOptions options;
      options.verify_each_pass = true;
      options.default_ordering =
          unordered ? OrderingMode::kUnordered : OrderingMode::kOrdered;
      Result<QueryPlans> plans = session.Plan(q.text, options);
      ASSERT_TRUE(plans.ok())
          << q.name << (unordered ? " (unordered)" : " (ordered)") << ": "
          << plans.status().ToString();
      EXPECT_TRUE(VerifyPlan(*plans->dag, plans->initial).ok()) << q.name;
      EXPECT_TRUE(VerifyPlan(*plans->dag, plans->optimized).ok()) << q.name;
    }
  }
}

// The safety net under the shared analysis cache. The verifier reads
// the optimizer's claims from the very cache the rewrite passes filled,
// so a wrong claim on an operator that only a *later* pass created —
// one the post-compile verification never saw — must still be caught by
// the post-optimize verification that reuses the cache. The claims are
// planted by writing through the references the cache hands out, which
// is exactly where the rewriter and the verifier read them.
TEST(VerifyXMarkTest, SharedCacheStillCatchesClaimsPlantedOnLaterPassOps) {
  const XMarkQuery* q9 = nullptr;
  for (const XMarkQuery& q : XMarkQueries()) {
    if (q.name == "Q9") q9 = &q;
  }
  ASSERT_NE(q9, nullptr);
  Session session;
  QueryOptions compile_only;
  compile_only.enable_order_indifference = false;
  Result<QueryPlans> plans = session.Plan(q9->text, compile_only);
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  Dag* dag = plans->dag.get();
  PlanFacts& facts = *plans->facts;  // filled by the post-compile verify

  OptimizeOptions one_pass;
  one_pass.max_passes = 1;
  Result<OpId> first = Optimize(dag, plans->initial, one_pass, &facts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const size_t after_first_pass = dag->size();
  Result<OpId> root = Optimize(dag, *first, OptimizeOptions(), &facts);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  ASSERT_TRUE(VerifyPlan(*dag, *root, {}, &facts).ok());

  // An operator of the final plan created after the first pass, with
  // rows and with a column that is not derivably a key.
  OpId late = kNoOp;
  ColId non_key = kNoCol;
  for (OpId id : dag->ReachableFrom(*root)) {
    if (id < after_first_pass || facts.audit.Get(id).max_rows == 0) continue;
    for (ColId c : dag->op(id).schema) {
      if (facts.audit.Get(id).keys.count(c) == 0) {
        late = id;
        non_key = c;
      }
    }
  }
  ASSERT_NE(late, kNoOp) << "no later pass created a suitable operator";
  const std::string at = "op " + std::to_string(late) + " ";

  CardRange& card = const_cast<CardRange&>(facts.analyses.cards.Get(late));
  const CardRange sound = card;
  card.min = 0;
  card.max = 0;  // "never produces a row"
  Status st = VerifyPlan(*dag, *root, {}, &facts);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("[cardinality-claim] " + at), std::string::npos)
      << st.message();
  card = sound;

  ColSet& keys = const_cast<ColSet&>(facts.analyses.keys.Get(late));
  keys.insert(non_key);
  st = VerifyPlan(*dag, *root, {}, &facts);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("[property-claim] " + at), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("key claim"), std::string::npos)
      << st.message();
  keys.erase(non_key);
  EXPECT_TRUE(VerifyPlan(*dag, *root, {}, &facts).ok());
}

// A presorted mark is a claim like the analyses' facts: planted on a %
// that a later pass appended, over an input that is not derivably sorted
// by its partition and criteria, it must be reported.
TEST(VerifyXMarkTest, CatchesPresortedMarkPlantedOnLaterPassOp) {
  Session session;
  QueryOptions compile_only;
  compile_only.enable_order_indifference = false;
  Result<QueryPlans> plans =
      session.Plan(XMarkQueryText("Q9"), compile_only);
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  Dag* dag = plans->dag.get();
  PlanFacts& facts = *plans->facts;
  OptimizeOptions one_pass;
  one_pass.max_passes = 1;
  Result<OpId> first = Optimize(dag, plans->initial, one_pass, &facts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const size_t after_first_pass = dag->size();
  Result<OpId> root = Optimize(dag, *first, OptimizeOptions(), &facts);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  ASSERT_TRUE(VerifyPlan(*dag, *root, {}, &facts).ok());

  OpId late = kNoOp;
  for (OpId id : dag->ReachableFrom(*root)) {
    const Op& op = dag->op(id);
    if (id >= after_first_pass && op.kind == OpKind::kRowNum &&
        !op.presorted &&
        !SortedCovers(facts.audit.Get(op.children[0]), RowNumSortKeys(op))) {
      late = id;
    }
  }
  ASSERT_NE(late, kNoOp) << "no later pass appended an unsorted %";
  Op& planted = const_cast<Op&>(dag->op(late));
  planted.presorted = true;
  Status st = VerifyPlan(*dag, *root, {}, &facts);
  planted.presorted = false;
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("[presorted-claim] op " +
                              std::to_string(late) + " "),
            std::string::npos)
      << st.message();
  EXPECT_TRUE(VerifyPlan(*dag, *root, {}, &facts).ok());
}

// verify_each_pass names the pass that broke the plan, the verifier's
// diagnostic, and the first certificate of that pass that failed its
// obligation. The bad pass is staged without a broken rewrite: a first
// Optimize merges //c into one descendant step, a wrong constant claim
// is planted on that step through the shared cache, and a second
// Optimize from the compiled root rebuilds the same (hash-consed) step
// in a pass whose step-merging certificate is forced to fail in check
// mode.
TEST(VerifyPlanTest, VerifyEachPassNamesPassAndFailedObligation) {
  Session session;
  ASSERT_TRUE(session
                  .LoadDocument("t.xml",
                                "<a><b><c>x</c></b><b><c>y</c></b></a>")
                  .ok());
  QueryOptions compile_only;
  compile_only.enable_order_indifference = false;
  Result<QueryPlans> plans =
      session.Plan("count(doc(\"t.xml\")//c)", compile_only);
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  Dag* dag = plans->dag.get();
  PlanFacts& facts = *plans->facts;
  Result<OpId> clean = Optimize(dag, plans->initial, {}, &facts);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  OpId merged = kNoOp;
  for (OpId id : dag->ReachableFrom(*clean)) {
    if (dag->op(id).kind == OpKind::kStep &&
        dag->op(id).axis == Axis::kDescendant) {
      merged = id;
    }
  }
  ASSERT_NE(merged, kNoOp) << "//c was not merged into descendant::c";
  ColProps& props = const_cast<ColProps&>(facts.analyses.props.Get(merged));
  props.constant.insert(item());  // two c elements: not constant

  OptimizeOptions checked;
  checked.verify_each_pass = true;
  checked.rewrites.certify.mode = CertifyMode::kCheck;
  checked.rewrites.certify.force_reject_rule = "step_merging";
  Result<OpId> bad = Optimize(dag, plans->initial, checked, &facts);
  ASSERT_FALSE(bad.ok());
  const std::string& msg = bad.status().message();
  EXPECT_EQ(msg.rfind("optimizer pass ", 0), 0u) << msg;
  EXPECT_NE(msg.find("[property-claim] op " + std::to_string(merged) + " "),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("\nfailed obligation: certify: [forced-reject] "
                     "step_merging"),
            std::string::npos)
      << msg;
}

TEST(VerifyXMarkTest, BaselineConfigurationAlsoVerifies) {
  Session session;
  QueryOptions baseline;
  baseline.enable_order_indifference = false;
  for (const XMarkQuery& q : XMarkQueries()) {
    Result<QueryPlans> plans = session.Plan(q.text, baseline);
    ASSERT_TRUE(plans.ok()) << q.name << ": " << plans.status().ToString();
    EXPECT_TRUE(VerifyPlan(*plans->dag, plans->optimized).ok()) << q.name;
  }
}

}  // namespace
}  // namespace exrquy
