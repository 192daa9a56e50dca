// The dataflow framework (opt/dataflow.h) and its concrete instances
// (opt/analyses.h), tested at three levels:
//
//  1. the generic engines, driven by purpose-built toy analyses, pinning
//     the single-sweep contract (one transfer per operator, in the DAG's
//     id order, which a DCHECK guards), the cross-call memoization of
//     forward facts, and — over a real plan — that one PlanQuery
//     transfers each operator at most once per forward tracker;
//  2. plan-level golden tests: with the fact-driven rewrites disabled,
//     the optimizer built on the framework must reproduce the committed
//     pre-framework plans byte for byte, for all 20 XMark queries in
//     both ordering modes (tests/corpus/plans), and the plans of the
//     default configuration must match their committed digests;
//  3. dynamic validation: the key and cardinality facts claimed for the
//     optimized XMark plans are checked against actual evaluation —
//     claimed key columns must be duplicate-free in the materialized
//     table, and row counts must land inside the claimed interval.
//
// Equality of the migrated analyses with the legacy one-shot walks is
// additionally audited on every verified plan by opt/verify.cc, which
// keeps an independent copy of the old liveness walk ("[liveness-
// equivalence]"); the XMark and fuzz suites run with verify_each_pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "algebra/algebra.h"
#include "algebra/dot.h"
#include "api/session.h"
#include "engine/eval.h"
#include "opt/analyses.h"
#include "opt/dataflow.h"
#include "opt/facts_audit.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace exrquy {
namespace {

using col::item;
using col::iter;
using col::pos;

// ---------------------------------------------------------------------------
// 1. The generic engines, with toy analyses.
// ---------------------------------------------------------------------------

// Forward: number of operators in the sub-DAG (shared nodes counted
// once per edge — i.e. sub-*tree* size, which distinguishes DAG sharing
// from tree duplication in the test below).
struct SubtreeSize {
  using Fact = uint64_t;
  Fact Transfer(const Dag&, OpId,
                const std::vector<const Fact*>& in) const {
    Fact n = 1;
    for (const Fact* f : in) n += *f;
    return n;
  }
};

// Backward: longest path from the root (a "depth" demand).
struct DepthFromRoot {
  using Fact = uint64_t;
  Fact Bottom(const Dag&, OpId) const { return 0; }
  void Join(Fact* into, const Fact& from) const {
    *into = std::max(*into, from);
  }
  void Transfer(const Dag&, OpId, const Fact& fact,
                std::vector<Fact>* to_children) const {
    for (Fact& f : *to_children) f = fact + 1;
  }
};

class DataflowTest : public ::testing::Test {
 protected:
  OpId Triples(std::vector<std::array<int64_t, 3>> rows) {
    LitTable t;
    t.cols = {iter(), pos(), item()};
    for (const auto& r : rows) {
      t.rows.push_back(
          {Value::Int(r[0]), Value::Int(r[1]), Value::Int(r[2])});
    }
    return dag_.Lit(std::move(t));
  }

  // A diamond: two distinct unary chains off one shared literal,
  // re-joined by a Union (each arm: Fun, Select on it, projection back
  // to the common schema — 3 ops per arm, 8 ops, 9 tree nodes).
  OpId Diamond(OpId* out_lit = nullptr) {
    OpId l = Triples({{1, 1, 5}});
    ColId a = ColSym("da");
    ColId b = ColSym("db");
    OpId fa = dag_.Fun(l, FunKind::kEq, a, {pos(), pos()});
    OpId fb = dag_.Fun(l, FunKind::kEq, b, {pos(), item()});
    std::vector<std::pair<ColId, ColId>> keep = {
        {iter(), iter()}, {pos(), pos()}, {item(), item()}};
    OpId pa = dag_.Project(dag_.Select(fa, a), keep);
    OpId pb = dag_.Project(dag_.Select(fb, b), keep);
    if (out_lit != nullptr) *out_lit = l;
    return dag_.Union(pa, pb);
  }

  Dag dag_;
};

TEST_F(DataflowTest, ForwardSingleSweepOnDag) {
  OpId root = Diamond();
  ForwardDataflow<SubtreeSize> flow(&dag_);
  // lit(1) -> fun(2) -> sel(3) -> proj(4) on both arms; union = 1+4+4.
  EXPECT_EQ(flow.Get(root), 9u);
  size_t reachable = dag_.ReachableFrom(root).size();
  EXPECT_EQ(reachable, 8u);  // the literal is shared, not duplicated
  // Ascending-id order is topological: one transfer per op.
  EXPECT_EQ(flow.stats().transfers, reachable);
}

TEST_F(DataflowTest, ForwardMemoizesAcrossCallsAndGrowth) {
  OpId root = Diamond();
  ForwardDataflow<SubtreeSize> flow(&dag_);
  (void)flow.Get(root);
  size_t after_first = flow.stats().transfers;
  // Re-asking costs nothing — a cached fact doesn't even start a solve.
  (void)flow.Get(root);
  EXPECT_EQ(flow.stats().transfers, after_first);
  EXPECT_EQ(flow.stats().solves, 1u);
  // Growing the DAG (as rewrites do) only transfers the new operator.
  OpId grown = dag_.Distinct(root);
  EXPECT_EQ(flow.Get(grown), 10u);
  EXPECT_EQ(flow.stats().transfers, after_first + 1);
  EXPECT_EQ(flow.stats().solves, 2u);
}

// A fact handed out by reference stays valid while later Gets grow the
// DAG and the fact storage across several blocks: rewrites hold facts
// of the plan they read while deriving facts of the operators they
// append. The CI sanitizer job runs this under ASan, which turns a
// dangling reference into a hard failure.
TEST_F(DataflowTest, FactReferencesSurviveGrowthAcrossBlocks) {
  OpId lit = kNoOp;
  OpId root = Diamond(&lit);
  ForwardDataflow<SubtreeSize> flow(&dag_);
  FactsAudit audit(&dag_);
  const uint64_t& size = flow.Get(root);
  (void)audit.Get(root);
  // The one-row literal: every column constant and a key.
  const OpFacts& facts = audit.Get(lit);
  ASSERT_EQ(size, 9u);
  ASSERT_EQ(facts.constant.size(), 3u);
  ASSERT_EQ(facts.keys.size(), 3u);

  // Grow one operator at a time, so every block boundary is crossed by
  // a separate Get, until the storage spans more than three blocks.
  const size_t grow = 3 * OpFactBlocks<OpFacts>::kBlock;
  const size_t ops_before = dag_.size();
  OpId top = root;
  for (size_t i = 0; i < grow; ++i) {
    top = dag_.Distinct(top);
    EXPECT_EQ(flow.Get(top), 10u + i);
    EXPECT_FALSE(audit.Get(top).no_rows);
  }
  ASSERT_EQ(dag_.size(), ops_before + grow);

  // The held references still read the facts a fresh derivation gives.
  FactsAudit fresh(&dag_);
  const OpFacts& want = fresh.Get(lit);
  EXPECT_EQ(size, 9u);
  EXPECT_EQ(facts.constant, want.constant);
  EXPECT_EQ(facts.arbitrary, want.arbitrary);
  EXPECT_EQ(facts.keys, want.keys);
  EXPECT_TRUE(facts.kinds == want.kinds);
  EXPECT_EQ(facts.min_rows, want.min_rows);
  EXPECT_EQ(facts.max_rows, want.max_rows);
  EXPECT_EQ(facts.sorted, want.sorted);
}

TEST_F(DataflowTest, BackwardSingleSweepAndJoinAtSharing) {
  OpId lit = kNoOp;
  OpId root = Diamond(&lit);
  BackwardDataflow<DepthFromRoot> flow(&dag_);
  std::vector<uint64_t> facts = flow.Solve(root, 0);
  ASSERT_EQ(facts.size(), size_t{root} + 1);  // dense, by OpId
  // The shared literal is reached through both arms at depth 4; the
  // join keeps the maximum, and the descending sweep joins both parents'
  // contributions in before the literal transfers.
  EXPECT_EQ(facts.at(root), 0u);
  EXPECT_EQ(facts.at(lit), 4u);
  EXPECT_EQ(flow.stats().transfers, dag_.ReachableFrom(root).size());
}

// The single sweep relies on every edge pointing from a larger id to a
// smaller one, which the builders guarantee and both engines DCHECK.
// An edge the other way (only AddUnchecked can make one) dies in debug
// builds; in release builds the sweep stays in bounds.
TEST_F(DataflowTest, ChildAfterParentIsDChecked) {
  Op parent;
  parent.kind = OpKind::kDistinct;
  parent.children = {1};  // the operator added next
  OpId p = dag_.AddUnchecked(std::move(parent), {iter(), pos(), item()});
  OpId child = Triples({{1, 1, 5}});
  ASSERT_LT(p, child);
  EXPECT_DEBUG_DEATH(
      {
        ForwardDataflow<SubtreeSize> flow(&dag_);
        (void)flow.Get(p);
      },
      "CHECK failed: c < ");
  EXPECT_DEBUG_DEATH(
      {
        BackwardDataflow<DepthFromRoot> flow(&dag_);
        (void)flow.Solve(p, 0);
      },
      "CHECK failed: c < ");
}

TEST_F(DataflowTest, BackwardSolvesArePerSeed) {
  OpId root = Diamond();
  BackwardDataflow<DepthFromRoot> flow(&dag_);
  auto shallow = flow.Solve(root, 0);
  auto deep = flow.Solve(root, 10);
  EXPECT_EQ(shallow.at(root) + 10, deep.at(root));
  EXPECT_EQ(flow.stats().solves, 2u);
}

// The liveness instance on a hand-built plan: provenance's demanded
// domains must coincide with ComputeICols for the same seed (both
// payloads ride one demand-edge table; Session::ExplainOrder checks the
// same invariant on every plan it explains).
TEST_F(DataflowTest, ProvenanceDomainsEqualLiveness) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}});
  ColId rank = ColSym("dr");
  OpId rn = dag_.RowNum(l, rank, {{pos(), false}}, iter());
  OpId root = dag_.Project(rn, {{iter(), iter()}, {pos(), rank},
                                {item(), item()}});
  ColSet seed = {iter(), pos(), item()};
  auto icols = ComputeICols(dag_, root, seed);
  OrderProvenance prov = ComputeOrderProvenance(dag_, root, seed, nullptr);
  for (OpId id : dag_.ReachableFrom(root)) {
    ColSet domain;
    for (const auto& [c, reasons] : prov.demand[id]) {
      EXPECT_FALSE(reasons.empty());
      domain.insert(c);
    }
    EXPECT_EQ(domain, icols[id]) << "op " << id;
  }
  // The rank's demand is attributed to the projection that consumes it.
  std::vector<std::string> why = prov.ReasonsFor(rn, rank);
  ASSERT_FALSE(why.empty());
}

// A passed per-iteration assertion of at most one row (fn:zero-or-one,
// fn:exactly-one) makes iter a key; a wider one (two rows, or
// fn:one-or-more) does not. Each iteration of the input holds two rows,
// so only the assertion can supply the key.
TEST_F(DataflowTest, CardCheckAtMostOneMakesIterAKey) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}, {2, 1, 9}, {2, 2, 4}});
  LitTable loop_t;
  loop_t.cols = {iter()};
  loop_t.rows = {{Value::Int(1)}, {Value::Int(2)}};
  OpId loop = dag_.Lit(std::move(loop_t));
  const int64_t kUnbounded = std::numeric_limits<int64_t>::max();
  const struct {
    int64_t min_card;
    int64_t max_card;
    bool key;
  } cases[] = {{0, 1, true}, {1, 1, true}, {0, 2, false},
               {1, kUnbounded, false}};
  for (const auto& c : cases) {
    OpId cc = dag_.CardCheck(l, loop, c.min_card, c.max_card, StrId{0});
    CardTracker cards(&dag_);
    KeyTracker keys(&dag_, {&cards});
    EXPECT_EQ(keys.Get(l).count(iter()), 0u);
    EXPECT_EQ(keys.Get(cc).count(iter()) != 0, c.key)
        << "(" << c.min_card << "," << c.max_card << ")";
    // The audit derives exactly the same.
    FactsAudit audit(&dag_);
    EXPECT_EQ(audit.Get(cc).keys.count(iter()) != 0, c.key)
        << "(" << c.min_card << "," << c.max_card << ")";
  }
}

// ---------------------------------------------------------------------------
// 2 + 3. XMark-level tests.
// ---------------------------------------------------------------------------

class DataflowXMarkTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    session_ = new Session();
    XMarkOptions options;
    options.scale = 0.004;
    ASSERT_TRUE(
        session_->LoadDocument("auction.xml", GenerateXMark(options)).ok());
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }

  static QueryOptions Ordered() { return {}; }
  static QueryOptions Unordered() {
    QueryOptions o;
    o.default_ordering = OrderingMode::kUnordered;
    return o;
  }

  static Session* session_;
};

Session* DataflowXMarkTest::session_ = nullptr;

// With the three fact-driven rewrites off, the framework-based optimizer
// must reproduce the pre-framework plans byte for byte, up to the
// process-wide numbering of fresh columns: both sides are compared as
// CanonicalPlanText, so the result does not depend on what the process
// planned before (test order, --gtest_shuffle). The goldens in
// tests/corpus/plans were dumped from the legacy implementation at the
// commit that introduced them; this is the migration's no-regression
// contract.
TEST_F(DataflowXMarkTest, GoldenPlansByteIdenticalToLegacy) {
  for (const XMarkQuery& q : XMarkQueries()) {
    for (bool unordered : {false, true}) {
      QueryOptions options = unordered ? Unordered() : Ordered();
      options.distinct_by_keys = false;
      options.empty_short_circuit = false;
      options.rownum_by_keys = false;
      options.rownum_by_od = false;
      Result<QueryPlans> p = session_->Plan(q.text, options);
      ASSERT_TRUE(p.ok()) << q.name << ": " << p.status().ToString();
      std::string text =
          PlanToText(*p->dag, p->optimized, session_->strings());
      std::string path = std::string(EXRQUY_TEST_CORPUS_DIR) + "/plans/" +
                         q.name + (unordered ? "_unordered" : "_ordered") +
                         ".txt";
      std::ifstream in(path);
      ASSERT_TRUE(in.good()) << path;
      std::ostringstream golden;
      golden << in.rdbuf();
      EXPECT_EQ(CanonicalPlanText(text), CanonicalPlanText(golden.str()))
          << q.name << (unordered ? " unordered" : " ordered")
          << ": optimized plan drifted from " << path;
    }
  }
}

// The plans the default options reach — every rewrite family on — are
// pinned by digest (tests/corpus/plans/defaults.digests, written by
// tools/dump_plans next to the fact-off goldens): a change to any fact or
// rewrite that alters a production plan shows here.
TEST_F(DataflowXMarkTest, DefaultPlansMatchCommittedDigests) {
  std::string digests;
  for (const XMarkQuery& q : XMarkQueries()) {
    for (bool unordered : {false, true}) {
      Result<QueryPlans> p =
          session_->Plan(q.text, unordered ? Unordered() : Ordered());
      ASSERT_TRUE(p.ok()) << q.name << ": " << p.status().ToString();
      digests += q.name + (unordered ? "_unordered " : "_ordered ") +
                 PlanDigest(PlanToText(*p->dag, p->optimized,
                                       session_->strings())) +
                 "\n";
    }
  }
  std::string path =
      std::string(EXRQUY_TEST_CORPUS_DIR) + "/plans/defaults.digests";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(digests, golden.str())
      << "a default-configuration plan drifted from " << path
      << " (regenerate with tools/dump_plans if deliberate)";
}

// One PlanQuery shares one analysis cache between both verifications
// and every rewrite pass (Q9 takes five passes): however many passes
// and verifications read a fact, each forward tracker transfers each
// operator of the final DAG at most once.
TEST_F(DataflowXMarkTest, PlanQueryTransfersEachOpAtMostOncePerTracker) {
  const XMarkQuery* q9 = nullptr;
  for (const XMarkQuery& q : XMarkQueries()) {
    if (q.name == "Q9") q9 = &q;
  }
  ASSERT_NE(q9, nullptr);
  for (bool unordered : {false, true}) {
    Result<QueryPlans> p =
        session_->Plan(q9->text, unordered ? Unordered() : Ordered());
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    ASSERT_NE(p->facts, nullptr);
    const ForwardAnalyses& a = p->facts->analyses;
    const size_t ops = p->dag->size();
    // The rewrites grew the DAG well past the compiled plan.
    EXPECT_GT(ops, size_t{p->initial} + 1);
    const std::pair<const char*, const DataflowStats*> trackers[] = {
        {"props", &a.props.stats()}, {"cards", &a.cards.stats()},
        {"keys", &a.keys.stats()},   {"sem", &a.sem.stats()},
        {"od", &a.od.stats()},       {"raise", &a.raise.stats()},
    };
    EXPECT_GT(a.cards.stats().transfers, 0u);
    for (const auto& [name, stats] : trackers) {
      EXPECT_LE(stats->transfers, ops)
          << name << (unordered ? " unordered" : " ordered");
    }
  }
}

// Bit-exact identity of a Value, usable as a set element (grouping
// identity — the same notion Distinct and the key analysis reason
// about).
std::pair<uint8_t, uint64_t> ValueBits(const Value& v) {
  uint64_t bits = 0;
  switch (v.kind) {
    case ValueKind::kInt:
      bits = static_cast<uint64_t>(v.i);
      break;
    case ValueKind::kDouble:
      static_assert(sizeof(v.d) == sizeof(bits));
      __builtin_memcpy(&bits, &v.d, sizeof(bits));
      break;
    case ValueKind::kString:
    case ValueKind::kUntyped:
      bits = v.str;
      break;
    case ValueKind::kBool:
      bits = v.b ? 1 : 0;
      break;
    case ValueKind::kNode:
    default:  // no other kind is a query value
      bits = v.node;
      break;
  }
  return {static_cast<uint8_t>(v.kind), bits};
}

// Every key / cardinality fact claimed for an optimized XMark plan must
// hold on the actual data: evaluate the sub-plan and check. Evaluating
// every operator re-runs its whole subtree, so per (query, mode) the
// checked set is capped to the operators with a non-trivial claim.
TEST_F(DataflowXMarkTest, KeyAndCardinalityFactsHoldDynamically) {
  EvalContext ctx;
  ctx.store = &session_->store();
  ctx.strings = &session_->strings();
  ctx.documents = session_->documents();
  ctx.num_threads = 1;

  size_t key_checks = 0;
  size_t card_checks = 0;
  for (const XMarkQuery& q : XMarkQueries()) {
    for (bool unordered : {false, true}) {
      Result<QueryPlans> p =
          session_->Plan(q.text, unordered ? Unordered() : Ordered());
      ASSERT_TRUE(p.ok()) << q.name << ": " << p.status().ToString();
      const Dag& dag = *p->dag;
      CardTracker cards(&dag);
      KeyTracker keys(&dag, {&cards});

      std::vector<OpId> targets;
      for (OpId id : dag.ReachableFrom(p->optimized)) {
        const CardRange& cr = cards.Get(id);
        if (!keys.Get(id).empty() || cr.min > 0 ||
            cr.max != kUnboundedRows) {
          targets.push_back(id);
        }
      }
      // Cap the per-plan work; keep the root (the overall claim) and an
      // even sample of the rest.
      const size_t kMaxTargets = 32;
      if (targets.size() > kMaxTargets) {
        std::vector<OpId> sampled;
        for (size_t i = 0; i < kMaxTargets; ++i) {
          sampled.push_back(targets[i * targets.size() / kMaxTargets]);
        }
        sampled.push_back(p->optimized);
        targets = std::move(sampled);
      }

      for (OpId id : targets) {
        Evaluator ev(dag, &ctx);
        Result<TablePtr> r = ev.Eval(id);
        ASSERT_TRUE(r.ok())
            << q.name << " op " << id << ": " << r.status().ToString();
        const Table& t = **r;
        const CardRange& cr = cards.Get(id);
        EXPECT_GE(t.rows(), cr.min)
            << q.name << " op " << id << " claimed " << cr.ToString();
        EXPECT_LE(t.rows(), cr.max)
            << q.name << " op " << id << " claimed " << cr.ToString();
        ++card_checks;
        for (ColId k : keys.Get(id)) {
          std::set<std::pair<uint8_t, uint64_t>> distinct;
          for (size_t row = 0; row < t.rows(); ++row) {
            EXPECT_TRUE(distinct.insert(ValueBits(t.at(k, row))).second)
                << q.name << " op " << id << ": claimed key column " << k
                << " has a duplicate at row " << row;
          }
          ++key_checks;
        }
      }
    }
  }
  // The corpus genuinely exercises both domains.
  EXPECT_GT(key_checks, 100u);
  EXPECT_GT(card_checks, 200u);
}

}  // namespace
}  // namespace exrquy
