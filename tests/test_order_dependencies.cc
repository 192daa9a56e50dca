// The order-dependency and semantic-type domains (opt/analyses.h), from
// unit level to end-to-end (the kinds gate the order rules):
//
//  1. lattice algebra: ItemKind join/leq, OrderImplied over hand-built
//     fact sets (strictness, constant skipping, single-row saturation);
//  2. rewrite level: hand-built plans where the order-dependency trade
//     must fire (input already sorted, monotone function images) and
//     where it must not (unsorted input, direction mismatch), plus the
//     keyed-partition trade on an iter that a kCardCheck asserts unique
//     — each with the surviving operator population pinned and the
//     traded plans evaluated to confirm the positional ranks are the
//     right ranks;
//  3. fuzzing: rownum_by_od on vs off must be byte-identical in both
//     ordering modes — the trade replaces a % with an operator that
//     produces the exact same column, so flipping the flag can never
//     show up in results;
//  4. dynamic validation: every sortedness fact claimed for an optimized
//     XMark sub-plan is checked against the actually materialized table
//     (test_dataflow.cc validates the key facts the same way).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algebra/algebra.h"
#include "algebra/stats.h"
#include "api/session.h"
#include "engine/eval.h"
#include "engine/value.h"
#include "opt/analyses.h"
#include "opt/facts_audit.h"
#include "opt/pipeline.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace exrquy {
namespace {

using col::item;
using col::iter;
using col::pos;

// ---------------------------------------------------------------------------
// 1. Lattice algebra.
// ---------------------------------------------------------------------------

TEST(ItemKindLattice, LeqIsAPartialOrderWithTopAny) {
  const ItemKind all[] = {ItemKind::kInt,  ItemKind::kNumeric,
                          ItemKind::kString, ItemKind::kBool,
                          ItemKind::kNode, ItemKind::kAny};
  for (ItemKind k : all) {
    EXPECT_TRUE(KindLe(k, k)) << ItemKindName(k);
    EXPECT_TRUE(KindLe(k, ItemKind::kAny)) << ItemKindName(k);
  }
  EXPECT_TRUE(KindLe(ItemKind::kInt, ItemKind::kNumeric));
  EXPECT_FALSE(KindLe(ItemKind::kNumeric, ItemKind::kInt));
  EXPECT_FALSE(KindLe(ItemKind::kString, ItemKind::kNumeric));
  EXPECT_FALSE(KindLe(ItemKind::kAny, ItemKind::kNode));
}

TEST(ItemKindLattice, JoinIsLeastUpperBound) {
  EXPECT_EQ(KindJoin(ItemKind::kInt, ItemKind::kInt), ItemKind::kInt);
  EXPECT_EQ(KindJoin(ItemKind::kInt, ItemKind::kNumeric),
            ItemKind::kNumeric);
  EXPECT_EQ(KindJoin(ItemKind::kInt, ItemKind::kString), ItemKind::kAny);
  EXPECT_EQ(KindJoin(ItemKind::kBool, ItemKind::kNode), ItemKind::kAny);
  const ItemKind all[] = {ItemKind::kInt,  ItemKind::kNumeric,
                          ItemKind::kString, ItemKind::kBool,
                          ItemKind::kNode, ItemKind::kAny};
  for (ItemKind a : all) {
    for (ItemKind b : all) {
      ItemKind j = KindJoin(a, b);
      EXPECT_EQ(j, KindJoin(b, a));  // commutative
      EXPECT_TRUE(KindLe(a, j));     // an upper bound
      EXPECT_TRUE(KindLe(b, j));
    }
  }
  EXPECT_TRUE(KindIsNumeric(ItemKind::kInt));
  EXPECT_TRUE(KindIsNumeric(ItemKind::kNumeric));
  EXPECT_FALSE(KindIsNumeric(ItemKind::kAny));
}

TEST(OrderImpliedTest, FactsConstantsAndSaturation) {
  ColId a = ColSym("oi_a");
  ColId b = ColSym("oi_b");
  ColId c = ColSym("oi_c");
  OrderFact a_strict{{{a, false}}, true};
  OrderFact a_loose{{{a, false}}, false};

  // A fact implies its own order, strict or not.
  EXPECT_TRUE(OrderImplied({a_strict}, {}, {}, false, {{a, false}}));
  EXPECT_TRUE(OrderImplied({a_loose}, {}, {}, false, {{a, false}}));
  // ... but never the opposite direction.
  EXPECT_FALSE(OrderImplied({a_strict}, {}, {}, false, {{a, true}}));

  // Strict exhaustion: <a>! ties on nothing, so every extension of <a>
  // is realized; the non-strict fact leaves <a,b> open.
  EXPECT_TRUE(
      OrderImplied({a_strict}, {}, {}, false, {{a, false}, {b, false}}));
  EXPECT_FALSE(
      OrderImplied({a_loose}, {}, {}, false, {{a, false}, {b, false}}));

  // Constant criteria are skippable on the requested side, in either
  // direction (all rows tie on them).
  EXPECT_TRUE(OrderImplied({}, {c}, {}, false, {{c, false}}));
  EXPECT_TRUE(OrderImplied({}, {c}, {}, false, {{c, true}}));
  EXPECT_TRUE(OrderImplied({a_strict}, {c}, {}, false,
                           {{c, true}, {a, false}, {b, false}}));

  // No fact, no constants: nothing is implied ...
  EXPECT_FALSE(OrderImplied({}, {}, {}, false, {{b, false}}));
  // ... unless the relation can never hold two rows.
  EXPECT_TRUE(OrderImplied({}, {}, {}, true, {{b, true}}));
}

// ---------------------------------------------------------------------------
// 2. The rewrites, on hand-built plans.
// ---------------------------------------------------------------------------

class OrderDependencyTest : public ::testing::Test {
 protected:
  // (iter, pos, item) rows.
  OpId Triples(std::vector<std::array<int64_t, 3>> rows) {
    LitTable t;
    t.cols = {iter(), pos(), item()};
    for (const auto& r : rows) {
      t.rows.push_back(
          {Value::Int(r[0]), Value::Int(r[1]), Value::Int(r[2])});
    }
    return dag_.Lit(std::move(t));
  }

  OpId Opt(OpId root, RewriteOptions rewrites = {}) {
    OptimizeOptions options;
    options.rewrites = rewrites;
    options.verify_each_pass = true;  // audits run on every pass
    Result<OpId> opt = Optimize(&dag_, root, options);
    EXPECT_TRUE(opt.ok()) << opt.status().ToString();
    return opt.ok() ? *opt : root;
  }

  // Evaluates `root` serially and returns the `col` column.
  std::vector<int64_t> Eval(OpId root, ColId col) {
    EvalContext ctx;
    ctx.store = &store_;
    ctx.strings = &strings_;
    ctx.num_threads = 1;
    Evaluator ev(dag_, &ctx);
    Result<TablePtr> r = ev.Eval(root);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<int64_t> out;
    if (!r.ok()) return out;
    for (size_t row = 0; row < (*r)->rows(); ++row) {
      Value v = (*r)->at(col, row);
      EXPECT_EQ(v.kind, ValueKind::kInt);
      out.push_back(v.i);
    }
    return out;
  }

  Dag dag_;
  StrPool strings_;
  NodeStore store_{&strings_};
};

// The input is already sorted by the requested criterion: the % is a
// sort that provably does nothing, so it degrades to a positional #
// (RowId^) whose ids are exactly the ranks the % would have computed.
TEST_F(OrderDependencyTest, RowNumOverSortedInputBecomesPositionalRowId) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}, {1, 3, 9}});
  ColId rank = ColSym("od_r1");
  OpId rn = dag_.RowNum(l, rank, {{item(), false}}, kNoCol);
  OpId proj = dag_.Project(rn, {{iter(), iter()}, {pos(), rank},
                                {item(), item()}});
  OpId opt = Opt(proj);
  PlanStats stats = CollectPlanStats(dag_, opt);
  EXPECT_EQ(stats.rownum_ops, 0u);
  EXPECT_EQ(stats.rowid_ops, 1u);
  EXPECT_EQ(stats.positional_rowid_ops, 1u);
  // The positional ids are the ranks the sort would have assigned.
  EXPECT_EQ(Eval(opt, pos()), (std::vector<int64_t>{1, 2, 3}));
}

// Unsorted input: the fact is not derivable and the % must survive.
TEST_F(OrderDependencyTest, RowNumOverUnsortedInputSurvives) {
  OpId l = Triples({{1, 1, 9}, {1, 2, 5}, {1, 3, 7}});
  ColId rank = ColSym("od_r2");
  OpId rn = dag_.RowNum(l, rank, {{item(), false}}, kNoCol);
  OpId proj = dag_.Project(rn, {{iter(), iter()}, {pos(), rank},
                                {item(), item()}});
  OpId opt = Opt(proj);
  EXPECT_EQ(CollectPlanStats(dag_, opt).rownum_ops, 1u);
  EXPECT_EQ(Eval(opt, pos()), (std::vector<int64_t>{3, 1, 2}));
}

// Direction matters: ascending data does not realize a descending
// request.
TEST_F(OrderDependencyTest, DirectionMismatchBlocksTheTrade) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}, {1, 3, 9}});
  ColId rank = ColSym("od_r3");
  OpId rn = dag_.RowNum(l, rank, {{item(), true}}, kNoCol);
  OpId proj = dag_.Project(rn, {{iter(), iter()}, {pos(), rank},
                                {item(), item()}});
  OpId opt = Opt(proj);
  EXPECT_EQ(CollectPlanStats(dag_, opt).rownum_ops, 1u);
  EXPECT_EQ(Eval(opt, pos()), (std::vector<int64_t>{3, 2, 1}));
}

// Monotone-map transfer: fn:number over a statically numeric sorted
// column preserves the sortedness fact, so ordering by the image column
// still collapses the %.
TEST_F(OrderDependencyTest, MonotoneFunctionImagePreservesSortedness) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}, {1, 3, 9}});
  ColId d = ColSym("od_d4");
  OpId f = dag_.Fun(l, FunKind::kToDouble, d, {item()});
  ColId rank = ColSym("od_r4");
  OpId rn = dag_.RowNum(f, rank, {{d, false}}, kNoCol);
  OpId proj = dag_.Project(rn, {{iter(), iter()}, {pos(), rank}, {d, d}});
  OpId opt = Opt(proj);
  PlanStats stats = CollectPlanStats(dag_, opt);
  EXPECT_EQ(stats.rownum_ops, 0u);
  EXPECT_EQ(stats.positional_rowid_ops, 1u);
  EXPECT_EQ(Eval(opt, pos()), (std::vector<int64_t>{1, 2, 3}));
}

// Antitone transfer: negation flips the direction, so a descending
// request over the negated column is realized (and the ascending one is
// not).
TEST_F(OrderDependencyTest, AntitoneFunctionFlipsDirection) {
  for (bool descending : {true, false}) {
    Dag dag;
    LitTable t;
    t.cols = {iter(), pos(), item()};
    for (int64_t i = 0; i < 3; ++i) {
      t.rows.push_back(
          {Value::Int(1), Value::Int(i + 1), Value::Int(5 + 2 * i)});
    }
    OpId l = dag.Lit(std::move(t));
    ColId n = ColSym("od_n5");
    OpId f = dag.Fun(l, FunKind::kNeg, n, {item()});
    ColId rank = ColSym("od_r5");
    OpId rn = dag.RowNum(f, rank, {{n, descending}}, kNoCol);
    OpId proj = dag.Project(rn, {{iter(), iter()}, {pos(), rank}, {n, n}});
    OptimizeOptions options;
    options.verify_each_pass = true;
    Result<OpId> opt = Optimize(&dag, proj, options);
    ASSERT_TRUE(opt.ok()) << opt.status().ToString();
    PlanStats stats = CollectPlanStats(dag, *opt);
    // -item of an ascending item is descending: only the descending
    // request is already realized.
    EXPECT_EQ(stats.rownum_ops, descending ? 0u : 1u);
  }
}

// A per-iteration cardinality assertion (fn:exactly-one) makes iter a
// key: partitions by it are singletons and every rank is 1. The trade
// is keyed-partition's, so it fires with default options and is kept
// once rownum_by_keys is off, whatever rownum_by_od says. The input is a
// union, so the assertion is the only source of the key.
TEST_F(OrderDependencyTest, CardCheckKeyCollapsesPartitionedRowNum) {
  OpId l = dag_.Union(Triples({{1, 1, 7}}), Triples({{2, 1, 5}}));
  CardTracker cards(&dag_);
  ASSERT_EQ(KeyTracker(&dag_, {&cards}).Get(l).count(iter()), 0u);
  LitTable loop_t;
  loop_t.cols = {iter()};
  loop_t.rows = {{Value::Int(1)}, {Value::Int(2)}};
  OpId loop = dag_.Lit(std::move(loop_t));
  OpId cc = dag_.CardCheck(l, loop, 1, 1, strings_.Intern("exactly-one"));
  ColId rank = ColSym("od_r6");
  OpId rn = dag_.RowNum(cc, rank, {{pos(), false}}, iter());
  OpId proj = dag_.Project(rn, {{iter(), iter()}, {pos(), rank},
                                {item(), item()}});

  OpId opt = Opt(proj, RewriteOptions{});
  EXPECT_EQ(CollectPlanStats(dag_, opt).rownum_ops, 0u);
  EXPECT_EQ(Eval(opt, pos()), (std::vector<int64_t>{1, 1}));

  // Without rownum_by_keys nothing else can eliminate this %.
  RewriteOptions no_keys;
  no_keys.rownum_by_keys = false;
  for (bool od : {true, false}) {
    no_keys.rownum_by_od = od;
    OpId kept = Opt(proj, no_keys);
    EXPECT_EQ(CollectPlanStats(dag_, kept).rownum_ops, 1u) << "od=" << od;
    EXPECT_EQ(Eval(kept, pos()), (std::vector<int64_t>{1, 1}));
  }
}

// A partitioned % whose input arrives sorted by (partition, criteria):
// both derivations — the analysis and the verifier's audit — give its
// output <iter,pos>!, and the optimizer marks it presorted (RowNum^), so
// it ranks in physical order with the ranks a sort would give. The
// input is a left-major product of a strictly ascending iter and an
// ascending item, i.e. <iter,item>!.
TEST_F(OrderDependencyTest, PartitionedRowNumOverSortedInputIsPresorted) {
  LitTable iters;
  iters.cols = {iter()};
  iters.rows = {{Value::Int(1)}, {Value::Int(2)}};
  LitTable items;
  items.cols = {item()};
  items.rows = {{Value::Int(5)}, {Value::Int(7)}, {Value::Int(9)}};
  OpId in = dag_.Cross(dag_.Lit(std::move(iters)), dag_.Lit(std::move(items)));
  OpId rn = dag_.RowNum(in, pos(), {{item(), false}}, iter());
  PlanFacts facts(&dag_);
  auto implied = [](const std::vector<OrderFact>& have,
                    const OrderFact& want) {
    return std::any_of(have.begin(), have.end(), [&](const OrderFact& f) {
      return FactImplies(f, want);
    });
  };
  const OrderFact sorted_in{{{iter(), false}, {item(), false}}, true};
  const OrderFact ranked{{{iter(), false}, {pos(), false}}, true};
  ASSERT_TRUE(implied(facts.analyses.od.Get(in).facts, sorted_in));
  EXPECT_TRUE(implied(facts.analyses.od.Get(rn).facts, ranked))
      << facts.analyses.od.Get(rn).ToString();
  EXPECT_TRUE(implied(facts.audit.Get(rn).sorted, ranked));

  OpId opt = Opt(rn);
  const Op& op = dag_.op(opt);
  ASSERT_EQ(op.kind, OpKind::kRowNum);
  EXPECT_TRUE(op.presorted);
  EXPECT_EQ(Eval(opt, pos()), (std::vector<int64_t>{1, 2, 3, 1, 2, 3}));
}

// Over unsorted input neither derivation claims any order of the ranks,
// and the % stays unmarked: it sorts.
TEST_F(OrderDependencyTest, PartitionedRowNumOverUnsortedInputSorts) {
  OpId in = Triples({{2, 1, 9}, {1, 2, 5}, {2, 3, 7}, {1, 4, 3}});
  ColId rank = ColSym("od_r7");
  OpId rn = dag_.RowNum(in, rank, {{item(), false}}, iter());
  PlanFacts facts(&dag_);
  auto mentions_rank = [&](const std::vector<OrderFact>& have) {
    for (const OrderFact& f : have) {
      for (const SortKey& k : f.keys) {
        if (k.col == rank) return true;
      }
    }
    return false;
  };
  EXPECT_FALSE(mentions_rank(facts.analyses.od.Get(rn).facts));
  EXPECT_FALSE(mentions_rank(facts.audit.Get(rn).sorted));

  OpId proj = dag_.Project(rn, {{iter(), iter()}, {pos(), rank},
                                {item(), item()}});
  OpId opt = Opt(proj);
  for (OpId id : dag_.ReachableFrom(opt)) {
    EXPECT_FALSE(dag_.op(id).presorted);
  }
  EXPECT_EQ(Eval(opt, pos()), (std::vector<int64_t>{2, 2, 1, 1}));
}

// ---------------------------------------------------------------------------
// 3. Fuzz: the flag is invisible in results.
// ---------------------------------------------------------------------------

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
  int groups = 2 + rng->Below(4);
  for (int g = 0; g < groups; ++g) {
    xml += "<g k=\"" + std::to_string(rng->Below(9)) + "\">";
    int leaves = rng->Below(4);
    for (int l = 0; l < leaves; ++l) {
      xml += "<n v=\"" + std::to_string(rng->Below(30)) + "\">" +
             std::to_string(rng->Below(30)) + "</n>";
    }
    xml += "</g>";
  }
  xml += "</top>";
  return xml;
}

// Order-heavy productions: order by over numeric images, positional
// predicates, nested for — the constructs whose % population the
// order-dependency trade targets.
std::string RandomQuery(Rng* rng) {
  std::string path = (rng->Below(2) != 0) ? R"(doc("f.xml")/top/g)"
                                          : R"(doc("f.xml")//n)";
  switch (rng->Below(5)) {
    case 0:
      return "for $x in " + path +
             " order by number($x/@k) return count($x/n)";
    case 1:
      return "for $x in " + path + " order by -number($x/@v)" +
             " return <r>{ $x/@v }</r>";
    case 2:
      return "for $x in " + path + "[" + std::to_string(1 + rng->Below(3)) +
             "] return exactly-one($x)/@k";
    case 3:
      return "for $x in " + path + " for $y in $x/n[" +
             std::to_string(1 + rng->Below(2)) + "] return number($y)";
    default:
      return "sum(for $x in " + path + " return count($x//n))";
  }
}

class OdFlagFuzzTest : public ::testing::TestWithParam<int> {};

// rownum_by_od trades a % for an operator computing the exact same
// ranks, so turning the flag off must be byte-invisible — in ordered
// AND in unordered mode (the trade never licenses a reordering, unlike
// the mode switch itself).
TEST_P(OdFlagFuzzTest, FlagIsByteInvisible) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 77);
  Session session;
  ASSERT_TRUE(session.LoadDocument("f.xml", RandomDoc(&rng)).ok());

  for (int i = 0; i < 25; ++i) {
    std::string query = RandomQuery(&rng);
    for (bool unordered : {false, true}) {
      QueryOptions on;
      QueryOptions off;
      if (unordered) {
        on.default_ordering = OrderingMode::kUnordered;
        off.default_ordering = OrderingMode::kUnordered;
      }
      off.rownum_by_od = false;
      on.verify_each_pass = true;
      off.verify_each_pass = true;
      Result<QueryResult> a = session.Execute(query, on);
      Result<QueryResult> b = session.Execute(query, off);
      ASSERT_EQ(a.ok(), b.ok())
          << query << "\non:  " << a.status().ToString()
          << "\noff: " << b.status().ToString();
      if (!a.ok()) continue;
      EXPECT_EQ(a->serialized, b->serialized) << query;
      EXPECT_EQ(a->items, b->items) << query;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OdFlagFuzzTest, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// 4. Dynamic validation on XMark.
// ---------------------------------------------------------------------------

class OrderDependencyXMarkTest : public ::testing::Test {
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

  static Session* session_;
};

Session* OrderDependencyXMarkTest::session_ = nullptr;

// Every sortedness fact the analyses claim for an optimized XMark
// sub-plan must hold on the materialized table: lexicographic order
// under the engine's OrderCompare (no full tie when strict). Evaluating
// every operator re-runs its whole subtree, so the per-plan checked set
// is capped to a sample of operators with non-trivial claims.
TEST_F(OrderDependencyXMarkTest, ClaimedFactsHoldDynamically) {
  EvalContext ctx;
  ctx.store = &session_->store();
  ctx.strings = &session_->strings();
  ctx.documents = session_->documents();
  ctx.num_threads = 1;
  ValueOps ops(&session_->strings(), &session_->store());

  size_t order_checks = 0;
  for (const XMarkQuery& q : XMarkQueries()) {
    for (bool unordered : {false, true}) {
      QueryOptions options;
      if (unordered) options.default_ordering = OrderingMode::kUnordered;
      Result<QueryPlans> p = session_->Plan(q.text, options);
      ASSERT_TRUE(p.ok()) << q.name << ": " << p.status().ToString();
      const Dag& dag = *p->dag;
      PropertyTracker props(&dag);
      CardTracker cards(&dag);
      KeyTracker keys(&dag, {&cards});
      SemTypeTracker sem(&dag, {&cards});
      OrderTracker od(&dag, {&props, &cards, &keys, &sem});

      std::vector<OpId> targets;
      for (OpId id : dag.ReachableFrom(p->optimized)) {
        if (!od.Get(id).facts.empty()) targets.push_back(id);
      }
      const size_t kMaxTargets = 24;
      if (targets.size() > kMaxTargets) {
        std::vector<OpId> sampled;
        for (size_t i = 0; i < kMaxTargets; ++i) {
          sampled.push_back(targets[i * targets.size() / kMaxTargets]);
        }
        targets = std::move(sampled);
      }

      for (OpId id : targets) {
        Evaluator ev(dag, &ctx);
        Result<TablePtr> r = ev.Eval(id);
        ASSERT_TRUE(r.ok())
            << q.name << " op " << id << ": " << r.status().ToString();
        const Table& t = **r;

        for (const OrderFact& fact : od.Get(id).facts) {
          for (size_t row = 1; row < t.rows(); ++row) {
            bool tied = true;
            for (const SortKey& k : fact.keys) {
              int c = ops.OrderCompare(t.at(k.col, row - 1),
                                       t.at(k.col, row));
              if (k.descending) c = -c;
              ASSERT_LE(c, 0)
                  << q.name << " op " << id << ": claimed "
                  << fact.ToString() << " violated at row " << row;
              if (c < 0) {
                tied = false;
                break;
              }
            }
            EXPECT_TRUE(!fact.strict || !tied)
                << q.name << " op " << id << ": strict claim "
                << fact.ToString() << " tied at row " << row;
          }
          ++order_checks;
        }
      }
    }
  }
  // The corpus genuinely exercises the domain.
  EXPECT_GT(order_checks, 100u);
}

}  // namespace
}  // namespace exrquy
