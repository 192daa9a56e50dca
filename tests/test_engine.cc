// Operator-level tests for the columnar engine: every algebra operator
// evaluated on small literal tables, including the % / # primitives, the
// grouped aggregates (with the EBV and order-sensitive string-join
// cases), joins, set operations, and node constructors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "algebra/algebra.h"
#include "engine/eval.h"
#include "engine/key_groups.h"
#include "ref/interp.h"
#include "xml/serializer.h"
#include "xml/xml_parser.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"

namespace exrquy {
namespace {

using col::item;
using col::iter;
using col::pos;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : store_(&strings_) {
    ctx_.store = &store_;
    ctx_.strings = &strings_;
  }

  // Builds a Lit with columns (iter, pos, item) from integer triples.
  OpId Triples(std::vector<std::array<int64_t, 3>> rows) {
    LitTable t;
    t.cols = {iter(), pos(), item()};
    for (const auto& r : rows) {
      t.rows.push_back(
          {Value::Int(r[0]), Value::Int(r[1]), Value::Int(r[2])});
    }
    return dag_.Lit(std::move(t));
  }

  TablePtr Eval(OpId root) {
    Evaluator ev(dag_, &ctx_);
    Result<TablePtr> r = ev.Eval(root);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : nullptr;
  }

  Status EvalError(OpId root) {
    Evaluator ev(dag_, &ctx_);
    Result<TablePtr> r = ev.Eval(root);
    EXPECT_FALSE(r.ok());
    return r.ok() ? Status::Ok() : r.status();
  }

  // Column values as int64 (CHECKs kind).
  std::vector<int64_t> Ints(const Table& t, ColId c) {
    std::vector<int64_t> out;
    for (size_t i = 0; i < t.rows(); ++i) {
      EXPECT_EQ(t.at(c, i).kind, ValueKind::kInt);
      out.push_back(t.at(c, i).i);
    }
    return out;
  }

  StrPool strings_;
  NodeStore store_;
  Dag dag_;
  EvalContext ctx_;
};

TEST_F(EngineTest, LitAndProject) {
  OpId l = Triples({{1, 1, 10}, {1, 2, 20}});
  ColId renamed = ColSym("val");
  TablePtr t = Eval(dag_.Project(l, {{renamed, item()}, {iter(), iter()}}));
  ASSERT_EQ(t->rows(), 2u);
  EXPECT_EQ(Ints(*t, renamed), (std::vector<int64_t>{10, 20}));
}

TEST_F(EngineTest, SelectKeepsTrueRows) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 15}, {1, 3, 25}});
  ColId k = ColSym("k10");
  OpId withk = dag_.AttachConst(l, k, Value::Int(10));
  ColId b = ColSym("flag");
  OpId f = dag_.Fun(withk, FunKind::kGt, b, {item(), k});
  TablePtr t = Eval(dag_.Select(f, b));
  EXPECT_EQ(Ints(*t, item()), (std::vector<int64_t>{15, 25}));
}

TEST_F(EngineTest, SelectOnNonBoolErrors) {
  OpId l = Triples({{1, 1, 5}});
  Status st = EvalError(dag_.Select(l, item()));
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST_F(EngineTest, EquiJoinMatchesKeys) {
  OpId l = Triples({{1, 1, 10}, {2, 1, 20}, {3, 1, 30}});
  ColId i2 = ColSym("iterX");
  ColId v2 = ColSym("itemX");
  LitTable rt;
  rt.cols = {i2, v2};
  rt.rows = {{Value::Int(1), Value::Int(100)},
             {Value::Int(3), Value::Int(300)},
             {Value::Int(3), Value::Int(301)}};
  OpId r = dag_.Lit(std::move(rt));
  TablePtr t = Eval(dag_.EquiJoin(l, r, iter(), i2));
  ASSERT_EQ(t->rows(), 3u);  // iter 1 once, iter 3 twice
  std::vector<int64_t> iters = Ints(*t, iter());
  std::sort(iters.begin(), iters.end());
  EXPECT_EQ(iters, (std::vector<int64_t>{1, 3, 3}));
}

TEST_F(EngineTest, CrossMultiplies) {
  OpId l = Triples({{1, 1, 10}, {2, 1, 20}});
  ColId c = ColSym("cc");
  LitTable rt;
  rt.cols = {c};
  rt.rows = {{Value::Int(7)}, {Value::Int(8)}};
  TablePtr t = Eval(dag_.Cross(l, dag_.Lit(std::move(rt))));
  EXPECT_EQ(t->rows(), 4u);
}

TEST_F(EngineTest, UnionAlignsByName) {
  OpId a = Triples({{1, 1, 10}});
  // Same columns in a different declaration order.
  LitTable bt;
  bt.cols = {item(), iter(), pos()};
  bt.rows = {{Value::Int(99), Value::Int(2), Value::Int(1)}};
  OpId b = dag_.Lit(std::move(bt));
  TablePtr t = Eval(dag_.Union(a, b));
  ASSERT_EQ(t->rows(), 2u);
  EXPECT_EQ(Ints(*t, item()), (std::vector<int64_t>{10, 99}));
  EXPECT_EQ(Ints(*t, iter()), (std::vector<int64_t>{1, 2}));
}

TEST_F(EngineTest, DifferenceAntiJoin) {
  OpId l = Triples({{1, 1, 0}, {2, 1, 0}, {3, 1, 0}});
  LitTable rt;
  rt.cols = {iter()};
  rt.rows = {{Value::Int(2)}};
  OpId r = dag_.Lit(std::move(rt));
  TablePtr t = Eval(dag_.Difference(l, r, {iter()}));
  EXPECT_EQ(Ints(*t, iter()), (std::vector<int64_t>{1, 3}));
}

TEST_F(EngineTest, SemiJoinKeepsMatches) {
  OpId l = Triples({{1, 1, 0}, {2, 1, 0}, {3, 1, 0}});
  LitTable rt;
  rt.cols = {iter()};
  rt.rows = {{Value::Int(2)}, {Value::Int(2)}, {Value::Int(3)}};
  OpId r = dag_.Lit(std::move(rt));
  TablePtr t = Eval(dag_.SemiJoin(l, r, {iter()}));
  EXPECT_EQ(Ints(*t, iter()), (std::vector<int64_t>{2, 3}));
}

TEST_F(EngineTest, DistinctStable) {
  OpId l = Triples({{1, 1, 5}, {1, 1, 5}, {1, 2, 5}, {1, 1, 5}});
  TablePtr t = Eval(dag_.Distinct(l));
  ASSERT_EQ(t->rows(), 2u);
  EXPECT_EQ(Ints(*t, pos()), (std::vector<int64_t>{1, 2}));
}

// Survivors are each group's first row in first-appearance order: -0.0
// (equal to 0.0) keeps its sign, and NaN rows, equal to nothing, all
// survive.
TEST_F(EngineTest, DistinctKeepsFirstRowOfEachGroup) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  LitTable t;
  t.cols = {item()};
  for (double d : {-0.0, 1.0, 0.0, nan, 1.0, nan}) {
    t.rows.push_back({Value::Double(d)});
  }
  TablePtr out = Eval(dag_.Distinct(dag_.Lit(std::move(t))));
  ASSERT_EQ(out->rows(), 4u);
  EXPECT_TRUE(std::signbit(out->at(item(), 0).d));
  EXPECT_EQ(out->at(item(), 1).d, 1.0);
  EXPECT_TRUE(std::isnan(out->at(item(), 2).d));
  EXPECT_TRUE(std::isnan(out->at(item(), 3).d));
}

TEST_F(EngineTest, RowNumDensePerGroup) {
  OpId l = Triples({{2, 9, 0}, {1, 5, 0}, {2, 3, 0}, {1, 1, 0}});
  ColId rank = ColSym("rank1");
  TablePtr t = Eval(dag_.RowNum(l, rank, {{pos(), false}}, iter()));
  // Row order preserved; ranks dense within each iter group by pos.
  EXPECT_EQ(Ints(*t, rank), (std::vector<int64_t>{2, 2, 1, 1}));
}

TEST_F(EngineTest, RowNumDescendingAndUngrouped) {
  OpId l = Triples({{1, 1, 10}, {1, 2, 30}, {1, 3, 20}});
  ColId rank = ColSym("rank2");
  TablePtr t = Eval(dag_.RowNum(l, rank, {{item(), true}}, kNoCol));
  EXPECT_EQ(Ints(*t, rank), (std::vector<int64_t>{3, 1, 2}));
}

TEST_F(EngineTest, RowNumMultiKeyTieBreak) {
  OpId l = Triples({{1, 2, 5}, {1, 1, 5}, {1, 1, 4}});
  ColId rank = ColSym("rank3");
  TablePtr t =
      Eval(dag_.RowNum(l, rank, {{item(), false}, {pos(), false}}, kNoCol));
  EXPECT_EQ(Ints(*t, rank), (std::vector<int64_t>{3, 2, 1}));
}

TEST_F(EngineTest, RowIdSequential) {
  OpId l = Triples({{1, 1, 0}, {1, 2, 0}, {1, 3, 0}});
  ColId id = ColSym("rid");
  TablePtr t = Eval(dag_.RowId(l, id));
  EXPECT_EQ(Ints(*t, id), (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(EngineTest, FunArithmeticAndComparisons) {
  OpId l = Triples({{1, 1, 6}});
  ColId k = ColSym("k4");
  OpId withk = dag_.AttachConst(l, k, Value::Int(4));
  ColId sum = ColSym("s");
  TablePtr t = Eval(dag_.Fun(withk, FunKind::kAdd, sum, {item(), k}));
  EXPECT_EQ(Ints(*t, sum), (std::vector<int64_t>{10}));

  ColId le = ColSym("le1");
  TablePtr t2 = Eval(dag_.Fun(withk, FunKind::kLe, le, {item(), k}));
  EXPECT_FALSE(t2->at(le, 0).b);
}

TEST_F(EngineTest, FunDivisionByZeroErrors) {
  OpId l = Triples({{1, 1, 6}});
  ColId z = ColSym("z0");
  OpId withz = dag_.AttachConst(l, z, Value::Int(0));
  Status st = EvalError(dag_.Fun(withz, FunKind::kIDiv, ColSym("q"),
                                 {item(), z}));
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST_F(EngineTest, AggrCountSumPerGroup) {
  OpId l = Triples({{1, 1, 10}, {1, 2, 20}, {2, 1, 5}});
  ColId cnt = ColSym("cnt1");
  TablePtr t = Eval(dag_.Aggr(l, AggrKind::kCount, cnt, kNoCol, iter()));
  ASSERT_EQ(t->rows(), 2u);
  EXPECT_EQ(Ints(*t, cnt), (std::vector<int64_t>{2, 1}));

  ColId s = ColSym("sum1");
  TablePtr t2 = Eval(dag_.Aggr(l, AggrKind::kSum, s, item(), iter()));
  EXPECT_EQ(Ints(*t2, s), (std::vector<int64_t>{30, 5}));
}

TEST_F(EngineTest, AggrMaxMinNumericCast) {
  LitTable lt;
  lt.cols = {iter(), item()};
  lt.rows = {{Value::Int(1), Value::Untyped(strings_.Intern("5"))},
             {Value::Int(1), Value::Untyped(strings_.Intern("40"))}};
  OpId l = dag_.Lit(std::move(lt));
  ColId mx = ColSym("mx");
  TablePtr t = Eval(dag_.Aggr(l, AggrKind::kMax, mx, item(), iter()));
  ASSERT_EQ(t->rows(), 1u);
  // Untyped numerics compare numerically: 40 > 5 (not "5" > "40").
  EXPECT_EQ(t->at(mx, 0).kind, ValueKind::kDouble);
  EXPECT_DOUBLE_EQ(t->at(mx, 0).d, 40.0);
}

TEST_F(EngineTest, AggrAvg) {
  OpId l = Triples({{1, 1, 10}, {1, 2, 20}});
  ColId avg = ColSym("avg1");
  TablePtr t = Eval(dag_.Aggr(l, AggrKind::kAvg, avg, item(), iter()));
  EXPECT_DOUBLE_EQ(t->at(avg, 0).d, 15.0);
}

TEST_F(EngineTest, AggrEbvSingleAndNodes) {
  LitTable lt;
  lt.cols = {iter(), item()};
  lt.rows = {{Value::Int(1), Value::Int(0)},
             {Value::Int(2), Value::Int(7)},
             {Value::Int(3), Value::Node(0)},
             {Value::Int(3), Value::Node(1)}};
  OpId l = dag_.Lit(std::move(lt));
  ColId b = ColSym("ebv1");
  TablePtr t = Eval(dag_.Aggr(l, AggrKind::kEbv, b, item(), iter()));
  ASSERT_EQ(t->rows(), 3u);
  EXPECT_FALSE(t->at(b, 0).b);
  EXPECT_TRUE(t->at(b, 1).b);
  EXPECT_TRUE(t->at(b, 2).b);
}

TEST_F(EngineTest, AggrEbvMultiAtomicErrors) {
  OpId l = Triples({{1, 1, 1}, {1, 2, 2}});
  Status st = EvalError(
      dag_.Aggr(l, AggrKind::kEbv, ColSym("ebv2"), item(), iter()));
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST_F(EngineTest, AggrStrJoinOrderedByPos) {
  LitTable lt;
  lt.cols = {iter(), pos(), item()};
  lt.rows = {{Value::Int(1), Value::Int(2), Value::Str(strings_.Intern("b"))},
             {Value::Int(1), Value::Int(1), Value::Str(strings_.Intern("a"))},
             {Value::Int(1), Value::Int(3), Value::Str(strings_.Intern("c"))}};
  OpId l = dag_.Lit(std::move(lt));
  ColId j = ColSym("join1");
  TablePtr t = Eval(dag_.AggrStrJoin(l, j, item(), iter(), pos(),
                                     strings_.Intern(" ")));
  EXPECT_EQ(strings_.Get(t->at(j, 0).str), "a b c");
}

TEST_F(EngineTest, AggrStrJoinCustomSeparator) {
  LitTable lt;
  lt.cols = {iter(), pos(), item()};
  lt.rows = {{Value::Int(1), Value::Int(1), Value::Str(strings_.Intern("x"))},
             {Value::Int(1), Value::Int(2), Value::Str(strings_.Intern("y"))}};
  OpId l = dag_.Lit(std::move(lt));
  ColId j = ColSym("join2");
  TablePtr t = Eval(dag_.AggrStrJoin(l, j, item(), iter(), pos(),
                                     strings_.Intern(", ")));
  EXPECT_EQ(strings_.Get(t->at(j, 0).str), "x, y");
}

TEST_F(EngineTest, RangeExpansion) {
  LitTable lt;
  ColId lo = ColSym("lo");
  ColId hi = ColSym("hi");
  lt.cols = {iter(), lo, hi};
  lt.rows = {{Value::Int(1), Value::Int(2), Value::Int(4)},
             {Value::Int(2), Value::Int(5), Value::Int(3)}};  // empty
  OpId r = dag_.Range(dag_.Lit(std::move(lt)), lo, hi);
  TablePtr t = Eval(r);
  ASSERT_EQ(t->rows(), 3u);
  EXPECT_EQ(Ints(*t, item()), (std::vector<int64_t>{2, 3, 4}));
  EXPECT_EQ(Ints(*t, iter()), (std::vector<int64_t>{1, 1, 1}));
}

TEST_F(EngineTest, StepOverDocument) {
  Result<NodeIdx> doc = ParseXml(&store_, "<a><b/><b/><c/></a>");
  ASSERT_TRUE(doc.ok());
  LitTable ctx;
  ctx.cols = {iter(), item()};
  ctx.rows = {{Value::Int(1), Value::Node(*doc + 1)}};
  OpId l = dag_.Lit(std::move(ctx));
  OpId st = dag_.Step(l, Axis::kChild,
                      NodeTest::Name(strings_.Intern("b")));
  TablePtr t = Eval(st);
  EXPECT_EQ(t->rows(), 2u);
}

TEST_F(EngineTest, StepOnAtomicErrors) {
  LitTable ctx;
  ctx.cols = {iter(), item()};
  ctx.rows = {{Value::Int(1), Value::Int(42)}};
  OpId st = dag_.Step(dag_.Lit(std::move(ctx)), Axis::kChild,
                      NodeTest::AnyKind());
  EXPECT_EQ(EvalError(st).code(), StatusCode::kTypeError);
}

TEST_F(EngineTest, DocResolvesRegisteredDocuments) {
  Result<NodeIdx> doc = ParseXml(&store_, "<a/>");
  ASSERT_TRUE(doc.ok());
  StrId name = strings_.Intern("d.xml");
  ctx_.documents[name] = *doc;
  TablePtr t = Eval(dag_.Doc(name));
  ASSERT_EQ(t->rows(), 1u);
  EXPECT_EQ(t->at(item(), 0).node, *doc);
  EXPECT_EQ(EvalError(dag_.Doc(strings_.Intern("missing"))).code(),
            StatusCode::kNotFound);
}

TEST_F(EngineTest, ElemBuildsPerLoopIteration) {
  // Loop {1, 2}; content only for iter 1: element 2 must still exist.
  LitTable loop;
  loop.cols = {iter()};
  loop.rows = {{Value::Int(1)}, {Value::Int(2)}};
  OpId lp = dag_.Lit(std::move(loop));
  LitTable ct;
  ct.cols = {iter(), pos(), item()};
  ct.rows = {{Value::Int(1), Value::Int(2), Value::Int(20)},
             {Value::Int(1), Value::Int(1), Value::Int(10)}};
  OpId content = dag_.Lit(std::move(ct));
  OpId el = dag_.Elem(strings_.Intern("e"), content, lp);
  TablePtr t = Eval(el);
  ASSERT_EQ(t->rows(), 2u);
  // Content sorted by pos; adjacent atomics joined with a space.
  EXPECT_EQ(store_.StringValue(t->at(item(), 0).node), "10 20");
  EXPECT_EQ(store_.StringValue(t->at(item(), 1).node), "");
}

TEST_F(EngineTest, ElemAttributeItemsBecomeAttributes) {
  NodeIdx attr =
      store_.MakeAttribute(strings_.Intern("k"), strings_.Intern("v"));
  LitTable loop;
  loop.cols = {iter()};
  loop.rows = {{Value::Int(1)}};
  OpId lp = dag_.Lit(std::move(loop));
  LitTable ct;
  ct.cols = {iter(), pos(), item()};
  ct.rows = {{Value::Int(1), Value::Int(1), Value::Node(attr)},
             {Value::Int(1), Value::Int(2), Value::Int(3)}};
  OpId el = dag_.Elem(strings_.Intern("e"), dag_.Lit(std::move(ct)), lp);
  TablePtr t = Eval(el);
  NodeIdx e = t->at(item(), 0).node;
  EXPECT_EQ(store_.kind(e + 1), NodeKind::kAttribute);
  EXPECT_EQ(store_.name_str(e + 1), "k");
  EXPECT_EQ(store_.StringValue(e), "3");
}

TEST_F(EngineTest, AttrJoinsValuesInPosOrder) {
  LitTable loop;
  loop.cols = {iter()};
  loop.rows = {{Value::Int(1)}};
  OpId lp = dag_.Lit(std::move(loop));
  LitTable vt;
  vt.cols = {iter(), pos(), item()};
  vt.rows = {{Value::Int(1), Value::Int(2), Value::Int(2)},
             {Value::Int(1), Value::Int(1), Value::Int(1)}};
  OpId a = dag_.Attr(strings_.Intern("n"), dag_.Lit(std::move(vt)), lp);
  TablePtr t = Eval(a);
  EXPECT_EQ(store_.value_str(t->at(item(), 0).node), "1 2");
}

TEST_F(EngineTest, TextSkipsEmptyIterations) {
  LitTable loop;
  loop.cols = {iter()};
  loop.rows = {{Value::Int(1)}, {Value::Int(2)}};
  OpId lp = dag_.Lit(std::move(loop));
  LitTable ct;
  ct.cols = {iter(), pos(), item()};
  ct.rows = {{Value::Int(2), Value::Int(1), Value::Int(9)}};
  OpId tx = dag_.Text(dag_.Lit(std::move(ct)), lp);
  TablePtr t = Eval(tx);
  ASSERT_EQ(t->rows(), 1u);
  EXPECT_EQ(Ints(*t, iter()), (std::vector<int64_t>{2}));
}

// Constructor content in any arrival order: rows shuffled or already in
// (iter, pos) order, tied pos values (sequence order then falls back to
// row order), loop iterations without content, loop rows in either
// order, and attribute nodes, atomics and other nodes interleaved. Every
// element, attribute and text node built must equal what the reference
// interpreter builds from the same items in sequence order.
TEST_F(EngineTest, ConstructorsMatchReferenceOnAnyContentOrder) {
  Result<NodeIdx> doc =
      ParseXml(&store_, R"(<r a="1" b="2"><x>1</x><x>2<y/>z</x></r>)");
  ASSERT_TRUE(doc.ok());
  const NodeIdx d = *doc;
  ASSERT_EQ(store_.name_str(d + 2), "a");
  ASSERT_EQ(store_.name_str(d + 6), "x");
  ASSERT_EQ(store_.value_str(d + 5), "1");
  struct Item {
    Value v;
    std::string expr;  // the same item as an XQuery expression
  };
  const std::vector<Item> items = {
      {Value::Int(7), "7"},
      {Value::Int(42), "42"},
      {Value::Str(strings_.Intern("s")), "'s'"},
      {Value::Node(d + 2), "doc('d.xml')/r/@a"},
      {Value::Node(d + 3), "doc('d.xml')/r/@b"},
      {Value::Node(d + 4), "doc('d.xml')/r/x[1]"},
      {Value::Node(d + 6), "doc('d.xml')/r/x[2]"},
      {Value::Node(d + 5), "doc('d.xml')/r/x[1]/text()"},
      {Value::Node(d), "doc('d.xml')"},
  };
  RefInterpreter ref(&store_, &strings_, {{strings_.Intern("d.xml"), d}});
  auto run_ref = [&](const std::string& query) -> std::vector<Value> {
    Result<Query> parsed = ParseQuery(query);
    EXPECT_TRUE(parsed.ok()) << query;
    if (!parsed.ok()) return {};
    NormalizeOptions norm;
    norm.insert_unordered = false;
    EXPECT_TRUE(Normalize(&*parsed, norm).ok()) << query;
    Result<std::vector<Value>> r = ref.Eval(*parsed->body);
    EXPECT_TRUE(r.ok()) << query << ": " << r.status().ToString();
    return r.ok() ? *r : std::vector<Value>{};
  };

  std::mt19937 rng(2026);
  constexpr int64_t kIters = 6;  // iter 6 never has content
  for (int trial = 0; trial < 40; ++trial) {
    struct Row {
      int64_t iter;
      int64_t pos;
      size_t item;
    };
    std::vector<Row> rows(rng() % 16);
    for (Row& r : rows) {
      r = Row{1 + static_cast<int64_t>(rng() % (kIters - 1)),
              1 + static_cast<int64_t>(rng() % 3), rng() % items.size()};
    }
    auto by_iter_pos = [](const Row& a, const Row& b) {
      return a.iter != b.iter ? a.iter < b.iter : a.pos < b.pos;
    };
    if (trial % 3 == 0) std::stable_sort(rows.begin(), rows.end(), by_iter_pos);
    std::vector<int64_t> loop_iters;
    for (int64_t i = 1; i <= kIters; ++i) loop_iters.push_back(i);
    if (trial % 2 == 1) std::shuffle(loop_iters.begin(), loop_iters.end(), rng);

    LitTable ct;
    ct.cols = {iter(), pos(), item()};
    for (const Row& r : rows) {
      ct.rows.push_back({Value::Int(r.iter), Value::Int(r.pos), items[r.item].v});
    }
    LitTable lt;
    lt.cols = {iter()};
    for (int64_t i : loop_iters) lt.rows.push_back({Value::Int(i)});
    OpId content = dag_.Lit(std::move(ct));
    OpId loop = dag_.Lit(std::move(lt));
    TablePtr elems = Eval(dag_.Elem(strings_.Intern("e"), content, loop));
    TablePtr attrs = Eval(dag_.Attr(strings_.Intern("n"), content, loop));
    TablePtr texts = Eval(dag_.Text(content, loop));
    ASSERT_NE(elems, nullptr);
    ASSERT_NE(attrs, nullptr);
    ASSERT_NE(texts, nullptr);
    ASSERT_EQ(elems->rows(), loop_iters.size());
    ASSERT_EQ(attrs->rows(), loop_iters.size());

    size_t text_row = 0;
    for (size_t lr = 0; lr < loop_iters.size(); ++lr) {
      int64_t it = loop_iters[lr];
      // The iteration's items in sequence order: by pos, ties by row.
      std::vector<Row> seq;
      for (const Row& r : rows) {
        if (r.iter == it) seq.push_back(r);
      }
      std::stable_sort(seq.begin(), seq.end(), by_iter_pos);
      std::string expr = "(";
      for (size_t k = 0; k < seq.size(); ++k) {
        if (k > 0) expr += ", ";
        expr += items[seq[k].item].expr;
      }
      expr += ")";
      SCOPED_TRACE("trial " + std::to_string(trial) + " iter " +
                   std::to_string(it) + " content " + expr);

      EXPECT_EQ(elems->at(iter(), lr).i, it);
      std::vector<Value> e = run_ref("<e>{ " + expr + " }</e>");
      ASSERT_EQ(e.size(), 1u);
      EXPECT_EQ(SerializeNode(store_, elems->at(item(), lr).node),
                SerializeNode(store_, e[0].node));

      EXPECT_EQ(attrs->at(iter(), lr).i, it);
      std::vector<Value> w = run_ref("<w n=\"{ " + expr + " }\"/>");
      ASSERT_EQ(w.size(), 1u);
      EXPECT_EQ(store_.value_str(attrs->at(item(), lr).node),
                store_.value_str(w[0].node + 1));

      std::vector<Value> t = run_ref("text { " + expr + " }");
      if (t.empty()) continue;  // text {()} yields no node
      ASSERT_LT(text_row, texts->rows());
      EXPECT_EQ(texts->at(iter(), text_row).i, it);
      EXPECT_EQ(store_.value_str(texts->at(item(), text_row).node),
                store_.value_str(t[0].node));
      ++text_row;
    }
    EXPECT_EQ(text_row, texts->rows());
  }
}

TEST_F(EngineTest, SharedSubplanEvaluatedOnce) {
  OpId l = Triples({{1, 1, 1}});
  ColId r1 = ColSym("sh1");
  OpId rid = dag_.RowId(l, r1);
  OpId u = dag_.Union(rid, rid);
  Profile profile;
  ctx_.profile = &profile;
  TablePtr t = Eval(u);
  EXPECT_EQ(t->rows(), 2u);
  EXPECT_EQ(profile.by_kind().at("RowId").ops, 1u);  // shared, not twice
  ctx_.profile = nullptr;
}

// -- KeyGroups, the hash kernel behind every hash operator ---------------

// The reference key of a row: each value as (kind, payload), with the
// value-join normalization folding xs:untypedAtomic into xs:string, -0.0
// equal to 0.0 (Value::operator== compares doubles by ==), and a NaN made
// unique by its row so that it equals nothing.
using RefKey = std::vector<std::tuple<int, int64_t, double>>;

RefKey RefKeyOf(const std::vector<const Column*>& cols, size_t row,
                bool normalize, int64_t nan_tag) {
  RefKey k;
  for (const Column* c : cols) {
    const Value& v = (*c)[row];
    ValueKind kind = v.kind;
    if (normalize && kind == ValueKind::kUntyped) kind = ValueKind::kString;
    switch (kind) {
      case ValueKind::kDouble:
        if (std::isnan(v.d)) {
          k.emplace_back(-1, nan_tag, 0.0);
        } else {
          k.emplace_back(1, 0, v.d == 0 ? 0.0 : v.d);
        }
        break;
      case ValueKind::kString:
      case ValueKind::kUntyped:
        k.emplace_back(static_cast<int>(kind), v.str, 0.0);
        break;
      case ValueKind::kBool:
        k.emplace_back(4, v.b ? 1 : 0, 0.0);
        break;
      case ValueKind::kNode:
      default:  // no other kind is a query value
        k.emplace_back(5, static_cast<int64_t>(v.node), 0.0);
        break;
      case ValueKind::kInt:
        k.emplace_back(0, v.i, 0.0);
        break;
    }
  }
  return k;
}

// Builds `groups` over `cols` and checks it against a std::map reference:
// group count and ids (first-appearance order), first rows, members in
// ascending row order, and Find on every row of `probe`.
void ExpectMatchesMapReference(const std::vector<const Column*>& cols,
                               size_t rows,
                               const std::vector<const Column*>& probe,
                               size_t probe_rows, bool normalize) {
  KeyGroups groups;
  ASSERT_TRUE(groups.Build(cols, rows, normalize).ok());
  groups.CollectMembers();
  std::map<RefKey, uint32_t> ids;
  std::vector<uint32_t> reps;
  std::vector<std::vector<uint32_t>> members;
  for (size_t r = 0; r < rows; ++r) {
    auto [it, fresh] = ids.emplace(
        RefKeyOf(cols, r, normalize, static_cast<int64_t>(r)),
        static_cast<uint32_t>(reps.size()));
    if (fresh) {
      reps.push_back(static_cast<uint32_t>(r));
      members.emplace_back();
    }
    members[it->second].push_back(static_cast<uint32_t>(r));
    EXPECT_EQ(groups.group_of(r), it->second) << "row " << r;
  }
  ASSERT_EQ(groups.size(), reps.size());
  EXPECT_EQ(groups.reps(), reps);
  for (uint32_t g = 0; g < reps.size(); ++g) {
    std::span<const uint32_t> m = groups.members(g);
    EXPECT_EQ(std::vector<uint32_t>(m.begin(), m.end()), members[g]);
  }
  for (size_t r = 0; r < probe_rows; ++r) {
    const int64_t nan_tag = -1 - static_cast<int64_t>(r);  // never a row
    auto it = ids.find(RefKeyOf(probe, r, normalize, nan_tag));
    EXPECT_EQ(groups.Find(probe, r),
              it == ids.end() ? KeyGroups::kNone : it->second)
        << "probe row " << r;
  }
}

TEST(KeyGroupsTest, MatchesMapReference) {
  StrPool strings;
  const StrId a = strings.Intern("a");
  const StrId b = strings.Intern("b");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Small pools so that rows repeat; int keys that agree in their low 32
  // bits, NaN, -0.0 against 0.0, int 1 against double 1.0, and the same
  // text as xs:string and as xs:untypedAtomic.
  const std::vector<Value> pool = {
      Value::Int(0),           Value::Int(1),
      Value::Int(1ll << 32),   Value::Int(3ll << 32),
      Value::Int(-1),          Value::Double(1.0),
      Value::Double(0.0),      Value::Double(-0.0),
      Value::Double(nan),      Value::Str(a),
      Value::Untyped(a),       Value::Str(b),
      Value::Untyped(b),       Value::Bool(true),
      Value::Bool(false),      Value::Node(1),
      Value::Node(1ll << 32),
  };
  std::mt19937 rng(20);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t width = 1 + rng() % 3;
    const size_t rows = trial < 3 ? trial : rng() % 200;
    const size_t probe_rows = rng() % 50;
    // Some trials draw from a prefix of the pool: few distinct keys.
    const size_t spread = 1 + rng() % pool.size();
    std::vector<Column> build(width, Column(rows));
    std::vector<Column> probe(width, Column(probe_rows));
    for (Column& c : build) {
      for (Value& v : c) v = pool[rng() % spread];
    }
    for (Column& c : probe) {
      for (Value& v : c) v = pool[rng() % pool.size()];
    }
    std::vector<const Column*> bp;
    std::vector<const Column*> pp;
    for (size_t k = 0; k < width; ++k) {
      bp.push_back(&build[k]);
      pp.push_back(&probe[k]);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectMatchesMapReference(bp, rows, pp, probe_rows, false);
    ExpectMatchesMapReference(bp, rows, pp, probe_rows, true);
  }
}

TEST(KeyGroupsTest, EqualityIsBitIdentityPlusValueJoinNormalization) {
  StrPool strings;
  const StrId a = strings.Intern("a");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Column keys = {Value::Double(nan), Value::Double(nan), Value::Int(1),
                       Value::Double(1.0), Value::Str(a),     Value::Untyped(a),
                       Value::Int(1)};
  const std::vector<const Column*> cols = {&keys};
  KeyGroups exact;
  ASSERT_TRUE(exact.Build(cols, keys.size()).ok());
  // Each NaN is a group of its own; int 1 and double 1.0 stay apart;
  // the string and the untypedAtomic "a" stay apart.
  EXPECT_EQ(exact.size(), 6u);
  EXPECT_EQ(exact.reps(), (std::vector<uint32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(exact.group_of(6), exact.group_of(2));
  EXPECT_EQ(exact.Find(cols, 0), KeyGroups::kNone);  // NaN finds nothing
  EXPECT_EQ(exact.Find(cols, 5), 5u);
  KeyGroups folded;
  ASSERT_TRUE(folded.Build(cols, keys.size(), /*normalize=*/true).ok());
  EXPECT_EQ(folded.size(), 5u);
  EXPECT_EQ(folded.group_of(5), folded.group_of(4));
  EXPECT_EQ(folded.group_of(3), 3u);  // 1.0 still differs from 1
}

TEST(KeyGroupsTest, EmptyAndOneGroupInputs) {
  Column none;
  KeyGroups empty;
  ASSERT_TRUE(empty.Build({&none}, 0).ok());
  empty.CollectMembers();
  EXPECT_EQ(empty.size(), 0u);
  Column probe = {Value::Int(1)};
  EXPECT_EQ(empty.Find({&probe}, 0), KeyGroups::kNone);

  Column same(100, Value::Int(7));
  KeyGroups one;
  ASSERT_TRUE(one.Build({&same}, same.size()).ok());
  one.CollectMembers();
  ASSERT_EQ(one.size(), 1u);
  std::span<const uint32_t> m = one.members(0);
  std::vector<uint32_t> all(100);
  std::iota(all.begin(), all.end(), 0);
  EXPECT_EQ(std::vector<uint32_t>(m.begin(), m.end()), all);
}

TEST(KeyGroupsTest, KeysCollidingInLowBitsStayApart) {
  // Every key agrees in its low 40 bits (and so does Value::Hash).
  Column keys;
  for (int64_t k = 0; k < 1000; ++k) keys.push_back(Value::Int(k << 40));
  keys.push_back(Value::Int(0));
  KeyGroups groups;
  ASSERT_TRUE(groups.Build({&keys}, keys.size()).ok());
  EXPECT_EQ(groups.size(), 1000u);
  EXPECT_EQ(groups.group_of(1000), 0u);
  for (uint32_t g = 0; g < 1000; ++g) {
    ASSERT_EQ(groups.Find({&keys}, g), g);
  }
}

TEST(KeyGroupsTest, RowsPastTheLimitAreResourceExhausted) {
  Column keys(3, Value::Int(1));
  EXPECT_TRUE(KeyGroups(/*max_rows=*/3).Build({&keys}, 3).ok());
  Status st = KeyGroups(/*max_rows=*/2).Build({&keys}, 3);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
}

// -- Row-count overflow: every producer of uint32_t row lists ------------

class RowLimitTest : public EngineTest {
 protected:
  // Evaluates `root` with every kernel's row limit lowered to `limit`.
  Status EvalLimited(OpId root, size_t limit) {
    Evaluator ev(dag_, &ctx_, limit);
    Result<TablePtr> r = ev.Eval(root);
    return r.ok() ? Status::Ok() : r.status();
  }

  OpId IntLit(ColId c, std::vector<int64_t> vals) {
    LitTable t;
    t.cols = {c};
    for (int64_t v : vals) t.rows.push_back({Value::Int(v)});
    return dag_.Lit(std::move(t));
  }

  // Evaluates at `limit`; one row lower, the producer named `what`
  // fails with kResourceExhausted.
  void ExpectLimit(OpId root, size_t limit, const std::string& what) {
    EXPECT_TRUE(EvalLimited(root, limit).ok());
    Status st = EvalLimited(root, limit - 1);
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
    EXPECT_EQ(st.message().rfind(what + ": ", 0), 0u) << st.ToString();
  }
};

TEST_F(RowLimitTest, Range) {
  ColId lo = ColSym("lo");
  ColId hi = ColSym("hi");
  LitTable t;
  t.cols = {iter(), lo, hi};
  t.rows = {{Value::Int(1), Value::Int(1), Value::Int(3)},
            {Value::Int(2), Value::Int(5), Value::Int(6)}};
  ExpectLimit(dag_.Range(dag_.Lit(std::move(t)), lo, hi), 5,
              "range expansion");
}

TEST_F(RowLimitTest, Select) {
  ColId f = ColSym("f");
  LitTable t;
  t.cols = {f};
  for (bool v : {true, false, false}) t.rows.push_back({Value::Bool(v)});
  ExpectLimit(dag_.Select(dag_.Lit(std::move(t)), f), 3, "selection");
}

TEST_F(RowLimitTest, EquiJoin) {
  ColId a = ColSym("a");
  ColId b = ColSym("b");
  // The larger side probes (left, then right; the smaller one builds),
  // and the output of 2 x 2 equal keys is 4 pairs.
  ExpectLimit(dag_.EquiJoin(IntLit(a, {1, 2, 3}), IntLit(b, {9}), a, b), 3,
              "equi-join probe");
  ExpectLimit(dag_.EquiJoin(IntLit(a, {1}), IntLit(b, {7, 8, 9}), a, b), 3,
              "equi-join probe");
  ExpectLimit(dag_.EquiJoin(IntLit(a, {5, 5}), IntLit(b, {5, 5}), a, b), 4,
              "pipeline");
}

TEST_F(RowLimitTest, ThetaJoin) {
  ColId a = ColSym("a");
  ColId b = ColSym("b");
  ExpectLimit(dag_.ThetaJoin(IntLit(a, {1, 2, 3}), IntLit(b, {0}), a,
                             FunKind::kLt, b),
              3, "theta join");
  ExpectLimit(dag_.ThetaJoin(IntLit(a, {0}), IntLit(b, {1, 2, 3}), a,
                             FunKind::kGt, b),
              3, "theta join");
}

TEST_F(RowLimitTest, Cross) {
  ColId a = ColSym("a");
  ColId b = ColSym("b");
  ExpectLimit(dag_.Cross(IntLit(a, {1, 2}), IntLit(b, {3, 4, 5})), 6,
              "cross product");
}

TEST_F(RowLimitTest, HashOperators) {
  ColId b = ColSym("b");
  OpId three = Triples({{1, 1, 5}, {1, 2, 5}, {2, 1, 6}});
  OpId iters = IntLit(iter(), {1, 2, 3});
  ExpectLimit(dag_.Distinct(three), 3, "hash grouping");
  ExpectLimit(dag_.Aggr(three, AggrKind::kCount, b, kNoCol, iter()), 3,
              "hash grouping");
  ExpectLimit(dag_.Difference(three, IntLit(iter(), {2}), {iter()}), 3,
              "anti/semi-join probe");
  ExpectLimit(dag_.Difference(IntLit(iter(), {2}), iters, {iter()}), 3,
              "hash grouping");
  ExpectLimit(dag_.SemiJoin(three, IntLit(iter(), {2}), {iter()}), 3,
              "anti/semi-join probe");
  ExpectLimit(
      dag_.CardCheck(three, IntLit(iter(), {1, 2}), 0, 5, strings_.Intern("f")),
      3, "hash grouping");
  ExpectLimit(dag_.ThetaCount(Triples({{1, 1, 1}, {2, 1, 2}, {3, 1, 3}}),
                              IntLit(b, {2}), item(), FunKind::kLt, b, iter(),
                              b, ColSym("n")),
              3, "hash grouping");
}

// The pipelined equi-join probe at 4 threads and 1- or 3-row morsels
// against a nested-loop reference: probe-major pairs, each probe row's
// matches in ascending build-row order, the smaller side building (the
// right one on ties), untypedAtomic and string keys joined only by value
// joins.
TEST_F(EngineTest, EquiJoinProbeMatchesNestedLoopAtAnyMorselSize) {
  const StrId a = strings_.Intern("a");
  const std::vector<Value> pool = {Value::Int(1), Value::Double(1.0),
                                   Value::Int(2), Value::Str(a),
                                   Value::Untyped(a), Value::Int(1ll << 32)};
  ColId lk = ColSym("lk");
  ColId lr = ColSym("lr");
  ColId rk = ColSym("rk");
  ColId rr = ColSym("rr");
  ctx_.num_threads = 4;
  size_t fanned_out = 0;
  std::mt19937 rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    const bool value_join = trial % 2 == 1;
    std::vector<Value> lkeys(rng() % 12);
    std::vector<Value> rkeys(rng() % 12);
    for (Value& v : lkeys) v = pool[rng() % pool.size()];
    for (Value& v : rkeys) v = pool[rng() % pool.size()];
    auto side = [&](ColId k, ColId r, const std::vector<Value>& keys) {
      LitTable t;
      t.cols = {k, r};
      for (size_t i = 0; i < keys.size(); ++i) {
        t.rows.push_back({keys[i], Value::Int(static_cast<int64_t>(i))});
      }
      return dag_.Lit(std::move(t));
    };
    OpId l = side(lk, lr, lkeys);
    OpId r = side(rk, rr, rkeys);
    OpId join = value_join ? dag_.ValueJoin(l, r, lk, rk)
                           : dag_.EquiJoin(l, r, lk, rk);
    auto key = [&](Value v) {
      return value_join && v.kind == ValueKind::kUntyped ? Value::Str(v.str)
                                                         : v;
    };
    std::vector<std::pair<int64_t, int64_t>> want;
    const bool build_right = rkeys.size() <= lkeys.size();
    const size_t np = build_right ? lkeys.size() : rkeys.size();
    const size_t nb = build_right ? rkeys.size() : lkeys.size();
    for (size_t p = 0; p < np; ++p) {
      for (size_t q = 0; q < nb; ++q) {
        size_t i = build_right ? p : q;
        size_t j = build_right ? q : p;
        if (key(lkeys[i]) == key(rkeys[j])) {
          want.emplace_back(static_cast<int64_t>(i), static_cast<int64_t>(j));
        }
      }
    }
    for (size_t morsel : {size_t{1}, size_t{3}}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " morsel " +
                   std::to_string(morsel));
      ctx_.morsel_rows = morsel;
      Profile profile;
      ctx_.profile = &profile;
      TablePtr t = Eval(join);
      ctx_.profile = nullptr;
      ASSERT_NE(t, nullptr);
      // The probe side's morsels are what fans out to the pool.
      const size_t probe = std::max(lkeys.size(), rkeys.size());
      const size_t morsels = std::max<size_t>(1, (probe + morsel - 1) / morsel);
      ASSERT_EQ(profile.threads(), 4u);
      ASSERT_EQ(profile.ops().back().op, join);
      EXPECT_EQ(profile.ops().back().chunks, morsels);
      fanned_out += morsels > 1;
      std::vector<std::pair<int64_t, int64_t>> got;
      for (size_t k = 0; k < t->rows(); ++k) {
        got.emplace_back(t->at(lr, k).i, t->at(rr, k).i);
      }
      EXPECT_EQ(got, want);
    }
  }
  EXPECT_GT(fanned_out, 60u);
}

}  // namespace
}  // namespace exrquy
