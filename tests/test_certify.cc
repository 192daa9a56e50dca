// Rewrite certification (opt/certify.h): the mutation suite. Every
// proof-obligation family must reject a hand-miscompiled rewrite or a
// corrupted certificate (wrong cited column, stale fact, bogus witness)
// with the stable "certify: [<obligation>]" diagnostic; every
// certificate the real optimizer emits over the XMark corpus must
// validate in strict mode; and certification must never change the
// produced plan (byte-identical renderings across off/check/strict).
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "algebra/algebra.h"
#include "algebra/dot.h"
#include "algebra/stats.h"
#include "api/service.h"
#include "api/session.h"
#include "opt/certify.h"
#include "xmark/queries.h"

namespace exrquy {
namespace {

using col::item;
using col::iter;
using col::pos;

// Gensym column ids (iter1$1781) draw on a process-global counter, so
// two compilations of the same query never render byte-identically.
// Plan comparisons are modulo that alpha-renaming: every $<digits>
// suffix collapses to $#.
std::string NormalizeGensyms(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    out += text[i];
    if (text[i] != '$') continue;
    size_t j = i + 1;
    while (j < text.size() && std::isdigit(static_cast<unsigned char>(
                                  text[j])) != 0) {
      ++j;
    }
    if (j > i + 1) {
      out += '#';
      i = j - 1;
    }
  }
  return out;
}

class CertifyCheckerTest : public ::testing::Test {
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

  OpId Loop1() {
    LitTable t;
    t.cols = {iter()};
    t.rows = {{Value::Int(1)}};
    return dag_.Lit(std::move(t));
  }

  RewriteCertificate Cert(OpId from, OpId to, const char* rule,
                          std::vector<CitedFact> cited) {
    RewriteCertificate c;
    c.from = from;
    c.to = to;
    c.rule = rule;
    c.cited = std::move(cited);
    return c;
  }

  // Asserts the checker rejects `cert` citing `obligation`, with the
  // stable diagnostic prefix.
  void ExpectRejected(OpId pass_root, RewriteCertificate cert,
                      const std::string& obligation) {
    PlanFacts facts(&dag_);
    CertifyChecker checker(&dag_, &facts, pass_root);
    EXPECT_FALSE(checker.Check(&cert));
    EXPECT_TRUE(cert.checked);
    EXPECT_FALSE(cert.valid);
    EXPECT_EQ(cert.obligation, obligation) << cert.diagnostic;
    EXPECT_EQ(cert.diagnostic.find("certify: [" + obligation + "] "), 0u)
        << cert.diagnostic;
  }

  void ExpectValid(OpId pass_root, RewriteCertificate cert) {
    PlanFacts facts(&dag_);
    CertifyChecker checker(&dag_, &facts, pass_root);
    EXPECT_TRUE(checker.Check(&cert)) << cert.diagnostic;
    EXPECT_TRUE(cert.valid);
  }

  Dag dag_;
  StrPool strings_;
};

// -- dead-column ---------------------------------------------------------

TEST_F(CertifyCheckerTest, ColumnPruningAcceptsDeadColumn) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}});
  ColId x = ColSym("cx1");
  OpId rn = dag_.RowNum(l, x, {{pos(), false}}, iter());
  // x never consumed above: the % is dead.
  OpId proj = dag_.Project(rn, {{iter(), iter()}, {pos(), pos()},
                                {item(), item()}});
  ExpectValid(proj,
              Cert(rn, l, "column_pruning", {CiteDeadColumn(rn, x)}));
}

TEST_F(CertifyCheckerTest, ColumnPruningRejectsLiveColumn) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}});
  ColId x = ColSym("cx2");
  OpId rn = dag_.RowNum(l, x, {{pos(), false}}, iter());
  // The projection consumes x (as pos): the reference liveness walk
  // demands it, so a certificate claiming it dead is a miscompile.
  OpId proj = dag_.Project(rn, {{iter(), iter()}, {pos(), x},
                                {item(), item()}});
  ExpectRejected(proj,
                 Cert(rn, l, "column_pruning", {CiteDeadColumn(rn, x)}),
                 "dead-column");
}

TEST_F(CertifyCheckerTest, ColumnPruningRejectsFactAtWrongOperator) {
  OpId l = Triples({{1, 1, 5}});
  ColId x = ColSym("cx3");
  OpId rn = dag_.RowNum(l, x, {{pos(), false}}, iter());
  OpId proj = dag_.Project(rn, {{iter(), iter()}, {pos(), pos()},
                                {item(), item()}});
  // The fact is true (x is dead at rn) but cited against the wrong
  // operator: the template requires it to name the rewritten op.
  ExpectRejected(proj,
                 Cert(proj, rn, "column_pruning", {CiteDeadColumn(rn, x)}),
                 "dead-column");
}

// -- key-distinct --------------------------------------------------------

TEST_F(CertifyCheckerTest, DistinctByKeysAcceptsDerivableKey) {
  OpId l = Triples({{1, 1, 5}, {2, 2, 7}});  // item values distinct
  OpId d = dag_.Distinct(l);
  ExpectValid(d, Cert(d, l, "distinct_by_keys", {CiteKey(l, item())}));
}

TEST_F(CertifyCheckerTest, DistinctByKeysRejectsNonKeyColumn) {
  // Duplicate item values: citing item as a key is a corrupt (stale or
  // wrong-column) certificate, whatever the tracker said.
  OpId l = Triples({{1, 1, 5}, {2, 2, 5}});
  OpId d = dag_.Distinct(l);
  ExpectRejected(d, Cert(d, l, "distinct_by_keys", {CiteKey(l, item())}),
                 "key-distinct");
}

// -- empty-plan ----------------------------------------------------------

TEST_F(CertifyCheckerTest, EmptyShortCircuitRejectsNonEmptyInput) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}});
  OpId empty = dag_.Empty({iter(), pos(), item()});
  // A stale zero-row interval: the audit derives [2,2], which the cited
  // [0,0] does not contain.
  ExpectRejected(empty,
                 Cert(l, empty, "empty_short_circuit",
                      {CiteInterval(l, 0, 0), CiteNoRaise(l)}),
                 "empty-plan");
}

TEST_F(CertifyCheckerTest, EmptyShortCircuitRejectsSchemaChange) {
  OpId l = dag_.Empty({iter(), pos(), item()});
  OpId narrower = dag_.Empty({iter()});
  ExpectRejected(narrower,
                 Cert(l, narrower, "empty_short_circuit",
                      {CiteInterval(l, 0, 0), CiteNoRaise(l)}),
                 "empty-plan");
}

TEST_F(CertifyCheckerTest, EmptyShortCircuitAcceptsEmptyLiteral) {
  OpId l = dag_.Empty({iter(), pos(), item()});
  OpId repl = dag_.Empty({item(), pos(), iter()});  // same schema, set-wise
  RewriteCertificate cert =
      Cert(l, repl, "empty_short_circuit",
           {CiteInterval(l, 0, 0), CiteNoRaise(l)});
  // Schema equality is on the ordered schema vector; build it the same
  // way the rewrite does (to == from here after hash-consing).
  if (dag_.op(repl).schema == dag_.op(l).schema) {
    ExpectValid(repl, cert);
  }
}

// -- witness / roots / unknown family ------------------------------------

TEST_F(CertifyCheckerTest, RejectsBogusWitnessColumn) {
  OpId l = Triples({{1, 1, 5}});
  ColId x = ColSym("cw1");
  OpId rn = dag_.RowNum(l, x, {{pos(), false}}, iter());
  OpId proj = dag_.Project(rn, {{iter(), iter()}, {pos(), pos()},
                                {item(), item()}});
  RewriteCertificate cert =
      Cert(rn, l, "column_pruning", {CiteDeadColumn(rn, x)});
  cert.witness.push_back({ColSym("not_a_col"), iter(), true});
  ExpectRejected(proj, std::move(cert), "witness");
}

TEST_F(CertifyCheckerTest, RejectsOutOfRangeRoots) {
  OpId l = Triples({{1, 1, 5}});
  ExpectRejected(l, Cert(l + 100, l, "column_pruning", {}),
                 "certificate-roots");
}

TEST_F(CertifyCheckerTest, RejectsUnknownFamily) {
  OpId l = Triples({{1, 1, 5}});
  ExpectRejected(l,
                 Cert(l, l, "totally_new_rewrite",
                      {CiteStructural(l, "shape")}),
                 "unknown-family");
}

TEST_F(CertifyCheckerTest, RejectsEmptyCitations) {
  OpId l = Triples({{1, 1, 5}});
  OpId d = dag_.Distinct(l);
  ExpectRejected(d, Cert(d, l, "distinct_by_keys", {}), "key-distinct");
}

// -- constant-criteria ---------------------------------------------------

TEST_F(CertifyCheckerTest, WeakenRownumRejectsNonConstantDrop) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}});  // item varies
  ColId x = ColSym("cc1");
  OpId weak = dag_.RowNum(l, x, {{pos(), false}}, kNoCol);
  OpId orig = dag_.RowNum(l, x, {{pos(), false}, {item(), false}}, kNoCol);
  // Dropping the item criterion is only sound if item is constant; the
  // cited fact cannot be re-derived.
  ExpectRejected(weak,
                 Cert(orig, weak, "weaken_rownum",
                      {CiteConstant(l, item())}),
                 "constant-criteria");
}

TEST_F(CertifyCheckerTest, WeakenRownumAcceptsConstantDrop) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 5}});  // item constant 5
  ColId x = ColSym("cc2");
  OpId orig = dag_.RowNum(l, x, {{pos(), false}, {item(), false}}, kNoCol);
  OpId weak = dag_.RowNum(l, x, {{pos(), false}}, kNoCol);
  ExpectValid(weak, Cert(orig, weak, "weaken_rownum",
                         {CiteConstant(l, item())}));
}

// -- sorted-prefix -------------------------------------------------------

TEST_F(CertifyCheckerTest, OrderDependencyAcceptsRealizedOrder) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}});  // pos ascending, no ties
  ColId x = ColSym("so1");
  OpId orig = dag_.RowNum(l, x, {{pos(), false}}, kNoCol);
  OpId repl = dag_.RowId(l, x, /*positional=*/true);
  ExpectValid(repl, Cert(orig, repl, "order-dependency",
                         {CiteSorted(l, {{pos(), false}})}));
}

TEST_F(CertifyCheckerTest, OrderDependencyRejectsUnrealizedOrder) {
  OpId l = Triples({{1, 2, 7}, {1, 1, 5}});  // pos descending
  ColId x = ColSym("so2");
  OpId orig = dag_.RowNum(l, x, {{pos(), false}}, kNoCol);
  OpId repl = dag_.RowId(l, x, /*positional=*/true);
  ExpectRejected(repl,
                 Cert(orig, repl, "order-dependency",
                      {CiteSorted(l, {{pos(), false}})}),
                 "sorted-prefix");
}

// A presorted mark needs the input sorted by the partition first: sorted
// by the criteria alone, the % still has to sort.
TEST_F(CertifyCheckerTest, OrderDependencyAcceptsPresortedPartitions) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}, {2, 3, 9}});  // iter, then pos
  ColId x = ColSym("so3");
  OpId orig = dag_.RowNum(l, x, {{pos(), false}}, iter());
  OpId repl = dag_.RowNum(l, x, {{pos(), false}}, iter(), /*presorted=*/true);
  ExpectValid(repl, Cert(orig, repl, "order-dependency",
                         {CiteSorted(l, {{iter(), false}, {pos(), false}})}));
}

// The miscompiled mark cites what does hold — the criteria's order —
// and forgets the partition.
TEST_F(CertifyCheckerTest, OrderDependencyRejectsPresortedUnsortedPartition) {
  OpId l = Triples({{2, 1, 5}, {1, 2, 7}, {2, 3, 9}});  // pos only
  ColId x = ColSym("so4");
  OpId orig = dag_.RowNum(l, x, {{pos(), false}}, iter());
  OpId repl = dag_.RowNum(l, x, {{pos(), false}}, iter(), /*presorted=*/true);
  ExpectRejected(repl,
                 Cert(orig, repl, "order-dependency",
                      {CiteSorted(l, {{pos(), false}})}),
                 "sorted-prefix");
}

// -- step-shape ----------------------------------------------------------

TEST_F(CertifyCheckerTest, StepMergingRejectsNonDosMiddleStep) {
  OpId ctx = dag_.Project(
      dag_.AttachConst(Loop1(), item(), Value::Node(0)),
      {{iter(), iter()}, {item(), item()}});
  // child::node(), not descendant-or-self::node(): absorbing it widens
  // the result set.
  OpId mid = dag_.Step(ctx, Axis::kChild, NodeTest::AnyKind());
  NodeTest nt = NodeTest::Name(strings_.Intern("x"));
  OpId from = dag_.Step(mid, Axis::kChild, nt);
  OpId to = dag_.Step(ctx, Axis::kDescendant, nt);
  ExpectRejected(to,
                 Cert(from, to, "step_merging",
                      {CiteStructural(mid, "descendant-or-self::node() "
                                           "step")}),
                 "step-shape");
}

TEST_F(CertifyCheckerTest, StepMergingRejectsWrongAxisMapping) {
  OpId ctx = dag_.Project(
      dag_.AttachConst(Loop1(), item(), Value::Node(0)),
      {{iter(), iter()}, {item(), item()}});
  OpId mid = dag_.Step(ctx, Axis::kDescendantOrSelf, NodeTest::AnyKind());
  NodeTest nt = NodeTest::Name(strings_.Intern("y"));
  OpId from = dag_.Step(mid, Axis::kChild, nt);
  // Merging dos::node()/child::y must produce descendant::y, not
  // child::y — the miscompile drops the descendant widening.
  OpId to = dag_.Step(ctx, Axis::kChild, nt);
  ExpectRejected(to,
                 Cert(from, to, "step_merging",
                      {CiteStructural(mid, "descendant-or-self::node() "
                                           "step")}),
                 "step-shape");
}

TEST_F(CertifyCheckerTest, StepMergingAcceptsExactMerge) {
  OpId ctx = dag_.Project(
      dag_.AttachConst(Loop1(), item(), Value::Node(0)),
      {{iter(), iter()}, {item(), item()}});
  OpId mid = dag_.Step(ctx, Axis::kDescendantOrSelf, NodeTest::AnyKind());
  NodeTest nt = NodeTest::Name(strings_.Intern("z"));
  OpId from = dag_.Step(mid, Axis::kChild, nt);
  OpId to = dag_.Step(ctx, Axis::kDescendant, nt);
  ExpectValid(to, Cert(from, to, "step_merging",
                       {CiteStructural(mid, "descendant-or-self::node() "
                                            "step")}));
}

// -- disjoint-steps ------------------------------------------------------

TEST_F(CertifyCheckerTest, DistinctEliminationRejectsOverlappingSteps) {
  OpId ctx = dag_.Project(
      dag_.AttachConst(Loop1(), item(), Value::Node(0)),
      {{iter(), iter()}, {item(), item()}});
  OpId c = dag_.Step(ctx, Axis::kChild,
                     NodeTest::Name(strings_.Intern("c")));
  OpId w = dag_.Step(ctx, Axis::kChild, NodeTest::Wildcard());
  OpId u = dag_.Union(c, w);
  OpId dist = dag_.Distinct(u);
  // A wildcard leaf is not a name test: disjointness is unprovable.
  ExpectRejected(dist,
                 Cert(dist, u, "distinct_elimination",
                      {CiteStructural(c, "disjoint step"),
                       CiteStructural(w, "disjoint step")}),
                 "disjoint-steps");
}

TEST_F(CertifyCheckerTest, DistinctEliminationAcceptsDisjointSteps) {
  OpId ctx = dag_.Project(
      dag_.AttachConst(Loop1(), item(), Value::Node(0)),
      {{iter(), iter()}, {item(), item()}});
  OpId c = dag_.Step(ctx, Axis::kChild,
                     NodeTest::Name(strings_.Intern("c")));
  OpId d = dag_.Step(ctx, Axis::kChild,
                     NodeTest::Name(strings_.Intern("d")));
  OpId u = dag_.Union(c, d);
  OpId dist = dag_.Distinct(u);
  ExpectValid(dist, Cert(dist, u, "distinct_elimination",
                         {CiteStructural(c, "disjoint step"),
                          CiteStructural(d, "disjoint step")}));
}

// -- keyed-partition -----------------------------------------------------

TEST_F(CertifyCheckerTest, KeyedPartitionRejectsNonKeyPartition) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}});  // iter not a key
  ColId x = ColSym("kp1");
  OpId orig = dag_.RowNum(l, x, {{pos(), false}}, iter());
  OpId repl = dag_.AttachConst(l, x, Value::Int(1));
  ExpectRejected(repl,
                 Cert(orig, repl, "keyed-partition", {CiteKey(l, iter())}),
                 "keyed-partition");
}

TEST_F(CertifyCheckerTest, KeyedPartitionAcceptsKeyPartition) {
  OpId l = Triples({{1, 1, 5}, {2, 2, 7}});  // iter distinct
  ColId x = ColSym("kp2");
  OpId orig = dag_.RowNum(l, x, {{pos(), false}}, iter());
  OpId repl = dag_.AttachConst(l, x, Value::Int(1));
  ExpectValid(repl, Cert(orig, repl, "keyed-partition",
                         {CiteKey(l, iter())}));
}

// A passed fn:exactly-one assertion makes iter a key the audit derives,
// although no key is derivable below it (a union of two literals).
TEST_F(CertifyCheckerTest, KeyedPartitionAcceptsAssertedUniqueIterations) {
  OpId l = dag_.Union(Triples({{1, 1, 5}}), Triples({{2, 1, 7}}));
  OpId loop = dag_.Project(l, {{iter(), iter()}});
  OpId cc = dag_.CardCheck(l, loop, 1, 1, strings_.Intern("exactly-one"));
  ColId x = ColSym("kp3");
  OpId orig = dag_.RowNum(cc, x, {{pos(), false}}, iter());
  OpId repl = dag_.AttachConst(cc, x, Value::Int(1));
  ExpectValid(repl, Cert(orig, repl, "keyed-partition",
                         {CiteKey(cc, iter())}));
}

// -- join-isolation ------------------------------------------------------

TEST_F(CertifyCheckerTest, JoinRecognitionRejectsReplacementWithoutJoin) {
  // A "join recognition" certificate whose replacement region contains
  // no join at all: the rewrite replaced the anchor with nonsense.
  OpId l = Triples({{1, 1, 5}});
  OpId proj = dag_.Project(l, {{iter(), iter()}, {pos(), pos()},
                               {item(), item()}});
  ExpectRejected(proj,
                 Cert(proj, l, "join_recognition",
                      {CiteScaffoldFree(l, item())}),
                 "join-isolation");
}

TEST_F(CertifyCheckerTest, JoinRecognitionRejectsScaffoldingKey) {
  // An equi value join keyed on iter — an iteration scaffolding column.
  // Joining on scaffolding values instead of data values is the exact
  // bug class the isolation obligation exists for.
  OpId left = Triples({{1, 1, 5}});
  LitTable rt;
  ColId i2 = ColSym("ji2");
  rt.cols = {i2};
  rt.rows = {{Value::Int(1)}};
  OpId right = dag_.Lit(std::move(rt));
  OpId join = dag_.ValueJoin(left, right, iter(), i2);
  OpId anchor = dag_.Project(left, {{iter(), iter()}, {pos(), pos()},
                                    {item(), item()}});
  ExpectRejected(anchor,
                 Cert(anchor, join, "join_recognition",
                      {CiteScaffoldFree(left, item())}),
                 "join-isolation");
}

// -- join-isolation: the re-rooted for-loop return ----------------------

// Q10's inner for-loop return is re-rooted over the join survivors. Its
// certificate must prove the rebuilt anchor is the recognized one with
// exactly the survivor-loop, filtered-binding and map leaves
// substituted. Each mutation keeps the value join itself intact — the
// isolation and kind gates alone would pass — and breaks the body.
class ReturnBodyCertTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<QueryPlans> p = session_.Plan(XMarkQueryText("Q10"), {});
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    plans_ = std::move(*p);
    for (const RewriteTrade& t : plans_.trades) {
      if (t.rule == "join_recognition" &&
          dag().op(t.to).proj == dag().op(t.from).proj) {
        cert_ = t;
      }
    }
    ASSERT_NE(cert_.to, kNoOp) << "Q10's return was not re-rooted";
    ASSERT_TRUE(cert_.valid) << cert_.diagnostic;
    // The renumbered survivors under the re-attaching join's map.
    OpId j = dag().op(dag().op(cert_.to).children[0]).children[0];
    renum_ = dag().op(dag().op(j).children[1]).children[0];
  }

  Dag& dag() { return *plans_.dag; }

  // `root` with operator `old` replaced by `repl` wherever it occurs.
  OpId Replace(OpId root, OpId old, OpId repl) {
    std::map<OpId, OpId> memo;
    std::function<OpId(OpId)> rebuild = [&](OpId id) -> OpId {
      if (id == old) return repl;
      if (auto it = memo.find(id); it != memo.end()) return it->second;
      Op copy = dag().op(id);
      bool changed = false;
      for (OpId& c : copy.children) {
        OpId c2 = rebuild(c);
        changed |= c2 != c;
        c = c2;
      }
      return memo[id] = changed ? dag().Add(std::move(copy)) : id;
    };
    return rebuild(root);
  }

  // The first operator of the replacement satisfying `pred`.
  OpId Find(const std::function<bool(const Op&)>& pred) {
    for (OpId id : dag().ReachableFrom(cert_.to)) {
      if (pred(dag().op(id))) return id;
    }
    return kNoOp;
  }

  // The filtered-binding substitute π(⋈ iter=tr(X', π{s2, tr:c}(R))).
  OpId Binding() {
    return Find([&](const Op& o) {
      if (o.kind != OpKind::kProject) return false;
      const Op& j = dag().op(o.children[0]);
      return j.kind == OpKind::kEquiJoin &&
             dag().op(j.children[1]).kind == OpKind::kProject &&
             dag().op(j.children[1]).children[0] == renum_;
    });
  }

  void ExpectRejected(OpId to, const std::string& why) {
    RewriteCertificate c = cert_;
    c.to = to;
    c.checked = c.valid = false;
    PlanFacts facts(&dag());
    CertifyChecker checker(&dag(), &facts, c.from);
    EXPECT_FALSE(checker.Check(&c));
    EXPECT_EQ(c.obligation, "join-isolation") << c.diagnostic;
    EXPECT_NE(c.diagnostic.find(why), std::string::npos) << c.diagnostic;
  }

  Session session_;
  QueryPlans plans_;
  RewriteCertificate cert_;
  OpId renum_ = kNoOp;  // R: the survivors' s2 numbering
};

TEST_F(ReturnBodyCertTest, AcceptsTheEmittedRebuild) {
  RewriteCertificate c = cert_;
  c.checked = c.valid = false;
  PlanFacts facts(&dag());
  CertifyChecker checker(&dag(), &facts, c.from);
  EXPECT_TRUE(checker.Check(&c)) << c.diagnostic;
}

TEST_F(ReturnBodyCertTest, RejectsDroppedConstructorChild) {
  // Some element's content loses the last of its children.
  OpId u = Find([](const Op& o) { return o.kind == OpKind::kUnion; });
  ASSERT_NE(u, kNoOp);
  ExpectRejected(Replace(cert_.to, u, dag().op(u).children[0]),
                 "does not rebuild op");
}

TEST_F(ReturnBodyCertTest, RejectsBindingOverUnfilteredItems) {
  // $t bound to every document-level person instead of the survivors.
  OpId b = Binding();
  ASSERT_NE(b, kNoOp);
  const Op& bo = dag().op(b);
  OpId x2 = dag().op(bo.children[0]).children[0];
  const ColId s2 = dag().op(renum_).col;
  std::vector<std::pair<ColId, ColId>> proj;
  for (const auto& [n, o] : bo.proj) proj.emplace_back(n, o == s2 ? iter() : o);
  ExpectRejected(Replace(cert_.to, b, dag().Project(x2, proj)),
                 "stands for a filtered binding");
}

TEST_F(ReturnBodyCertTest, RejectsRenumberingByRidAlone) {
  // Survivors numbered by rid alone interleave the outer iterations.
  // keep = Distinct(π{o, c}(value join)) under R.
  const Op& r = dag().op(renum_);
  OpId keep = r.children[0];
  ASSERT_EQ(dag().op(keep).schema.size(), 2u);
  const ColId rid = dag().op(keep).schema[1];
  OpId by_rid = dag().RowNum(keep, r.col, {{rid, false}}, kNoCol);
  ExpectRejected(Replace(cert_.to, renum_, by_rid),
                 "not renumbered by (outer iteration, rid)");
}

// -- count-fusion --------------------------------------------------------

// Aggr count|g (π g (Distinct (π g,h (ThetaJoin)))) over a numeric left
// key and an untypedAtomic right key — one comparison class — with the
// group g on the right side and the counted h on the left.
class CountFusionCertTest : public CertifyCheckerTest {
 protected:
  void SetUp() override {
    LitTable lt;
    lt.cols = {lk_, h_};
    lt.rows = {{Value::Double(5), Value::Int(1)},
               {Value::Double(9), Value::Int(2)}};
    left_ = dag_.Lit(std::move(lt));
    LitTable rt;
    rt.cols = {rk_, g_};
    rt.rows = {{Value::Untyped(strings_.Intern("7")), Value::Int(1)},
               {Value::Untyped(strings_.Intern("12")), Value::Int(2)}};
    right_ = dag_.Lit(std::move(rt));
  }

  // π g (Distinct (π g,h (ThetaJoin(left, right, lk cmp rk)))).
  OpId Pairs(FunKind cmp) {
    OpId join = dag_.ThetaJoin(left_, right_, lk_, cmp, rk_);
    return dag_.Project(
        dag_.Distinct(dag_.Project(join, {{g_, g_}, {h_, h_}})), {{g_, g_}});
  }

  OpId Count(OpId in) {
    return dag_.Aggr(in, AggrKind::kCount, cnt_, kNoCol, g_);
  }

  OpId Fused(FunKind cmp, ColId group, ColId counted) {
    return dag_.ThetaCount(left_, right_, lk_, cmp, rk_, group, counted,
                           cnt_);
  }

  std::vector<CitedFact> Kinds() {
    return {CiteKindClass(left_, lk_, ItemKind::kNumeric),
            CiteKindClass(right_, rk_, ItemKind::kString)};
  }

  // A one-column semijoin side {k} with the given values.
  OpId KeySide(std::vector<int64_t> values) {
    LitTable t;
    t.cols = {k_};
    for (int64_t v : values) t.rows.push_back({Value::Int(v)});
    return dag_.Lit(std::move(t));
  }

  // π g (⋈ g=k (Pairs(lt), x)) and its pushed-down fusion.
  std::pair<OpId, OpId> SemijoinPush(OpId x) {
    OpId from = Count(
        dag_.Project(dag_.EquiJoin(Pairs(FunKind::kLt), x, g_, k_),
                     {{g_, g_}}));
    OpId to = dag_.SemiJoin(Fused(FunKind::kLt, g_, h_),
                            dag_.Project(x, {{g_, k_}}), {g_});
    return {from, to};
  }

  const ColId lk_ = ColSym("cf_lk");
  const ColId rk_ = ColSym("cf_rk");
  const ColId g_ = ColSym("cf_g");
  const ColId h_ = ColSym("cf_h");
  const ColId k_ = ColSym("cf_k");
  const ColId cnt_ = ColSym("cf_cnt");
  OpId left_ = kNoOp;
  OpId right_ = kNoOp;
};

TEST_F(CountFusionCertTest, AcceptsExactFusion) {
  OpId from = Count(Pairs(FunKind::kLt));
  ExpectValid(from, Cert(from, Fused(FunKind::kLt, g_, h_), "theta-count",
                         Kinds()));
}

TEST_F(CountFusionCertTest, RejectsMirroredRelation) {
  OpId from = Count(Pairs(FunKind::kLt));
  ExpectRejected(from,
                 Cert(from, Fused(FunKind::kGt, g_, h_), "theta-count",
                      Kinds()),
                 "count-fusion");
}

TEST_F(CountFusionCertTest, RejectsSwappedGroupColumns) {
  // Counting g per h answers a different question than counting h per g.
  OpId from = Count(Pairs(FunKind::kLt));
  ExpectRejected(from,
                 Cert(from, Fused(FunKind::kLt, h_, g_), "theta-count",
                      Kinds()),
                 "count-fusion");
}

TEST_F(CountFusionCertTest, AcceptsSemijoinPushOverKeyedSide) {
  auto [from, to] = SemijoinPush(KeySide({1, 2}));
  ExpectValid(from, Cert(from, to, "theta-count", Kinds()));
}

TEST_F(CountFusionCertTest, RejectsSemijoinPushOverUnkeyedSide) {
  // k = 1 twice: the join repeats group 1's rows, doubling its count, so
  // moving the count below the (semi)join changes the result.
  auto [from, to] = SemijoinPush(KeySide({1, 1, 2}));
  ExpectRejected(from, Cert(from, to, "theta-count", Kinds()),
                 "count-fusion");
}

TEST_F(CountFusionCertTest, RejectsFusionOverNe) {
  // `ne` matches everything but one value: no per-group extreme decides
  // it. The builder refuses such a ThetaCount, so build it raw.
  OpId from = Count(Pairs(FunKind::kNe));
  Op raw = dag_.op(Fused(FunKind::kLt, g_, h_));
  raw.fun = FunKind::kNe;
  OpId to = dag_.AddUnchecked(raw, raw.schema);
  ExpectRejected(from, Cert(from, to, "theta-count", Kinds()),
                 "count-fusion");
}

// -- forced rejection & strict fail-close --------------------------------

TEST_F(CertifyCheckerTest, ForceRejectRuleFailsThatFamilyOnly) {
  OpId l = Triples({{1, 1, 5}, {1, 2, 7}});
  ColId x = ColSym("fr1");
  OpId rn = dag_.RowNum(l, x, {{pos(), false}}, iter());
  OpId proj = dag_.Project(rn, {{iter(), iter()}, {pos(), pos()},
                                {item(), item()}});
  PlanFacts facts(&dag_);
  CertifyChecker checker(&dag_, &facts, proj, "column_pruning");
  RewriteCertificate pruned =
      Cert(rn, l, "column_pruning", {CiteDeadColumn(rn, x)});
  EXPECT_FALSE(checker.Check(&pruned));
  EXPECT_EQ(pruned.obligation, "forced-reject");
  RewriteCertificate other =
      Cert(dag_.Distinct(Triples({{1, 1, 5}, {2, 2, 9}})),
           Triples({{1, 1, 5}, {2, 2, 9}}), "distinct_by_keys",
           {CiteKey(Triples({{1, 1, 5}, {2, 2, 9}}), item())});
  EXPECT_TRUE(checker.Check(&other)) << other.diagnostic;
}

// ========================================================================
// End-to-end: the real optimizer under certification.
// ========================================================================

TEST(CertifySessionTest, StrictModeRejectionKeepsOldSubPlan) {
  // Force-reject every step_merging certificate in strict mode: the
  // fused steps must stay unfused (fail-close keeps the old sub-plan),
  // the plan must still verify, and execution must agree byte-for-byte.
  Session session;
  ASSERT_TRUE(session
                  .LoadDocument("t.xml",
                                "<a><b><c>x</c></b><b><c>y</c></b></a>")
                  .ok());
  const std::string q = "count(doc(\"t.xml\")//c)";

  QueryOptions plain;
  plain.verify_each_pass = true;
  Result<QueryResult> expect = session.Execute(q, plain);
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  Result<QueryPlans> plain_plans = session.Plan(q, plain);
  ASSERT_TRUE(plain_plans.ok());

  QueryOptions forced = plain;
  forced.certify.mode = CertifyMode::kStrict;
  forced.certify.force_reject_rule = "step_merging";
  Result<QueryPlans> kept = session.Plan(q, forced);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  PlanStats plain_stats =
      CollectPlanStats(*plain_plans->dag, plain_plans->optimized);
  PlanStats kept_stats = CollectPlanStats(*kept->dag, kept->optimized);
  // //c compiles to dos::node()/child::c twice; with merging rejected,
  // both dos steps survive.
  EXPECT_GT(kept_stats.step_ops, plain_stats.step_ops);

  size_t rejected = 0;
  for (const RewriteTrade& t : kept->trades) {
    if (!t.checked || t.valid) continue;
    EXPECT_EQ(t.rule, "step_merging") << t.diagnostic;
    EXPECT_EQ(t.obligation, "forced-reject");
    ++rejected;
  }
  EXPECT_GT(rejected, 0u);

  Result<QueryResult> forced_result = session.Execute(q, forced);
  ASSERT_TRUE(forced_result.ok()) << forced_result.status().ToString();
  EXPECT_EQ(forced_result->serialized, expect->serialized);
}

TEST(CertifySessionTest, CheckModeNeverChangesThePlan) {
  // In plain checking mode even a forced rejection is report-only.
  Session session;
  const std::string q = "count(doc(\"t.xml\")//c)";
  QueryOptions plain;
  Result<QueryPlans> a = session.Plan(q, plain);
  ASSERT_TRUE(a.ok());

  QueryOptions noted = plain;
  noted.certify.mode = CertifyMode::kCheck;
  noted.certify.force_reject_rule = "step_merging";
  Result<QueryPlans> b = session.Plan(q, noted);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(
      NormalizeGensyms(PlanToText(*a->dag, a->optimized, session.strings())),
      NormalizeGensyms(PlanToText(*b->dag, b->optimized, session.strings())));
  bool saw_rejection = false;
  for (const RewriteTrade& t : b->trades) {
    saw_rejection |= t.checked && !t.valid;
  }
  EXPECT_TRUE(saw_rejection);
}

TEST(CertifySessionTest, ExplainRewritesCountsAndAnnotates) {
  Session session;
  QueryOptions options;
  Result<RewriteExplanation> explained = session.ExplainRewrites(
      "for $b in doc(\"t.xml\")//b return count($b//c)", options);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_GT(explained->emitted, 0u);
  EXPECT_EQ(explained->emitted, explained->entries.size());
  EXPECT_EQ(explained->validated, explained->emitted);
  EXPECT_EQ(explained->rejected, 0u);
  for (const auto& e : explained->entries) {
    EXPECT_TRUE(e.checked);
    EXPECT_TRUE(e.valid) << e.diagnostic;
    EXPECT_TRUE(e.committed);
    EXPECT_FALSE(e.rule.empty());
    EXPECT_FALSE(e.facts.empty()) << e.rule;
  }
  EXPECT_NE(explained->dot.find("certified"), std::string::npos);
}

TEST(CertifySessionTest, SpotCheckPassesOnRealRewrites) {
  Session session;
  ASSERT_TRUE(session
                  .LoadDocument("t.xml",
                                "<a><b id=\"1\"><c>x</c></b>"
                                "<b id=\"2\"><c>y</c></b></a>")
                  .ok());
  QueryOptions spot;
  spot.certify.mode = CertifyMode::kStrict;
  spot.certify.spot_check = true;
  const std::string q =
      "for $b in doc(\"t.xml\")//b return count($b//c)";
  Result<QueryResult> checked = session.Execute(q, spot);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  Result<QueryResult> plain = session.Execute(q, QueryOptions{});
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(checked->serialized, plain->serialized);
}

// Every certificate the optimizer emits over the full XMark corpus, in
// both ordering modes, must validate in strict mode — so strict
// certification never rejects a default-on rewrite (the acceptance bar
// for shipping fail-closed). Prints the greppable "[certify]" summary
// the CI job checks.
TEST(CertifyCorpusTest, AllXMarkCertificatesValidateStrict) {
  Session session;
  size_t emitted = 0;
  size_t validated = 0;
  for (bool unordered : {false, true}) {
    for (const XMarkQuery& q : XMarkQueries()) {
      QueryOptions options;
      options.verify_each_pass = true;
      options.certify.mode = CertifyMode::kStrict;
      options.default_ordering =
          unordered ? OrderingMode::kUnordered : OrderingMode::kOrdered;
      Result<QueryPlans> plans = session.Plan(q.text, options);
      ASSERT_TRUE(plans.ok())
          << q.name << (unordered ? " (unordered)" : " (ordered)") << ": "
          << plans.status().ToString();
      for (const RewriteTrade& t : plans->trades) {
        ++emitted;
        EXPECT_TRUE(t.checked) << q.name << ": " << t.rule;
        EXPECT_TRUE(t.valid)
            << q.name << (unordered ? " (unordered)" : " (ordered)")
            << ": " << t.diagnostic;
        validated += t.checked && t.valid ? 1 : 0;
      }
    }
  }
  EXPECT_GT(emitted, 0u);
  EXPECT_EQ(validated, emitted);
  std::printf("[certify] emitted=%zu validated=%zu rejected=%zu\n",
              emitted, validated, emitted - validated);
}

// Certification must be observation-only on the good path: the plan an
// optimizer run produces must render byte-identically with certificates
// off, checked, and enforced strictly.
TEST(CertifyCorpusTest, PlansByteIdenticalAcrossModes) {
  Session session;
  for (const XMarkQuery& q : XMarkQueries()) {
    QueryOptions off;
    off.certify.mode = CertifyMode::kOff;
    QueryOptions check;
    check.certify.mode = CertifyMode::kCheck;
    QueryOptions strict;
    strict.certify.mode = CertifyMode::kStrict;
    Result<QueryPlans> a = session.Plan(q.text, off);
    Result<QueryPlans> b = session.Plan(q.text, check);
    Result<QueryPlans> c = session.Plan(q.text, strict);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok()) << q.name;
    std::string ta = NormalizeGensyms(
        PlanToText(*a->dag, a->optimized, session.strings()));
    std::string tb = NormalizeGensyms(
        PlanToText(*b->dag, b->optimized, session.strings()));
    std::string tc = NormalizeGensyms(
        PlanToText(*c->dag, c->optimized, session.strings()));
    EXPECT_EQ(ta, tb) << q.name;
    EXPECT_EQ(ta, tc) << q.name;
  }
}

TEST(CertifyResolveTest, OptionsBeatEnvironment) {
  setenv("EXRQUY_CERTIFY", "off", 1);
  CertifySettings strict;
  strict.mode = CertifyMode::kStrict;
  EXPECT_EQ(ResolveCertify(strict)->mode, CertifyMode::kStrict);
  CertifySettings dflt;
  EXPECT_EQ(ResolveCertify(dflt)->mode, CertifyMode::kOff);
  setenv("EXRQUY_CERTIFY", "strict", 1);
  EXPECT_EQ(ResolveCertify(dflt)->mode, CertifyMode::kStrict);
  setenv("EXRQUY_CERTIFY", "spot", 1);
  CertifySettings r = ResolveCertify(dflt).value();
  EXPECT_EQ(r.mode, CertifyMode::kStrict);
  EXPECT_TRUE(r.spot_check);
  unsetenv("EXRQUY_CERTIFY");
  EXPECT_EQ(ResolveCertify(dflt)->mode, CertifyMode::kCheck);
}

// Every documented spelling resolves; anything else is an
// InvalidArgument naming the variable — from the resolver, from Session
// planning and from QueryService planning — never a silent fallback.
TEST(CertifyResolveTest, EnvironmentIsStrict) {
  const std::pair<const char*, CertifyMode> accepted[] = {
      {"off", CertifyMode::kOff},       {"0", CertifyMode::kOff},
      {"on", CertifyMode::kCheck},      {"check", CertifyMode::kCheck},
      {"strict", CertifyMode::kStrict}, {"spot", CertifyMode::kStrict},
      {"", CertifyMode::kCheck},
  };
  CertifySettings dflt;
  for (const auto& [value, mode] : accepted) {
    setenv("EXRQUY_CERTIFY", value, 1);
    Result<CertifySettings> r = ResolveCertify(dflt);
    ASSERT_TRUE(r.ok()) << "'" << value << "': " << r.status().ToString();
    EXPECT_EQ(r->mode, mode) << value;
  }

  setenv("EXRQUY_CERTIFY", "strcit", 1);
  Result<CertifySettings> typo = ResolveCertify(dflt);
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(typo.status().message().find("EXRQUY_CERTIFY"),
            std::string::npos)
      << typo.status().message();
  // An explicit option never consults the environment.
  CertifySettings strict;
  strict.mode = CertifyMode::kStrict;
  EXPECT_TRUE(ResolveCertify(strict).ok());

  const char* query = "count((1, 2, 3))";
  Session session;
  Result<QueryPlans> planned = session.Plan(query);
  ASSERT_FALSE(planned.ok());
  EXPECT_EQ(planned.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(planned.status().message().find("EXRQUY_CERTIFY"),
            std::string::npos);
  Result<QueryResult> executed = session.Execute(query);
  ASSERT_FALSE(executed.ok());
  EXPECT_EQ(executed.status().code(), StatusCode::kInvalidArgument);
  QueryService service;
  Result<ServiceResult> served = service.Execute(query);
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(served.status().message().find("EXRQUY_CERTIFY"),
            std::string::npos);
  unsetenv("EXRQUY_CERTIFY");
  EXPECT_TRUE(session.Plan(query).ok());
  EXPECT_TRUE(service.Execute(query).ok());
}

}  // namespace
}  // namespace exrquy
