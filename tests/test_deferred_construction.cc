// Deferred element construction (Op::deferred): an element constructor
// whose nodes no consumer can tell apart from copies of them emits
// construction records, and the enclosing constructor writes each
// element once, in place.
//
//  1. no deferral wherever identity is observable: node comparisons,
//     navigation from the constructed node, duplicate elimination over
//     nodes, a node both returned and nested, and attribute/text
//     constructor content;
//  2. deferral on shared nested content, attributes, adjacent atomics,
//     document nodes, empty content and deep nesting — with bytes equal
//     to the reference interpreter and to the family turned off, at one
//     thread and at four threads over 1- and 7-row morsels;
//  3. a mutant that marks a navigated constructor is caught by the
//     certificate checker and by the plan verifier, and the engine fails
//     it cleanly instead of computing with a record.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/session.h"
#include "engine/eval.h"
#include "opt/certify.h"
#include "opt/verify.h"
#include "ref/interp.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"

namespace exrquy {
namespace {

using col::item;
using col::iter;
using col::pos;

constexpr char kDoc[] =
    "<a><b x=\"1\">bt<c/></b><b x=\"2\"><c>ct</c>tail</b></a>";

class DeferredConstructionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(session_.LoadDocument("t.xml", kDoc).ok());
  }

  // Names of the element constructors the optimized plan defers.
  std::multiset<std::string> Deferred(const std::string& q,
                                      const QueryOptions& options = {}) {
    std::multiset<std::string> out;
    Result<QueryPlans> p = session_.Plan(q, options);
    EXPECT_TRUE(p.ok()) << q << ": " << p.status().ToString();
    if (!p.ok()) return out;
    for (OpId id : p->dag->ReachableFrom(p->optimized)) {
      const Op& op = p->dag->op(id);
      if (op.kind == OpKind::kElem && op.deferred) {
        out.insert(session_.strings().Get(op.name));
      }
    }
    return out;
  }

  Result<std::vector<std::string>> RunRef(const std::string& q) {
    EXRQUY_ASSIGN_OR_RETURN(Query parsed, ParseQuery(q));
    NormalizeOptions norm;
    norm.insert_unordered = false;
    EXRQUY_RETURN_IF_ERROR(Normalize(&parsed, norm));
    RefInterpreter interp(&session_.store(), &session_.strings(),
                          session_.documents());
    EXRQUY_ASSIGN_OR_RETURN(std::vector<Value> items,
                            interp.Eval(*parsed.body));
    return interp.Render(items);
  }

  QueryResult MustRun(const std::string& q, const QueryOptions& options) {
    Result<QueryResult> r = session_.Execute(q, options);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  // The items equal the reference interpreter's (ordered mode), and the
  // serialized bytes equal the family-off plan's in both ordering modes,
  // at one thread and at four threads over 1- and 7-row morsels.
  void ExpectSameBytes(const std::string& q) {
    SCOPED_TRACE(q);
    Result<std::vector<std::string>> ref = RunRef(q);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (OrderingMode mode : {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
      QueryOptions on;
      on.default_ordering = mode;
      on.num_threads = 1;
      QueryOptions off = on;
      off.deferred_construction = false;
      QueryResult eager = MustRun(q, off);
      QueryResult deferred = MustRun(q, on);
      EXPECT_EQ(deferred.serialized, eager.serialized);
      if (mode == OrderingMode::kOrdered) {
        EXPECT_EQ(deferred.items, *ref);
      }
      for (size_t morsel : {1, 7}) {
        QueryOptions par = on;
        par.num_threads = 4;
        par.morsel_rows = morsel;
        EXPECT_EQ(MustRun(q, par).serialized, eager.serialized)
            << "4 threads, morsel " << morsel;
      }
    }
  }

  Session session_;
};

TEST_F(DeferredConstructionTest, NoDeferralWhereIdentityIsObserved) {
  const std::map<std::string, std::string> cases = {
      // Node identity and order comparisons.
      {"let $a := <a/> return <r>{ $a is $a }</r>", "a"},
      {"let $a := <a/> let $b := <b/> return <r>{ $a << $b }</r>", "a"},
      // Navigation from the constructed node: the copy in <w> has a
      // parent, the node itself has none.
      {"let $b := <b/> return (<w>{ $b }</w>, count($b/..))", "b"},
      {"let $b := <b/> return (<w>{ $b }</w>, count($b/parent::node()))",
       "b"},
      {"let $b := <b/> return "
       "(<w>{ $b }</w>, count($b/ancestor-or-self::node()))",
       "b"},
      {"let $b := <b><c/></b> return <w>{ $b, $b/c/.. }</w>", "b"},
      // Duplicate elimination over constructed nodes.
      {"let $b := <b/> return <w>{ $b | $b }</w>", "b"},
      // Returned and nested.
      {"let $x := <x/> return (<w>{ $x }</w>, $x)", "x"},
      // Attribute and text constructor content is atomized.
      {"<r a=\"{ <b>v</b> }\"/>", "b"},
      {"<r>{ text { <b>v</b> } }</r>", "b"},
  };
  for (const auto& [q, name] : cases) {
    EXPECT_EQ(Deferred(q).count(name), 0u) << q;
    ExpectSameBytes(q);
  }
  // The result root observes whatever it returns.
  EXPECT_TRUE(Deferred("<r><a/></r>").count("r") == 0);
}

TEST_F(DeferredConstructionTest, DefersNestedContent) {
  const std::map<std::string, std::multiset<std::string>> cases = {
      // Shared nested content: both enclosing constructors copy it.
      {"let $a := <a>x</a> return <r>{ <p>{ $a }</p>, <q>{ $a }</q> }</r>",
       {"a", "p", "q"}},
      // Attributes: direct, computed, and attribute nodes as content.
      {"<r>{ <a x=\"1\" y=\"{ 1 + 1 }\">t</a> }</r>", {"a"}},
      {"<r>{ <a>{ doc(\"t.xml\")//b/@x, \"s\" }</a> }</r>", {"a"}},
      // Adjacent atomics merge into one text node, around records too.
      {"<r>{ 1, <a>{ 2, \"s\", 3.5 }</a>, 4, 5 }</r>", {"a"}},
      {"<r>{ for $i in (1, 2) return <a>{ $i, $i * 10 }</a> }</r>", {"a"}},
      // Document nodes as content copy their children.
      {"<r><a>{ doc(\"t.xml\") }</a></r>", {"a"}},
      // Empty content, statically and at run time.
      {"<r><a/><b>{ () }</b>{ for $b in doc(\"t.xml\")//b "
       "return <c>{ $b/d }</c> }</r>",
       {"a", "b", "c"}},
      // Deep nesting, in a loop and with copied document content.
      {"<r>{ for $i in (1, 2, 3) return <l1 n=\"{ $i }\"><l2><l3><l4>"
       "{ $i * 2, <l5/> }</l4></l3></l2></l1> }</r>",
       {"l1", "l2", "l3", "l4", "l5"}},
      {"<r>{ for $b in doc(\"t.xml\")//b return "
       "<x>{ $b/c, $b/@x, <y>{ $b/text() }</y> }</x> }</r>",
       {"x", "y"}},
  };
  for (const auto& [q, names] : cases) {
    EXPECT_EQ(Deferred(q), names) << q;
    ExpectSameBytes(q);
  }
}

TEST_F(DeferredConstructionTest, FamilyOffDefersNothing) {
  QueryOptions off;
  off.deferred_construction = false;
  EXPECT_TRUE(Deferred("<r><a><b/></a></r>", off).empty());
  EXPECT_FALSE(Deferred("<r><a><b/></a></r>").empty());
}

// The certificate of every mark validates, and strict certification with
// the dynamic spot check (which evaluates the marked constructor on its
// own and so writes its records out) accepts it.
TEST_F(DeferredConstructionTest, CertifiedAndSpotChecked) {
  const std::string q =
      "<r>{ for $b in doc(\"t.xml\")//b return <x>{ <y>{ $b/@x }</y> }</x> }"
      "</r>";
  Result<QueryPlans> p = session_.Plan(q, QueryOptions{});
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  size_t certs = 0;
  for (const RewriteTrade& t : p->trades) {
    if (t.rule != "deferred_construction") continue;
    ++certs;
    EXPECT_TRUE(t.checked && t.valid) << t.diagnostic;
  }
  EXPECT_EQ(certs, 2u);
  QueryOptions spot;
  spot.certify.mode = CertifyMode::kStrict;
  spot.certify.spot_check = true;
  EXPECT_EQ(MustRun(q, spot).serialized, MustRun(q, QueryOptions{}).serialized);
}

// XMark Q10 nests four constructor levels: every one but the returned
// <categorie> is deferred, and the bytes match the eager plan.
TEST(DeferredConstructionXMarkTest, Q10ByteIdenticalToEager) {
  Session session;
  XMarkOptions gen;
  gen.scale = 0.004;
  ASSERT_TRUE(session.LoadDocument("auction.xml", GenerateXMark(gen)).ok());
  const XMarkQuery* q10 = nullptr;
  for (const XMarkQuery& q : XMarkQueries()) {
    if (q.name == "Q10") q10 = &q;
  }
  ASSERT_NE(q10, nullptr);
  for (OrderingMode mode : {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
    QueryOptions on;
    on.default_ordering = mode;
    QueryOptions off = on;
    off.deferred_construction = false;
    Result<QueryPlans> p = session.Plan(q10->text, on);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    size_t deferred = 0;
    for (OpId id : p->dag->ReachableFrom(p->optimized)) {
      const Op& op = p->dag->op(id);
      if (op.kind != OpKind::kElem) continue;
      EXPECT_EQ(op.deferred,
                session.strings().Get(op.name) != "categorie");
      deferred += op.deferred ? 1 : 0;
    }
    EXPECT_EQ(deferred, 16u);
    Result<QueryResult> eager = session.Execute(q10->text, off);
    ASSERT_TRUE(eager.ok()) << eager.status().ToString();
    for (int threads : {1, 4}) {
      QueryOptions run = on;
      run.num_threads = threads;
      run.morsel_rows = threads == 1 ? 0 : 7;
      Result<QueryResult> r = session.Execute(q10->text, run);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->serialized, eager->serialized) << threads << " threads";
    }
  }
}

// -- A mutant: a navigated constructor marked deferred ----------------------

class DeferredMutantTest : public ::testing::Test {
 protected:
  // <e>{ 7 }</e> per loop row, then child::node() from each element.
  void SetUp() override {
    LitTable c;
    c.cols = {iter(), pos(), item()};
    c.rows = {{Value::Int(1), Value::Int(1), Value::Int(7)}};
    LitTable l;
    l.cols = {iter()};
    l.rows = {{Value::Int(1)}};
    elem_ = dag_.Elem(strings_.Intern("e"), dag_.Lit(std::move(c)),
                      dag_.Lit(std::move(l)));
    Op marked = dag_.op(elem_);
    marked.schema.clear();
    marked.deferred = true;
    marked_ = dag_.Add(std::move(marked));
  }

  // The step (the navigation) over `elem`, sequence-shaped.
  OpId Navigate(OpId elem) {
    NodeTest any;
    any.kind = NodeTest::Kind::kAnyKind;
    OpId step = dag_.Step(elem, Axis::kChild, any);
    return dag_.AttachConst(step, pos(), Value::Int(1));
  }

  // Evaluates `root` at one thread. The engine checks structure only:
  // it runs a plan the verifier would reject.
  Result<TablePtr> Run(OpId root) {
    NodeStore store(&strings_);
    EvalContext ctx;
    ctx.store = &store;
    ctx.strings = &strings_;
    ctx.num_threads = 1;
    return Evaluator(dag_, &ctx).Eval(root);
  }

  Dag dag_;
  StrPool strings_;
  OpId elem_ = kNoOp;
  OpId marked_ = kNoOp;
};

TEST_F(DeferredMutantTest, CheckerRejectsMarkingANavigatedConstructor) {
  const OpId root = Navigate(elem_);
  PlanFacts facts(&dag_);
  CertifyChecker checker(&dag_, &facts, root);
  RewriteCertificate cert;
  cert.from = elem_;
  cert.to = marked_;
  cert.rule = "deferred_construction";
  cert.cited = {CiteUnobserved(elem_, item())};
  EXPECT_FALSE(checker.Check(&cert));
  EXPECT_EQ(cert.obligation, "identity-indifference") << cert.diagnostic;

  // The same mark under a consumer that only copies it validates.
  LitTable l;
  l.cols = {iter()};
  l.rows = {{Value::Int(1)}};
  const OpId outer =
      dag_.Elem(strings_.Intern("o"),
                dag_.AttachConst(elem_, pos(), Value::Int(1)),
                dag_.Lit(std::move(l)));
  const OpId copy_root = dag_.AttachConst(outer, pos(), Value::Int(1));
  CertifyChecker copying(&dag_, &facts, copy_root);
  cert.checked = false;
  EXPECT_TRUE(copying.Check(&cert)) << cert.diagnostic;
}

TEST_F(DeferredMutantTest, VerifierAndEngineRejectTheMark) {
  const OpId root = Navigate(marked_);
  Status st = VerifyPlan(dag_, root);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("[deferred-constructor-claim]"),
            std::string::npos)
      << st.ToString();
  EXPECT_TRUE(VerifyPlan(dag_, Navigate(elem_)).ok());

  // The step meets a record and fails the query with a Status.
  EXPECT_FALSE(Run(root).ok());
}

// A record that reaches an operator inspecting its value fails the query
// with kInternal where the operator can return a Status (a string
// function), and aborts where it cannot (a hash key, here Distinct's).
TEST_F(DeferredMutantTest, EngineFailsALeakedRecordLoudly) {
  const ColId n = ColSym("n");
  Result<TablePtr> length =
      Run(dag_.Fun(marked_, FunKind::kStringLength, n, {item()}));
  ASSERT_FALSE(length.ok());
  EXPECT_EQ(length.status().code(), StatusCode::kInternal);
  EXPECT_NE(length.status().message().find("construction record"),
            std::string::npos)
      << length.status().ToString();

  EXPECT_TRUE(Run(dag_.Distinct(elem_)).ok());
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH((void)Run(dag_.Distinct(marked_)), "kRecord");
}

}  // namespace
}  // namespace exrquy
