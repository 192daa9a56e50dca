// Join recognition & planning (opt/join_plan.*): the product-space
// predicate idiom must be lifted into value/theta joins exactly when the
// proof obligations hold, and never otherwise. Four layers of coverage:
//
//   * unit recognition over a handcrafted two-table document — equality
//     and theta predicates, an `and`-conjunction (one join per
//     conjunct), the whole-for-loop return composite, and two near-miss
//     shapes that look like joins but must not fire;
//   * the plan verifier's independent [join-isolation-claim] audit on
//     hand-built plans whose join predicates touch scaffolding columns
//     or mix hash-unsafe kinds;
//   * off-vs-on equivalence across the entire XMark corpus in both
//     ordering modes at 1 and 4 threads — byte-identical ordered
//     results, equal multisets unordered;
//   * governor faults injected through ThetaJoin plans, and a CI
//     wall-clock guard pinning Q9 under a deadline the retired
//     product-space plan could not meet.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "api/session.h"
#include "engine/faults.h"
#include "opt/verify.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace exrquy {
namespace {

using col::item;
using col::iter;
using col::pos;

// ---------------------------------------------------------------------
// Recognition hits and misses.

const char kDoc[] =
    R"(<root><as><a k="1" j="1"/><a k="2" j="9"/><a k="3" j="3"/></as>)"
    R"(<bs><b k="2"/><b k="3"/><b k="5"/></bs></root>)";

class JoinRecognitionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    session_ = new Session();
    ASSERT_TRUE(session_->LoadDocument("d.xml", kDoc).ok());
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }

  static Result<QueryResult> Run(const std::string& q,
                                 const QueryOptions& o) {
    return session_->Execute(q, o);
  }

  // Runs `q` with recognition on and off in both ordering modes and
  // asserts equal results either way (byte-identical ordered, equal
  // multisets unordered). Returns the default-options result.
  static QueryResult CheckEquivalent(const std::string& q) {
    QueryResult out;
    for (OrderingMode mode :
         {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
      QueryOptions on;
      on.default_ordering = mode;
      QueryOptions off = on;
      off.join_recognition = false;
      Result<QueryResult> a = Run(q, on);
      Result<QueryResult> b = Run(q, off);
      EXPECT_TRUE(a.ok()) << a.status().ToString();
      EXPECT_TRUE(b.ok()) << b.status().ToString();
      if (!a.ok() || !b.ok()) return out;
      EXPECT_EQ(b->plan_optimized.value_join_ops, 0u);
      EXPECT_EQ(b->plan_optimized.theta_join_ops, 0u);
      if (mode == OrderingMode::kOrdered) {
        EXPECT_EQ(a->serialized, b->serialized);
        EXPECT_EQ(a->items, b->items);
        out = *a;
      } else {
        std::vector<std::string> ia = a->items;
        std::vector<std::string> ib = b->items;
        std::sort(ia.begin(), ia.end());
        std::sort(ib.begin(), ib.end());
        EXPECT_EQ(ia, ib);
      }
    }
    return out;
  }

  static Session* session_;
};

Session* JoinRecognitionTest::session_ = nullptr;

TEST_F(JoinRecognitionTest, EqualityPredicateBecomesValueJoin) {
  QueryResult r = CheckEquivalent(
      R"(for $a in doc("d.xml")/root/as/a
         return count(for $b in doc("d.xml")/root/bs/b
                      where $b/@k = $a/@k return $b))");
  EXPECT_GE(r.plan_optimized.value_join_ops, 1u);
  EXPECT_EQ(r.plan_optimized.theta_join_ops, 0u);
  EXPECT_EQ(r.items, (std::vector<std::string>{"0", "1", "1"}));
}

TEST_F(JoinRecognitionTest, OrderPredicateBecomesThetaJoin) {
  const std::string q =
      R"(for $a in doc("d.xml")/root/as/a
         return count(for $b in doc("d.xml")/root/bs/b
                      where $b/@k < $a/@k return $b))";
  QueryResult r = CheckEquivalent(q);
  EXPECT_GE(r.plan_optimized.theta_join_ops, 1u);
  EXPECT_EQ(r.items, (std::vector<std::string>{"0", "0", "1"}));

  // theta_join=false refuses the non-equality predicate while leaving
  // the result untouched.
  QueryOptions no_theta;
  no_theta.theta_join = false;
  Result<QueryResult> nt = Run(q, no_theta);
  ASSERT_TRUE(nt.ok()) << nt.status().ToString();
  EXPECT_EQ(nt->plan_optimized.theta_join_ops, 0u);
  EXPECT_EQ(nt->plan_optimized.value_join_ops, 0u);
  EXPECT_EQ(nt->items, r.items);
}

TEST_F(JoinRecognitionTest, ConjunctionYieldsOneJoinPerConjunct) {
  // `and` of two equality comparisons: each conjunct becomes its own
  // hash join, and the survivor sets intersect.
  QueryResult r = CheckEquivalent(
      R"(for $a in doc("d.xml")/root/as/a
         return count(for $b in doc("d.xml")/root/bs/b
                      where $b/@k = $a/@k and $b/@k = $a/@j
                      return $b))");
  EXPECT_GE(r.plan_optimized.value_join_ops, 2u);
  EXPECT_EQ(r.items, (std::vector<std::string>{"0", "0", "1"}));
}

TEST_F(JoinRecognitionTest, SemijoinReturnCompositeFires) {
  // The inner for-loop returns a constructed element: the whole return
  // composite is recognized and the product space itself retired.
  QueryResult r = CheckEquivalent(
      R"(for $a in doc("d.xml")/root/as/a
         return <hit>{for $b in doc("d.xml")/root/bs/b
                      where $b/@k = $a/@k
                      return <v>{$b/@k}</v>}</hit>)");
  EXPECT_GE(r.plan_optimized.value_join_ops, 1u);
  EXPECT_EQ(r.serialized,
            "<hit/><hit><v k=\"2\"/></hit><hit><v k=\"3\"/></hit>");
}

TEST_F(JoinRecognitionTest, InnerSequenceDependingOnOuterDoesNotFire) {
  // $b ranges over $a's own attributes — the inner sequence is not
  // loop-invariant, so no document-level rebuild is sound.
  QueryResult r = CheckEquivalent(
      R"(for $a in doc("d.xml")/root/as/a
         return count(for $b in $a/@k where $b = $a/@j return $b))");
  EXPECT_EQ(r.plan_optimized.value_join_ops, 0u);
  EXPECT_EQ(r.plan_optimized.theta_join_ops, 0u);
  EXPECT_EQ(r.items, (std::vector<std::string>{"1", "0", "1"}));
}

TEST_F(JoinRecognitionTest, PredicateWithoutOuterReferenceDoesNotFire) {
  // Both comparison sides live on the inner sequence: there is no
  // lifted outer side to re-root, so the shape must be refused.
  QueryResult r = CheckEquivalent(
      R"(for $a in doc("d.xml")/root/as/a
         return count(for $b in doc("d.xml")/root/bs/b
                      where $b/@k = $b/@k return $b))");
  EXPECT_EQ(r.plan_optimized.value_join_ops, 0u);
  EXPECT_EQ(r.plan_optimized.theta_join_ops, 0u);
  EXPECT_EQ(r.items, (std::vector<std::string>{"3", "3", "3"}));
}

// ---------------------------------------------------------------------
// The verifier's independent join-isolation audit.

class JoinIsolationVerifyTest : public ::testing::Test {
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

  // The right side of a join, columns renamed apart from the left's.
  OpId Renamed(OpId src) {
    return dag_.Project(src, {{iter2_, iter()}, {pos2_, pos()},
                              {item2_, item()}});
  }

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
  ColId iter2_ = ColSym("viter2");
  ColId pos2_ = ColSym("vpos2");
  ColId item2_ = ColSym("vitem2");
};

TEST_F(JoinIsolationVerifyTest, AcceptsValueJoinOnItemValues) {
  OpId l = Triples({{1, 1, 5}, {2, 1, 7}});
  OpId r = Renamed(Triples({{1, 1, 5}, {1, 2, 9}}));
  OpId vj = dag_.ValueJoin(l, r, item(), item2_);
  EXPECT_TRUE(VerifyPlan(dag_, vj).ok());
}

TEST_F(JoinIsolationVerifyTest, RejectsValueJoinKeyedOnIteration) {
  OpId l = Triples({{1, 1, 5}});
  OpId r = Renamed(Triples({{1, 1, 5}}));
  OpId vj = dag_.ValueJoin(l, r, iter(), iter2_);
  ExpectRejected(vj, "join-isolation-claim", vj);
}

TEST_F(JoinIsolationVerifyTest, RejectsThetaJoinOnScaffolding) {
  OpId l = Triples({{1, 1, 5}});
  OpId r = Renamed(Triples({{1, 1, 5}}));
  OpId tj = dag_.ThetaJoin(l, r, pos(), FunKind::kLt, pos2_);
  ExpectRejected(tj, "join-isolation-claim", tj);
}

TEST_F(JoinIsolationVerifyTest, RejectsHashEqualityOverMixedKinds) {
  OpId l = Triples({{1, 1, 5}});
  LitTable t;
  t.cols = {iter(), pos(), item()};
  t.rows.push_back({Value::Int(1), Value::Int(1), Value::Bool(true)});
  OpId r = Renamed(dag_.Lit(std::move(t)));
  OpId vj = dag_.ValueJoin(l, r, item(), item2_);
  ExpectRejected(vj, "join-isolation-claim", vj);
}

// ---------------------------------------------------------------------
// Off-vs-on equivalence across the XMark corpus.

QueryOptions Threads(int n) {
  QueryOptions o;
  o.num_threads = n;
  o.morsel_rows = 7;
  return o;
}

class JoinCorpusTest : public ::testing::Test {
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

Session* JoinCorpusTest::session_ = nullptr;

class JoinCorpusQueryTest : public JoinCorpusTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(JoinCorpusQueryTest, OffVsOnEquivalentAtEveryThreadCount) {
  const XMarkQuery& q = XMarkQueries()[GetParam()];
  for (OrderingMode mode :
       {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
    std::string on_serialized_at_one;
    for (int threads : {1, 4}) {
      QueryOptions on = Threads(threads);
      on.default_ordering = mode;
      QueryOptions off = on;
      off.join_recognition = false;
      Result<QueryResult> a = session_->Execute(q.text, on);
      Result<QueryResult> b = session_->Execute(q.text, off);
      std::string context = std::string(q.name) + " threads=" +
                            std::to_string(threads) +
                            (mode == OrderingMode::kUnordered ? " unordered"
                                                              : " ordered");
      ASSERT_TRUE(a.ok()) << context << ": " << a.status().ToString();
      ASSERT_TRUE(b.ok()) << context << ": " << b.status().ToString();
      EXPECT_EQ(b->plan_optimized.value_join_ops, 0u) << context;
      EXPECT_EQ(b->plan_optimized.theta_join_ops, 0u) << context;
      if (mode == OrderingMode::kOrdered) {
        // Only the join flags differ, so even Q10's free distinct-values
        // order is pinned identically on both sides.
        EXPECT_EQ(a->serialized, b->serialized) << context;
        EXPECT_EQ(a->items, b->items) << context;
      } else {
        std::vector<std::string> ia = a->items;
        std::vector<std::string> ib = b->items;
        std::sort(ia.begin(), ia.end());
        std::sort(ib.begin(), ib.end());
        EXPECT_EQ(ia, ib) << context;
      }
      // The recognized plans themselves are deterministic across thread
      // counts, byte for byte.
      if (threads == 1) {
        on_serialized_at_one = a->serialized;
      } else {
        EXPECT_EQ(a->serialized, on_serialized_at_one) << context;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, JoinCorpusQueryTest,
                         ::testing::Range(0, 20),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return XMarkQueries()[info.param].name;
                         });

// ---------------------------------------------------------------------
// Governor faults through ThetaJoin plans.

TEST_F(JoinCorpusTest, GovernorFaultsThroughThetaJoin) {
  struct Fault {
    const char* name;
    FaultPlan plan;
    StatusCode expected;
  };
  std::vector<Fault> faults;
  {
    FaultPlan p;
    p.cancel_at_op = 2;
    faults.push_back({"cancel@op2", p, StatusCode::kCancelled});
  }
  {
    FaultPlan p;
    p.deadline_at_chunk = 2;
    faults.push_back({"deadline@chunk2", p, StatusCode::kDeadlineExceeded});
  }
  {
    FaultPlan p;
    p.fail_alloc = 5;
    faults.push_back({"alloc@5", p, StatusCode::kResourceExhausted});
  }

  for (const char* name : {"Q11", "Q12"}) {
    const std::string& text = XMarkQueryText(name);
    // Never-faulted reference; its plan must actually run a ThetaJoin so
    // the fault counters tick through the new kernels.
    Result<QueryResult> reference = session_->Execute(text, Threads(1));
    ASSERT_TRUE(reference.ok())
        << name << ": " << reference.status().ToString();
    ASSERT_GE(reference->plan_optimized.theta_join_ops, 1u) << name;

    for (const Fault& fault : faults) {
      std::string context = std::string(name) + " " + fault.name;
      StatusCode outcome_at_one = StatusCode::kOk;
      for (int threads : {1, 4}) {
        QueryOptions o = Threads(threads);
        o.faults = fault.plan;
        Result<QueryResult> r = session_->Execute(text, o);
        StatusCode outcome = r.ok() ? StatusCode::kOk : r.status().code();
        if (!r.ok()) {
          EXPECT_EQ(outcome, fault.expected)
              << context << " threads=" << threads << ": "
              << r.status().ToString();
        }
        if (threads == 1) {
          outcome_at_one = outcome;
        } else {
          EXPECT_EQ(outcome, outcome_at_one) << context;
        }
        // After any abort the Session re-runs the same query, unfaulted,
        // to a byte-identical result.
        Result<QueryResult> again = session_->Execute(text, Threads(threads));
        ASSERT_TRUE(again.ok())
            << context << ": " << again.status().ToString();
        EXPECT_EQ(again->serialized, reference->serialized) << context;
      }
    }
  }
}

// ---------------------------------------------------------------------
// CI wall-clock regression guard.

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST(JoinDeadlineGuard, Q9CompletesUnderCiDeadline) {
  // At scale 0.1 the retired product-space plan for Q9 needs seconds of
  // cubic-blowup evaluation; the recognized join plan needs tens of
  // milliseconds. Running under the environment deadline asserts the
  // regression guard end to end: if recognition stops firing, the
  // governor trips kDeadlineExceeded here long before a CI timeout.
  Session session;
  XMarkOptions options;
  options.scale = 0.1;
  ASSERT_TRUE(
      session.LoadDocument("auction.xml", GenerateXMark(options)).ok());
  ScopedEnv env("EXRQUY_DEADLINE_MS", "2000");
  Result<QueryResult> r = session.Execute(XMarkQueryText("Q9"), {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->plan_optimized.value_join_ops, 1u);
  EXPECT_FALSE(r->items.empty());
}

}  // namespace
}  // namespace exrquy
