// Resource governor: deadlines, cancellation tokens, memory budgets and
// the deterministic fault-injection harness (common/governor.h,
// engine/faults.h). The contract under test, from DESIGN.md:
//
//   * an aborted query surfaces exactly one of kCancelled /
//     kDeadlineExceeded / kResourceExhausted — never a torn result, a
//     hang, or a leak (the ASan job covers leaks; these tests completing
//     at all covers hangs);
//   * the abort leaves the Session fully usable: the node store and
//     string pool are rolled back to their pre-query sizes, and
//     re-running the same query without the fault yields results
//     byte-identical to a never-faulted reference;
//   * fault injection is deterministic in outcome: for a fixed
//     (query, ordering, morsel_rows, fault plan), whether the query fails
//     and with which Status code is identical at 1 and 4 threads.
//
// The sweep drives all twenty XMark queries through every combination of
// {1, 4} threads x {ordered, unordered} x {cancel-at-op, deadline-at-
// chunk, fail-alloc} — the acceptance gate of the resource-governance
// issue.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "common/governor.h"
#include "common/status.h"
#include "engine/faults.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace exrquy {
namespace {

// morsel_rows is pinned tiny and identical at every thread count: morsel-
// boundary poll counts are a pure function of table sizes, so the
// deadline-at-chunk fault reaches its threshold (or doesn't) identically
// whether the morsels run on one thread or four.
QueryOptions Threads(int n) {
  QueryOptions o;
  o.num_threads = n;
  o.morsel_rows = 7;
  return o;
}

class GovernorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    session_ = new Session();
    XMarkOptions options;
    options.scale = 0.004;
    ASSERT_TRUE(
        session_->LoadDocument("auction.xml", GenerateXMark(options)).ok());
    nodes_ = session_->store().node_count();
    fragments_ = session_->store().fragment_count();
    strings_ = session_->strings().size();
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }

  // Every test may call this after every Execute: no exit path — success,
  // compile error, runtime error, governor abort — may grow the store or
  // the pool.
  static void ExpectSessionPristine(const std::string& context) {
    EXPECT_EQ(session_->store().node_count(), nodes_) << context;
    EXPECT_EQ(session_->store().fragment_count(), fragments_) << context;
    EXPECT_EQ(session_->strings().size(), strings_) << context;
  }

  static Session* session_;
  static size_t nodes_;
  static size_t fragments_;
  static size_t strings_;
};

Session* GovernorTest::session_ = nullptr;
size_t GovernorTest::nodes_ = 0;
size_t GovernorTest::fragments_ = 0;
size_t GovernorTest::strings_ = 0;

// A query whose evaluation is long enough (a three-way cross product
// over //person, ~10^6 rows at scale 0.004) that a 1 ms deadline or an
// early Cancel() always lands mid-flight, never after completion.
const char kSlowQuery[] =
    R"(count(for $a in doc("auction.xml")//person,
                $b in doc("auction.xml")//person,
                $c in doc("auction.xml")//person
            return 1))";

// ---------------------------------------------------------------------
// Cancellation tokens.

TEST_F(GovernorTest, PreCancelledTokenFailsBeforeAnyWork) {
  QueryOptions o = Threads(1);
  o.cancel = std::make_shared<CancelToken>();
  o.cancel->Cancel();
  Result<QueryResult> r = session_->Execute(XMarkQueryText("Q1"), o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  ExpectSessionPristine("pre-cancelled");
  // The Session is not poisoned: the same query runs fine afterwards.
  EXPECT_TRUE(session_->Execute(XMarkQueryText("Q1"), Threads(1)).ok());
}

TEST_F(GovernorTest, CancelFromAnotherThreadAbortsMidQuery) {
  for (int threads : {1, 4}) {
    QueryOptions o = Threads(threads);
    o.cancel = std::make_shared<CancelToken>();
    std::thread canceller([token = o.cancel] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      token->Cancel();
    });
    Result<QueryResult> r = session_->Execute(kSlowQuery, o);
    canceller.join();
    ASSERT_FALSE(r.ok()) << "threads=" << threads;
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
        << "threads=" << threads << ": " << r.status().ToString();
    ExpectSessionPristine("async cancel");
  }
}

// ---------------------------------------------------------------------
// Wall-clock deadlines.

TEST_F(GovernorTest, DeadlineAbortsSlowQuery) {
  for (int threads : {1, 4}) {
    QueryOptions o = Threads(threads);
    o.deadline_ms = 1;
    Result<QueryResult> r = session_->Execute(kSlowQuery, o);
    ASSERT_FALSE(r.ok()) << "threads=" << threads;
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << "threads=" << threads << ": " << r.status().ToString();
    ExpectSessionPristine("deadline");
  }
}

TEST_F(GovernorTest, GenerousDeadlineDoesNotFireOnCompletion) {
  // A query that finishes well inside its deadline must not be failed by
  // an end-of-run recheck.
  QueryOptions o = Threads(4);
  o.deadline_ms = 600000;
  Result<QueryResult> r = session_->Execute(XMarkQueryText("Q1"), o);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

// ---------------------------------------------------------------------
// Memory budgets.

TEST_F(GovernorTest, TinyBudgetExhaustsCleanly) {
  for (int threads : {1, 4}) {
    QueryOptions o = Threads(threads);
    o.memory_budget = 1024;  // less than one intermediate column
    Result<QueryResult> r = session_->Execute(XMarkQueryText("Q10"), o);
    ASSERT_FALSE(r.ok()) << "threads=" << threads;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << "threads=" << threads << ": " << r.status().ToString();
    ExpectSessionPristine("tiny budget");
  }
}

TEST_F(GovernorTest, GenerousBudgetSucceedsAndProfilesUsage) {
  QueryOptions o = Threads(1);
  o.memory_budget = size_t{1} << 30;
  o.profile = true;
  Result<QueryResult> r = session_->Execute(XMarkQueryText("Q10"), o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->profile.budget_limit_bytes(), size_t{1} << 30);
  EXPECT_GT(r->profile.budget_peak_bytes(), 0u);
  std::string json = r->profile.ToJson();
  EXPECT_NE(json.find("\"budget_peak_bytes\""), std::string::npos);
}

TEST_F(GovernorTest, ProfileAccountsEvenWithoutLimit) {
  // profile = true arms accounting with limit 0: numbers are reported,
  // nothing is ever exhausted.
  QueryOptions o = Threads(1);
  o.profile = true;
  Result<QueryResult> r = session_->Execute(XMarkQueryText("Q1"), o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->profile.budget_limit_bytes(), 0u);
  EXPECT_GT(r->profile.budget_peak_bytes(), 0u);
}

// ---------------------------------------------------------------------
// Environment plumbing: EXRQUY_MEM_BUDGET and EXRQUY_FAULT_* configure
// the same machinery when QueryOptions leaves them unset.

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST_F(GovernorTest, EnvMemBudgetApplies) {
  ScopedEnv env("EXRQUY_MEM_BUDGET", "1024");
  Result<QueryResult> r = session_->Execute(XMarkQueryText("Q10"), Threads(1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  ExpectSessionPristine("env budget");
}

TEST_F(GovernorTest, EnvFaultCancelApplies) {
  ScopedEnv env("EXRQUY_FAULT_CANCEL_OP", "1");
  Result<QueryResult> r = session_->Execute(XMarkQueryText("Q1"), Threads(1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  ExpectSessionPristine("env fault");
}

TEST_F(GovernorTest, OptionsBeatEnvironment) {
  // An explicit (generous) option wins over a hostile environment.
  ScopedEnv env("EXRQUY_MEM_BUDGET", "1024");
  QueryOptions o = Threads(1);
  o.memory_budget = size_t{1} << 30;
  EXPECT_TRUE(session_->Execute(XMarkQueryText("Q10"), o).ok());
}

// The governor variables are parsed strictly: a malformed value fails
// with InvalidArgument naming the variable instead of silently meaning
// "no limit".
TEST_F(GovernorTest, MalformedGovernorEnvRejected) {
  for (const char* name : {"EXRQUY_DEADLINE_MS", "EXRQUY_MEM_BUDGET"}) {
    for (const char* bad : {"abc", "64MB"}) {
      ScopedEnv env(name, bad);
      Result<QueryResult> r =
          session_->Execute(XMarkQueryText("Q1"), Threads(1));
      ASSERT_FALSE(r.ok()) << name << "=" << bad;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(r.status().message().find(name), std::string::npos)
          << r.status().message();
      ExpectSessionPristine(std::string(name) + "=" + bad);
    }
  }
}

// ---------------------------------------------------------------------
// Satellite (b): a loop of failing queries — compile errors, runtime
// errors, governor aborts — leaves the store and the pool exactly where
// they started.

TEST_F(GovernorTest, FailingQueryLoopNeverGrowsSessionState) {
  QueryOptions cancelled = Threads(1);
  cancelled.cancel = std::make_shared<CancelToken>();
  cancelled.cancel->Cancel();
  QueryOptions starved = Threads(4);
  starved.memory_budget = 512;
  struct Case {
    const char* query;
    QueryOptions options;
  };
  const std::vector<Case> cases = {
      {"for $x in", Threads(1)},                           // parse error
      {R"(doc("nope.xml")//item)", Threads(1)},            // unknown doc
      {R"(1 + doc("auction.xml")//person)", Threads(4)},   // runtime error
      {XMarkQueryText("Q1").c_str(), cancelled},           // governor abort
      {XMarkQueryText("Q10").c_str(), starved},            // budget abort
  };
  for (int i = 0; i < 10; ++i) {
    for (const Case& c : cases) {
      EXPECT_FALSE(session_->Execute(c.query, c.options).ok()) << c.query;
      ExpectSessionPristine(c.query);
    }
  }
  // Still healthy after fifty consecutive failures.
  EXPECT_TRUE(session_->Execute(XMarkQueryText("Q1"), Threads(4)).ok());
}

// ---------------------------------------------------------------------
// The fault-injection sweep: all twenty XMark queries, each fault kind,
// ordered and unordered plans, 1 and 4 threads.

struct Fault {
  const char* name;
  FaultPlan plan;
  StatusCode expected;
};

std::vector<Fault> FaultMatrix() {
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
  {
    // Thresholds far beyond any counter this workload reaches: the armed
    // harness must be invisible and the query must succeed.
    FaultPlan p;
    p.cancel_at_op = 1000000000;
    faults.push_back({"cancel@1e9", p, StatusCode::kOk});
  }
  return faults;
}

TEST_F(GovernorTest, FaultSweepAllXMarkQueries) {
  for (OrderingMode mode : {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
    for (const XMarkQuery& q : XMarkQueries()) {
      // Never-faulted reference for the byte-identical re-run check.
      QueryOptions ref_opts = Threads(1);
      ref_opts.default_ordering = mode;
      Result<QueryResult> reference = session_->Execute(q.text, ref_opts);
      ASSERT_TRUE(reference.ok())
          << q.name << ": " << reference.status().ToString();

      for (const Fault& fault : FaultMatrix()) {
        std::string context = std::string(q.name) + " " + fault.name +
                              (mode == OrderingMode::kUnordered
                                   ? " unordered"
                                   : " ordered");
        StatusCode outcome_at_one = StatusCode::kOk;
        for (int threads : {1, 4}) {
          QueryOptions o = Threads(threads);
          o.default_ordering = mode;
          o.faults = fault.plan;
          Result<QueryResult> r = session_->Execute(q.text, o);
          // The query either succeeds (fault point unreached) or fails
          // with exactly the planned code — never some other error, and
          // the test completing at all proves no hang.
          StatusCode outcome = r.ok() ? StatusCode::kOk : r.status().code();
          if (!r.ok()) {
            EXPECT_EQ(outcome, fault.expected)
                << context << " threads=" << threads << ": "
                << r.status().ToString();
          }
          if (fault.expected == StatusCode::kOk) {
            EXPECT_TRUE(r.ok()) << context << " threads=" << threads << ": "
                                << r.status().ToString();
          }
          // Outcome is deterministic across thread counts.
          if (threads == 1) {
            outcome_at_one = outcome;
          } else {
            EXPECT_EQ(outcome, outcome_at_one) << context;
          }
          ExpectSessionPristine(context);

          // After any abort the Session re-runs the same query,
          // unfaulted, to a byte-identical result.
          QueryOptions rerun = Threads(threads);
          rerun.default_ordering = mode;
          Result<QueryResult> again = session_->Execute(q.text, rerun);
          ASSERT_TRUE(again.ok())
              << context << ": " << again.status().ToString();
          EXPECT_EQ(again->serialized, reference->serialized) << context;
          EXPECT_EQ(again->items, reference->items) << context;
        }
      }
    }
  }
}

TEST_F(GovernorTest, FaultedRunsReportPlannedCodeOnQ8Join) {
  // Q8 (the join-heavy query) with every fault at threshold 1: the very
  // first counter tick trips, so the failure is unconditional.
  struct Case {
    FaultPlan plan;
    StatusCode expected;
  };
  std::vector<Case> cases;
  {
    FaultPlan p;
    p.cancel_at_op = 1;
    cases.push_back({p, StatusCode::kCancelled});
  }
  {
    FaultPlan p;
    p.deadline_at_chunk = 1;
    cases.push_back({p, StatusCode::kDeadlineExceeded});
  }
  {
    FaultPlan p;
    p.fail_alloc = 1;
    cases.push_back({p, StatusCode::kResourceExhausted});
  }
  for (const Case& c : cases) {
    for (int threads : {1, 4}) {
      QueryOptions o = Threads(threads);
      o.faults = c.plan;
      Result<QueryResult> r = session_->Execute(XMarkQueryText("Q8"), o);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), c.expected) << r.status().ToString();
      ExpectSessionPristine("Q8 fault");
    }
  }
}

}  // namespace
}  // namespace exrquy
