// Morsel-driven pipelined execution (opt/morsel_plan.h, engine/eval.h):
// fusion, morsel size and thread count must be invisible in every
// observable except time and memory. The suite drives that contract four
// ways:
//
//   * byte-equality of all twenty XMark queries against serial execution
//     at the default morsel size (one morsel per table at this scale),
//     across ordering modes, thread counts, morsel sizes and fusion on/
//     off — including morsel_rows = 1, where every stage boundary, merge
//     order and refcount transition is exercised at maximum resolution.
//     The serial results are in turn pinned by the reference interpreter
//     (test_reference_xmark) and the XMark result checks
//     (test_xmark_results);
//   * the governor fault matrix (fail-alloc / cancel-at-op /
//     deadline-at-chunk) swept exhaustively through fused pipelines with
//     SweepFaultPoints: every single fault point surfaces as the planned
//     code and an unfaulted re-run is byte-identical;
//   * the memory half: fusing must strictly lower the peak live footprint
//     on XMark Q20 below running every fusable operator alone, because
//     interior stages never materialize;
//   * the plan audit: a hand-corrupted MorselPlan must be refused before
//     the engine runs a single morsel.
//
// Plus the scheduling contract: units run one at a time in op-id order at
// every thread count, so memory and dispatch counts do not depend on it,
// and a tiny query at 4 threads never starts the pool (it starts at the
// first unit with several morsels).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "api/session.h"
#include "engine/eval.h"
#include "engine/faults.h"
#include "opt/morsel_plan.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace exrquy {
namespace {

// Serial evaluation: one thread, every unit inline in op-id order.
QueryOptions Serial() {
  QueryOptions o;
  o.num_threads = 1;
  return o;
}

QueryOptions Morsels(int threads, size_t morsel_rows) {
  QueryOptions o;
  o.num_threads = threads;
  o.morsel_rows = morsel_rows;
  return o;
}

// Fusion off: every fusable operator runs alone and materializes.
QueryOptions Unfused(int threads, size_t morsel_rows) {
  QueryOptions o = Morsels(threads, morsel_rows);
  o.pipelined_execution = false;
  return o;
}

class PipelineExecTest : public ::testing::Test {
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

Session* PipelineExecTest::session_ = nullptr;

// ---------------------------------------------------------------------
// Byte-equality matrix: 20 queries x 2 ordering modes x {1, 2, 4}
// threads x morsel sizes {1, 64, 65536}, plus two unfused configurations,
// against serial default-morsel execution.

void RunMatrix(Session* session, OrderingMode mode) {
  std::vector<QueryOptions> configs;
  for (int threads : {1, 2, 4}) {
    for (size_t morsel : {size_t{1}, size_t{64}, size_t{65536}}) {
      if (threads == 1 && morsel == 65536) continue;  // the reference
      configs.push_back(Morsels(threads, morsel));
    }
  }
  configs.push_back(Unfused(1, 64));
  configs.push_back(Unfused(4, 1));
  for (const XMarkQuery& q : XMarkQueries()) {
    QueryOptions ref_opts = Serial();
    ref_opts.default_ordering = mode;
    Result<QueryResult> reference = session->Execute(q.text, ref_opts);
    ASSERT_TRUE(reference.ok())
        << q.name << ": " << reference.status().ToString();
    for (QueryOptions o : configs) {
      o.default_ordering = mode;
      Result<QueryResult> r = session->Execute(q.text, o);
      const std::string where =
          q.name + " threads=" + std::to_string(o.num_threads) +
          " morsel=" + std::to_string(o.morsel_rows) +
          (o.pipelined_execution ? "" : " unfused");
      ASSERT_TRUE(r.ok()) << where << ": " << r.status().ToString();
      EXPECT_EQ(reference->serialized, r->serialized) << where;
      EXPECT_EQ(reference->items, r->items) << where;
    }
  }
}

TEST_F(PipelineExecTest, XMarkByteIdenticalOrdered) {
  RunMatrix(session_, OrderingMode::kOrdered);
}

TEST_F(PipelineExecTest, XMarkByteIdenticalUnordered) {
  RunMatrix(session_, OrderingMode::kUnordered);
}

TEST_F(PipelineExecTest, PipelinesActuallyFuse) {
  // The matrix above is vacuous if no query ever forms a pipeline; pin
  // that the planner fuses real XMark plans and the profile records it.
  size_t queries_with_pipelines = 0;
  for (const XMarkQuery& q : XMarkQueries()) {
    QueryOptions o = Morsels(/*threads=*/1, /*morsel_rows=*/64);
    o.profile = true;
    Result<QueryResult> r = session_->Execute(q.text, o);
    ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
    if (r->profile.pipelines().empty()) continue;
    ++queries_with_pipelines;
    for (const Profile::PipelineMetrics& pm : r->profile.pipelines()) {
      EXPECT_GE(pm.stages, 2u) << q.name;
      EXPECT_GE(pm.morsels, 1u) << q.name;
    }
    // Fused stages keep their per-op row counts, tagged with the
    // pipeline they ran in.
    size_t tagged = 0;
    for (const Profile::OpMetrics& m : r->profile.ops()) {
      if (m.pipeline >= 0) ++tagged;
    }
    EXPECT_GE(tagged, 2 * r->profile.pipelines().size()) << q.name;
  }
  EXPECT_GE(queries_with_pipelines, 10u)
      << "most XMark plans contain at least one fusable chain";
}

// ---------------------------------------------------------------------
// Fault matrix through fused pipelines. Governor polls sit at every
// (morsel, stage) boundary and allocation charges at every morsel
// materialization, so the sweep walks coordinates that only exist in
// the fused engine. morsel_rows pinned tiny and identical everywhere:
// the counters are a pure function of table sizes, so every point is
// reproducible.

QueryOptions SweepOptions() {
  return Morsels(/*threads=*/1, /*morsel_rows=*/7);
}

void SweepQuery(Session* session, const std::string& name, FaultKind kind) {
  const std::string query = XMarkQueryText(name);
  Result<QueryResult> reference = session->Execute(query, SweepOptions());
  ASSERT_TRUE(reference.ok()) << name << ": "
                              << reference.status().ToString();

  auto attempt = [&](const FaultPlan& plan) -> Status {
    QueryOptions o = SweepOptions();
    o.faults = plan;
    Result<QueryResult> r = session->Execute(query, o);
    return r.ok() ? Status::Ok() : r.status();
  };
  auto check = [&](uint64_t point, const Status& st) {
    std::string context = name + " point " + std::to_string(point);
    EXPECT_EQ(st.code(), FaultKindCode(kind))
        << context << ": " << st.ToString();
    Result<QueryResult> again = session->Execute(query, SweepOptions());
    ASSERT_TRUE(again.ok()) << context << ": " << again.status().ToString();
    EXPECT_EQ(again->serialized, reference->serialized) << context;
    EXPECT_EQ(again->items, reference->items) << context;
  };

  Result<uint64_t> points =
      SweepFaultPoints(kind, /*max_points=*/1000000, attempt, check);
  ASSERT_TRUE(points.ok()) << name << ": " << points.status().ToString();
  EXPECT_GT(*points, 0u) << name;
}

TEST_F(PipelineExecTest, FaultSweepThroughFusedPipelines) {
  // Q1 (path + filter pipelines) and Q8 (join build/probe pipelines)
  // under all three fault kinds.
  for (const char* name : {"Q1", "Q8"}) {
    SweepQuery(session_, name, FaultKind::kFailAlloc);
    SweepQuery(session_, name, FaultKind::kCancelAtOp);
    SweepQuery(session_, name, FaultKind::kDeadlineAtChunk);
  }
}

TEST_F(PipelineExecTest, FaultCountsIndependentOfThreads) {
  // The fault coordinates are engine counters; arming the same point at
  // 1 and 4 threads must surface the same planned failure, and the
  // deterministic serial resolution must make the reported error
  // identical (PR 3 fault matrix, now over morsel boundaries).
  const std::string query = XMarkQueryText("Q8");
  for (uint64_t point : {uint64_t{1}, uint64_t{5}, uint64_t{23}}) {
    QueryOptions serial = SweepOptions();
    serial.faults.cancel_at_op = point;
    QueryOptions parallel = SweepOptions();
    parallel.num_threads = 4;
    parallel.faults.cancel_at_op = point;
    Result<QueryResult> s = session_->Execute(query, serial);
    Result<QueryResult> p = session_->Execute(query, parallel);
    ASSERT_EQ(s.ok(), p.ok()) << "point " << point;
    if (!s.ok()) {
      EXPECT_EQ(s.status().ToString(), p.status().ToString())
          << "point " << point;
    }
  }
}

// ---------------------------------------------------------------------
// Memory: interior stages never materialize, so fusing must lower Q20's
// peak strictly below running every fusable operator alone. A lone
// operator in turn builds no per-morsel tables, so its peak must not grow
// when its input spans many morsels.

TEST_F(PipelineExecTest, Q20PeakMemoryStrictlyLowerWhenFused) {
  const std::string& q20 = XMarkQueryText("Q20");
  QueryOptions unfused = Unfused(/*threads=*/1, /*morsel_rows=*/64);
  unfused.profile = true;
  QueryOptions fused = Morsels(/*threads=*/1, /*morsel_rows=*/64);
  fused.profile = true;

  Result<QueryResult> off = session_->Execute(q20, unfused);
  Result<QueryResult> on = session_->Execute(q20, fused);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  ASSERT_TRUE(on.ok()) << on.status().ToString();

  EXPECT_EQ(off->serialized, on->serialized);
  EXPECT_TRUE(off->profile.pipelines().empty());
  EXPECT_FALSE(on->profile.pipelines().empty());
  EXPECT_LT(on->profile.peak_live_bytes(), off->profile.peak_live_bytes());
}

TEST_F(PipelineExecTest, LoneOperatorPeakIndependentOfMorselSize) {
  for (const XMarkQuery& q : XMarkQueries()) {
    // 65536 rows: one morsel per table at this scale.
    QueryOptions whole = Unfused(/*threads=*/1, /*morsel_rows=*/65536);
    whole.profile = true;
    QueryOptions split = Unfused(/*threads=*/1, /*morsel_rows=*/64);
    split.profile = true;
    Result<QueryResult> w = session_->Execute(q.text, whole);
    Result<QueryResult> s = session_->Execute(q.text, split);
    ASSERT_TRUE(w.ok()) << q.name << ": " << w.status().ToString();
    ASSERT_TRUE(s.ok()) << q.name << ": " << s.status().ToString();
    EXPECT_LE(s->profile.peak_live_bytes(), w->profile.peak_live_bytes())
        << q.name;
  }
}

TEST_F(PipelineExecTest, RemovedChunkRowsRejected) {
  // chunk_rows no longer exists as a knob; setting it must fail loudly
  // instead of being ignored.
  QueryOptions o = Serial();
  o.chunk_rows = 7;
  Result<QueryResult> r = session_->Execute(XMarkQueryText("Q1"), o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PipelineExecTest, RemovedInlineRowsRejected) {
  // Units no longer run inline below a row threshold: a unit fans out
  // exactly when it has several morsels. Nor does a % check its input's
  // order at run time: it sorts exactly when the plan does not mark it
  // presorted. Setting inline_rows, or turning physical_sort_detection
  // off, must fail loudly, through Session::Execute and through
  // Evaluator::Eval.
  Result<QueryPlans> plans = session_->Plan(XMarkQueryText("Q1"));
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  auto context = [&] {
    EvalContext ctx;
    ctx.store = &session_->store();
    ctx.strings = &session_->strings();
    ctx.documents = session_->documents();
    ctx.num_threads = 1;
    return ctx;
  };
  for (const std::string_view knob :
       {"inline_rows", "physical_sort_detection"}) {
    QueryOptions o = Serial();
    EvalContext ctx = context();
    if (knob == "inline_rows") {
      o.inline_rows = 0;
      ctx.inline_rows = 1u << 30;
    } else {
      o.physical_sort_detection = false;
      ctx.detect_sorted_inputs = false;
    }
    Result<QueryResult> r = session_->Execute(XMarkQueryText("Q1"), o);
    ASSERT_FALSE(r.ok()) << knob;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(knob), std::string::npos)
        << r.status().ToString();
    Status st = Evaluator(*plans->dag, &ctx).Eval(plans->optimized).status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
  EvalContext ctx = context();
  EXPECT_TRUE(Evaluator(*plans->dag, &ctx).Eval(plans->optimized).ok());
}

// A plan runs only over the DAG it was prepared for: Session::Plan's
// prepared plan gives Eval's bytes, while an empty one, or one prepared
// over another DAG, fails as Internal without running.
TEST_F(PipelineExecTest, PreparedPlanRunsOnlyOverItsDag) {
  Result<QueryPlans> plans = session_->Plan(XMarkQueryText("Q1"));
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  Result<QueryPlans> other = session_->Plan(XMarkQueryText("Q2"));
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EvalContext ctx;
  ctx.store = &session_->store();
  ctx.strings = &session_->strings();
  ctx.documents = session_->documents();
  ctx.num_threads = 1;
  Result<TablePtr> run = Evaluator(*plans->dag, &ctx).Run(plans->prepared);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Result<TablePtr> eval = Evaluator(*plans->dag, &ctx).Eval(plans->optimized);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  Result<std::string> run_bytes = SerializeResult(**run, ctx);
  Result<std::string> eval_bytes = SerializeResult(**eval, ctx);
  ASSERT_TRUE(run_bytes.ok() && eval_bytes.ok());
  EXPECT_EQ(*run_bytes, *eval_bytes);

  PreparedPlan empty;
  for (const PreparedPlan* foreign : {&other->prepared, &empty}) {
    Status st = Evaluator(*plans->dag, &ctx).Run(*foreign).status();
    EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  }
}

// EXRQUY_THREADS and EXRQUY_MORSEL_ROWS are parsed strictly: with the
// option deferring to the environment, a malformed value fails
// Evaluator::Eval with InvalidArgument naming the variable instead of
// silently meaning the default.
Status EvalWithEnv(Session* session, const char* name, const char* value) {
  Result<QueryPlans> plans = session->Plan(XMarkQueryText("Q1"));
  if (!plans.ok()) return plans.status();
  setenv(name, value, 1);
  EvalContext ctx;  // num_threads = morsel_rows = 0: both defer to the env
  ctx.store = &session->store();
  ctx.strings = &session->strings();
  ctx.documents = session->documents();
  Status st = Evaluator(*plans->dag, &ctx).Eval(plans->optimized).status();
  unsetenv(name);
  return st;
}

TEST_F(PipelineExecTest, MalformedThreadsEnvRejected) {
  ASSERT_TRUE(EvalWithEnv(session_, "EXRQUY_THREADS", "2").ok());
  for (const char* bad : {"four", "4x", "-1"}) {
    Status st = EvalWithEnv(session_, "EXRQUY_THREADS", bad);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(st.message().find("EXRQUY_THREADS"), std::string::npos) << bad;
  }
}

TEST_F(PipelineExecTest, MalformedMorselRowsEnvRejected) {
  ASSERT_TRUE(EvalWithEnv(session_, "EXRQUY_MORSEL_ROWS", "64").ok());
  for (const char* bad : {"64k", "abc", "+64"}) {
    Status st = EvalWithEnv(session_, "EXRQUY_MORSEL_ROWS", bad);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(st.message().find("EXRQUY_MORSEL_ROWS"), std::string::npos)
        << bad;
  }
}

// ---------------------------------------------------------------------
// Scheduling: the pool starts at the first unit with several morsels, so
// a tiny query at 4 threads never starts it and costs what it costs at 1.

TEST_F(PipelineExecTest, TinyQueryFourThreadLatencyNearSerial) {
  Session session;
  ASSERT_TRUE(session
                  .LoadDocument("tiny.xml",
                                "<top><a>1</a><a>2</a><a>3</a></top>")
                  .ok());
  const std::string query =
      R"(for $x in doc("tiny.xml")//a return number($x) * 2)";

  auto sample_ms = [&](const QueryOptions& o) {
    auto t0 = std::chrono::steady_clock::now();
    Result<QueryResult> r = session.Execute(query, o);
    auto t1 = std::chrono::steady_clock::now();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };
  auto median = [](std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
  };

  QueryOptions serial = Morsels(/*threads=*/1, /*morsel_rows=*/0);
  QueryOptions four = Morsels(/*threads=*/4, /*morsel_rows=*/0);
  // Warm both paths (first-run effects: interning, plan shaping).
  (void)session.Execute(query, serial);
  (void)session.Execute(query, four);
  // Alternate the two configurations so that a slow phase of a shared
  // host lands on both sample sets alike.
  std::vector<double> serial_samples;
  std::vector<double> four_samples;
  for (int i = 0; i < 60; ++i) {
    serial_samples.push_back(sample_ms(serial));
    four_samples.push_back(sample_ms(four));
  }
  double serial_ms = median(serial_samples);
  double four_ms = median(four_samples);
  EXPECT_LE(four_ms, serial_ms * 1.2)
      << "tiny query must not pay for the pool: serial " << serial_ms
      << " ms vs 4T " << four_ms << " ms";
}

// The unit dispatches of a run: standalone operator records plus
// pipelines (each pipeline is one unit, dispatched at its sink).
size_t UnitDispatches(const Profile& p) {
  size_t units = p.pipelines().size();
  for (const Profile::OpMetrics& m : p.ops()) units += m.pipeline < 0;
  return units;
}

TEST_F(PipelineExecTest, UnitOrderIndependentOfThreads) {
  // Units run one at a time in op-id order at every thread count; only
  // their morsels fan out. So the live-memory high-water mark, the
  // released-table count and the operator dispatches a cancel_at_op
  // fault counts are the same at 4 threads as at 1.
  for (OrderingMode mode : {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
    for (const XMarkQuery& q : XMarkQueries()) {
      QueryOptions serial = Morsels(/*threads=*/1, /*morsel_rows=*/64);
      QueryOptions four = Morsels(/*threads=*/4, /*morsel_rows=*/64);
      serial.default_ordering = four.default_ordering = mode;
      serial.profile = four.profile = true;
      const std::string where =
          q.name + (mode == OrderingMode::kOrdered ? " ordered" : " unordered");
      Result<QueryResult> s = session_->Execute(q.text, serial);
      Result<QueryResult> f = session_->Execute(q.text, four);
      ASSERT_TRUE(s.ok()) << where << ": " << s.status().ToString();
      ASSERT_TRUE(f.ok()) << where << ": " << f.status().ToString();
      EXPECT_EQ(f->profile.peak_live_bytes(), s->profile.peak_live_bytes())
          << where;
      EXPECT_EQ(f->profile.released_tables(), s->profile.released_tables())
          << where;
      const size_t units = UnitDispatches(s->profile);
      ASSERT_GT(units, 0u) << where;
      EXPECT_EQ(UnitDispatches(f->profile), units) << where;
      // The cancel fault counts exactly those dispatches: armed at the
      // last one it trips, one further it never fires.
      for (QueryOptions o : {serial, four}) {
        o.profile = false;
        o.faults.cancel_at_op = units;
        Result<QueryResult> last = session_->Execute(q.text, o);
        ASSERT_FALSE(last.ok()) << where << " threads=" << o.num_threads;
        EXPECT_EQ(last.status().code(), StatusCode::kCancelled) << where;
        o.faults.cancel_at_op = units + 1;
        EXPECT_TRUE(session_->Execute(q.text, o).ok())
            << where << " threads=" << o.num_threads;
      }
    }
  }
}

// ---------------------------------------------------------------------
// The audit: the evaluator must refuse a morsel plan it cannot
// independently re-derive, in the plan verifier's diagnostic format.

class AuditTest : public ::testing::Test {
 protected:
  // Plans an XMark-style query and returns its pipelines; the corpus
  // query is chosen to guarantee at least one fused chain.
  void Plan() {
    ASSERT_TRUE(session_.LoadDocument("f.xml",
                                      "<top><g k=\"1\"><n>1</n><n>2</n></g>"
                                      "<g k=\"2\"><n>3</n></g></top>")
                    .ok());
    Result<QueryPlans> plans = session_.Plan(
        R"(for $x in doc("f.xml")//g where count($x/n) > 0 return $x/@k)",
        QueryOptions());
    ASSERT_TRUE(plans.ok()) << plans.status().ToString();
    plans_ = std::move(*plans);
    order_ = plans_.dag->ReachableFrom(plans_.optimized);
    plan_ = PlanPipelines(*plans_.dag, order_, plans_.optimized);
    ASSERT_FALSE(plan_.pipelines.empty())
        << "corpus query must form at least one pipeline";
  }

  Status Audit(const MorselPlan& plan) {
    return AuditMorselPlan(*plans_.dag, order_, plans_.optimized, plan);
  }

  Session session_;
  QueryPlans plans_;
  std::vector<OpId> order_;
  MorselPlan plan_;
};

TEST_F(AuditTest, CleanPlanPasses) {
  Plan();
  EXPECT_TRUE(Audit(plan_).ok());
}

TEST_F(AuditTest, RejectsSingleStagePipeline) {
  Plan();
  MorselPlan corrupt = plan_;
  Pipeline& p = corrupt.pipelines[0];
  while (p.stages.size() > 1) {
    corrupt.pipeline_of.erase(p.stages.back().op);
    p.stages.pop_back();
  }
  Status st = Audit(corrupt);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("morsel plan:"), std::string::npos)
      << st.ToString();
}

TEST_F(AuditTest, RejectsReversedStageOrder) {
  Plan();
  MorselPlan corrupt = plan_;
  std::reverse(corrupt.pipelines[0].stages.begin(),
               corrupt.pipelines[0].stages.end());
  EXPECT_FALSE(Audit(corrupt).ok());
}

TEST_F(AuditTest, RejectsStageMappedToWrongPipeline) {
  Plan();
  MorselPlan corrupt = plan_;
  corrupt.pipeline_of[corrupt.pipelines[0].stages[0].op] =
      static_cast<uint32_t>(corrupt.pipelines.size());  // dangling index
  EXPECT_FALSE(Audit(corrupt).ok());
}

TEST_F(AuditTest, RejectsForeignStage) {
  Plan();
  MorselPlan corrupt = plan_;
  // Claim some op outside the pipeline as an extra interior stage.
  OpId foreign = kNoOp;
  for (OpId id : order_) {
    if (!corrupt.fused(id)) {
      foreign = id;
      break;
    }
  }
  ASSERT_NE(foreign, kNoOp);
  Pipeline& p = corrupt.pipelines[0];
  p.stages.insert(p.stages.begin() + 1, PipelineStage{foreign, 0});
  corrupt.pipeline_of[foreign] = 0;
  EXPECT_FALSE(Audit(corrupt).ok());
}

}  // namespace
}  // namespace exrquy
