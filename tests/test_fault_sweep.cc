// Exhaustive fault-point sweep (engine/faults.h SweepFaultPoints)
// through the query service: for a set of XMark queries, arm "fail
// allocation N" for N = 1, 2, ... until a run completes cleanly —
// proving every single allocation point in the workload was failed once
// — and after every faulted attempt assert the full resilience
// contract:
//
//   * the failure surfaces as exactly the planned Status code (never a
//     torn result, a crash, or a hang — the sweep completing covers the
//     last two, the ASan/LSan CI job covers leaks);
//   * the service stays pristine: every worker store is rolled back to
//     its snapshot bounds, and the shared string pool stops growing
//     after the first full evaluation;
//   * an immediate unfaulted re-run is byte-identical to the
//     never-faulted reference.
//
// Two queries additionally sweep the cancel-at-op and deadline-at-chunk
// counters, covering all three FaultKinds end to end, and Q10 sweeps
// all three over deferred nested construction.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "api/service.h"
#include "api/session.h"
#include "common/status.h"
#include "engine/faults.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace exrquy {
namespace {

// Queries chosen to cover distinct plan shapes (path-only, filter,
// aggregation, join, construction) while keeping the sweep — two
// engine runs per fault point — affordable at this scale.
const char* const kSweepQueries[] = {"Q1", "Q4", "Q6", "Q13", "Q17"};

// morsel_rows pinned tiny and identical everywhere: morsel-boundary poll
// counts are a pure function of table sizes, so sweeps are reproducible.
QueryOptions SweepOptions() {
  QueryOptions o;
  o.morsel_rows = 7;
  return o;
}

class FaultSweepTest : public ::testing::Test {
 protected:
  static QueryService* MakeService(double scale) {
    ServiceConfig config;
    config.workers = 2;
    config.plan_cache = 1;
    config.result_cache_bytes = 0;  // every re-run must run the engine
    auto* service = new QueryService(config);
    XMarkOptions options;
    options.scale = scale;
    EXPECT_TRUE(
        service->LoadDocument("auction.xml", GenerateXMark(options)).ok());
    return service;
  }
  static void SetUpTestSuite() {
    service_ = MakeService(0.002);
    // Q10's four constructor levels write every result node once per
    // nesting path; a smaller document keeps its sweep as cheap as the
    // others'.
    small_service_ = MakeService(0.0002);
  }
  static void TearDownTestSuite() {
    delete service_;
    service_ = nullptr;
    delete small_service_;
    small_service_ = nullptr;
  }

  // Runs the sweep for one (query, kind) pair with the full per-point
  // contract, and returns the number of fault points exercised.
  static uint64_t Sweep(const std::string& name, FaultKind kind) {
    return Sweep(service_, name, kind);
  }
  static uint64_t Sweep(QueryService* service, const std::string& name,
                        FaultKind kind) {
    const std::string query = XMarkQueryText(name);
    Result<ServiceResult> reference = service->Execute(query, SweepOptions());
    EXPECT_TRUE(reference.ok()) << name << ": "
                                << reference.status().ToString();
    if (!reference.ok()) return 0;
    // The reference evaluated the query in full, so the shared pool now
    // holds every string this query can intern; any later growth would
    // be a leak of abort-path state.
    const size_t pool_size = service->strings().size();

    auto attempt = [&](const FaultPlan& plan) -> Status {
      QueryOptions o = SweepOptions();
      o.faults = plan;
      Result<ServiceResult> r = service->Execute(query, o);
      return r.ok() ? Status::Ok() : r.status();
    };
    auto check = [&](uint64_t point, const Status& st) {
      std::string context =
          name + " " + std::string(StatusCodeName(FaultKindCode(kind))) +
          " point " + std::to_string(point);
      // Exactly the planned code, never some other error.
      EXPECT_EQ(st.code(), FaultKindCode(kind))
          << context << ": " << st.ToString();
      // Pristine service: worker stores rolled back, pool not grown.
      EXPECT_TRUE(service->WorkersPristine()) << context;
      EXPECT_EQ(service->strings().size(), pool_size) << context;
      // Byte-identical unfaulted re-run.
      Result<ServiceResult> again = service->Execute(query, SweepOptions());
      ASSERT_TRUE(again.ok()) << context << ": " << again.status().ToString();
      EXPECT_EQ(again->result.serialized, reference->result.serialized)
          << context;
      EXPECT_EQ(again->result.items, reference->result.items) << context;
    };

    Result<uint64_t> points =
        SweepFaultPoints(kind, /*max_points=*/1000000, attempt, check);
    EXPECT_TRUE(points.ok()) << name << ": " << points.status().ToString();
    if (!points.ok()) return 0;
    EXPECT_GT(*points, 0u)
        << name << ": a real workload must hit at least one fault point";
    return *points;
  }

  static QueryService* service_;
  static QueryService* small_service_;
};

QueryService* FaultSweepTest::service_ = nullptr;
QueryService* FaultSweepTest::small_service_ = nullptr;

TEST_F(FaultSweepTest, FailAllocSweepIsExhaustiveAndClean) {
  for (const char* name : kSweepQueries) {
    uint64_t points = Sweep(name, FaultKind::kFailAlloc);
    std::printf("[sweep] %-4s fail-alloc       points=%llu\n", name,
                static_cast<unsigned long long>(points));
  }
  // Nothing the sweep did may linger: no retries (injected faults are
  // surfaced verbatim), no quarantine entries, no degraded runs.
  ServiceCounters counters = service_->counters();
  EXPECT_EQ(counters.retries, 0u);
  EXPECT_EQ(counters.degraded_runs, 0u);
  EXPECT_EQ(counters.quarantine.tracked, 0u);
  EXPECT_EQ(counters.quarantine.shed, 0u);
  EXPECT_TRUE(service_->WorkersPristine());
}

// Deferred nested construction: every fault point of the constructor
// that writes the whole tree, and of the records it expands.
TEST_F(FaultSweepTest, DeferredConstructionSweep) {
  const std::pair<FaultKind, const char*> kinds[] = {
      {FaultKind::kFailAlloc, "fail-alloc"},
      {FaultKind::kCancelAtOp, "cancel-at-op"},
      {FaultKind::kDeadlineAtChunk, "deadline-at-chunk"}};
  for (const auto& [kind, label] : kinds) {
    uint64_t points = Sweep(small_service_, "Q10", kind);
    std::printf("[sweep] Q10  %-16s points=%llu\n", label,
                static_cast<unsigned long long>(points));
  }
  EXPECT_TRUE(small_service_->WorkersPristine());
}

TEST_F(FaultSweepTest, CancelAtOpSweep) {
  for (const char* name : {"Q1", "Q6"}) {
    uint64_t points = Sweep(name, FaultKind::kCancelAtOp);
    std::printf("[sweep] %-4s cancel-at-op     points=%llu\n", name,
                static_cast<unsigned long long>(points));
  }
}

TEST_F(FaultSweepTest, DeadlineAtChunkSweep) {
  for (const char* name : {"Q1", "Q6"}) {
    uint64_t points = Sweep(name, FaultKind::kDeadlineAtChunk);
    std::printf("[sweep] %-4s deadline-at-chunk points=%llu\n", name,
                static_cast<unsigned long long>(points));
  }
}

TEST_F(FaultSweepTest, SweepGuardRejectsUnreachableWorkload) {
  // A workload that always fails never reaches a clean run: the guard
  // returns kInternal instead of looping forever.
  auto attempt = [](const FaultPlan&) { return Internal("always fails"); };
  Result<uint64_t> r = SweepFaultPoints(FaultKind::kFailAlloc, 5, attempt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace exrquy
