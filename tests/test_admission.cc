// Overload resilience (api/admission.h + api/service.h): bounded
// admission with deadline-aware shedding, degraded-mode retry of
// transient failures, memory-pressure degradation, and the poison-query
// quarantine. The contract under test, from DESIGN.md:
//
//   * a shed request returns kUnavailable (queue full / queue timeout)
//     or kDeadlineExceeded (its own deadline expired while queued) fast,
//     without compiling a plan or touching a worker;
//   * every admitted request that completes is byte-identical to a
//     serial Session::Execute over the same documents — including
//     requests that succeeded only on a degraded-mode retry;
//   * fault-injected failures are surfaced verbatim (no retry, no
//     quarantine) unless the plan is explicitly marked transient;
//   * service counters account exactly: every Execute ends in exactly
//     one of {result-cache hit, admitted, shed}.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/admission.h"
#include "api/service.h"
#include "api/session.h"
#include "common/governor.h"
#include "common/status.h"
#include "engine/faults.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace exrquy {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------
// LatencyHistogram.

TEST(LatencyHistogramTest, BucketsArePowersOfTwo) {
  AtomicLatencyHistogram h;
  h.Record(0.5);   // bucket 0: < 1 µs
  h.Record(1.0);   // bucket 1: [1, 2)
  h.Record(3.0);   // bucket 2: [2, 4)
  h.Record(10.0);  // bucket 4: [8, 16)
  LatencyHistogram s = h.Snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[4], 1u);
}

TEST(LatencyHistogramTest, PercentileReturnsBucketUpperBound) {
  AtomicLatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.Record(10.0);  // [8, 16)
  h.Record(5000.0);                             // [4096, 8192)
  LatencyHistogram s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.PercentileUs(50), 16.0);
  EXPECT_DOUBLE_EQ(s.PercentileUs(99), 16.0);
  EXPECT_DOUBLE_EQ(s.PercentileUs(100), 8192.0);
}

TEST(LatencyHistogramTest, EmptyIsZero) {
  LatencyHistogram s;
  EXPECT_DOUBLE_EQ(s.PercentileUs(50), 0.0);
  EXPECT_DOUBLE_EQ(s.PercentileUs(99), 0.0);
}

// ---------------------------------------------------------------------
// AdmissionController (unit level: abstract slots, no engine).

TEST(AdmissionControllerTest, HandsOutAllSlotsThenSheds) {
  AdmissionController::Config c;
  c.slots = 2;
  c.max_queue_depth = 0;  // never queue
  AdmissionController ctl(c);
  Result<AdmissionController::Ticket> a = ctl.Admit(std::nullopt);
  Result<AdmissionController::Ticket> b = ctl.Admit(std::nullopt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->slot, b->slot);

  Result<AdmissionController::Ticket> shed = ctl.Admit(std::nullopt);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);

  ctl.Release(a->slot);
  EXPECT_TRUE(ctl.Admit(std::nullopt).ok());

  AdmissionStats st = ctl.stats();
  EXPECT_EQ(st.admitted, 3u);
  EXPECT_EQ(st.shed_queue_full, 1u);
  EXPECT_EQ(st.queued, 0u);
}

TEST(AdmissionControllerTest, QueueTimeoutSheds) {
  AdmissionController::Config c;
  c.slots = 1;
  c.max_queue_depth = 8;
  c.queue_timeout_ms = 20;
  AdmissionController ctl(c);
  Result<AdmissionController::Ticket> held = ctl.Admit(std::nullopt);
  ASSERT_TRUE(held.ok());

  Clock::time_point t0 = Clock::now();
  Result<AdmissionController::Ticket> shed = ctl.Admit(std::nullopt);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(MsSince(t0), 19.0);

  AdmissionStats st = ctl.stats();
  EXPECT_EQ(st.queued, 1u);
  EXPECT_EQ(st.shed_queue_timeout, 1u);
  EXPECT_EQ(st.queue_depth, 0u);  // the waiter is gone
  EXPECT_EQ(st.peak_queue_depth, 1u);
}

TEST(AdmissionControllerTest, DeadlineBindsBeforeQueueTimeout) {
  AdmissionController::Config c;
  c.slots = 1;
  c.max_queue_depth = 8;
  c.queue_timeout_ms = 10000;
  AdmissionController ctl(c);
  ASSERT_TRUE(ctl.Admit(std::nullopt).ok());

  Clock::time_point t0 = Clock::now();
  Result<AdmissionController::Ticket> shed =
      ctl.Admit(t0 + std::chrono::milliseconds(20));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);
  double waited = MsSince(t0);
  EXPECT_GE(waited, 19.0);
  EXPECT_LT(waited, 5000.0);  // the 10 s queue timeout never bound
  EXPECT_EQ(ctl.stats().shed_deadline, 1u);
}

TEST(AdmissionControllerTest, ExpiredDeadlineShedsBeforeQueueing) {
  AdmissionController ctl(AdmissionController::Config{});
  Result<AdmissionController::Ticket> shed =
      ctl.Admit(Clock::now() - std::chrono::milliseconds(1));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ctl.stats().queued, 0u);
}

TEST(AdmissionControllerTest, ReleaseWakesWaiter) {
  AdmissionController::Config c;
  c.slots = 1;
  c.max_queue_depth = 4;
  AdmissionController ctl(c);
  Result<AdmissionController::Ticket> held = ctl.Admit(std::nullopt);
  ASSERT_TRUE(held.ok());

  std::atomic<bool> got{false};
  std::thread waiter([&] {
    Result<AdmissionController::Ticket> t = ctl.Admit(std::nullopt);
    ASSERT_TRUE(t.ok());
    got.store(true);
    ctl.Release(t->slot);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(got.load());
  ctl.Release(held->slot);
  waiter.join();
  EXPECT_TRUE(got.load());
  AdmissionStats st = ctl.stats();
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.queued, 1u);
  EXPECT_GT(st.queue_wait_us.count, 0u);
}

// ---------------------------------------------------------------------
// QuarantineList (unit level: opaque keys).

TEST(QuarantineListTest, TripsAfterThresholdAndRecoversViaProbe) {
  QuarantineList::Config c;
  c.failure_threshold = 3;
  c.cooldown_ms = 30;
  QuarantineList q(c);

  EXPECT_EQ(q.Admit("k"), QuarantineList::Decision::kAdmit);
  q.Record("k", /*resource_failure=*/true, /*was_probe=*/false);
  q.Record("k", true, false);
  EXPECT_EQ(q.Admit("k"), QuarantineList::Decision::kAdmit);  // 2 < 3
  q.Record("k", true, false);  // third consecutive: trips

  EXPECT_EQ(q.Admit("k"), QuarantineList::Decision::kShed);
  QuarantineStats st = q.stats();
  EXPECT_EQ(st.trips, 1u);
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.open, 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(q.Admit("k"), QuarantineList::Decision::kProbe);
  // The one probe is in flight: everyone else stays shed.
  EXPECT_EQ(q.Admit("k"), QuarantineList::Decision::kShed);

  q.Record("k", /*resource_failure=*/false, /*was_probe=*/true);
  EXPECT_EQ(q.Admit("k"), QuarantineList::Decision::kAdmit);
  st = q.stats();
  EXPECT_EQ(st.probes, 1u);
  EXPECT_EQ(st.recoveries, 1u);
  EXPECT_EQ(st.tracked, 0u);  // clean slate after recovery
}

TEST(QuarantineListTest, SuccessResetsConsecutiveCount) {
  QuarantineList::Config c;
  c.failure_threshold = 2;
  QuarantineList q(c);
  q.Record("k", true, false);
  q.Record("k", false, false);  // success wipes the streak
  q.Record("k", true, false);
  EXPECT_EQ(q.Admit("k"), QuarantineList::Decision::kAdmit);
  q.Record("k", true, false);  // now 2 consecutive: trips
  EXPECT_EQ(q.Admit("k"), QuarantineList::Decision::kShed);
}

TEST(QuarantineListTest, FailedProbeDoublesCooldown) {
  QuarantineList::Config c;
  c.failure_threshold = 1;
  c.cooldown_ms = 40;
  QuarantineList q(c);
  q.Record("k", true, false);  // trip #1: cooldown 40 ms
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_EQ(q.Admit("k"), QuarantineList::Decision::kProbe);
  q.Record("k", true, /*was_probe=*/true);  // trip #2: cooldown 80 ms

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(q.Admit("k"), QuarantineList::Decision::kShed)
      << "50 ms < doubled 80 ms cooldown";
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(q.Admit("k"), QuarantineList::Decision::kProbe);
  EXPECT_EQ(q.stats().trips, 2u);
}

TEST(QuarantineListTest, AbortedProbeReopensImmediately) {
  QuarantineList::Config c;
  c.failure_threshold = 1;
  c.cooldown_ms = 20;
  QuarantineList q(c);
  q.Record("k", true, false);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_EQ(q.Admit("k"), QuarantineList::Decision::kProbe);
  // The probe was shed by the admission queue: nothing was learned, so
  // the next arrival probes again at once instead of waiting behind a
  // stuck half-open state.
  q.ProbeAborted("k");
  EXPECT_EQ(q.Admit("k"), QuarantineList::Decision::kProbe);
}

TEST(QuarantineListTest, ZeroThresholdDisables) {
  QuarantineList::Config c;
  c.failure_threshold = 0;
  QuarantineList q(c);
  for (int i = 0; i < 10; ++i) q.Record("k", true, false);
  EXPECT_EQ(q.Admit("k"), QuarantineList::Decision::kAdmit);
  EXPECT_EQ(q.stats().tracked, 0u);
}

// ---------------------------------------------------------------------
// FaultPlan::FromEnv strict parsing (engine/faults.h).

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST(FaultPlanFromEnvTest, UnsetIsDisarmed) {
  Result<FaultPlan> plan = FaultPlan::FromEnv();
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->any());
  EXPECT_FALSE(plan->transient);
}

TEST(FaultPlanFromEnvTest, ValidValuesParse) {
  ScopedEnv a("EXRQUY_FAULT_ALLOC", "7");
  ScopedEnv t("EXRQUY_FAULT_TRANSIENT", "1");
  Result<FaultPlan> plan = FaultPlan::FromEnv();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->fail_alloc, 7u);
  EXPECT_TRUE(plan->transient);
}

TEST(FaultPlanFromEnvTest, RejectsTrailingGarbage) {
  ScopedEnv e("EXRQUY_FAULT_ALLOC", "12abc");
  Result<FaultPlan> plan = FaultPlan::FromEnv();
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("EXRQUY_FAULT_ALLOC"),
            std::string::npos);
}

TEST(FaultPlanFromEnvTest, RejectsSignedValues) {
  {
    ScopedEnv e("EXRQUY_FAULT_CANCEL_OP", "-3");
    Result<FaultPlan> plan = FaultPlan::FromEnv();
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(plan.status().message().find("EXRQUY_FAULT_CANCEL_OP"),
              std::string::npos);
  }
  {
    ScopedEnv e("EXRQUY_FAULT_DEADLINE_CHUNK", "+5");
    Result<FaultPlan> plan = FaultPlan::FromEnv();
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FaultPlanFromEnvTest, RejectsOverflow) {
  ScopedEnv e("EXRQUY_FAULT_ALLOC", "99999999999999999999999999");
  Result<FaultPlan> plan = FaultPlan::FromEnv();
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("out of range"), std::string::npos);
}

TEST(FaultPlanFromEnvTest, RejectsNonBooleanTransient) {
  ScopedEnv e("EXRQUY_FAULT_TRANSIENT", "yes");
  Result<FaultPlan> plan = FaultPlan::FromEnv();
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("EXRQUY_FAULT_TRANSIENT"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Service-level overload behavior. One small XMark document; each test
// builds its own service so counters start from zero.

std::string& XMarkXml() {
  static std::string* xml = [] {
    XMarkOptions options;
    options.scale = 0.004;
    return new std::string(GenerateXMark(options));
  }();
  return *xml;
}

// Long enough (a three-way cross product over //person) that it always
// holds its worker slot until cancelled.
const char kSlowQuery[] =
    R"(count(for $a in doc("auction.xml")//person,
                $b in doc("auction.xml")//person,
                $c in doc("auction.xml")//person
            return 1))";

std::unique_ptr<QueryService> MakeService(ServiceConfig config) {
  auto service = std::make_unique<QueryService>(config);
  EXPECT_TRUE(service->LoadDocument("auction.xml", XMarkXml()).ok());
  return service;
}

// Occupies one worker slot with kSlowQuery until destroyed.
class Blocker {
 public:
  explicit Blocker(QueryService* service, uint64_t admitted_before = 0)
      : cancel_(std::make_shared<CancelToken>()) {
    thread_ = std::thread([service, cancel = cancel_] {
      QueryOptions o;
      o.cancel = cancel;
      Result<ServiceResult> r = service->Execute(kSlowQuery, o);
      // Either the cancel landed or (never observed in practice) the
      // cross product completed; both release the slot cleanly.
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
            << r.status().ToString();
      }
    });
    for (int i = 0; i < 5000; ++i) {
      if (service->counters().admission.admitted > admitted_before) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "blocker query was never admitted";
  }

  ~Blocker() {
    cancel_->Cancel();
    thread_.join();
  }

 private:
  std::shared_ptr<CancelToken> cancel_;
  std::thread thread_;
};

TEST(ServiceOverloadTest, ShedsUnderSaturationFast) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue_depth = 0;  // never queue: saturated = shed
  std::unique_ptr<QueryService> service = MakeService(config);
  Blocker blocker(service.get());

  constexpr int kCalls = 50;
  std::vector<double> shed_ms;
  shed_ms.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    Clock::time_point t0 = Clock::now();
    Result<ServiceResult> r = service->Execute("1 + 1", {});
    double ms = MsSince(t0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
        << r.status().ToString();
    shed_ms.push_back(ms);
  }
  std::sort(shed_ms.begin(), shed_ms.end());
  // Acceptance gate: shed requests fail in < 1 ms median — they never
  // reach the planner, let alone a worker.
  EXPECT_LT(shed_ms[kCalls / 2], 1.0);

  ServiceCounters counters = service->counters();
  EXPECT_EQ(counters.admission.shed_queue_full, uint64_t{kCalls});
  EXPECT_EQ(counters.admission.admitted, 1u);  // only the blocker
  EXPECT_EQ(counters.executions, uint64_t{kCalls});  // sheds are counted
  // A shed request never compiled: the plan cache saw only the blocker.
  EXPECT_EQ(counters.plan_cache.misses, 1u);
}

// A malformed EXRQUY_DEADLINE_MS / EXRQUY_MEM_BUDGET fails the request
// with InvalidArgument before the result cache (which holds the answer)
// and before admission.
TEST(ServiceOverloadTest, MalformedGovernorEnvRejectedUpFront) {
  ServiceConfig config;
  config.workers = 1;
  config.result_cache_bytes = 1 << 20;
  std::unique_ptr<QueryService> service = MakeService(config);
  const std::string query = XMarkQueryText("Q1");
  ASSERT_TRUE(service->Execute(query, {}).ok());  // fills the result cache
  for (const char* name : {"EXRQUY_DEADLINE_MS", "EXRQUY_MEM_BUDGET"}) {
    for (const char* bad : {"abc", "64MB"}) {
      ScopedEnv env(name, bad);
      Result<ServiceResult> r = service->Execute(query, {});
      ASSERT_FALSE(r.ok()) << name << "=" << bad;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(r.status().message().find(name), std::string::npos)
          << r.status().message();
    }
  }
  ServiceCounters counters = service->counters();
  EXPECT_EQ(counters.result_cache.hits, 0u);
  EXPECT_EQ(counters.admission.admitted, 1u);  // only the first call
  EXPECT_EQ(counters.executions, 5u);
  EXPECT_TRUE(service->WorkersPristine());
}

// The service's own EXRQUY_* variables are read once, by the
// constructor, with the same strict parsers as the per-query knobs: a
// malformed value fails every Execute with InvalidArgument naming the
// variable, even after the variable is gone.
TEST(ServiceOverloadTest, MalformedServiceEnvFailsExecute) {
  const char* cases[][2] = {{"EXRQUY_MAX_QUEUE_DEPTH", "12abc"},
                            {"EXRQUY_PLAN_CACHE", "yes"}};
  for (const auto& [name, bad] : cases) {
    std::unique_ptr<QueryService> service;
    {
      ScopedEnv env(name, bad);
      service = MakeService(ServiceConfig{});
    }
    Result<ServiceResult> r = service->Execute("1 + 1", {});
    ASSERT_FALSE(r.ok()) << name << "=" << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(name), std::string::npos)
        << r.status().message();
  }
}

TEST(ServiceOverloadTest, QueueTimeoutShedsWaiter) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue_depth = 4;
  config.queue_timeout_ms = 25;
  std::unique_ptr<QueryService> service = MakeService(config);
  Blocker blocker(service.get());

  Clock::time_point t0 = Clock::now();
  Result<ServiceResult> r = service->Execute("1 + 1", {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
      << r.status().ToString();
  EXPECT_GE(MsSince(t0), 24.0);
  ServiceCounters counters = service->counters();
  EXPECT_EQ(counters.admission.shed_queue_timeout, 1u);
  EXPECT_EQ(counters.admission.queued, 1u);
}

TEST(ServiceOverloadTest, QueueWaitIsChargedAgainstDeadline) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue_depth = 4;
  config.queue_timeout_ms = 10000;  // must never bind
  std::unique_ptr<QueryService> service = MakeService(config);
  Blocker blocker(service.get());

  QueryOptions o;
  o.deadline_ms = 30;
  Clock::time_point t0 = Clock::now();
  Result<ServiceResult> r = service->Execute(XMarkQueryText("Q1"), o);
  double waited = MsSince(t0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_GE(waited, 29.0);
  EXPECT_LT(waited, 5000.0) << "the 10 s queue timeout must not be what fired";
  // Execution never started: the deadline fired in the queue.
  EXPECT_NE(r.status().message().find("execution never started"),
            std::string::npos)
      << r.status().message();
  ServiceCounters counters = service->counters();
  EXPECT_EQ(counters.admission.shed_deadline, 1u);
  EXPECT_EQ(counters.plan_cache.misses, 1u);  // only the blocker compiled
}

TEST(ServiceOverloadTest, TransientFaultRetriesToByteIdenticalResult) {
  ServiceConfig config;
  config.workers = 2;
  config.max_retries = 1;
  std::unique_ptr<QueryService> service = MakeService(config);

  Session session;
  ASSERT_TRUE(session.LoadDocument("auction.xml", XMarkXml()).ok());
  QueryOptions serial;
  serial.num_threads = 1;
  Result<QueryResult> reference =
      session.Execute(XMarkQueryText("Q1"), serial);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // The very first budget charge fails — but the fault is transient, so
  // the service may re-run with the fault disarmed, in degraded mode.
  QueryOptions o;
  o.num_threads = 4;
  o.profile = true;
  o.faults.fail_alloc = 1;
  o.faults.transient = true;
  Result<ServiceResult> r = service->Execute(XMarkQueryText("Q1"), o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->result.serialized, reference->serialized);
  EXPECT_EQ(r->result.items, reference->items);
  EXPECT_EQ(r->result.profile.attempts(), 2u);
  EXPECT_TRUE(r->result.profile.degraded());

  ServiceCounters counters = service->counters();
  EXPECT_EQ(counters.retries, 1u);
  EXPECT_EQ(counters.degraded_runs, 1u);
  EXPECT_GE(counters.pressure_events, 1u);
  EXPECT_TRUE(service->WorkersPristine());
}

TEST(ServiceOverloadTest, PlainInjectedFaultIsNeverRetried) {
  ServiceConfig config;
  config.workers = 1;
  config.max_retries = 3;
  std::unique_ptr<QueryService> service = MakeService(config);

  QueryOptions o;
  o.faults.fail_alloc = 1;  // not transient: surfaced verbatim
  Result<ServiceResult> r = service->Execute(XMarkQueryText("Q1"), o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  ServiceCounters counters = service->counters();
  EXPECT_EQ(counters.retries, 0u);
  EXPECT_EQ(counters.degraded_runs, 0u);
  // Injected faults also never feed the quarantine.
  EXPECT_EQ(counters.quarantine.tracked, 0u);
  EXPECT_TRUE(service->WorkersPristine());
}

TEST(ServiceOverloadTest, GenuineBudgetExhaustionFailsAfterRetries) {
  ServiceConfig config;
  config.workers = 1;
  config.max_retries = 2;
  config.quarantine_failures = 0;  // isolate the retry policy
  std::unique_ptr<QueryService> service = MakeService(config);

  QueryOptions o;
  o.memory_budget = 1024;  // really too small, every attempt trips
  Result<ServiceResult> r = service->Execute(XMarkQueryText("Q10"), o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  ServiceCounters counters = service->counters();
  EXPECT_EQ(counters.retries, 2u);  // both retries were attempted
  EXPECT_EQ(counters.degraded_runs, 2u);
  EXPECT_GE(counters.pressure_events, 2u);
  EXPECT_TRUE(service->WorkersPristine());
}

TEST(ServiceOverloadTest, MemoryPressureEvictsResultCacheAndDegrades) {
  // Learn the query's budget peak on a scratch service, then size a
  // budget so the peak crosses the high-water fraction without tripping.
  size_t peak = 0;
  {
    ServiceConfig config;
    config.workers = 1;
    std::unique_ptr<QueryService> probe = MakeService(config);
    QueryOptions o;
    o.num_threads = 1;
    o.profile = true;
    o.memory_budget = size_t{1} << 30;
    Result<ServiceResult> r = probe->Execute(XMarkQueryText("Q10"), o);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    peak = r->result.profile.budget_peak_bytes();
    ASSERT_GT(peak, 0u);
  }

  ServiceConfig config;
  config.workers = 1;
  config.result_cache_bytes = 1 << 20;
  config.memory_high_water = 0.5;
  config.degraded_window_ms = 10000;  // hold the window open for asserts
  std::unique_ptr<QueryService> service = MakeService(config);

  ASSERT_TRUE(service->Execute(XMarkQueryText("Q1"), {}).ok());
  EXPECT_EQ(service->counters().result_cache.entries, 1u);

  // peak / (1.5 * peak) = 0.67 >= 0.5: high water, but no trip.
  QueryOptions o;
  o.num_threads = 1;
  o.memory_budget = peak + peak / 2;
  Result<ServiceResult> r = service->Execute(XMarkQueryText("Q10"), o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  ServiceCounters counters = service->counters();
  EXPECT_EQ(counters.pressure_events, 1u);
  EXPECT_EQ(counters.result_cache.entries, 0u) << "cache must be evicted";
  EXPECT_EQ(counters.retries, 0u) << "the query itself never failed";

  // Inside the degraded window: admissions run serial, caches drain.
  QueryOptions profiled;
  profiled.profile = true;
  profiled.num_threads = 4;
  Result<ServiceResult> d = service->Execute(XMarkQueryText("Q1"), profiled);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->result.profile.degraded());
  EXPECT_GE(service->counters().degraded_runs, 1u);
}

TEST(ServiceOverloadTest, PoisonQueryQuarantineTripAndRecovery) {
  ServiceConfig config;
  config.workers = 1;
  config.max_retries = 0;
  config.quarantine_failures = 2;
  config.quarantine_cooldown_ms = 40;
  std::unique_ptr<QueryService> service = MakeService(config);

  const std::string query = XMarkQueryText("Q10");
  QueryOptions starved;
  starved.memory_budget = 1024;

  for (int i = 0; i < 2; ++i) {
    Result<ServiceResult> r = service->Execute(query, starved);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
  // Tripped: the same query (the breaker keys on the plan-cache key, so
  // the budget knob does not matter) now fast-fails without a worker.
  Clock::time_point t0 = Clock::now();
  Result<ServiceResult> shed = service->Execute(query, starved);
  double shed_time = MsSince(t0);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable)
      << shed.status().ToString();
  EXPECT_NE(shed.status().message().find("quarantined"), std::string::npos);
  EXPECT_LT(shed_time, 10.0);
  {
    ServiceCounters counters = service->counters();
    EXPECT_EQ(counters.quarantine.trips, 1u);
    EXPECT_EQ(counters.quarantine.shed, 1u);
    EXPECT_EQ(counters.admission.admitted, 2u) << "the shed never admitted";
  }

  // After the cooldown the breaker half-opens; the probe — now with a
  // workable budget — succeeds and closes it.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  QueryOptions generous;
  generous.memory_budget = size_t{1} << 30;
  Result<ServiceResult> probe = service->Execute(query, generous);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();

  Result<ServiceResult> after = service->Execute(query, generous);
  EXPECT_TRUE(after.ok());
  ServiceCounters counters = service->counters();
  EXPECT_EQ(counters.quarantine.probes, 1u);
  EXPECT_EQ(counters.quarantine.recoveries, 1u);
  EXPECT_EQ(counters.quarantine.tracked, 0u);
  EXPECT_EQ(counters.quarantine.shed, 1u) << "no shedding after recovery";
}

TEST(ServiceOverloadTest, ExactCountersOnScriptedSequence) {
  ServiceConfig config;
  config.workers = 1;
  config.plan_cache = 1;
  config.result_cache_bytes = 1 << 20;
  std::unique_ptr<QueryService> service = MakeService(config);

  // 1: cold — compiles, runs, populates both caches.
  ASSERT_TRUE(service->Execute(XMarkQueryText("Q1"), {}).ok());
  // 2: result-cache hit — bypasses admission entirely.
  Result<ServiceResult> hit = service->Execute(XMarkQueryText("Q1"), {});
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->result_cache_hit);
  // 3: parse error — admitted, fails in the planner, slot released.
  EXPECT_FALSE(service->Execute("for $x in", {}).ok());

  ServiceCounters c = service->counters();
  EXPECT_EQ(c.executions, 3u);
  EXPECT_EQ(c.admission.admitted, 2u);
  EXPECT_EQ(c.admission.queued, 0u);
  EXPECT_EQ(c.admission.shed_queue_full, 0u);
  EXPECT_EQ(c.admission.shed_queue_timeout, 0u);
  EXPECT_EQ(c.admission.shed_deadline, 0u);
  EXPECT_EQ(c.plan_cache.misses, 2u);
  EXPECT_EQ(c.plan_cache.hits, 0u);
  EXPECT_EQ(c.plan_cache.insertions, 1u);
  EXPECT_EQ(c.result_cache.hits, 1u);
  EXPECT_EQ(c.result_cache.misses, 2u);
  EXPECT_EQ(c.result_cache.insertions, 1u);
  EXPECT_EQ(c.retries, 0u);
  EXPECT_EQ(c.degraded_runs, 0u);
  EXPECT_EQ(c.pressure_events, 0u);
  EXPECT_EQ(c.quarantine.shed, 0u);
  EXPECT_EQ(c.latency_us.count, 3u);
  EXPECT_TRUE(service->WorkersPristine());
}

// Every Execute ends in exactly one of {result-cache hit, admitted,
// shed}, at 1 and at 8 client threads — the accounting identity that
// makes the overload bench's shed-rate numbers trustworthy. Run under
// TSan in CI.
TEST(ServiceOverloadTest, ConcurrentMixedOutcomesAccountExactly) {
  for (int client_threads : {1, 8}) {
    ServiceConfig config;
    config.workers = 1;
    config.max_queue_depth = 2;
    config.queue_timeout_ms = 200;
    config.result_cache_bytes = 0;  // every success runs the engine
    std::unique_ptr<QueryService> service = MakeService(config);

    Session session;
    ASSERT_TRUE(session.LoadDocument("auction.xml", XMarkXml()).ok());
    QueryOptions serial;
    serial.num_threads = 1;
    Result<QueryResult> reference =
        session.Execute(XMarkQueryText("Q1"), serial);
    ASSERT_TRUE(reference.ok());

    constexpr int kPerThread = 6;
    std::atomic<uint64_t> ok_count{0};
    std::atomic<uint64_t> shed_count{0};
    std::vector<std::thread> clients;
    clients.reserve(client_threads);
    for (int t = 0; t < client_threads; ++t) {
      clients.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          Result<ServiceResult> r =
              service->Execute(XMarkQueryText("Q1"), {});
          if (r.ok()) {
            ok_count.fetch_add(1);
            EXPECT_EQ(r->result.serialized, reference->serialized);
            EXPECT_EQ(r->result.items, reference->items);
          } else {
            shed_count.fetch_add(1);
            EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
                << r.status().ToString();
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();

    uint64_t total = static_cast<uint64_t>(client_threads) * kPerThread;
    EXPECT_EQ(ok_count.load() + shed_count.load(), total);
    ServiceCounters c = service->counters();
    EXPECT_EQ(c.executions, total);
    EXPECT_EQ(c.admission.admitted, ok_count.load());
    EXPECT_EQ(c.admission.shed_queue_full + c.admission.shed_queue_timeout,
              shed_count.load());
    EXPECT_EQ(c.latency_us.count, total);
    EXPECT_TRUE(service->WorkersPristine());
    if (client_threads == 1) {
      EXPECT_EQ(shed_count.load(), 0u) << "serial clients never overload";
    }
  }
}

}  // namespace
}  // namespace exrquy
