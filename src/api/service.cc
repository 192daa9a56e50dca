#include "api/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <thread>
#include <utility>

#include "algebra/stats.h"
#include "engine/faults.h"
#include "xml/xml_parser.h"

namespace exrquy {
namespace {

using Clock = std::chrono::steady_clock;

// Resolves one service knob: the config's value when set (>= 0), else
// the environment variable, else `unset`. A malformed variable yields
// `unset` and leaves its InvalidArgument in *error unless an earlier
// knob's is already there.
uint64_t ResolveKnob(int64_t requested, const char* env, uint64_t unset,
                     Status* error) {
  if (requested >= 0) return static_cast<uint64_t>(requested);
  Result<uint64_t> v = StrictEnvU64(env, unset);
  if (v.ok()) return *v;
  if (error->ok()) *error = v.status();
  return unset;
}

bool ResolvePlanCache(int requested, Status* error) {
  if (requested >= 0) return requested != 0;
  Result<bool> v = StrictEnvBool("EXRQUY_PLAN_CACHE", /*unset=*/true);
  if (v.ok()) return *v;
  if (error->ok()) *error = v.status();
  return true;
}

size_t ResolveWorkers(size_t requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Cache key: query text, then the plan-affecting option bits (every
// family of kRewriteFamilies among them), then the store version.
// Execution knobs (threads, morsels, fusion, governor) are deliberately
// absent — the engine guarantees byte-identical results across all of
// them, which is what makes cached bytes reusable. The same key strings
// the poison-query quarantine: two calls that would share a plan share a
// breaker. Certification participates resolved (`rc`: options beat
// environment, like PlanQuery itself): a strict plan may differ from a
// checked one when a certificate is rejected, and a forced rejection
// must never leak a mutilated plan into another caller's cache slot.
std::string CacheKey(std::string_view query, const QueryOptions& o,
                     const CertifySettings& rc, uint64_t version) {
  uint64_t bits = 0;
  auto push = [&bits](bool b) { bits = (bits << 1) | (b ? 1 : 0); };
  for (bool b : {o.default_ordering == OrderingMode::kOrdered,
                 o.enable_order_indifference, o.insert_unordered,
                 o.mode_rules, rc.mode == CertifyMode::kStrict,
                 rc.mode == CertifyMode::kOff, rc.spot_check,
                 !rc.force_reject_rule.empty()}) {
    push(b);
  }
  static_assert(std::size(kRewriteFamilies) + 8 <= 64, "key bits overflow");
  for (const RewriteFamily& f : kRewriteFamilies) push(o.*(f.flag));
  char suffix[48];
  std::snprintf(suffix, sizeof(suffix), "\x1f%llx\x1f%llu",
                static_cast<unsigned long long>(bits),
                static_cast<unsigned long long>(version));
  std::string key;
  key.reserve(query.size() + sizeof(suffix));
  key.append(query.data(), query.size());
  key += suffix;
  if (!rc.force_reject_rule.empty()) {
    key += '\x1f';
    key += rc.force_reject_rule;
  }
  return key;
}

size_t PlanBytes(const Dag& dag, const PreparedPlan& prepared) {
  // Order-of-magnitude accounting; the plan cache has no byte budget
  // (population is bounded by the distinct query mix), so this only
  // feeds the stats. A hash-map entry is charged its pair plus a node
  // pointer and a bucket.
  const MorselPlan& morsels = prepared.morsels();
  size_t bytes = dag.size() * (sizeof(Op) + 32) + sizeof(Dag) +
                 prepared.order().size() * sizeof(OpId) +
                 morsels.pipeline_of.size() *
                     (sizeof(std::pair<const OpId, uint32_t>) +
                      2 * sizeof(void*));
  for (const Pipeline& pl : morsels.pipelines) {
    bytes += sizeof(Pipeline) + pl.stages.size() * sizeof(PipelineStage);
  }
  return bytes;
}

}  // namespace

QueryService::QueryService(ServiceConfig config)
    : plan_cache_enabled_(ResolvePlanCache(config.plan_cache, &config_error_)),
      max_retries_(static_cast<int>(std::min<uint64_t>(
          ResolveKnob(config.max_retries, "EXRQUY_MAX_RETRIES", 1,
                      &config_error_),
          16))),
      memory_high_water_(config.memory_high_water),
      degraded_window_ms_(config.degraded_window_ms),
      base_store_(&strings_),
      admission_(AdmissionController::Config{
          ResolveWorkers(config.workers),
          ResolveKnob(config.max_queue_depth, "EXRQUY_MAX_QUEUE_DEPTH",
                      SIZE_MAX, &config_error_),
          static_cast<int64_t>(ResolveKnob(config.queue_timeout_ms,
                                           "EXRQUY_QUEUE_TIMEOUT_MS", 0,
                                           &config_error_))}),
      quarantine_(QuarantineList::Config{
          config.quarantine_failures,
          std::max<int64_t>(config.quarantine_cooldown_ms, 1),
          /*max_cooldown_ms=*/30000, /*max_entries=*/1024}),
      cache_accountant_(0),
      plan_cache_(0),
      result_cache_(ResolveKnob(config.result_cache_bytes,
                                "EXRQUY_RESULT_CACHE_BYTES", 0,
                                &config_error_),
                    &cache_accountant_) {
  size_t n = admission_.slot_count();
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>(&strings_));
  }
}

Status QueryService::LoadDocument(std::string_view name,
                                  std::string_view xml) {
  std::unique_lock<std::shared_mutex> exclusive(snapshot_mu_);
  // A parse failure rolls the base store back (NodeBuilder's destructor),
  // so nothing below this point runs and the snapshot is untouched.
  EXRQUY_ASSIGN_OR_RETURN(NodeIdx root, ParseXml(&base_store_, xml));
  base_store_.IndexFragment(base_store_.fragment_count() - 1);
  documents_[strings_.Intern(name)] = root;
  CloneWorkersLocked();
  version_.fetch_add(1, std::memory_order_acq_rel);
  // Stale keys could never hit again (the version is part of every key);
  // clearing reclaims their bytes immediately instead of waiting for
  // LRU pressure. Quarantine verdicts are snapshot-scoped too: a query
  // that was poison against the old documents may be cheap now.
  plan_cache_.Clear();
  result_cache_.Clear();
  quarantine_.Clear();
  return Status::Ok();
}

void QueryService::CloneWorkersLocked() {
  for (std::unique_ptr<Worker>& w : workers_) {
    w->store.CloneFrom(base_store_);
    w->base_nodes = w->store.node_count();
    w->base_fragments = w->store.fragment_count();
  }
}

bool QueryService::WorkersPristine() const {
  std::shared_lock<std::shared_mutex> snapshot(snapshot_mu_);
  for (const std::unique_ptr<Worker>& w : workers_) {
    if (w->store.node_count() != w->base_nodes ||
        w->store.fragment_count() != w->base_fragments) {
      return false;
    }
  }
  return true;
}

bool QueryService::DegradedNow() const {
  int64_t until = degraded_until_ns_.load(std::memory_order_relaxed);
  return until != 0 && Clock::now().time_since_epoch().count() < until;
}

void QueryService::EnterDegradedWindow() {
  if (degraded_window_ms_ <= 0) return;
  int64_t until =
      (Clock::now() + std::chrono::milliseconds(degraded_window_ms_))
          .time_since_epoch()
          .count();
  // Monotonic max: concurrent pressure events only ever extend the
  // window.
  int64_t cur = degraded_until_ns_.load(std::memory_order_relaxed);
  while (cur < until && !degraded_until_ns_.compare_exchange_weak(
                            cur, until, std::memory_order_relaxed)) {
  }
}

Status QueryService::RunAttempt(const CachedPlan& plan,
                                const std::vector<RewriteTrade>* spot_trades,
                                const QueryOptions& options,
                                const Governor& governor, Worker& worker,
                                bool degraded, bool* high_water,
                                QueryResult* out) {
  // Fresh governor state per attempt: the budget's exhausted latch and
  // the injector's counters must not leak across retries.
  MemoryBudget budget(governor.memory_budget);
  budget.FailChargeAt(governor.faults.fail_alloc);
  MemoryBudget* charged = governor.account ? &budget : nullptr;
  worker.store.set_budget(charged);
  QueryOptions serial;
  if (degraded) {
    serial = options;
    serial.num_threads = 1;
  }
  Status st = ExecutePlan(plan.prepared, spot_trades,
                          degraded ? serial : options, governor, charged,
                          &worker.store, &strings_, documents_, out);
  // Constructed fragments never outlive the attempt (results hold plain
  // strings); the shared pool keeps query-interned strings by design.
  worker.store.set_budget(nullptr);
  worker.store.TruncateTo(worker.base_nodes, worker.base_fragments);
  *high_water = budget.PeakAboveFraction(memory_high_water_);
  return st;
}

Result<ServiceResult> QueryService::Execute(std::string_view query,
                                            const QueryOptions& options) {
  Clock::time_point arrival = Clock::now();
  auto done = [&] {
    executions_.fetch_add(1, std::memory_order_relaxed);
    latency_us_.Record(MsSince(arrival) * 1000.0);
  };
  if (!config_error_.ok()) {
    done();
    return config_error_;
  }

  // Resolve the governed-execution knobs before taking any lock or
  // slot: a malformed knob must fail fast, and the absolute deadline
  // anchors queue-wait accounting at arrival.
  Result<Governor> resolved = ResolveGovernor(options, arrival);
  if (!resolved.ok()) {
    done();
    return resolved.status();
  }
  Result<CertifySettings> certify = ResolveCertify(options.certify);
  if (!certify.ok()) {
    done();
    return certify.status();
  }
  const Governor& governor = resolved.value();
  const FaultPlan& faults = governor.faults;

  // Held shared for the whole call: the snapshot (base store contents,
  // worker clones, document map, version) cannot change under us.
  std::shared_lock<std::shared_mutex> snapshot(snapshot_mu_);

  ServiceResult out;
  out.store_version = version_.load(std::memory_order_acquire);
  std::string key =
      CacheKey(query, options, certify.value(), out.store_version);

  // Governed calls bypass the result cache: serving cached bytes would
  // skip the injection/cancellation points a caller asked to exercise.
  bool result_cacheable = result_cache_.budget_bytes() != 0 &&
                          !faults.any() && options.cancel == nullptr;

  if (result_cacheable) {
    if (std::shared_ptr<const CachedResult> hit = result_cache_.Get(key)) {
      out.result_cache_hit = true;
      out.result.serialized = hit->serialized;
      out.result.items = hit->items;
      out.result.plan_initial = hit->stats_initial;
      out.result.plan_optimized = hit->stats_optimized;
      if (options.profile) out.result.profile.SetCache(false, true, 0);
      done();
      return out;
    }
  }

  // Poison-query quarantine, before any planning or queueing: an open
  // breaker fast-fails without burning a worker slot or a compile.
  // Fault-injected calls never consult it — injection tests must see
  // their planned outcome, not the breaker's.
  QuarantineList::Decision quarantine_decision =
      QuarantineList::Decision::kAdmit;
  bool quarantine_tracked = !faults.any();
  if (quarantine_tracked) {
    quarantine_decision = quarantine_.Admit(key);
    if (quarantine_decision == QuarantineList::Decision::kShed) {
      done();
      return Unavailable(
          "query quarantined after repeated resource exhaustion: "
          "request shed (breaker re-probes after cooldown)");
    }
  }
  bool was_probe = quarantine_decision == QuarantineList::Decision::kProbe;

  // Bounded admission. The queue wait is charged against the request's
  // own deadline; shed requests never reach the planner.
  Result<AdmissionController::Ticket> ticket =
      admission_.Admit(governor.deadline);
  if (!ticket.ok()) {
    if (was_probe) quarantine_.ProbeAborted(key);
    done();
    return ticket.status();
  }
  Worker& worker = *workers_[ticket.value().slot];

  // Plan: cached DAG when warm, full front-half pipeline when cold.
  Clock::time_point plan_start = Clock::now();
  std::shared_ptr<const CachedPlan> plan;
  std::shared_ptr<CachedPlan> fresh;  // this call's plan, on a miss
  std::vector<RewriteTrade> trades;   // its certificates, for the spot check
  if (plan_cache_enabled_) plan = plan_cache_.Get(key);
  if (plan != nullptr) {
    out.plan_cache_hit = true;
    out.result.compile_ms = 0;  // no parse/compile/optimize happened
  } else {
    Result<QueryPlans> planned = PlanQuery(query, options, &strings_);
    if (!planned.ok()) {
      admission_.Release(ticket.value().slot);
      // A compile error is instant evidence the query is not poison (it
      // never reaches the governor), so it closes a probing breaker.
      if (quarantine_tracked) quarantine_.Record(key, false, was_probe);
      done();
      return planned.status();
    }
    QueryPlans& p = planned.value();
    fresh = std::make_shared<CachedPlan>();
    fresh->stats_initial = CollectPlanStats(*p.dag, p.initial);
    fresh->stats_optimized = CollectPlanStats(*p.dag, p.optimized);
    fresh->dag = std::move(p.dag);
    fresh->prepared = std::move(p.prepared);
    trades = std::move(p.trades);
    out.result.compile_ms = MsSince(plan_start);
    plan = fresh;
  }
  out.result.plan_initial = plan->stats_initial;
  out.result.plan_optimized = plan->stats_optimized;

  // Retry loop. The worker slot is held across attempts: a transient
  // failure (budget trip, injected transient fault) is re-run in
  // degraded mode — serial execution, fresh governor state, capped
  // backoff — without re-entering the admission queue. Fault-injected
  // failures are surfaced verbatim unless the plan is marked transient.
  bool window_degraded = DegradedNow();
  Status failed = Status::Ok();
  uint32_t attempts = 0;
  bool any_degraded = false;
  bool high_water = false;
  int64_t backoff_ms = 1;
  for (;;) {
    ++attempts;
    bool degraded = window_degraded || attempts > 1;
    any_degraded = any_degraded || degraded;
    if (degraded) degraded_runs_.fetch_add(1, std::memory_order_relaxed);
    if (attempts > 1) {
      // The failed attempt's operator records must not pollute the
      // retry's profile.
      out.result.profile = Profile();
    }
    // A retry runs with the injected fault disarmed, and a fresh plan is
    // spot-checked once, on its first run.
    Governor attempt = governor;
    if (attempts > 1) attempt.faults = FaultPlan{};
    failed = RunAttempt(*plan, fresh != nullptr && attempts == 1 ? &trades
                                                                 : nullptr,
                        options, attempt, worker, degraded, &high_water,
                        &out.result);
    if (failed.ok()) break;
    bool transient = failed.code() == StatusCode::kResourceExhausted &&
                     (!faults.any() || faults.transient);
    if (!transient || attempts > static_cast<uint32_t>(max_retries_)) break;
    retries_.fetch_add(1, std::memory_order_relaxed);
    // Transient resource exhaustion is the memory-pressure signal: shed
    // cached result bytes (the one pool of memory the service can free)
    // and run near-future admissions serial so they don't trip too.
    pressure_events_.fetch_add(1, std::memory_order_relaxed);
    result_cache_.Clear();
    EnterDegradedWindow();
    int64_t sleep_ms = backoff_ms;
    backoff_ms = std::min<int64_t>(backoff_ms * 2, 16);
    if (governor.deadline.has_value()) {
      int64_t remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              *governor.deadline - Clock::now())
              .count();
      if (remaining <= 0) break;  // surface the transient failure as-is
      sleep_ms = std::min(sleep_ms, remaining);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  admission_.Release(ticket.value().slot);

  // A fresh plan is cached once it has run, unless the run hit an
  // internal error (a failed spot check, or a plan the engine's own
  // audits rejected): that plan must be re-planned and re-checked.
  if (fresh != nullptr && plan_cache_enabled_ &&
      failed.code() != StatusCode::kInternal) {
    size_t bytes = PlanBytes(*fresh->dag, fresh->prepared);
    plan_cache_.Put(key, std::move(fresh), bytes);
  }

  // Proactive reaction to a near-limit success: evict the result cache
  // and open the degraded window *before* a sibling query trips.
  if (failed.ok() && high_water) {
    pressure_events_.fetch_add(1, std::memory_order_relaxed);
    result_cache_.Clear();
    EnterDegradedWindow();
  }

  if (quarantine_tracked) {
    bool resource_failure =
        !failed.ok() &&
        (failed.code() == StatusCode::kDeadlineExceeded ||
         failed.code() == StatusCode::kResourceExhausted);
    quarantine_.Record(key, resource_failure, was_probe);
  }

  if (!failed.ok()) {
    done();
    return failed;
  }

  uint64_t evicted = 0;
  // Degraded runs and near-limit results skip the insert: under
  // pressure the cache is being drained, not refilled.
  if (result_cacheable && attempts == 1 && !window_degraded && !high_water) {
    size_t bytes = out.result.serialized.size() + 64;
    for (const std::string& item : out.result.items) {
      bytes += item.size() + sizeof(std::string);
    }
    uint64_t before = result_cache_.stats().evictions;
    auto cached = std::make_shared<CachedResult>();
    cached->serialized = out.result.serialized;
    cached->items = out.result.items;
    cached->stats_initial = out.result.plan_initial;
    cached->stats_optimized = out.result.plan_optimized;
    result_cache_.Put(key, std::move(cached), bytes);
    evicted = result_cache_.stats().evictions - before;
  }
  if (options.profile) {
    out.result.profile.SetCache(out.plan_cache_hit, false, evicted);
    out.result.profile.SetAdmission(ticket.value().queue_ms, attempts,
                                    any_degraded);
  }
  done();
  return out;
}

ServiceCounters QueryService::counters() const {
  ServiceCounters out;
  out.executions = executions_.load(std::memory_order_relaxed);
  out.store_version = version_.load(std::memory_order_acquire);
  out.plan_cache = plan_cache_.stats();
  out.result_cache = result_cache_.stats();
  out.admission = admission_.stats();
  out.quarantine = quarantine_.stats();
  out.retries = retries_.load(std::memory_order_relaxed);
  out.degraded_runs = degraded_runs_.load(std::memory_order_relaxed);
  out.pressure_events = pressure_events_.load(std::memory_order_relaxed);
  out.latency_us = latency_us_.Snapshot();
  return out;
}

}  // namespace exrquy
