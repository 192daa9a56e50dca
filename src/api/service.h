// Concurrent query service. A QueryService owns an immutable snapshot of
// the loaded documents and admits many concurrent Execute calls against
// it, backed by two caches:
//
//  * a plan cache keyed by (query text, ordering mode, optimizer flags,
//    store version) holding the compiled + optimized DAG — a warm hit
//    skips parse/normalize/compile/optimize entirely (compile_ms == 0);
//  * an optional result cache (LRU with a byte budget, charged through a
//    MemoryBudget accountant) keyed the same way, serving serialized
//    bytes without touching the engine.
//
// Concurrency model. Sessions (api/session.h) mutate their store/pool
// during evaluation (constructed fragments, query-interned strings) and
// roll back afterwards, which cannot overlap. The service instead keeps
//
//  * one shared thread-safe StrPool that every plan and every worker
//    references — cached plans bake StrIds, so all evaluators must agree
//    on the pool. Get and an Intern that finds its string read only
//    atomics; only a first-time intern takes the pool's mutex;
//  * a base NodeStore holding the loaded documents, plus one private
//    NodeStore per worker slot, cloned from the base. A worker appends
//    (and truncates) constructed fragments privately, so concurrent
//    queries never see each other's nodes, while every worker reads
//    identical document bytes at identical preorder ranks — which is
//    what makes results byte-identical across workers and thread counts.
//
// The shared pool is never truncated: strings interned by queries stay
// resident (monotonic growth, bounded by the distinct strings the query
// mix constructs). That is the deliberate trade-off buying lock-free
// reads on the evaluation hot path; StrPool::TruncateTo is not safe
// concurrently with Intern or Get.
//
// LoadDocument is exclusive: it waits for in-flight executions, parses
// into the base store, re-clones every worker, bumps the store version
// (so stale cache keys can never hit again) and drops both caches.
//
// Overload resilience (api/admission.h). Execute calls that find every
// worker busy wait in a *bounded* admission queue and are shed with
// kUnavailable (queue full / queue timeout) or kDeadlineExceeded (the
// request's own deadline expired while queued) instead of blocking
// forever. Transient failures — a memory-budget trip, an injected
// transient fault — are retried up to max_retries times in *degraded
// mode* (serial execution, plan/result caches bypassed) after evicting
// the result cache, with capped exponential backoff. A query whose
// budget peak crosses memory_high_water of its limit triggers the same
// proactive reaction: result cache evicted, subsequent admissions run
// serial for degraded_window_ms. Queries that repeatedly exhaust their
// deadline or budget are quarantined by plan-cache key (circuit breaker
// with timed half-open probes) and fast-fail kUnavailable without
// occupying a worker.
#ifndef EXRQUY_API_SERVICE_H_
#define EXRQUY_API_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "api/admission.h"
#include "api/session.h"
#include "common/cache.h"
#include "common/governor.h"
#include "common/status.h"
#include "common/str_pool.h"
#include "xml/node_store.h"

namespace exrquy {

struct ServiceConfig {
  // Concurrent execution slots. 0 = hardware concurrency (at least 1).
  size_t workers = 0;

  // Plan cache: -1 defers to EXRQUY_PLAN_CACHE ("0" disables, "1"
  // enables; default on), 0 disables, 1 enables.
  //
  // Every -1 field below defers to an EXRQUY_* variable the same way,
  // parsed strictly (engine/faults.h): a malformed value makes every
  // Execute fail with an InvalidArgument naming the variable.
  int plan_cache = -1;

  // Result cache byte budget: -1 defers to EXRQUY_RESULT_CACHE_BYTES
  // (unset/0 = disabled), 0 disables, > 0 enables with that budget.
  int64_t result_cache_bytes = -1;

  // -- Admission (api/admission.h) ----------------------------------------
  // Max Execute calls queued for a worker slot at once; one more arrival
  // is shed immediately with kUnavailable. -1 defers to
  // EXRQUY_MAX_QUEUE_DEPTH (unset = unbounded, the pre-admission
  // behavior); 0 = never queue.
  int64_t max_queue_depth = -1;

  // Longest a call may wait queued before being shed with kUnavailable.
  // -1 defers to EXRQUY_QUEUE_TIMEOUT_MS (unset = no timeout); 0 = no
  // timeout. A request's own deadline_ms always also bounds the wait.
  int64_t queue_timeout_ms = -1;

  // -- Retry / degradation ------------------------------------------------
  // Transient-failure retries per Execute (degraded mode: serial, caches
  // bypassed, capped backoff). -1 defers to EXRQUY_MAX_RETRIES (unset =
  // 1); 0 disables retrying.
  int max_retries = -1;

  // Fraction of a query's memory budget whose crossing (by the peak
  // charge) counts as memory pressure: the result cache is evicted and
  // new queries are admitted in serial mode for degraded_window_ms
  // rather than being allowed to trip their budgets too.
  double memory_high_water = 0.85;
  int64_t degraded_window_ms = 100;

  // -- Poison-query quarantine --------------------------------------------
  // Consecutive deadline/budget exhaustions (fault injection excluded)
  // before a query key is quarantined. 0 disables the breaker.
  uint32_t quarantine_failures = 3;
  // Open -> half-open probe delay; doubles per failed probe (capped
  // internally at 30 s).
  int64_t quarantine_cooldown_ms = 250;
};

// Execute's answer: the Session-shaped QueryResult plus what the service
// layer did to produce it.
struct ServiceResult {
  QueryResult result;
  bool plan_cache_hit = false;
  bool result_cache_hit = false;  // implies plan untouched this call
  uint64_t store_version = 0;     // snapshot the result was computed on
};

// Aggregate service observability (also mirrored per-execution into
// Profile::SetCache / Profile::SetAdmission when QueryOptions::profile
// is set).
struct ServiceCounters {
  uint64_t executions = 0;     // completed Execute calls (ok or error)
  uint64_t store_version = 0;  // bumped by every LoadDocument
  CacheStats plan_cache;
  CacheStats result_cache;

  // Resilience layer.
  AdmissionStats admission;       // queue/shed counters + queue-wait hist
  QuarantineStats quarantine;     // breaker trips/probes/recoveries
  uint64_t retries = 0;           // extra attempts after transient failure
  uint64_t degraded_runs = 0;     // attempts executed in degraded mode
  uint64_t pressure_events = 0;   // high-water / budget-trip reactions
  LatencyHistogram latency_us;    // end-to-end Execute latency (all calls)
};

class QueryService {
 public:
  explicit QueryService(ServiceConfig config = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Parses and indexes a document into the base snapshot. Exclusive:
  // blocks until in-flight Execute calls drain, then re-clones worker
  // stores, bumps the store version, and clears both caches. On parse
  // error the snapshot, version and caches are all unchanged.
  Status LoadDocument(std::string_view name, std::string_view xml);

  // Runs one query against the current snapshot. Safe to call from any
  // number of threads concurrently; byte-identical to Session::Execute
  // over the same documents, for every worker count and cache state.
  // Fails with InvalidArgument when a service variable the constructor
  // read was malformed (ServiceConfig).
  Result<ServiceResult> Execute(std::string_view query,
                                const QueryOptions& options = {});

  ServiceCounters counters() const;
  uint64_t store_version() const {
    return version_.load(std::memory_order_acquire);
  }
  size_t worker_count() const { return workers_.size(); }

  // Test hook: true when every worker store sits exactly at its snapshot
  // bounds — i.e. every execution, including failed and faulted ones,
  // rolled its constructed fragments back. Call on a quiesced service.
  bool WorkersPristine() const;

  StrPool& strings() { return strings_; }

 private:
  using Clock = std::chrono::steady_clock;

  // A compiled + optimized plan with everything Execute needs to skip
  // compilation and the engine's preparation: the DAG and its prepared
  // plan (verified, ordered, pipelined and audited once, read-only during
  // evaluation — that is what makes one cached plan shareable across
  // workers), and the plan-shape stats of the original compilation.
  struct CachedPlan {
    std::unique_ptr<Dag> dag;
    PreparedPlan prepared;  // over *dag
    PlanStats stats_initial;
    PlanStats stats_optimized;
  };

  // A finished query, byte-for-byte. The profile of the producing run is
  // not retained: a cache hit did no engine work, so serving the old
  // operator timings would misattribute time.
  struct CachedResult {
    std::string serialized;
    std::vector<std::string> items;
    PlanStats stats_initial;
    PlanStats stats_optimized;
  };

  struct Worker {
    explicit Worker(StrPool* strings) : store(strings) {}
    NodeStore store;
    // Snapshot bounds after the last clone; evaluation appends past
    // them and the lease rolls back to them.
    size_t base_nodes = 0;
    size_t base_fragments = 0;
  };

  void CloneWorkersLocked();

  // One execution attempt on a held worker: a fresh budget and fault
  // injector, ExecutePlan, worker rollback. Fills `out` on success.
  // `spot_trades` (first attempt of a plan-cache miss only) are spot-
  // checked when certification asks for it; `degraded` forces serial
  // execution; `high_water` reports whether the attempt's budget peak
  // crossed the memory_high_water fraction.
  Status RunAttempt(const CachedPlan& plan,
                    const std::vector<RewriteTrade>* spot_trades,
                    const QueryOptions& options, const Governor& governor,
                    Worker& worker, bool degraded, bool* high_water,
                    QueryResult* out);

  // True while the memory-pressure degraded window is open: admissions
  // run serial until it expires.
  bool DegradedNow() const;
  void EnterDegradedWindow();

  // The first malformed EXRQUY_* service variable the constructor read
  // (an InvalidArgument naming it); Execute returns it.
  Status config_error_;
  bool plan_cache_enabled_;
  int max_retries_;
  double memory_high_water_;
  int64_t degraded_window_ms_;
  // Shared pool first: workers' stores reference it.
  StrPool strings_;
  NodeStore base_store_;
  std::map<StrId, NodeIdx> documents_;
  std::atomic<uint64_t> version_{0};

  // Writer = LoadDocument, readers = Execute. Held shared for the whole
  // execution so the snapshot cannot change under a running query.
  mutable std::shared_mutex snapshot_mu_;

  std::vector<std::unique_ptr<Worker>> workers_;
  AdmissionController admission_;
  QuarantineList quarantine_;

  // Memory-pressure degraded window: admissions before this instant run
  // serial. time_since_epoch in nanoseconds (steady clock), 0 = closed.
  std::atomic<int64_t> degraded_until_ns_{0};

  // Result-cache byte accounting (observability: peak/charged for
  // counters and profiles; the cache's own budget does the enforcing).
  MemoryBudget cache_accountant_;
  ShardedLruCache<CachedPlan> plan_cache_;
  ShardedLruCache<CachedResult> result_cache_;

  std::atomic<uint64_t> executions_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> degraded_runs_{0};
  std::atomic<uint64_t> pressure_events_{0};
  AtomicLatencyHistogram latency_us_;
};

}  // namespace exrquy

#endif  // EXRQUY_API_SERVICE_H_
