// Tests for the concurrent query service (api/service.h) and its cache
// storage (common/cache.h): byte-equality of concurrent replays against
// a serial Session, plan-cache warm-path behavior (compile phase
// skipped), invalidation on document load, eviction under a tiny byte
// budget, and the ShardedLruCache primitive itself.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "api/service.h"
#include "api/session.h"
#include "common/cache.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace exrquy {
namespace {

// -- ShardedLruCache -------------------------------------------------------

TEST(ShardedLruCacheTest, PutGetAndStats) {
  ShardedLruCache<std::string> cache(/*budget_bytes=*/0);
  EXPECT_EQ(cache.Get("a"), nullptr);
  ASSERT_TRUE(cache.Put("a", std::make_shared<std::string>("alpha"), 5));
  std::shared_ptr<const std::string> got = cache.Get("a");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "alpha");
  CacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.insertions, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.bytes, 5u);
}

TEST(ShardedLruCacheTest, ReplaceUpdatesBytes) {
  ShardedLruCache<std::string> cache(0);
  ASSERT_TRUE(cache.Put("k", std::make_shared<std::string>("v1"), 10));
  ASSERT_TRUE(cache.Put("k", std::make_shared<std::string>("v2"), 30));
  CacheStats st = cache.stats();
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.bytes, 30u);
  EXPECT_EQ(*cache.Get("k"), "v2");
}

TEST(ShardedLruCacheTest, EvictsColdestWithinBudget) {
  // One shard so the LRU order is global and deterministic.
  ShardedLruCache<int> cache(/*budget_bytes=*/100, nullptr,
                             /*num_shards=*/1);
  ASSERT_TRUE(cache.Put("a", std::make_shared<int>(1), 40));
  ASSERT_TRUE(cache.Put("b", std::make_shared<int>(2), 40));
  ASSERT_NE(cache.Get("a"), nullptr);  // refresh "a"; "b" is now coldest
  ASSERT_TRUE(cache.Put("c", std::make_shared<int>(3), 40));
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, 100u);
}

TEST(ShardedLruCacheTest, RefusesOversizeEntry) {
  ShardedLruCache<int> cache(100, nullptr, /*num_shards=*/1);
  ASSERT_TRUE(cache.Put("small", std::make_shared<int>(1), 10));
  EXPECT_FALSE(cache.Put("huge", std::make_shared<int>(2), 1000));
  // The resident entry survives the refusal.
  EXPECT_NE(cache.Get("small"), nullptr);
  EXPECT_EQ(cache.Get("huge"), nullptr);
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(ShardedLruCacheTest, ValueOutlivesEviction) {
  ShardedLruCache<std::string> cache(50, nullptr, 1);
  ASSERT_TRUE(cache.Put("a", std::make_shared<std::string>("keep"), 40));
  std::shared_ptr<const std::string> held = cache.Get("a");
  ASSERT_TRUE(cache.Put("b", std::make_shared<std::string>("new"), 40));
  EXPECT_EQ(cache.Get("a"), nullptr);  // evicted...
  EXPECT_EQ(*held, "keep");            // ...but the Get result is valid
}

TEST(ShardedLruCacheTest, ClearReleasesAccountantBytes) {
  MemoryBudget accountant(0);
  ShardedLruCache<int> cache(0, &accountant);
  ASSERT_TRUE(cache.Put("a", std::make_shared<int>(1), 100));
  ASSERT_TRUE(cache.Put("b", std::make_shared<int>(2), 200));
  EXPECT_EQ(accountant.charged(), 300u);
  cache.Clear();
  EXPECT_EQ(accountant.charged(), 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// -- QueryService ----------------------------------------------------------

std::string XMarkXml() {
  XMarkOptions opts;
  opts.scale = 0.002;
  return GenerateXMark(opts);
}

QueryOptions ModeOptions(OrderingMode mode) {
  QueryOptions o;
  o.default_ordering = mode;
  return o;
}

auto PlanStatsFields(const PlanStats& s) {
  return std::tie(s.total_ops, s.rownum_ops, s.rowid_ops,
                  s.positional_rowid_ops, s.step_ops, s.distinct_ops,
                  s.theta_join_ops, s.value_join_ops, s.by_kind);
}

// Everything the service returns for a query, against the Session's
// result: serialized bytes, items, and both plan-shape summaries.
void ExpectSameResult(const QueryResult& got, const QueryResult& expected,
                      const std::string& context) {
  EXPECT_EQ(got.serialized, expected.serialized) << context;
  EXPECT_EQ(got.items, expected.items) << context;
  EXPECT_TRUE(PlanStatsFields(got.plan_initial) ==
              PlanStatsFields(expected.plan_initial))
      << context;
  EXPECT_TRUE(PlanStatsFields(got.plan_optimized) ==
              PlanStatsFields(expected.plan_optimized))
      << context;
}

// The 20 XMark queries, both ordering modes, replayed through the
// service, must be byte-identical to a serial Session over the same
// document.
TEST(QueryServiceTest, MatchesSessionForAllXMarkQueries) {
  std::string xml = XMarkXml();
  Session session;
  ASSERT_TRUE(session.LoadDocument("auction.xml", xml).ok());
  ServiceConfig config;
  config.workers = 2;
  config.plan_cache = 1;
  config.result_cache_bytes = 1 << 20;
  QueryService service(config);
  ASSERT_TRUE(service.LoadDocument("auction.xml", xml).ok());

  for (OrderingMode mode : {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
    for (const XMarkQuery& q : XMarkQueries()) {
      QueryOptions o = ModeOptions(mode);
      Result<QueryResult> expected = session.Execute(q.text, o);
      ASSERT_TRUE(expected.ok()) << q.name << ": "
                                 << expected.status().ToString();
      // Twice: cold (plan miss) and warm (plan or result hit) must both
      // reproduce the Session bytes.
      for (int round = 0; round < 2; ++round) {
        Result<ServiceResult> got = service.Execute(q.text, o);
        ASSERT_TRUE(got.ok()) << q.name << ": " << got.status().ToString();
        ExpectSameResult(got->result, *expected,
                         q.name + " round " + std::to_string(round));
      }
    }
  }
  ServiceCounters c = service.counters();
  EXPECT_GT(c.plan_cache.hits + c.result_cache.hits, 0u);
}

// Under EXRQUY_CERTIFY=spot semantics the service spot-checks every
// fresh plan on its worker store (the spot evaluations construct nodes
// there) and still returns the Session's bytes, cold (checked) and warm
// (cached plan, no re-check), leaving every worker store at its
// snapshot.
TEST(QueryServiceTest, SpotCheckMatchesSessionForAllXMarkQueries) {
  std::string xml = XMarkXml();
  Session session;
  ASSERT_TRUE(session.LoadDocument("auction.xml", xml).ok());
  ServiceConfig config;
  config.workers = 2;
  config.plan_cache = 1;
  config.result_cache_bytes = 0;  // every call runs the engine
  QueryService service(config);
  ASSERT_TRUE(service.LoadDocument("auction.xml", xml).ok());

  for (OrderingMode mode : {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
    for (const XMarkQuery& q : XMarkQueries()) {
      Result<QueryResult> expected =
          session.Execute(q.text, ModeOptions(mode));
      QueryOptions o = ModeOptions(mode);
      o.certify.mode = CertifyMode::kStrict;
      o.certify.spot_check = true;
      ASSERT_TRUE(expected.ok()) << q.name << ": "
                                 << expected.status().ToString();
      for (int round = 0; round < 2; ++round) {
        Result<ServiceResult> got = service.Execute(q.text, o);
        ASSERT_TRUE(got.ok()) << q.name << ": " << got.status().ToString();
        EXPECT_EQ(got->plan_cache_hit, round == 1) << q.name;
        ExpectSameResult(got->result, *expected,
                         q.name + " round " + std::to_string(round));
      }
    }
  }
  EXPECT_TRUE(service.WorkersPristine());
}

// N threads replaying the query mix concurrently produce exactly the
// serial bytes, on a single-worker service (forced hand-off) and on an
// 8-worker one (true concurrency). Most calls are plan-cache hits, so
// several workers run one shared prepared plan at once.
TEST(QueryServiceTest, ConcurrentReplayByteEquality) {
  std::string xml = XMarkXml();
  Session session;
  ASSERT_TRUE(session.LoadDocument("auction.xml", xml).ok());
  std::vector<std::string> expected;
  for (const XMarkQuery& q : XMarkQueries()) {
    Result<QueryResult> r = session.Execute(q.text);
    ASSERT_TRUE(r.ok()) << q.name;
    expected.push_back(r->serialized);
  }

  for (size_t workers : {size_t{1}, size_t{8}}) {
    ServiceConfig config;
    config.workers = workers;
    config.plan_cache = 1;
    config.result_cache_bytes = 0;  // every call runs the engine
    QueryService service(config);
    ASSERT_TRUE(service.LoadDocument("auction.xml", xml).ok());

    constexpr size_t kThreads = 8;
    std::atomic<size_t> mismatches{0};
    std::atomic<size_t> plan_hits{0};
    std::vector<std::thread> threads;
    const std::vector<XMarkQuery>& queries = XMarkQueries();
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread starts at a different offset so distinct queries
        // overlap in time.
        for (size_t i = 0; i < queries.size(); ++i) {
          size_t qi = (i + t * 3) % queries.size();
          Result<ServiceResult> r = service.Execute(queries[qi].text);
          if (!r.ok() || r->result.serialized != expected[qi]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          } else if (r->plan_cache_hit) {
            plan_hits.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0u) << "workers=" << workers;
    // Each query misses at most once per thread that asks for it before
    // its first plan is cached; the threads' staggered starts keep that
    // rare, so most of the replay runs cached plans.
    EXPECT_GT(plan_hits.load(), kThreads * queries.size() / 2)
        << "workers=" << workers;
  }
}

TEST(QueryServiceTest, WarmExecuteSkipsCompile) {
  ServiceConfig config;
  config.workers = 1;
  config.plan_cache = 1;
  config.result_cache_bytes = 0;  // isolate the plan cache
  QueryService service(config);
  ASSERT_TRUE(service.LoadDocument("d.xml", "<r><x>1</x><x>2</x></r>").ok());

  QueryOptions o;
  o.profile = true;
  const char* query = R"(for $x in doc("d.xml")//x return <y>{ $x }</y>)";
  Result<ServiceResult> cold = service.Execute(query, o);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->plan_cache_hit);
  EXPECT_GT(cold->result.compile_ms, 0);

  Result<ServiceResult> warm = service.Execute(query, o);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  EXPECT_FALSE(warm->result_cache_hit);
  // No parse/compile/optimize ran: the phase timer is exactly zero.
  EXPECT_EQ(warm->result.compile_ms, 0);
  EXPECT_TRUE(warm->result.profile.plan_cache_hit());
  EXPECT_FALSE(warm->result.profile.result_cache_hit());
  EXPECT_EQ(warm->result.serialized, cold->result.serialized);
  // Plan-shape stats survive the cache.
  EXPECT_EQ(warm->result.plan_optimized.total_ops,
            cold->result.plan_optimized.total_ops);

  ServiceCounters c = service.counters();
  EXPECT_EQ(c.plan_cache.hits, 1u);
  EXPECT_EQ(c.plan_cache.misses, 1u);
}

// pipelined_execution is an execution knob, not part of the plan-cache
// key: a warm request without fusion runs the cached prepared plan's
// order with no pipeline at all, and returns a Session's unfused bytes.
TEST(QueryServiceTest, UnfusedRunOfCachedPlanFusesNothing) {
  std::string xml = XMarkXml();
  Session session;
  ASSERT_TRUE(session.LoadDocument("auction.xml", xml).ok());
  ServiceConfig config;
  config.workers = 1;
  config.plan_cache = 1;
  config.result_cache_bytes = 0;  // every call runs the engine
  QueryService service(config);
  ASSERT_TRUE(service.LoadDocument("auction.xml", xml).ok());

  QueryOptions fused;
  fused.profile = true;
  QueryOptions unfused = fused;
  unfused.pipelined_execution = false;
  size_t fused_pipelines = 0;
  for (const XMarkQuery& q : XMarkQueries()) {
    Result<ServiceResult> cold = service.Execute(q.text, fused);
    ASSERT_TRUE(cold.ok()) << q.name << ": " << cold.status().ToString();
    fused_pipelines += cold->result.profile.pipelines().size();

    Result<QueryResult> expected = session.Execute(q.text, unfused);
    ASSERT_TRUE(expected.ok()) << q.name;
    Result<ServiceResult> warm = service.Execute(q.text, unfused);
    ASSERT_TRUE(warm.ok()) << q.name << ": " << warm.status().ToString();
    EXPECT_TRUE(warm->plan_cache_hit) << q.name;
    ExpectSameResult(warm->result, *expected, q.name);
    EXPECT_TRUE(warm->result.profile.pipelines().empty()) << q.name;
  }
  // The cached plans do hold pipelines; the unfused runs left them out.
  EXPECT_GT(fused_pipelines, 0u);
}

TEST(QueryServiceTest, PlanCacheRespectsOptionFingerprint) {
  ServiceConfig config;
  config.workers = 1;
  config.plan_cache = 1;
  config.result_cache_bytes = 0;  // a repeat must reach the plan cache
  QueryService service(config);
  ASSERT_TRUE(service.LoadDocument("d.xml", "<r><x/></r>").ok());
  const char* query = R"(count(doc("d.xml")//x))";
  ASSERT_TRUE(service.Execute(query, ModeOptions(OrderingMode::kOrdered)).ok());
  // A different ordering mode is a different plan: no cross-mode hit.
  Result<ServiceResult> other =
      service.Execute(query, ModeOptions(OrderingMode::kUnordered));
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->plan_cache_hit);
  Result<ServiceResult> same =
      service.Execute(query, ModeOptions(OrderingMode::kUnordered));
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->plan_cache_hit);
  // Every rewrite family is part of the key: flipping any one of them is
  // a different plan (a miss), and repeating the flip hits.
  for (const RewriteFamily& f : kRewriteFamilies) {
    QueryOptions flipped;
    flipped.*(f.flag) = !(flipped.*(f.flag));
    Result<ServiceResult> first = service.Execute(query, flipped);
    ASSERT_TRUE(first.ok()) << f.name;
    EXPECT_FALSE(first->plan_cache_hit) << f.name;
    Result<ServiceResult> again = service.Execute(query, flipped);
    ASSERT_TRUE(again.ok()) << f.name;
    EXPECT_TRUE(again->plan_cache_hit) << f.name;
  }
}

TEST(QueryServiceTest, PlanCacheCanBeDisabled) {
  ServiceConfig config;
  config.workers = 1;
  config.plan_cache = 0;
  QueryService service(config);
  ASSERT_TRUE(service.LoadDocument("d.xml", "<r><x/></r>").ok());
  const char* query = R"(count(doc("d.xml")//x))";
  ASSERT_TRUE(service.Execute(query).ok());
  Result<ServiceResult> second = service.Execute(query);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->plan_cache_hit);
  EXPECT_EQ(service.counters().plan_cache.hits, 0u);
}

TEST(QueryServiceTest, ResultCacheHitServesBytesWithoutEngine) {
  ServiceConfig config;
  config.workers = 1;
  config.plan_cache = 1;
  config.result_cache_bytes = 1 << 20;
  QueryService service(config);
  ASSERT_TRUE(service.LoadDocument("d.xml", "<r><x>7</x></r>").ok());
  QueryOptions o;
  o.profile = true;
  const char* query = R"(doc("d.xml")//x/text())";
  Result<ServiceResult> cold = service.Execute(query, o);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->result_cache_hit);
  Result<ServiceResult> warm = service.Execute(query, o);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->result_cache_hit);
  EXPECT_EQ(warm->result.serialized, cold->result.serialized);
  EXPECT_EQ(warm->result.items, cold->result.items);
  EXPECT_EQ(warm->result.compile_ms, 0);
  EXPECT_EQ(warm->result.execute_ms, 0);
  EXPECT_TRUE(warm->result.profile.result_cache_hit());
  // A result hit does zero engine work: no operator records.
  EXPECT_TRUE(warm->result.profile.ops().empty());
  // A removed option is rejected even when the bytes are cached.
  o.chunk_rows = 7;
  Result<ServiceResult> removed = service.Execute(query, o);
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryServiceTest, RemovedInlineRowsRejected) {
  // The removed inline_rows and physical_sort_detection knobs are
  // rejected before the result cache is consulted: a request whose bytes
  // are cached still fails.
  ServiceConfig config;
  config.workers = 1;
  config.plan_cache = 1;
  config.result_cache_bytes = 1 << 20;
  QueryService service(config);
  ASSERT_TRUE(service.LoadDocument("d.xml", "<r><x>7</x></r>").ok());
  const char* query = R"(doc("d.xml")//x/text())";
  ASSERT_TRUE(service.Execute(query, QueryOptions{}).ok());
  Result<ServiceResult> warm = service.Execute(query, QueryOptions{});
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->result_cache_hit);
  for (const std::string_view knob :
       {"inline_rows", "physical_sort_detection"}) {
    QueryOptions o;
    if (knob == "inline_rows") {
      o.inline_rows = 0;
    } else {
      o.physical_sort_detection = false;
    }
    Result<ServiceResult> removed = service.Execute(query, o);
    ASSERT_FALSE(removed.ok()) << knob;
    EXPECT_EQ(removed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(removed.status().message().find(knob), std::string::npos)
        << removed.status().ToString();
  }
}

// Reloading a document must invalidate both caches: no stale plan, no
// stale bytes, ever.
TEST(QueryServiceTest, LoadInvalidatesCaches) {
  ServiceConfig config;
  config.workers = 2;
  config.plan_cache = 1;
  config.result_cache_bytes = 1 << 20;
  QueryService service(config);
  const char* query = R"(doc("d.xml")/v/text())";

  ASSERT_TRUE(service.LoadDocument("d.xml", "<v>one</v>").ok());
  uint64_t v1 = service.store_version();
  ASSERT_TRUE(service.Execute(query).ok());  // warm both caches
  Result<ServiceResult> warm = service.Execute(query);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->result_cache_hit);
  EXPECT_EQ(warm->result.serialized, "one");

  ASSERT_TRUE(service.LoadDocument("d.xml", "<v>two</v>").ok());
  EXPECT_GT(service.store_version(), v1);
  ServiceCounters after_load = service.counters();
  EXPECT_EQ(after_load.plan_cache.entries, 0u);
  EXPECT_EQ(after_load.result_cache.entries, 0u);

  Result<ServiceResult> fresh = service.Execute(query);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->result_cache_hit);
  EXPECT_FALSE(fresh->plan_cache_hit);
  EXPECT_EQ(fresh->result.serialized, "two");
  // And the re-warmed cache serves the new bytes.
  Result<ServiceResult> rewarmed = service.Execute(query);
  ASSERT_TRUE(rewarmed.ok());
  EXPECT_TRUE(rewarmed->result_cache_hit);
  EXPECT_EQ(rewarmed->result.serialized, "two");
}

// A failed load must leave the snapshot, version, and caches untouched.
TEST(QueryServiceTest, FailedLoadLeavesSnapshotIntact) {
  QueryService service(ServiceConfig{.workers = 1, .plan_cache = 1,
                                     .result_cache_bytes = 1 << 20});
  ASSERT_TRUE(service.LoadDocument("d.xml", "<v>one</v>").ok());
  const char* query = R"(doc("d.xml")/v/text())";
  ASSERT_TRUE(service.Execute(query).ok());
  uint64_t version = service.store_version();
  EXPECT_FALSE(service.LoadDocument("d.xml", "<v>broken").ok());
  EXPECT_EQ(service.store_version(), version);
  Result<ServiceResult> r = service.Execute(query);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.serialized, "one");
  EXPECT_TRUE(r->result_cache_hit);  // cache survived the failed load
}

TEST(QueryServiceTest, EvictionUnderTinyBudget) {
  ServiceConfig config;
  config.workers = 1;
  config.plan_cache = 1;
  config.result_cache_bytes = 512;  // tiny: a handful of entries at most
  QueryService service(config);
  ASSERT_TRUE(
      service.LoadDocument("d.xml", "<r><x>1</x><x>2</x><x>3</x></r>").ok());
  // Distinct queries so every execution inserts a distinct entry.
  for (int i = 1; i <= 20; ++i) {
    std::string q = "count(doc(\"d.xml\")//x) + " + std::to_string(i);
    Result<ServiceResult> r = service.Execute(q);
    ASSERT_TRUE(r.ok()) << q;
  }
  ServiceCounters c = service.counters();
  EXPECT_GT(c.result_cache.evictions, 0u);
  EXPECT_LE(c.result_cache.bytes, 512u);
  EXPECT_LT(c.result_cache.entries, 20u);
  // Evicted or refused entries are misses next time — but never wrong.
  Result<ServiceResult> r = service.Execute("count(doc(\"d.xml\")//x) + 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.serialized, "4");
}

// Concurrent Execute + LoadDocument: every result must be consistent
// with the snapshot version it reports — never a mix, never stale bytes.
TEST(QueryServiceTest, ConcurrentLoadAndExecute) {
  ServiceConfig config;
  config.workers = 4;
  config.plan_cache = 1;
  config.result_cache_bytes = 1 << 20;
  QueryService service(config);
  ASSERT_TRUE(service.LoadDocument("d.xml", "<v>a</v>").ok());
  const char* query = R"(doc("d.xml")/v/text())";
  const std::vector<std::string> by_version = {"a", "b", "c", "d"};

  std::atomic<bool> stop{false};
  std::atomic<size_t> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        Result<ServiceResult> r = service.Execute(query);
        if (!r.ok()) {
          bad.fetch_add(1);
          continue;
        }
        // store_version counts loads; version v serves by_version[v-1].
        uint64_t v = r->store_version;
        if (v == 0 || v > by_version.size() ||
            r->result.serialized != by_version[v - 1]) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (size_t i = 1; i < by_version.size(); ++i) {
    ASSERT_TRUE(
        service.LoadDocument("d.xml", "<v>" + by_version[i] + "</v>").ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(service.store_version(), by_version.size());
}

// The shared pool grows monotonically, but worker stores must not grow
// across executions (constructed fragments are reclaimed per call).
TEST(QueryServiceTest, WorkerStoresDoNotGrowAcrossExecutions) {
  ServiceConfig config;
  config.workers = 1;
  config.result_cache_bytes = 0;  // force evaluation every time
  config.plan_cache = 1;
  QueryService service(config);
  ASSERT_TRUE(service.LoadDocument("d.xml", "<r><x/><x/></r>").ok());
  const char* query = R"(for $x in doc("d.xml")//x return <e>{ $x }</e>)";
  Result<ServiceResult> first = service.Execute(query);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 5; ++i) {
    Result<ServiceResult> r = service.Execute(query);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->result.serialized, first->result.serialized);
  }
}

TEST(QueryServiceTest, ErrorsPropagateAndDoNotPoison) {
  QueryService service(ServiceConfig{.workers = 2, .plan_cache = 1,
                                     .result_cache_bytes = 1 << 20});
  ASSERT_TRUE(service.LoadDocument("d.xml", "<v>9</v>").ok());
  EXPECT_EQ(service.Execute("for $x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Execute("1 idiv 0").status().code(),
            StatusCode::kTypeError);
  // Errors are not cached: the same bad query fails identically...
  EXPECT_FALSE(service.Execute("1 idiv 0").ok());
  // ...and good queries still work.
  Result<ServiceResult> r = service.Execute(R"(doc("d.xml")/v/text())");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.serialized, "9");
}

}  // namespace
}  // namespace exrquy
