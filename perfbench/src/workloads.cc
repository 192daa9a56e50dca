#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "api/service.h"
#include "layers.h"
#include "xmark/generator.h"

namespace perfbench {
namespace {

using exrquy::QueryResult;
using exrquy::QueryService;
using exrquy::Result;
using exrquy::Session;

// Set-ups per batch: at least kMinSetups, then more until kSetupBudgetMs
// has been spent. An end-to-end run splits its timed loop into kSegments
// equal slices and sets up one batch before the first slice and one after
// each, so the set-up samples span the whole run; setup_s is their median.
constexpr size_t kMinSetups = 4;
constexpr size_t kMaxSetups = 50;
constexpr double kSetupBudgetMs = 200;
constexpr int kSegments = 5;
constexpr size_t kClients = 4;   // service-mix client threads
constexpr size_t kWorkers = 4;   // service-mix QueryService workers

// Operator kinds and rewrite families the per-layer metrics name. Time
// or rewrites of any other kind or family land in ".other".
constexpr const char* kKinds[] = {
    "Lit",      "Project",  "Select", "EquiJoin", "ThetaJoin",  "Cross",
    "Union",    "Difference", "SemiJoin", "Distinct", "RowNum", "RowId",
    "Fun",      "Aggr",     "Step",   "Doc",      "Elem",       "Attr",
    "TextNode", "Range",    "CardCheck"};
constexpr const char* kRules[] = {
    "column_pruning",       "union_empty_branch", "empty_short_circuit",
    "distinct_elimination", "distinct_by_keys",   "step_merging",
    "weaken_rownum",        "keyed-partition",    "order-dependency",
    "semantic-type",        "arbitrary-order",    "join_recognition"};

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// Samples per pair, indexed like AllPairs().
using Samples = std::vector<std::vector<double>>;

std::vector<double> Medians(const Samples& samples) {
  std::vector<double> out;
  for (const std::vector<double>& s : samples) out.push_back(Median(s));
  return out;
}

std::vector<double> Minima(const Samples& samples) {
  std::vector<double> out;
  for (const std::vector<double>& s : samples) {
    out.push_back(s.empty() ? 0 : *std::min_element(s.begin(), s.end()));
  }
  return out;
}

// Request outcomes. A wrong answer is also a failure.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;

  void Add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    wrong += other.wrong;
  }

  // Counts one response; `got` is its serialized result when it succeeded.
  void Record(const exrquy::Status& status, const std::string* got,
              const std::string& want, const Pair& pair) {
    ++attempted;
    if (status.ok() && *got == want) return;
    ++failed;
    if (status.ok()) ++wrong;
    if (failed <= 3) {
      std::fprintf(stderr, "xbench: %s: %s\n", pair.Label().c_str(),
                   status.ok() ? "result differs from the gated bytes"
                               : status.ToString().c_str());
    }
  }
};

struct Context {
  const RunConfig& config;
  const std::vector<Pair>& pairs;
  const std::string& xml;
  RunReport* report;
  // Digest of each pair's gate-pass result, for the oracle comparison.
  std::vector<uint64_t> gate_digests;
  // Process peak RSS at the end of the gate pass, in MB.
  double gate_rss_mb = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    report->metrics.push_back(Metric{name, value, unit});
  }
  void Meta(const std::string& key, const std::string& json) {
    report->meta.emplace_back(key, json);
  }
  void Fail(const std::string& why) {
    report->correct = false;
    report->notes.push_back("FAILED: " + why);
  }
  void Count(const Tally& tally) {
    report->attempted += tally.attempted;
    report->failed += tally.failed;
    if (tally.wrong != 0) Fail(std::to_string(tally.wrong) + " wrong results");
  }
};

// The gate pass on the measured instance: every pair once, before any
// timed region. Records each result's digest, which RunWorkload compares
// with the oracle once the measuring is done, and fills `expected` with
// the bytes every later response must reproduce exactly. Also samples
// the peak RSS: the oracle has not run yet, and the timed loop only
// repeats these requests.
template <typename Exec>
bool GatePass(Context* cx, Exec exec, std::vector<std::string>* expected) {
  expected->clear();
  cx->gate_digests.clear();
  for (const Pair& pair : cx->pairs) {
    Result<QueryResult> r = exec(pair);
    if (!r.ok()) {
      cx->Fail("gate: " + pair.Label() + ": " + r.status().ToString());
      return false;
    }
    cx->gate_digests.push_back(Digest(r->items, pair.Multiset()));
    expected->push_back(std::move(r->serialized));
  }
  cx->gate_rss_mb = PeakRssMb();
  return true;
}

// Whether a batch that started with `first` samples needs another one.
bool MoreSetups(const std::vector<double>& setup_ms, size_t first) {
  double spent = 0;
  for (size_t i = first; i < setup_ms.size(); ++i) spent += setup_ms[i];
  size_t n = setup_ms.size() - first;
  return n < kMinSetups || (n < kMaxSetups && spent < kSetupBudgetMs);
}

// Builds a Session over the document one batch of times and keeps the last;
// `setup_ms` gets each construction + LoadDocument time, `load_ms` each
// LoadDocument time alone.
std::unique_ptr<Session> SetUpSession(Context* cx,
                                      std::vector<double>* setup_ms,
                                      std::vector<double>* load_ms) {
  std::unique_ptr<Session> session;
  for (size_t first = setup_ms->size(); MoreSetups(*setup_ms, first);) {
    session.reset();
    Clock::time_point start = Clock::now();
    session = std::make_unique<Session>();
    Clock::time_point load = Clock::now();
    exrquy::Status st = session->LoadDocument("auction.xml", cx->xml);
    load_ms->push_back(MsSince(load));
    setup_ms->push_back(MsSince(start));
    if (!st.ok()) {
      cx->Fail("load: " + st.ToString());
      return nullptr;
    }
  }
  return session;
}

exrquy::ServiceConfig MixConfig() {
  exrquy::ServiceConfig sc;
  sc.workers = kWorkers;
  sc.plan_cache = 1;
  sc.result_cache_bytes = 0;
  return sc;
}

std::unique_ptr<QueryService> SetUpService(Context* cx,
                                           std::vector<double>* setup_ms) {
  std::unique_ptr<QueryService> service;
  for (size_t first = setup_ms->size(); MoreSetups(*setup_ms, first);) {
    service.reset();
    Clock::time_point start = Clock::now();
    service = std::make_unique<QueryService>(MixConfig());
    exrquy::Status st = service->LoadDocument("auction.xml", cx->xml);
    setup_ms->push_back(MsSince(start));
    if (!st.ok()) {
      cx->Fail("load: " + st.ToString());
      return nullptr;
    }
  }
  return service;
}

// Untimed-loop samples of Session::Execute.
struct SessionSamples {
  explicit SessionSamples(size_t n) : latency(n), compile(n), execute(n) {}
  Samples latency;  // ms, client-side
  Samples compile;  // QueryResult::compile_ms
  Samples execute;  // QueryResult::execute_ms
  std::vector<double> pass_ms;
  Tally tally;
};

// One pass over every pair, in a fresh seeded order.
void SessionPass(Context* cx, Session* session,
                 const std::vector<std::string>& expected, Rng* rng,
                 SessionSamples* out) {
  Clock::time_point pass = Clock::now();
  for (size_t i : Shuffled(cx->pairs.size(), rng)) {
    const Pair& pair = cx->pairs[i];
    Clock::time_point start = Clock::now();
    Result<QueryResult> r = session->Execute(
        *pair.text, OptionsFor(pair, cx->config.spec.threads));
    double ms = MsSince(start);
    out->tally.Record(r.status(), r.ok() ? &r->serialized : nullptr,
                      expected[i], pair);
    if (!r.ok()) continue;
    out->latency[i].push_back(ms);
    out->compile[i].push_back(r->compile_ms);
    out->execute[i].push_back(r->execute_ms);
  }
  out->pass_ms.push_back(MsSince(pass));
}

// Traced-request samples.
struct TraceSamples {
  explicit TraceSamples(size_t n) : times(n), counts(n) {}
  std::vector<std::vector<LayerTimes>> times;
  std::vector<LayerCounts> counts;  // last traced request of each pair
  Tally tally;
};

// One traced pass; `planned` holds a plan per pair when the workload does
// not plan on its request path.
void TracedPass(Context* cx, Session* session,
                const std::vector<exrquy::QueryPlans>* planned,
                const std::vector<std::string>& expected, Rng* rng,
                TraceSamples* out) {
  for (size_t i : Shuffled(cx->pairs.size(), rng)) {
    const Pair& pair = cx->pairs[i];
    LayerTimes times;
    LayerCounts counts = out->counts[i];
    Result<std::string> r = TraceRequest(
        session, pair, cx->config.spec.threads,
        planned != nullptr ? &(*planned)[i] : nullptr, &times, &counts);
    out->tally.Record(r.status(), r.ok() ? &r.value() : nullptr, expected[i],
                      pair);
    if (!r.ok()) continue;
    out->times[i].push_back(times);
    out->counts[i] = counts;
  }
}

struct ServiceSample {
  size_t pair = 0;
  double latency_ms = 0;
  double compile_ms = 0;
  double execute_ms = 0;
  double queue_ms = 0;  // Profile::queue_ms, with QueryOptions::profile
  bool plan_cache_hit = false;
};

struct ClientsRun {
  std::vector<ServiceSample> samples;
  Tally tally;
  double elapsed_s = 0;
};

// kClients closed-loop clients, each over its own seeded shuffles of the
// pairs, for `seconds`. Every client waits for its reply before sending
// its next request.
ClientsRun RunClients(Context* cx, QueryService* service,
                      const std::vector<std::string>& expected, double seconds,
                      bool profile) {
  std::vector<ClientsRun> per_client(kClients);
  Clock::time_point start = Clock::now();
  Clock::time_point until =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientsRun& mine = per_client[c];
      Rng rng(cx->config.seed ^ (0x9e3779b97f4a7c15ULL * (c + 1)));
      while (Clock::now() < until) {
        for (size_t i : Shuffled(cx->pairs.size(), &rng)) {
          if (Clock::now() >= until) break;
          const Pair& pair = cx->pairs[i];
          exrquy::QueryOptions options = OptionsFor(pair, 1);
          options.profile = profile;
          Clock::time_point sent = Clock::now();
          Result<exrquy::ServiceResult> r =
              service->Execute(*pair.text, options);
          double ms = MsSince(sent);
          mine.tally.Record(r.status(),
                            r.ok() ? &r->result.serialized : nullptr,
                            expected[i], pair);
          if (!r.ok()) continue;
          mine.samples.push_back(ServiceSample{
              i, ms, r->result.compile_ms, r->result.execute_ms,
              r->result.profile.queue_ms(), r->plan_cache_hit});
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ClientsRun run;
  run.elapsed_s = MsSince(start) / 1000.0;
  for (ClientsRun& c : per_client) {
    run.tally.Add(c.tally);
    run.samples.insert(run.samples.end(), c.samples.begin(), c.samples.end());
  }
  return run;
}

// Per-pair sample lists of one field of the service samples.
Samples ServiceField(size_t pairs, const ClientsRun& run,
                     double ServiceSample::*field) {
  Samples out(pairs);
  for (const ServiceSample& s : run.samples) out[s.pair].push_back(s.*field);
  return out;
}

// The end-to-end metrics, from each pair's latency samples. A pair's cost
// is its fastest sample in the run: on a shared host, interference from
// other tenants only ever adds time, in phases that can outlast a run,
// and the minimum is the statistic it moves least (perfbench/README.md).
// With `clients`, latency percentiles and throughput are those of every
// request the concurrent clients completed. Without, one client issued
// the pairs in equal shares, so the pairs' best latencies are the
// request distribution and throughput is one request per pair per pass.
void AddLatencyMetrics(Context* cx, const std::vector<double>& setup_ms,
                       const Samples& per_pair, const ClientsRun* clients) {
  std::vector<double> best = Minima(per_pair);
  std::vector<double> all = best;
  double throughput = static_cast<double>(best.size()) * 1000.0 / Sum(best);
  if (clients != nullptr) {
    all.clear();
    for (const ServiceSample& s : clients->samples) all.push_back(s.latency_ms);
    throughput = static_cast<double>(all.size()) / clients->elapsed_s;
  }
  cx->Add("setup_s", Median(setup_ms) / 1000.0, "s");
  cx->Add("query_ms_geomean", GeoMean(best), "ms");
  cx->Add("pass_s", Sum(best) / 1000.0, "s");
  cx->Add("latency_p50_ms", Median(all), "ms");
  cx->Add("latency_p99_ms", Percentile(all, 0.99), "ms");
  cx->Add("throughput_qps", throughput, "1/s");
  const RunReport& r = *cx->report;
  cx->Add("ok_frac",
          static_cast<double>(r.attempted - r.failed) /
              static_cast<double>(std::max<uint64_t>(r.attempted, 1)),
          "ratio");
  cx->Add("peak_rss_mb", cx->gate_rss_mb, "MB");
  cx->Meta("setups", std::to_string(setup_ms.size()));
  std::vector<size_t> order(best.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return best[a] > best[b]; });
  std::string slowest = "slowest pairs (best ms):";
  for (size_t k = 0; k < std::min<size_t>(6, order.size()); ++k) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%.2f",
                  cx->pairs[order[k]].Label().c_str(), best[order[k]]);
    slowest += buf;
  }
  cx->report->notes.push_back(slowest);
}

// Per-layer metrics of the traced requests: per-pair medians, summed over
// one pass of the pairs. Counts are exact and summed likewise; the peak
// live footprint is the largest of any request.
void AddLayerMetrics(Context* cx, const TraceSamples& trace) {
  const size_t n = cx->pairs.size();
  auto field_sum = [&](double LayerTimes::*field) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> v;
      for (const LayerTimes& t : trace.times[i]) v.push_back(t.*field);
      sum += Median(v);
    }
    return sum;
  };
  auto kind_sum = [&](const std::string& kind, bool other) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> v;
      for (const LayerTimes& t : trace.times[i]) {
        double ms = 0;
        for (const auto& [k, kms] : t.kind_ms) {
          bool named = std::find(std::begin(kKinds), std::end(kKinds), k) !=
                       std::end(kKinds);
          if (other ? !named : k == kind) ms += kms;
        }
        v.push_back(ms);
      }
      sum += Median(v);
    }
    return sum;
  };
  LayerCounts total;
  std::map<std::string, size_t> rewrites;
  for (const LayerCounts& c : trace.counts) {
    total.compiler_ops += c.compiler_ops;
    total.compiler_rownum_ops += c.compiler_rownum_ops;
    total.opt_ops += c.opt_ops;
    total.opt_rownum_ops += c.opt_rownum_ops;
    total.opt_theta_join_ops += c.opt_theta_join_ops;
    total.certs_rejected += c.certs_rejected;
    total.intermediate_rows += c.intermediate_rows;
    total.result_rows += c.result_rows;
    total.pipelines += c.pipelines;
    total.morsels += c.morsels;
    total.peak_live_bytes = std::max(total.peak_live_bytes, c.peak_live_bytes);
    total.result_bytes += c.result_bytes;
    for (const auto& [rule, count] : c.rewrites) {
      bool named = std::find(std::begin(kRules), std::end(kRules), rule) !=
                   std::end(kRules);
      rewrites[named ? rule : "other"] += count;
    }
  }
  auto count = [](size_t c) { return static_cast<double>(c); };

  cx->Add("xquery.parse_ms", field_sum(&LayerTimes::parse_ms), "ms");
  cx->Add("xquery.normalize_ms", field_sum(&LayerTimes::normalize_ms), "ms");
  cx->Add("compiler.compile_ms", field_sum(&LayerTimes::compile_ms), "ms");
  cx->Add("compiler.ops", count(total.compiler_ops), "count");
  cx->Add("compiler.rownum_ops", count(total.compiler_rownum_ops), "count");
  cx->Add("opt.verify_ms", field_sum(&LayerTimes::verify_ms), "ms");
  cx->Add("opt.optimize_ms", field_sum(&LayerTimes::optimize_ms), "ms");
  cx->Add("opt.ops", count(total.opt_ops), "count");
  cx->Add("opt.rownum_ops", count(total.opt_rownum_ops), "count");
  cx->Add("opt.theta_join_ops", count(total.opt_theta_join_ops), "count");
  cx->Add("opt.certs_rejected", count(total.certs_rejected), "count");
  for (const char* rule : kRules) {
    cx->Add(std::string("opt.rewrites.") + rule, count(rewrites[rule]),
            "count");
  }
  cx->Add("opt.rewrites.other", count(rewrites["other"]), "count");
  cx->Add("engine.execute_ms", field_sum(&LayerTimes::execute_ms), "ms");
  for (const char* kind : kKinds) {
    cx->Add(std::string("engine.kind.") + kind + "_ms", kind_sum(kind, false),
            "ms");
  }
  cx->Add("engine.kind.other_ms", kind_sum("", true), "ms");
  cx->Add("engine.intermediate_rows", count(total.intermediate_rows), "count");
  cx->Add("engine.result_rows", count(total.result_rows), "count");
  cx->Add("engine.pipelines", count(total.pipelines), "count");
  cx->Add("engine.morsels", count(total.morsels), "count");
  cx->Add("engine.queue_wait_ms", field_sum(&LayerTimes::queue_wait_ms), "ms");
  cx->Add("engine.peak_live_mb",
          static_cast<double>(total.peak_live_bytes) / (1024.0 * 1024.0), "MB");
  cx->Add("engine.serialize_ms", field_sum(&LayerTimes::serialize_ms), "ms");
  cx->Add("engine.result_bytes", count(total.result_bytes), "bytes");
}

// Sum over pairs of median(a) - median(b) [- median(c)].
double MedianDelta(const Samples& a, const Samples& b, const Samples* c) {
  double sum = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += Median(a[i]) - Median(b[i]) - (c != nullptr ? Median((*c)[i]) : 0);
  }
  return sum;
}

// Per-pair samples of f(traced request).
template <typename F>
Samples TraceField(const TraceSamples& trace, F f) {
  Samples out(trace.times.size());
  for (size_t i = 0; i < trace.times.size(); ++i) {
    for (const LayerTimes& t : trace.times[i]) out[i].push_back(f(t));
  }
  return out;
}

void AddXmlMetrics(Context* cx, const std::vector<double>& load_ms,
                   Session* session) {
  cx->Add("xml.load_ms", Median(load_ms), "ms");
  cx->Add("xml.doc_bytes", static_cast<double>(cx->xml.size()), "bytes");
  cx->Add("xml.nodes", static_cast<double>(session->store().node_count()),
          "count");
}

Clock::time_point Deadline(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

// -- Session workloads -----------------------------------------------------

void SessionEndToEnd(Context* cx) {
  std::vector<double> setup_ms;
  std::vector<double> load_ms;
  std::unique_ptr<Session> session = SetUpSession(cx, &setup_ms, &load_ms);
  if (session == nullptr) return;
  const int threads = cx->config.spec.threads;
  std::vector<std::string> expected;
  if (!GatePass(cx,
            [&](const Pair& p) {
              return session->Execute(*p.text, OptionsFor(p, threads));
            },
            &expected)) {
    return;
  }
  Rng rng(cx->config.seed);
  SessionSamples s(cx->pairs.size());
  for (int segment = 0; segment < kSegments; ++segment) {
    Clock::time_point until = Deadline(cx->config.seconds / kSegments);
    do {
      SessionPass(cx, session.get(), expected, &rng, &s);
    } while (Clock::now() < until);
    if (SetUpSession(cx, &setup_ms, &load_ms) == nullptr) return;
  }
  cx->Count(s.tally);
  AddLatencyMetrics(cx, setup_ms, s.latency, nullptr);
  cx->Meta("passes", std::to_string(s.pass_ms.size()));
  cx->Meta("requests", std::to_string(s.tally.attempted));
}

void SessionTraced(Context* cx) {
  std::vector<double> setup_ms;
  std::vector<double> load_ms;
  std::unique_ptr<Session> session = SetUpSession(cx, &setup_ms, &load_ms);
  if (session == nullptr) return;
  AddXmlMetrics(cx, load_ms, session.get());
  const int threads = cx->config.spec.threads;
  std::vector<std::string> expected;
  if (!GatePass(cx,
            [&](const Pair& p) {
              return session->Execute(*p.text, OptionsFor(p, threads));
            },
            &expected)) {
    return;
  }
  // Untraced and traced passes alternate, so both see the same machine.
  Rng rng(cx->config.seed);
  SessionSamples plain(cx->pairs.size());
  TraceSamples traced(cx->pairs.size());
  Clock::time_point until = Deadline(cx->config.seconds);
  do {
    SessionPass(cx, session.get(), expected, &rng, &plain);
    TracedPass(cx, session.get(), nullptr, expected, &rng, &traced);
  } while (Clock::now() < until);
  cx->Count(plain.tally);
  cx->Count(traced.tally);

  AddLayerMetrics(cx, traced);
  Samples layer_sum =
      TraceField(traced, [](const LayerTimes& t) { return t.LayerSum(); });
  cx->Add("api.session_overhead_ms",
          MedianDelta(plain.latency, layer_sum, nullptr), "ms");
  cx->Add("api.plan_ms", Sum(Medians(plain.compile)), "ms");
  cx->Add("api.execute_ms", Sum(Medians(plain.execute)), "ms");
  cx->Add("api.service_overhead_ms",
          MedianDelta(plain.latency, plain.compile, &plain.execute), "ms");
  cx->Add("api.admission_wait_ms", 0, "ms");
  cx->Add("api.plan_cache_hit_ratio", 0, "ratio");
  double traced_s =
      Sum(Medians(TraceField(
          traced, [](const LayerTimes& t) { return t.total_ms; }))) /
      1000.0;
  double plain_s = Sum(Medians(plain.latency)) / 1000.0;
  cx->Add("trace.pass_s", traced_s, "s");
  cx->Add("trace.untraced_pass_s", plain_s, "s");
  cx->Add("trace.overhead_ms", (traced_s - plain_s) * 1000.0, "ms");
  cx->Meta("passes", std::to_string(plain.pass_ms.size()));
}

// -- service-mix -------------------------------------------------------------

void ServiceEndToEnd(Context* cx) {
  std::vector<double> setup_ms;
  std::unique_ptr<QueryService> service = SetUpService(cx, &setup_ms);
  if (service == nullptr) return;
  // The gate pass also warms the plan cache: every pair is planned once.
  std::vector<std::string> expected;
  if (!GatePass(cx,
            [&](const Pair& p) -> Result<QueryResult> {
              EXRQUY_ASSIGN_OR_RETURN(
                  exrquy::ServiceResult r,
                  service->Execute(*p.text, OptionsFor(p, 1)));
              return std::move(r.result);
            },
            &expected)) {
    return;
  }
  ClientsRun run;
  for (int segment = 0; segment < kSegments; ++segment) {
    ClientsRun part = RunClients(cx, service.get(), expected,
                                 cx->config.seconds / kSegments,
                                 /*profile=*/false);
    run.tally.Add(part.tally);
    run.elapsed_s += part.elapsed_s;
    run.samples.insert(run.samples.end(), part.samples.begin(),
                       part.samples.end());
    if (SetUpService(cx, &setup_ms) == nullptr) return;
  }
  cx->Count(run.tally);
  AddLatencyMetrics(
      cx, setup_ms,
      ServiceField(cx->pairs.size(), run, &ServiceSample::latency_ms), &run);
  cx->Meta("requests", std::to_string(run.tally.attempted));
}

void ServiceTraced(Context* cx) {
  std::vector<double> setup_ms;
  std::vector<double> load_ms;
  std::unique_ptr<Session> session = SetUpSession(cx, &setup_ms, &load_ms);
  if (session == nullptr) return;
  AddXmlMetrics(cx, load_ms, session.get());
  QueryService service(MixConfig());
  exrquy::Status st = service.LoadDocument("auction.xml", cx->xml);
  if (!st.ok()) {
    cx->Fail("load: " + st.ToString());
    return;
  }
  std::vector<std::string> expected;
  if (!GatePass(cx,
            [&](const Pair& p) -> Result<QueryResult> {
              EXRQUY_ASSIGN_OR_RETURN(
                  exrquy::ServiceResult r,
                  service.Execute(*p.text, OptionsFor(p, 1)));
              return std::move(r.result);
            },
            &expected)) {
    return;
  }
  const size_t n = cx->pairs.size();
  const double seconds = cx->config.seconds;

  // The service path, untraced and then with per-request profiles.
  ClientsRun plain = RunClients(cx, &service, expected, 0.3 * seconds, false);
  ClientsRun profiled = RunClients(cx, &service, expected, 0.3 * seconds, true);
  cx->Count(plain.tally);
  cx->Count(profiled.tally);

  // The engine layers of a warm-plan-cache request: plans are built once
  // by the layer calls, as the warm cache holds them, and every traced
  // request only evaluates and serializes.
  std::vector<exrquy::QueryPlans> plans;
  TraceSamples traced(n);
  for (size_t i = 0; i < n; ++i) {
    LayerTimes unused;
    Result<exrquy::QueryPlans> p =
        PlanLayers(session.get(), cx->pairs[i], 1, &unused, &traced.counts[i]);
    if (!p.ok()) {
      cx->Fail("plan: " + cx->pairs[i].Label() + ": " + p.status().ToString());
      return;
    }
    plans.push_back(std::move(p).value());
  }
  Rng rng(cx->config.seed);
  Clock::time_point until = Deadline(0.4 * seconds);
  do {
    TracedPass(cx, session.get(), &plans, expected, &rng, &traced);
  } while (Clock::now() < until);
  cx->Count(traced.tally);

  AddLayerMetrics(cx, traced);
  Samples latency = ServiceField(n, profiled, &ServiceSample::latency_ms);
  Samples compile = ServiceField(n, profiled, &ServiceSample::compile_ms);
  Samples execute = ServiceField(n, profiled, &ServiceSample::execute_ms);
  size_t hits = 0;
  for (const ServiceSample& s : profiled.samples) hits += s.plan_cache_hit;
  cx->Add("api.session_overhead_ms", 0, "ms");
  cx->Add("api.plan_ms", Sum(Medians(compile)), "ms");
  cx->Add("api.execute_ms", Sum(Medians(execute)), "ms");
  cx->Add("api.service_overhead_ms", MedianDelta(latency, compile, &execute),
          "ms");
  cx->Add("api.admission_wait_ms",
          Sum(Medians(ServiceField(n, profiled, &ServiceSample::queue_ms))),
          "ms");
  cx->Add("api.plan_cache_hit_ratio",
          static_cast<double>(hits) /
              static_cast<double>(std::max<size_t>(profiled.samples.size(), 1)),
          "ratio");
  double traced_s = Sum(Medians(latency)) / 1000.0;
  double plain_s =
      Sum(Medians(ServiceField(n, plain, &ServiceSample::latency_ms))) / 1000.0;
  cx->Add("trace.pass_s", traced_s, "s");
  cx->Add("trace.untraced_pass_s", plain_s, "s");
  cx->Add("trace.overhead_ms", (traced_s - plain_s) * 1000.0, "ms");
  cx->Meta("requests",
           std::to_string(plain.samples.size() + profiled.samples.size()));
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {"xmark-small-cold", 0.004, 1, false, Oracle::kReferenceInterpreter,
       false},
      {"xmark-large", 0.025, 1, false, Oracle::kParallelSession, true},
      {"service-mix", 0.025, 1, true, Oracle::kParallelSession, true},
  };
  return workloads;
}

RunReport RunWorkload(const RunConfig& config) {
  RunReport report;
  const WorkloadSpec& spec = config.spec;
  const std::vector<Pair> pairs = AllPairs();

  Clock::time_point start = Clock::now();
  exrquy::XMarkOptions xmark;
  xmark.scale = spec.scale;
  xmark.seed = config.seed;
  const std::string xml = exrquy::GenerateXMark(xmark);
  const double gen_s = MsSince(start) / 1000.0;

  Context cx{config, pairs, xml, &report};
  unsigned hw = std::thread::hardware_concurrency();
  exrquy::QueryOptions defaults;
  cx.Meta("workload", JsonString(spec.name));
  cx.Meta("git_describe", JsonString(config.git_describe));
  cx.Meta("build_type", JsonString(PERFBENCH_BUILD_TYPE));
  cx.Meta("compiler", JsonString(__VERSION__));
  cx.Meta("hardware_concurrency", std::to_string(hw));
  cx.Meta("nproc", std::to_string(Nproc()));
  cx.Meta("scale", JsonNumber(spec.scale));
  cx.Meta("doc_bytes", std::to_string(xml.size()));
  cx.Meta("engine_threads", std::to_string(spec.threads));
  cx.Meta("morsel_rows", std::to_string(defaults.morsel_rows));
  cx.Meta("chunk_rows", std::to_string(defaults.chunk_rows));
  cx.Meta("seed", std::to_string(config.seed));
  cx.Meta("seconds", JsonNumber(config.seconds));
  cx.Meta("trace", config.trace ? "true" : "false");
  if (spec.service) {
    cx.Meta("service_workers", std::to_string(kWorkers));
    cx.Meta("clients", std::to_string(kClients));
  }
  cx.Meta("xmark_gen_s", JsonNumber(gen_s));

  if (spec.service) {
    config.trace ? ServiceTraced(&cx) : ServiceEndToEnd(&cx);
  } else {
    config.trace ? SessionTraced(&cx) : SessionEndToEnd(&cx);
  }

  // The oracle runs last, so that neither its time nor its memory lands in
  // any metric. A disagreement fails the run.
  Oracle oracle = spec.recorded && config.seed == kDefaultSeed
                      ? Oracle::kRecordedDigests
                      : spec.oracle;
  start = Clock::now();
  Result<std::vector<uint64_t>> reference =
      ReferenceDigests(oracle, spec.name, xml, pairs);
  cx.Meta("gate_oracle", JsonString(OracleName(oracle)));
  cx.Meta("gate_oracle_s", JsonNumber(MsSince(start) / 1000.0));
  size_t checked = 0;
  if (!reference.ok()) {
    cx.Fail("gate oracle: " + reference.status().ToString());
  } else if (cx.gate_digests.size() == pairs.size()) {
    for (size_t i = 0; i < pairs.size(); ++i, ++checked) {
      if (cx.gate_digests[i] != (*reference)[i]) {
        cx.Fail("gate: " + pairs[i].Label() + " disagrees with the " +
                OracleName(oracle));
      }
    }
  }
  cx.Meta("gate_pairs_checked", std::to_string(checked));
  return report;
}

int RecordDigests(const RunConfig& config) {
  exrquy::XMarkOptions xmark;
  xmark.scale = config.spec.scale;
  xmark.seed = config.seed;
  const std::vector<Pair> pairs = AllPairs();
  Result<std::vector<uint64_t>> digests = ReferenceDigests(
      Oracle::kParallelSession, config.spec.name, exrquy::GenerateXMark(xmark),
      pairs);
  if (!digests.ok()) {
    std::fprintf(stderr, "xbench: %s\n", digests.status().ToString().c_str());
    return 1;
  }
  PrintRecordedDigests(config.spec.name, pairs, *digests);
  return 0;
}

}  // namespace perfbench
