// xq — a small command-line XQuery processor on top of the library.
//
//   xq [options] <query.xq | ->
//     -d name=path    load an XML document (repeatable); fn:doc(name)
//     -e <expr>       inline query text instead of a file
//     --baseline      ignore order indifference (the paper's baseline)
//     --unordered     declare ordering unordered by default
//     --plan          print the optimized plan instead of executing
//     --sql           print the generated SQL:1999 instead of executing
//     --explain-order print, for every sort surviving optimization, the
//                     source constructs whose order demand keeps it alive
//     --explain-rewrites
//                     print every rewrite instance with its certificate
//                     verdict (what fired, what it cited, whether the
//                     independent checker proved the obligation), ending
//                     with a "[certify] emitted=... validated=...
//                     rejected=..." summary line. EXRQUY_CERTIFY selects
//                     the mode (check | strict | spot | off)
//     --profile       print the Table 2-style execution profile
//     --serve-batch N replay the query mix through the concurrent
//                     QueryService on N client threads (the input may
//                     hold several queries separated by lines of "%%");
//                     verifies byte-equality across threads and prints
//                     cache hit/miss statistics. EXRQUY_PLAN_CACHE and
//                     EXRQUY_RESULT_CACHE_BYTES configure the caches.
//     --repeat R      rounds per client thread in --serve-batch mode
//                     (default 8)
//     --queue-depth N     bound the admission queue at N waiters; extra
//                         requests are shed with Unavailable (serve-batch)
//     --queue-timeout-ms N  shed a queued request after waiting N ms
//     --retries N     retry transient resource exhaustion up to N times
//                     in degraded (serial, cache-bypassing) mode
//
// Example:
//   xq -d t.xml=fragment.xml -e 'count(doc("t.xml")//c)'
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algebra/dot.h"
#include "api/service.h"
#include "api/session.h"
#include "sql/sql_gen.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: xq [-d name=path]... [--baseline|--unordered] "
               "[--plan|--sql|--explain-order|--explain-rewrites] "
               "[--profile] "
               "[--serve-batch N [--repeat R] [--queue-depth N] "
               "[--queue-timeout-ms N] [--retries N]] "
               "(-e <expr> | query.xq | -)\n");
  return 2;
}

// Splits the input into a query mix on lines consisting of "%%".
std::vector<std::string> SplitMix(const std::string& text) {
  std::vector<std::string> mix;
  std::string current;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line == "%%") {
      if (!current.empty()) mix.push_back(current);
      current.clear();
    } else {
      current += line;
      current += '\n';
    }
  }
  if (current.find_first_not_of(" \t\n\r") != std::string::npos) {
    mix.push_back(current);
  }
  return mix;
}

struct ServeKnobs {
  int64_t queue_depth = -1;       // -1: environment / unbounded
  int64_t queue_timeout_ms = -1;  // -1: environment / no timeout
  int max_retries = -1;           // -1: environment / default (1)
};

int ServeBatch(const std::vector<std::pair<std::string, std::string>>& docs,
               const std::string& input, const exrquy::QueryOptions& options,
               size_t threads, size_t repeat, const ServeKnobs& knobs) {
  exrquy::ServiceConfig config;
  config.workers = threads;  // caches come from the environment knobs
  config.max_queue_depth = knobs.queue_depth;
  config.queue_timeout_ms = knobs.queue_timeout_ms;
  config.max_retries = knobs.max_retries;
  exrquy::QueryService service(config);
  for (const auto& [name, path] : docs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "xq: cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    exrquy::Status st = service.LoadDocument(name, buf.str());
    if (!st.ok()) {
      std::fprintf(stderr, "xq: %s: %s\n", name.c_str(),
                   st.ToString().c_str());
      return 1;
    }
  }

  std::vector<std::string> mix = SplitMix(input);
  if (mix.empty()) return Usage();

  // Serial reference pass: establishes the expected bytes and prints
  // each query's result once.
  std::vector<std::string> expected;
  for (const std::string& q : mix) {
    exrquy::Result<exrquy::ServiceResult> r = service.Execute(q, options);
    if (!r.ok()) {
      std::fprintf(stderr, "xq: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", r->result.serialized.c_str());
    expected.push_back(r->result.serialized);
  }

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> sheds{0};
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t round = 0; round < repeat; ++round) {
        for (size_t i = 0; i < mix.size(); ++i) {
          // Offset per thread so distinct queries overlap in flight.
          size_t qi = (i + t) % mix.size();
          exrquy::Result<exrquy::ServiceResult> r =
              service.Execute(mix[qi], options);
          if (!r.ok()) {
            // A shed (bounded queue full or queue timeout) is the
            // resilience layer doing its job, not a correctness failure.
            if (r.status().code() == exrquy::StatusCode::kUnavailable) {
              sheds.fetch_add(1, std::memory_order_relaxed);
            } else {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (r->result.serialized != expected[qi]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& th : clients) th.join();
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();

  exrquy::ServiceCounters c = service.counters();
  std::fprintf(stderr,
               "serve-batch: %zu queries x %zu threads x %zu rounds "
               "in %.1f ms\n",
               mix.size(), threads, repeat, ms);
  std::fprintf(stderr,
               "  executions   %llu\n"
               "  plan cache   %llu hits / %llu misses\n"
               "  result cache %llu hits / %llu misses / %llu evictions "
               "(%zu bytes resident)\n",
               static_cast<unsigned long long>(c.executions),
               static_cast<unsigned long long>(c.plan_cache.hits),
               static_cast<unsigned long long>(c.plan_cache.misses),
               static_cast<unsigned long long>(c.result_cache.hits),
               static_cast<unsigned long long>(c.result_cache.misses),
               static_cast<unsigned long long>(c.result_cache.evictions),
               c.result_cache.bytes);
  std::fprintf(stderr,
               "  admission    %llu admitted / %llu queued / "
               "%llu+%llu+%llu shed (full/timeout/deadline), "
               "peak queue %llu\n",
               static_cast<unsigned long long>(c.admission.admitted),
               static_cast<unsigned long long>(c.admission.queued),
               static_cast<unsigned long long>(c.admission.shed_queue_full),
               static_cast<unsigned long long>(c.admission.shed_queue_timeout),
               static_cast<unsigned long long>(c.admission.shed_deadline),
               static_cast<unsigned long long>(c.admission.peak_queue_depth));
  std::fprintf(stderr,
               "  resilience   %llu retries / %llu degraded runs / "
               "%llu pressure events\n",
               static_cast<unsigned long long>(c.retries),
               static_cast<unsigned long long>(c.degraded_runs),
               static_cast<unsigned long long>(c.pressure_events));
  std::fprintf(stderr,
               "  quarantine   %llu shed / %llu trips / %llu probes / "
               "%llu recoveries (%llu open)\n",
               static_cast<unsigned long long>(c.quarantine.shed),
               static_cast<unsigned long long>(c.quarantine.trips),
               static_cast<unsigned long long>(c.quarantine.probes),
               static_cast<unsigned long long>(c.quarantine.recoveries),
               static_cast<unsigned long long>(c.quarantine.open));
  std::fprintf(stderr, "  latency      p50 %.0f us / p99 %.0f us\n",
               c.latency_us.PercentileUs(50), c.latency_us.PercentileUs(99));
  if (sheds.load() != 0) {
    std::fprintf(stderr, "  (%zu requests shed by admission control)\n",
                 sheds.load());
  }
  if (mismatches.load() != 0 || failures.load() != 0) {
    std::fprintf(stderr, "xq: %zu mismatches, %zu failures\n",
                 mismatches.load(), failures.load());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  exrquy::QueryOptions options;
  std::vector<std::pair<std::string, std::string>> docs;  // name -> path
  std::string query;
  bool have_query = false;
  bool want_plan = false;
  bool want_sql = false;
  bool want_explain_order = false;
  bool want_explain_rewrites = false;
  size_t serve_threads = 0;
  size_t serve_repeat = 8;
  ServeKnobs knobs;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-d" && i + 1 < argc) {
      std::string spec = argv[++i];
      size_t eq = spec.find('=');
      if (eq == std::string::npos) return Usage();
      docs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--serve-batch" && i + 1 < argc) {
      serve_threads = static_cast<size_t>(std::atoi(argv[++i]));
      if (serve_threads == 0) return Usage();
    } else if (arg == "--repeat" && i + 1 < argc) {
      serve_repeat = static_cast<size_t>(std::atoi(argv[++i]));
      if (serve_repeat == 0) return Usage();
    } else if (arg == "--queue-depth" && i + 1 < argc) {
      knobs.queue_depth = std::atoll(argv[++i]);
      if (knobs.queue_depth < 0) return Usage();
    } else if (arg == "--queue-timeout-ms" && i + 1 < argc) {
      knobs.queue_timeout_ms = std::atoll(argv[++i]);
      if (knobs.queue_timeout_ms < 0) return Usage();
    } else if (arg == "--retries" && i + 1 < argc) {
      knobs.max_retries = std::atoi(argv[++i]);
      if (knobs.max_retries < 0) return Usage();
    } else if (arg == "-e" && i + 1 < argc) {
      query = argv[++i];
      have_query = true;
    } else if (arg == "--baseline") {
      options.enable_order_indifference = false;
    } else if (arg == "--unordered") {
      options.default_ordering = exrquy::OrderingMode::kUnordered;
    } else if (arg == "--plan") {
      want_plan = true;
    } else if (arg == "--sql") {
      want_sql = true;
    } else if (arg == "--explain-order") {
      want_explain_order = true;
    } else if (arg == "--explain-rewrites") {
      want_explain_rewrites = true;
    } else if (arg == "--profile") {
      options.profile = true;
    } else if (!have_query) {
      if (arg == "-") {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        query = buf.str();
      } else {
        std::ifstream in(arg);
        if (!in) {
          std::fprintf(stderr, "xq: cannot open %s\n", arg.c_str());
          return 1;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        query = buf.str();
      }
      have_query = true;
    } else {
      return Usage();
    }
  }
  if (!have_query) return Usage();

  if (serve_threads > 0) {
    if (want_plan || want_sql || want_explain_order || want_explain_rewrites) {
      return Usage();
    }
    return ServeBatch(docs, query, options, serve_threads, serve_repeat,
                      knobs);
  }

  exrquy::Session session;
  for (const auto& [name, path] : docs) {
    exrquy::Status st = session.LoadDocumentFile(name, path);
    if (!st.ok()) {
      std::fprintf(stderr, "xq: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  if (want_explain_order) {
    exrquy::Result<exrquy::OrderExplanation> explained =
        session.ExplainOrder(query, options);
    if (!explained.ok()) {
      std::fprintf(stderr, "xq: %s\n",
                   explained.status().ToString().c_str());
      return 1;
    }
    for (const auto& trade : explained->trades) {
      std::printf("%s  [%u]", trade.label.c_str(), trade.op);
      if (!trade.source.empty()) {
        std::printf("  -- %s", trade.source.c_str());
      }
      std::printf("\n  order traded (%s): %s\n", trade.rule.c_str(),
                  trade.detail.c_str());
    }
    if (explained->sorts.empty()) {
      std::printf("no sorts survive optimization: the plan is fully "
                  "order-indifferent\n");
      return 0;
    }
    for (const auto& sort : explained->sorts) {
      std::printf("%s  [%u]", sort.label.c_str(), sort.op);
      if (!sort.source.empty()) std::printf("  -- %s", sort.source.c_str());
      std::printf("\n");
      if (sort.presorted) {
        std::printf("  presorted: the input is proven sorted by the "
                    "partition and criteria, so this %% does not sort\n");
      }
      if (sort.reasons.empty()) {
        std::printf("  rank never consumed (removable by column pruning)\n");
      }
      for (const std::string& reason : sort.reasons) {
        std::printf("  ordered because: %s\n", reason.c_str());
      }
    }
    return 0;
  }

  if (want_explain_rewrites) {
    exrquy::Result<exrquy::RewriteExplanation> explained =
        session.ExplainRewrites(query, options);
    if (!explained.ok()) {
      std::fprintf(stderr, "xq: %s\n",
                   explained.status().ToString().c_str());
      return 1;
    }
    for (const auto& e : explained->entries) {
      const char* verdict = !e.checked ? "uncertified"
                            : e.valid  ? "certified"
                                       : "REJECTED";
      std::printf("%s  op %u -> op %u  [%s]", e.rule.c_str(), e.from, e.to,
                  verdict);
      if (e.checked && !e.valid) {
        std::printf("  obligation %s%s", e.obligation.c_str(),
                    e.committed ? " (committed anyway)" : " (kept out)");
      }
      std::printf("\n  %s", e.label.c_str());
      if (!e.source.empty()) std::printf("  -- %s", e.source.c_str());
      std::printf("\n  %s\n", e.detail.c_str());
      for (const std::string& fact : e.facts) {
        std::printf("  cites %s\n", fact.c_str());
      }
      if (e.checked && !e.valid) {
        std::printf("  %s\n", e.diagnostic.c_str());
      }
    }
    std::printf("[certify] emitted=%zu validated=%zu rejected=%zu\n",
                explained->emitted, explained->validated,
                explained->rejected);
    return explained->rejected == 0 ? 0 : 1;
  }

  if (want_plan || want_sql) {
    exrquy::Result<exrquy::QueryPlans> plans =
        session.Plan(query, options);
    if (!plans.ok()) {
      std::fprintf(stderr, "xq: %s\n", plans.status().ToString().c_str());
      return 1;
    }
    if (want_plan) {
      std::fputs(exrquy::PlanToText(*plans->dag, plans->optimized,
                                    session.strings())
                     .c_str(),
                 stdout);
    }
    if (want_sql) {
      exrquy::Result<std::string> sql = exrquy::PlanToSql(
          *plans->dag, plans->optimized, session.strings());
      if (!sql.ok()) {
        std::fprintf(stderr, "xq: %s\n", sql.status().ToString().c_str());
        return 1;
      }
      std::fputs(sql->c_str(), stdout);
    }
    return 0;
  }

  exrquy::Result<exrquy::QueryResult> r = session.Execute(query, options);
  if (!r.ok()) {
    std::fprintf(stderr, "xq: %s\n", r.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", r->serialized.c_str());
  if (options.profile) {
    std::fprintf(stderr, "\n%s", r->profile.ToString().c_str());
  }
  return 0;
}
