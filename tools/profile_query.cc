// Per-operator profile of one XMark query over a generated document:
//
//   ./profile_query Q9 [scale] [ordered|unordered|both] [repetitions]
//   ./profile_query all [scale] [ordered|unordered|both] [repetitions]
//
// Executes the query (a plain Session re-plans, but compile time is
// reported separately) and prints the planned join operators with the
// detail line of each join_recognition certificate — so a missed join
// shows without reading plan goldens — then the operator metrics sorted
// by kernel wall time, plus the by-kind rollup. `both` reports each mode
// and then the pair's by-kind sum. The quickest way to see
// which operator a slow query actually spends its time in.
//
// With a repetition count (default 1) the query runs that many times and
// every time column is the minimum over the runs: one cold run also
// times the node store's vector growth, which warm runs reuse.
//
// `all` profiles the 20 queries in the given mode (default both: the 40
// (query, mode) pairs) and prints only the by-kind rollup, each kind's
// per-operator minima summed over every pair — the per-kind before/after
// table of a kernel change, from one command.
//
// Every summary line names the engine thread count the runs used
// (Profile::threads()). The options are the defaults, so EXRQUY_THREADS
// or else the hardware concurrency decides it; pin it with, e.g.,
// `EXRQUY_THREADS=1 ./profile_query all 0.5 ordered 3` for 1-thread sums.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "api/session.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace {

struct Totals {
  double compile_ms = 0;
  double execute_ms = 0;
  size_t threads = 0;  // of the last run
  std::map<std::string, exrquy::Profile::Bucket> by_kind;
};

void PrintByKind(const std::map<std::string, exrquy::Profile::Bucket>& k) {
  std::printf("\nby kind:\n");
  for (const auto& [kind, b] : k) {
    std::printf("  %-12s %8.3f ms  %6zu ops  %10zu rows\n", kind.c_str(),
                b.ms, b.ops, b.out_rows);
  }
}

// Runs one query `reps` times and adds its minima to `totals`; prints the
// per-query report when `verbose`. Returns false on an error.
bool ProfileOne(exrquy::Session& session, const std::string& name,
                bool unordered, double scale, int reps, bool verbose,
                Totals* totals) {
  exrquy::QueryOptions options;
  options.profile = true;
  if (unordered) options.default_ordering = exrquy::OrderingMode::kUnordered;
  const std::string& text = exrquy::XMarkQueryText(name);
  exrquy::Result<exrquy::QueryPlans> plans = session.Plan(text, options);
  if (!plans.ok()) {
    std::fprintf(stderr, "%s\n", plans.status().ToString().c_str());
    return false;
  }
  // Every run plans the same DAG, so operator ids line up across runs.
  exrquy::Result<exrquy::QueryResult> r = exrquy::Internal("not run");
  std::map<exrquy::OpId, double> op_min_ms;
  double compile_ms = std::numeric_limits<double>::infinity();
  double execute_ms = compile_ms;
  for (int i = 0; i < reps; ++i) {
    r = session.Execute(text, options);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return false;
    }
    compile_ms = std::min(compile_ms, r->compile_ms);
    execute_ms = std::min(execute_ms, r->execute_ms);
    for (const auto& m : r->profile.ops()) {
      auto [it, fresh] = op_min_ms.emplace(m.op, m.ms);
      if (!fresh) it->second = std::min(it->second, m.ms);
    }
  }
  totals->compile_ms += compile_ms;
  totals->execute_ms += execute_ms;
  totals->threads = r->profile.threads();
  std::vector<exrquy::Profile::OpMetrics> ops = r->profile.ops();
  std::map<std::string, exrquy::Profile::Bucket> by_kind;
  for (auto& m : ops) {
    m.ms = op_min_ms[m.op];
    for (auto* k : {&by_kind, &totals->by_kind}) {
      exrquy::Profile::Bucket& b = (*k)[m.kind];
      b.ms += m.ms;
      b.ops += 1;
      b.out_rows += m.out_rows;
    }
  }
  if (!verbose) return true;
  std::printf(
      "%s %s at scale %.3f, threads=%zu: compile %.2f ms, execute %.2f "
      "ms%s\n",
      name.c_str(), unordered ? "unordered" : "ordered", scale,
      r->profile.threads(), compile_ms, execute_ms,
      reps > 1 ? " (minima over the runs)" : "");
  std::printf("value_join_ops %zu  theta_join_ops %zu  theta_count_ops %zu\n",
              r->plan_optimized.value_join_ops,
              r->plan_optimized.theta_join_ops,
              r->plan_optimized.theta_count_ops);
  for (const exrquy::RewriteTrade& t : plans->trades) {
    if (t.rule != "join_recognition") continue;
    std::printf("  join_recognition op %d -> op %d%s: %s\n",
                static_cast<int>(t.from), static_cast<int>(t.to),
                t.checked && !t.valid ? " (INVALID)" : "", t.detail.c_str());
  }
  std::printf("\n");
  std::sort(ops.begin(), ops.end(),
            [](const auto& a, const auto& b) { return a.ms > b.ms; });
  std::printf("%5s  %-12s %8s %10s %10s  %s\n", "op", "kind", "ms",
              "in_rows", "out_rows", "prov");
  for (size_t i = 0; i < ops.size() && i < 25; ++i) {
    const auto& m = ops[i];
    std::printf("%5d  %-12s %8.3f %10zu %10zu  %.50s\n",
                static_cast<int>(m.op), m.kind.c_str(), m.ms, m.in_rows,
                m.out_rows, m.prov.c_str());
  }
  PrintByKind(by_kind);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool all = argc > 1 && std::strcmp(argv[1], "all") == 0;
  const char* mode = argc > 3 ? argv[3] : (all ? "both" : "ordered");
  int reps = argc > 4 ? std::atoi(argv[4]) : 1;
  if (argc < 2 || argc > 5 || reps < 1 ||
      (std::strcmp(mode, "ordered") != 0 &&
       std::strcmp(mode, "unordered") != 0 &&
       std::strcmp(mode, "both") != 0)) {
    std::fprintf(stderr,
                 "usage: profile_query <Qname> [scale] "
                 "[ordered|unordered|both] [repetitions >= 1]\n"
                 "       profile_query all [scale] "
                 "[ordered|unordered|both] [repetitions >= 1]\n");
    return 2;
  }
  double scale = argc > 2 ? std::atof(argv[2]) : 0.016;
  exrquy::Session session;
  exrquy::XMarkOptions xmark;
  xmark.scale = scale;
  if (!session.LoadDocument("auction.xml", exrquy::GenerateXMark(xmark))
           .ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }
  std::vector<bool> modes;
  if (std::strcmp(mode, "unordered") != 0) modes.push_back(false);
  if (std::strcmp(mode, "ordered") != 0) modes.push_back(true);
  Totals totals;
  if (!all) {
    for (bool unordered : modes) {
      if (!ProfileOne(session, argv[1], unordered, scale, reps, true,
                      &totals)) {
        return 1;
      }
    }
    if (modes.size() > 1) {
      std::printf(
          "\n%s, both modes, threads=%zu: compile %.2f ms, execute %.2f "
          "ms\n",
          argv[1], totals.threads, totals.compile_ms, totals.execute_ms);
      PrintByKind(totals.by_kind);
    }
    return 0;
  }
  size_t pairs = 0;
  for (const exrquy::XMarkQuery& q : exrquy::XMarkQueries()) {
    for (bool unordered : modes) {
      if (!ProfileOne(session, q.name, unordered, scale, reps, false,
                      &totals)) {
        std::fprintf(stderr, "%s failed\n", q.name.c_str());
        return 1;
      }
      ++pairs;
    }
  }
  std::printf("%zu pairs (%s) at scale %.3f, threads=%zu: compile %.2f "
              "ms, execute %.2f ms%s\n",
              pairs, mode, scale, totals.threads, totals.compile_ms,
              totals.execute_ms,
              reps > 1 ? " (sums of minima over the runs)" : "");
  PrintByKind(totals.by_kind);
  return 0;
}
