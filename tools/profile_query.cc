// Per-operator profile of one XMark query over a generated document:
//
//   ./profile_query Q9 [scale] [ordered|unordered] [repetitions]
//
// Executes the query (a plain Session re-plans, but compile time is
// reported separately) and prints the planned join operators with the
// detail line of each join_recognition certificate — so a missed join
// shows without reading plan goldens — then the operator metrics sorted
// by kernel wall time, plus the by-kind rollup. The quickest way to see
// which operator a slow query actually spends its time in.
//
// With a repetition count (default 1) the query runs that many times and
// every time column is the minimum over the runs: one cold run also
// times the node store's vector growth, which warm runs reuse.
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

int main(int argc, char** argv) {
  int reps = argc > 4 ? std::atoi(argv[4]) : 1;
  if (argc < 2 || argc > 5 || reps < 1 ||
      (argc > 3 && std::strcmp(argv[3], "ordered") != 0 &&
       std::strcmp(argv[3], "unordered") != 0)) {
    std::fprintf(stderr,
                 "usage: profile_query <Qname> [scale] "
                 "[ordered|unordered] [repetitions >= 1]\n");
    return 2;
  }
  double scale = argc > 2 ? std::atof(argv[2]) : 0.016;
  bool unordered = argc > 3 && std::strcmp(argv[3], "unordered") == 0;
  exrquy::Session session;
  exrquy::XMarkOptions xmark;
  xmark.scale = scale;
  if (!session.LoadDocument("auction.xml", exrquy::GenerateXMark(xmark))
           .ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }
  exrquy::QueryOptions options;
  options.profile = true;
  if (unordered) options.default_ordering = exrquy::OrderingMode::kUnordered;
  const std::string& text = exrquy::XMarkQueryText(argv[1]);
  exrquy::Result<exrquy::QueryPlans> plans = session.Plan(text, options);
  if (!plans.ok()) {
    std::fprintf(stderr, "%s\n", plans.status().ToString().c_str());
    return 1;
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
      return 1;
    }
    compile_ms = std::min(compile_ms, r->compile_ms);
    execute_ms = std::min(execute_ms, r->execute_ms);
    for (const auto& m : r->profile.ops()) {
      auto [it, fresh] = op_min_ms.emplace(m.op, m.ms);
      if (!fresh) it->second = std::min(it->second, m.ms);
    }
  }
  std::printf("%s %s at scale %.3f: compile %.2f ms, execute %.2f ms%s\n",
              argv[1], unordered ? "unordered" : "ordered", scale,
              compile_ms, execute_ms,
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
  std::vector<exrquy::Profile::OpMetrics> ops = r->profile.ops();
  std::map<std::string, exrquy::Profile::Bucket> by_kind;
  for (auto& m : ops) {
    m.ms = op_min_ms[m.op];
    exrquy::Profile::Bucket& b = by_kind[m.kind];
    b.ms += m.ms;
    b.ops += 1;
    b.out_rows += m.out_rows;
  }
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
  std::printf("\nby kind:\n");
  for (const auto& [kind, b] : by_kind) {
    std::printf("  %-12s %8.3f ms  %6zu ops  %10zu rows\n", kind.c_str(),
                b.ms, b.ops, b.out_rows);
  }
  return 0;
}
