// Overhead of the resource governor on the XMark query set: every query
// executed with the governor disarmed (no token, no deadline, no budget
// — the default path pays only untaken branches) and fully armed (a
// live cancellation token, a far-future deadline, and a huge-but-finite
// memory budget, so every poll site and every charge site does real
// work), median wall clock each, dumped as a table and as
// BENCH_governor.json:
//
//   { "bench": "governor_overhead",
//     "scale": 0.016, "doc_bytes": N, "threads": N,
//     "queries": [ {"name": "Q1", "off_ms": t, "armed_ms": t,
//                   "overhead_pct": p}, ... ],
//     "geomean_overhead_pct": p }
//
// The armed run re-checks byte-identity against the disarmed run on
// every query — a cheap governor that changed the answer would be no
// governor at all. Target: < 2% geomean overhead (EXPERIMENTS.md).
//
// EXRQUY_BENCH_SCALE overrides the document scale factor;
// EXRQUY_BENCH_THREADS the thread count (default 1, the configuration
// where per-op poll cost is least amortized and thus worst-case).
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/governor.h"

namespace exrquy {
namespace {

void Run() {
  double scale = bench::EnvScale("EXRQUY_BENCH_SCALE", 0.016);
  int threads = static_cast<int>(bench::EnvScale("EXRQUY_BENCH_THREADS", 1));
  size_t doc_bytes = 0;
  auto session = bench::MakeXMarkSession(scale, &doc_bytes);

  QueryOptions off;
  off.num_threads = threads;

  QueryOptions armed;
  armed.num_threads = threads;
  armed.cancel = std::make_shared<CancelToken>();
  armed.deadline_ms = 86400000;            // 24h: checked, never hit
  armed.memory_budget = size_t{1} << 40;   // 1 TiB: charged, never hit

  std::printf(
      "Governor overhead — XMark, %.3f scale (%zu KB), %d thread(s)\n\n",
      scale, doc_bytes / 1024, threads);
  std::printf("%-6s  %10s  %10s  %9s\n", "query", "off ms", "armed ms",
              "overhead");

  struct Row {
    std::string name;
    double off_ms;
    double armed_ms;
  };
  std::vector<Row> rows;
  double log_sum = 0;

  for (const XMarkQuery& query : XMarkQueries()) {
    QueryResult off_result;
    QueryResult armed_result;
    double off_ms =
        bench::MedianExecMs(session.get(), query.text, off, 7, &off_result);
    double armed_ms = bench::MedianExecMs(session.get(), query.text, armed, 7,
                                          &armed_result);
    if (armed_result.serialized != off_result.serialized) {
      std::fprintf(stderr, "%s: armed result differs from disarmed!\n",
                   query.name.c_str());
      std::exit(1);
    }
    double pct = off_ms > 0 ? (armed_ms / off_ms - 1.0) * 100.0 : 0.0;
    std::printf("%-6s  %10.3f  %10.3f  %+8.2f%%\n", query.name.c_str(),
                off_ms, armed_ms, pct);
    log_sum += std::log(armed_ms > 0 && off_ms > 0 ? armed_ms / off_ms : 1.0);
    rows.push_back({query.name, off_ms, armed_ms});
  }

  double geomean_pct =
      rows.empty() ? 0.0
                   : (std::exp(log_sum / static_cast<double>(rows.size())) -
                      1.0) * 100.0;
  std::printf("\ngeomean overhead: %+.2f%%\n", geomean_pct);

  std::FILE* out = std::fopen("BENCH_governor.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_governor.json\n");
    std::exit(1);
  }
  std::fprintf(out,
               "{\n  \"bench\": \"governor_overhead\",\n"
               "  \"scale\": %g,\n  \"doc_bytes\": %zu,\n"
               "  \"threads\": %d,\n  \"queries\": [\n",
               scale, doc_bytes, threads);
  for (size_t r = 0; r < rows.size(); ++r) {
    double pct = rows[r].off_ms > 0
                     ? (rows[r].armed_ms / rows[r].off_ms - 1.0) * 100.0
                     : 0.0;
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"off_ms\": %.3f, "
                 "\"armed_ms\": %.3f, \"overhead_pct\": %.2f}%s\n",
                 rows[r].name.c_str(), rows[r].off_ms, rows[r].armed_ms, pct,
                 r + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"geomean_overhead_pct\": %.2f\n}\n",
               geomean_pct);
  std::fclose(out);
  std::printf("wrote BENCH_governor.json\n");
}

}  // namespace
}  // namespace exrquy

int main() {
  exrquy::Run();
  return 0;
}
