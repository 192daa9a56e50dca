// Parallel-engine scaling on the XMark query set: every query executed
// at 1 / 2 / 4 / hardware threads, median wall clock per configuration,
// dumped both as a table and as BENCH_parallel.json (schema below).
//
// Thread count 1 is the exact serial evaluation order; the other
// configurations must return byte-identical results, and the bench
// re-checks that on every run (a scaling number for a wrong answer is
// worthless). The JSON records hardware_concurrency so a reader can
// tell a flat profile measured on a single hardware thread (where the
// scheduler degrades to serial-plus-overhead) from a genuinely
// non-scaling kernel.
//
//   { "bench": "parallel_scaling",
//     "scale": 0.016, "doc_bytes": N, "hardware_concurrency": N,
//     "underprovisioned": bool,   // hardware_concurrency < max benched T
//     "morsel_rows": N,
//     "threads": [1, 2, 4, ...],
//     "queries": [ {"name": "Q1", "ms": [t1, t2, t4, ...],
//                   "speedup_vs_serial": [...]}, ... ] }
//
// When the machine has fewer hardware threads than the largest benched
// configuration, the multi-thread columns measure scheduling overhead on
// an oversubscribed core, not scaling — the JSON says so explicitly
// ("underprovisioned": true) and a warning goes to stderr, instead of
// silently publishing 0.4-1.0x "speedups".
//
// EXRQUY_BENCH_SCALE overrides the document scale factor.
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"

namespace exrquy {
namespace {

void Run() {
  double scale = bench::EnvScale("EXRQUY_BENCH_SCALE", 0.016);
  size_t doc_bytes = 0;
  auto session = bench::MakeXMarkSession(scale, &doc_bytes);

  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::vector<int> threads = {1, 2, 4};
  if (hw > 4) threads.push_back(static_cast<int>(hw));

  int max_threads = threads.back();
  bool underprovisioned = hw < static_cast<size_t>(max_threads);
  if (underprovisioned) {
    std::fprintf(stderr,
                 "warning: hardware_concurrency (%zu) < max benched thread "
                 "count (%d); multi-thread columns measure oversubscription "
                 "overhead, not scaling\n",
                 hw, max_threads);
  }

  std::printf(
      "Parallel scaling — XMark, %.3f scale (%zu KB), hardware threads: "
      "%zu\n\n",
      scale, doc_bytes / 1024, hw);
  std::printf("%-6s", "query");
  for (int t : threads) std::printf("  %7dT", t);
  std::printf("  %9s\n", "x at 4T");

  struct Row {
    std::string name;
    std::vector<double> ms;
  };
  std::vector<Row> rows;

  for (const XMarkQuery& query : XMarkQueries()) {
    Row row;
    row.name = query.name;
    std::string reference;
    bool ok = true;
    for (int t : threads) {
      QueryOptions options;
      options.num_threads = t;
      QueryResult result;
      double ms =
          bench::MedianExecMs(session.get(), query.text, options, 5, &result);
      if (ms < 0) {
        ok = false;
        break;
      }
      if (t == 1) {
        reference = result.serialized;
      } else if (result.serialized != reference) {
        std::fprintf(stderr, "%s: %dT result differs from serial!\n",
                     query.name.c_str(), t);
        std::exit(1);
      }
      row.ms.push_back(ms);
    }
    if (!ok) continue;
    std::printf("%-6s", row.name.c_str());
    for (double ms : row.ms) std::printf("  %8.2f", ms);
    double at4 = row.ms.size() > 2 && row.ms[2] > 0 ? row.ms[0] / row.ms[2]
                                                    : 0.0;
    std::printf("  %8.2fx\n", at4);
    rows.push_back(std::move(row));
  }

  std::FILE* out = std::fopen("BENCH_parallel.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_parallel.json\n");
    std::exit(1);
  }
  // Every run uses the default options, so morsel_rows is the engine
  // default (assuming EXRQUY_MORSEL_ROWS is unset).
  std::fprintf(out,
               "{\n  \"bench\": \"parallel_scaling\",\n"
               "  \"scale\": %g,\n  \"doc_bytes\": %zu,\n"
               "  \"hardware_concurrency\": %zu,\n"
               "  \"underprovisioned\": %s,\n"
               "  \"morsel_rows\": 65536,\n"
               "  \"threads\": [",
               scale, doc_bytes, hw, underprovisioned ? "true" : "false");
  for (size_t i = 0; i < threads.size(); ++i) {
    std::fprintf(out, "%s%d", i ? ", " : "", threads[i]);
  }
  std::fprintf(out, "],\n  \"queries\": [\n");
  for (size_t r = 0; r < rows.size(); ++r) {
    std::fprintf(out, "    {\"name\": \"%s\", \"ms\": [",
                 rows[r].name.c_str());
    for (size_t i = 0; i < rows[r].ms.size(); ++i) {
      std::fprintf(out, "%s%.3f", i ? ", " : "", rows[r].ms[i]);
    }
    std::fprintf(out, "], \"speedup_vs_serial\": [");
    for (size_t i = 0; i < rows[r].ms.size(); ++i) {
      double x = rows[r].ms[i] > 0 ? rows[r].ms[0] / rows[r].ms[i] : 0.0;
      std::fprintf(out, "%s%.3f", i ? ", " : "", x);
    }
    std::fprintf(out, "]}%s\n", r + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_parallel.json\n");
}

}  // namespace
}  // namespace exrquy

int main() {
  exrquy::Run();
  return 0;
}
