// Figure 12: observed impact of order indifference (speedup) on the
// XMark benchmark query set, across document sizes.
//
// For every XMark query and every scale factor, the query is executed in
// the baseline configuration (order indifference ignored) and in the
// enabled configuration (declare ordering unordered + the paper's
// machinery); the reported speedup is baseline/enabled - 1, i.e. 100 %
// means twice as fast, exactly as in the paper. Queries whose baseline
// exceeds the cutoff at a scale are skipped at larger scales (the paper
// used a 30 s interactive cutoff the same way).
#include <cstdio>

#include "bench/bench_util.h"

namespace exrquy {
namespace {

void Run() {
  using bench::Baseline;
  using bench::Enabled;

  std::vector<double> scales = {0.004, 0.016, 0.064};
  const double cutoff_ms = bench::EnvScale("EXRQUY_CUTOFF_MS", 4000);

  std::printf(
      "Figure 12 — speedup of order-indifferent evaluation on XMark\n"
      "(100%% = twice as fast; '-' = baseline over cutoff at the previous "
      "size, as in the paper's 30s cutoff)\n\n");

  struct Cell {
    bool run = false;  // false: baseline over cutoff at a smaller scale
    double speedup = 0;
  };
  std::vector<std::vector<Cell>> table(
      XMarkQueries().size(), std::vector<Cell>(scales.size()));
  std::vector<size_t> doc_bytes(scales.size());
  std::vector<bool> skip(XMarkQueries().size(), false);

  for (size_t s = 0; s < scales.size(); ++s) {
    auto session = bench::MakeXMarkSession(scales[s], &doc_bytes[s]);
    for (size_t q = 0; q < XMarkQueries().size(); ++q) {
      if (skip[q]) continue;
      const XMarkQuery& query = XMarkQueries()[q];
      double base =
          bench::MedianExecMs(session.get(), query.text, Baseline(), 3);
      double enabled =
          bench::MedianExecMs(session.get(), query.text, Enabled(), 3);
      table[q][s].run = true;
      table[q][s].speedup =
          enabled > 0 ? 100.0 * (base / enabled - 1.0) : 0.0;
      if (base > cutoff_ms) skip[q] = true;
    }
  }

  std::printf("%-6s", "query");
  for (size_t s = 0; s < scales.size(); ++s) {
    std::printf("  %9zuKB", doc_bytes[s] / 1024);
  }
  std::printf("\n");
  for (size_t q = 0; q < XMarkQueries().size(); ++q) {
    std::printf("%-6s", XMarkQueries()[q].name.c_str());
    for (size_t s = 0; s < scales.size(); ++s) {
      if (!table[q][s].run) {
        std::printf("  %11s", "-");
      } else {
        std::printf("  %9.0f %%", table[q][s].speedup);
      }
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected shape (paper): speedups from ~0%% to >10,000%%, with\n"
      "exceptional Q6/Q7 due to the merged descendant step.\n");
}

}  // namespace
}  // namespace exrquy

int main() {
  exrquy::Run();
  return 0;
}
