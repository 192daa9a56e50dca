// Overload experiment for the admission-controlled query service
// (api/service.h): offered load at 1x, 4x and 16x the worker count,
// with the resilience layer on (bounded queue + queue timeout) and off
// (unbounded blocking queue, the pre-admission behavior). For each cell:
// completed throughput, shed rate, and p50/p99 end-to-end latency from
// the service's own histogram — the numbers that show shedding is what
// keeps tail latency flat when the arrival rate exceeds capacity. Every
// cell runs kRuns times on a fresh service; each figure is reported as
// the median of its runs with their minimum and maximum as the spread.
// Dumped as a table and as BENCH_overload.json:
//
//   { "bench": "overload",
//     "scale": s, "doc_bytes": N, "workers": W, "duration_ms": D,
//     "runs": R, "hardware_concurrency": H,
//     "loads": [ {"multiplier": m, "clients": c,
//                 "resilient": {"shed_rate": F, "throughput_qps": F,
//                               "p50_us": F, "p99_us": F},
//                 "unbounded": { ... same ... }}, ... ] }
//
// where each F is {"median": x, "min": x, "max": x}.
//
// EXRQUY_BENCH_SCALE overrides the document scale;
// EXRQUY_BENCH_WORKERS the worker-slot count (default 2);
// EXRQUY_BENCH_DURATION_MS the per-run wall clock (default 1000).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "bench/bench_util.h"

namespace exrquy {
namespace {

using Clock = std::chrono::steady_clock;

struct CellResult {
  uint64_t ok = 0;
  uint64_t shed = 0;
  double elapsed_ms = 0;
  double p50_us = 0;
  double p99_us = 0;

  double shed_rate() const {
    uint64_t total = ok + shed;
    return total == 0 ? 0 : static_cast<double>(shed) /
                                static_cast<double>(total);
  }
  double throughput_qps() const {
    return elapsed_ms <= 0 ? 0 : 1000.0 * static_cast<double>(ok) /
                                     elapsed_ms;
  }
};

CellResult RunCell(const std::string& xml, size_t workers, size_t clients,
                   bool resilient, int64_t duration_ms) {
  ServiceConfig config;
  config.workers = workers;
  config.plan_cache = 1;
  config.result_cache_bytes = 0;  // every request exercises a worker
  if (resilient) {
    config.max_queue_depth = static_cast<int64_t>(2 * workers);
    config.queue_timeout_ms = 50;
  } else {
    // Pre-admission behavior: an effectively unbounded queue, block
    // however long it takes.
    config.max_queue_depth = int64_t{1} << 40;
    config.queue_timeout_ms = 0;
  }
  QueryService service(config);
  if (!service.LoadDocument("auction.xml", xml).ok()) {
    std::fprintf(stderr, "load failed\n");
    std::exit(1);
  }
  const std::string query = XMarkQueryText("Q1");
  // Warm the plan cache so the measurement window is execute-only.
  if (!service.Execute(query, {}).ok()) {
    std::fprintf(stderr, "warmup failed\n");
    std::exit(1);
  }

  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> errors{0};
  Clock::time_point t0 = Clock::now();
  Clock::time_point t_end = t0 + std::chrono::milliseconds(duration_ms);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      while (Clock::now() < t_end) {
        Result<ServiceResult> r = service.Execute(query, {});
        if (r.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else if (r.status().code() == StatusCode::kUnavailable) {
          shed.fetch_add(1, std::memory_order_relaxed);
          // A shed response tells the client to come back later; retry
          // after a beat, like a well-behaved caller, instead of
          // spinning on the admission gate.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - t0)
                          .count();
  if (errors.load() != 0) {
    std::fprintf(stderr, "unexpected non-shed errors: %llu\n",
                 static_cast<unsigned long long>(errors.load()));
    std::exit(1);
  }

  CellResult cell;
  cell.ok = ok.load();
  cell.shed = shed.load();
  cell.elapsed_ms = elapsed_ms;
  LatencyHistogram lat = service.counters().latency_us;
  cell.p50_us = lat.PercentileUs(50);
  cell.p99_us = lat.PercentileUs(99);
  return cell;
}

// Median, minimum and maximum of one figure over a cell's runs.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

template <typename Fn>
Spread SpreadOf(const std::vector<CellResult>& runs, const Fn& figure) {
  std::vector<double> v;
  for (const CellResult& r : runs) v.push_back(figure(r));
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  double median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  return Spread{median, v.front(), v.back()};
}

void Run() {
  double scale = bench::EnvScale("EXRQUY_BENCH_SCALE", 0.008);
  size_t workers =
      static_cast<size_t>(bench::EnvScale("EXRQUY_BENCH_WORKERS", 2));
  int64_t duration_ms = static_cast<int64_t>(
      bench::EnvScale("EXRQUY_BENCH_DURATION_MS", 1000));
  constexpr size_t kRuns = 5;
  XMarkOptions xmark;
  xmark.scale = scale;
  std::string xml = GenerateXMark(xmark);

  std::printf(
      "Overload — XMark Q1, %.3f scale (%zu KB), %zu worker(s), "
      "%lld ms/run, %zu runs/cell (median [min, max])\n\n",
      scale, xml.size() / 1024, workers, static_cast<long long>(duration_ms),
      kRuns);
  std::printf("%-5s %-8s %-11s %22s %22s %22s %22s\n", "load", "clients",
              "mode", "qps", "shed%", "p50 us", "p99 us");

  const size_t kMultipliers[] = {1, 4, 16};
  struct LoadRow {
    size_t multiplier;
    size_t clients;
    std::vector<CellResult> resilient;
    std::vector<CellResult> unbounded;
  };
  auto qps = [](const CellResult& c) { return c.throughput_qps(); };
  auto shed = [](const CellResult& c) { return c.shed_rate(); };
  auto p50 = [](const CellResult& c) { return c.p50_us; };
  auto p99 = [](const CellResult& c) { return c.p99_us; };
  std::vector<LoadRow> rows;
  for (size_t m : kMultipliers) {
    LoadRow row;
    row.multiplier = m;
    row.clients = m * workers;
    // Runs alternate between the two modes so slow phases of the host
    // land on both alike.
    for (size_t r = 0; r < kRuns; ++r) {
      for (bool resilient : {true, false}) {
        (resilient ? row.resilient : row.unbounded)
            .push_back(
                RunCell(xml, workers, row.clients, resilient, duration_ms));
      }
    }
    for (bool resilient : {true, false}) {
      const std::vector<CellResult>& cell =
          resilient ? row.resilient : row.unbounded;
      auto col = [&](auto figure, double scale_by) {
        Spread s = SpreadOf(cell, figure);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.0f [%.0f, %.0f]",
                      scale_by * s.median, scale_by * s.min,
                      scale_by * s.max);
        return std::string(buf);
      };
      std::printf("%-5zu %-8zu %-11s %22s %22s %22s %22s\n", m, row.clients,
                  resilient ? "resilient" : "unbounded", col(qps, 1).c_str(),
                  col(shed, 100).c_str(), col(p50, 1).c_str(),
                  col(p99, 1).c_str());
    }
    rows.push_back(std::move(row));
  }

  std::FILE* out = std::fopen("BENCH_overload.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_overload.json\n");
    std::exit(1);
  }
  std::fprintf(out,
               "{\n  \"bench\": \"overload\",\n"
               "  \"scale\": %.4f,\n  \"doc_bytes\": %zu,\n"
               "  \"workers\": %zu,\n  \"duration_ms\": %lld,\n"
               "  \"runs\": %zu,\n  \"hardware_concurrency\": %u,\n"
               "  \"loads\": [\n",
               scale, xml.size(), workers,
               static_cast<long long>(duration_ms), kRuns,
               std::thread::hardware_concurrency());
  auto emit_cell = [&](const char* name, const std::vector<CellResult>& cell,
                       const char* trailer) {
    auto field = [&](const char* key, Spread s, int digits, const char* sep) {
      std::fprintf(out, "\"%s\": {\"median\": %.*f, \"min\": %.*f, "
                   "\"max\": %.*f}%s",
                   key, digits, s.median, digits, s.min, digits, s.max, sep);
    };
    std::fprintf(out, "      \"%s\": {", name);
    field("shed_rate", SpreadOf(cell, shed), 4, ",\n        ");
    field("throughput_qps", SpreadOf(cell, qps), 1, ",\n        ");
    field("p50_us", SpreadOf(cell, p50), 0, ",\n        ");
    field("p99_us", SpreadOf(cell, p99), 0, "");
    std::fprintf(out, "}%s\n", trailer);
  };
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "    {\"multiplier\": %zu, \"clients\": %zu,\n",
                 rows[i].multiplier, rows[i].clients);
    emit_cell("resilient", rows[i].resilient, ",");
    emit_cell("unbounded", rows[i].unbounded, "");
    std::fprintf(out, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_overload.json\n");
}

}  // namespace
}  // namespace exrquy

int main() {
  exrquy::Run();
  return 0;
}
