// Shared pieces of the repository benchmark: the (query, mode) pairs every
// workload runs, the seeded request order, order statistics, result
// digests, and the metric list the run prints.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "api/session.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// One of the 40 requests of a workload: an XMark query under a default
// ordering mode.
struct Pair {
  std::string query;  // "Q1" .. "Q20"
  const std::string* text = nullptr;
  exrquy::OrderingMode mode = exrquy::OrderingMode::kOrdered;

  std::string Label() const;
  // Ordered results compare item for item, except Q10, whose
  // distinct-values order is implementation-defined; unordered results
  // compare as item multisets.
  bool Multiset() const;
};

// The 20 XMark queries x {ordered, unordered}, query-major.
std::vector<Pair> AllPairs();

// The options a workload issues a pair with: library defaults, except
// the default ordering mode and the engine thread count.
exrquy::QueryOptions OptionsFor(const Pair& pair, int threads);

// splitmix64: drives the request shuffles from the workload seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();

 private:
  uint64_t state_;
};

// A Fisher-Yates permutation of 0..n-1.
std::vector<size_t> Shuffled(size_t n, Rng* rng);

double Median(std::vector<double> v);
// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);
double GeoMean(const std::vector<double>& v);

// FNV-1a over the rendered items, sorted first when `multiset`.
uint64_t Digest(std::vector<std::string> items, bool multiset);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Peak resident set of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
