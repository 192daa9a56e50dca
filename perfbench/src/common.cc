#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "xmark/queries.h"

namespace perfbench {

using exrquy::OrderingMode;

std::string Pair::Label() const {
  return query + (mode == OrderingMode::kOrdered ? "/ordered" : "/unordered");
}

bool Pair::Multiset() const {
  return mode == OrderingMode::kUnordered || query == "Q10";
}

std::vector<Pair> AllPairs() {
  std::vector<Pair> pairs;
  for (const exrquy::XMarkQuery& q : exrquy::XMarkQueries()) {
    for (OrderingMode mode :
         {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
      pairs.push_back(Pair{q.name, &q.text, mode});
    }
  }
  return pairs;
}

exrquy::QueryOptions OptionsFor(const Pair& pair, int threads) {
  exrquy::QueryOptions o;
  o.default_ordering = pair.mode;
  o.num_threads = threads;
  return o;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<size_t> Shuffled(size_t n, Rng* rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng->Next() % i]);
  }
  return order;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

uint64_t Digest(std::vector<std::string> items, bool multiset) {
  if (multiset) std::sort(items.begin(), items.end());
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 0x100000001b3ULL;
  };
  for (const std::string& item : items) {
    for (char c : item) mix(static_cast<unsigned char>(c));
    mix(0x1f);  // item separator: ("ab") and ("a", "b") differ
  }
  return h;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

}  // namespace perfbench
