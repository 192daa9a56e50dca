// Shared helpers for the experiment benches: session setup over generated
// XMark instances, repeated-timing, and the two experimental
// configurations of Section 5.
#ifndef EXRQUY_BENCH_BENCH_UTIL_H_
#define EXRQUY_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace exrquy {
namespace bench {

// Baseline of Section 5: the compiler ignores order indifference.
inline QueryOptions Baseline() {
  QueryOptions o;
  o.enable_order_indifference = false;
  return o;
}

// Order indifference enabled: declare ordering unordered plus the
// normalization rules, # rules, CDA and the property rewrites.
inline QueryOptions Enabled() {
  QueryOptions o;
  o.enable_order_indifference = true;
  o.default_ordering = OrderingMode::kUnordered;
  return o;
}

inline std::unique_ptr<Session> MakeXMarkSession(double scale,
                                                 size_t* doc_bytes) {
  XMarkOptions options;
  options.scale = scale;
  std::string xml = GenerateXMark(options);
  if (doc_bytes != nullptr) *doc_bytes = xml.size();
  auto session = std::make_unique<Session>();
  Status st = session->LoadDocument("auction.xml", xml);
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return session;
}

// Median execution wall clock over `runs` executions; a failed query
// exits the bench with status 1. Also reports the result through *result
// when non-null.
inline double MedianExecMs(Session* session, const std::string& query,
                           const QueryOptions& options, int runs,
                           QueryResult* result = nullptr) {
  std::vector<double> times;
  for (int i = 0; i < runs; ++i) {
    Result<QueryResult> r = session->Execute(query, options);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    times.push_back(r->execute_ms);
    if (result != nullptr && i == 0) *result = std::move(r).value();
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

inline double EnvScale(const char* name, double fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup at startup
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}

}  // namespace bench
}  // namespace exrquy

#endif  // EXRQUY_BENCH_BENCH_UTIL_H_
