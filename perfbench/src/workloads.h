// The benchmark's workloads and one run of each. See perfbench/README.md
// for why each workload exists and which metrics each layer should move.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "gate.h"

namespace perfbench {

// The seed whose results digests.inc records; also the XMark generator's
// own default.
constexpr uint64_t kDefaultSeed = 42;

struct WorkloadSpec {
  std::string name;
  double scale = 0;     // XMark scale factor
  int threads = 1;      // engine threads per request
  bool service = false;  // QueryService driven by concurrent clients
  // Oracle of the correctness gate when no recorded digests apply.
  Oracle oracle = Oracle::kParallelSession;
  // Whether digests.inc holds this workload's default-seed results.
  bool recorded = false;
};

const std::vector<WorkloadSpec>& Workloads();

struct RunConfig {
  WorkloadSpec spec;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string git_describe = "unknown";
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Run metadata, values already JSON-encoded.
  std::vector<std::pair<std::string, std::string>> meta;
  // Human-readable lines printed before the result.
  std::vector<std::string> notes;
};

// One run: generate the document, gate correctness, set up, then measure
// the end-to-end metrics (trace off) or the per-layer metrics (trace on)
// for config.seconds.
RunReport RunWorkload(const RunConfig& config);

// Prints digests.inc lines: the parallel-session oracle's digests for the
// workload at config.seed and the workload's scale.
int RecordDigests(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
