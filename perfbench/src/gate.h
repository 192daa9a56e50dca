// The correctness gate: one reference digest per (query, mode) pair,
// computed before and outside every timed region. A run whose results
// disagree with it fails; it is not merely counted.
#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "common/status.h"

namespace perfbench {

enum class Oracle {
  kReferenceInterpreter,  // src/ref: an independent tree-walking evaluator
  kRecordedDigests,       // digests.inc, recorded for the default seed
  // A fresh Session at 4 engine threads and small morsels: a different
  // engine path from every workload's, whose bytes must nonetheless match.
  kParallelSession,
};

const char* OracleName(Oracle oracle);

// Reference digests of every pair over `xml`. kRecordedDigests looks
// `workload` up in the recorded table and fails when a pair is missing.
exrquy::Result<std::vector<uint64_t>> ReferenceDigests(
    Oracle oracle, const std::string& workload, const std::string& xml,
    const std::vector<Pair>& pairs);

// Prints the digests.inc lines for `workload`.
void PrintRecordedDigests(const std::string& workload,
                          const std::vector<Pair>& pairs,
                          const std::vector<uint64_t>& digests);

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H_
