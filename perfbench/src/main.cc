// xbench: the repository benchmark's measuring program. perfbench/run.py
// builds and runs it; see perfbench/README.md.
//
//   xbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          [--scale <x>] [--git-describe <text>]
//   xbench --workload <name> --record-digests
//
// Prints human-readable lines, a "# meta" line, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// any result is wrong or any request fails, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "xbench: %s\nusage: xbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <x>] "
               "[--git-describe <text>] [--record-digests]\n",
               why);
  return 2;
}

bool ParseDouble(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0' && std::isfinite(*out);
}

bool ParseU64(const std::string& s, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return !s.empty() && s[0] != '-' && *end == '\0';
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string workload;
  double scale = 0;
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--record-digests") {
      record = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    uint64_t trace = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &config.seed)) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!ParseDouble(value, &config.seconds) || config.seconds <= 0) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (!ParseU64(value, &trace) || trace > 1) return Usage("bad --trace");
      config.trace = trace == 1;
    } else if (flag == "--scale") {
      if (!ParseDouble(value, &scale) || scale <= 0) {
        return Usage("bad --scale");
      }
    } else if (flag == "--git-describe") {
      config.git_describe = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == workload) spec = &w;
  }
  if (spec == nullptr) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  config.spec = *spec;
  if (scale > 0 && scale != spec->scale) {
    // Digests are recorded at the workload's own scale only.
    config.spec.scale = scale;
    config.spec.recorded = false;
  }
  if (record) return RecordDigests(config);

  RunReport report = RunWorkload(config);
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::string meta;
  for (const auto& [key, json] : report.meta) {
    meta += (meta.empty() ? "{\"" : ", \"") + key + "\": " + json;
  }
  std::printf("# meta %s}\n", meta.c_str());
  for (const Metric& m : report.metrics) {
    std::printf("# %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return report.correct && report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
