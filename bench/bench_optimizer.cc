// Optimizer analysis cost: the per-domain cost of the dataflow analyses
// (opt/analyses.h) and of the whole rewrite pipeline with and without
// the fact-driven rewrites and certification.
//
// `framework_us` is column liveness plus constant/arbitrary columns;
// `new_facts_us` the key, cardinality, error-capability and order-
// provenance domains. The semantic-type and order-dependency columns
// isolate the marginal cost of the two order-reasoning domains on top
// of warmed prerequisites, and the surviving-% columns record the
// quantity the whole exercise is about: how many blocking sorts remain
// in the fully optimized plans, per ordering mode. Each per-domain column
// runs its repetitions back to back after one untimed pass, so that no
// column's time depends on the other columns' work.
//
// `certify_us` is the median of paired certify-on/off planning
// differences, with the interquartile range of those differences in
// `certify_iqr_us`. When that range spans zero the cost is below what the
// host's noise resolves: the query's `certify_us` is null (printed
// `unresolved`). The totals sum every query's median.
//
//   { "bench": "optimizer",
//     "queries": [ {"name": "Q1", "ops": N, "framework_us": t,
//                   "new_facts_us": t, "semtype_us": t, "orderdep_us": t,
//                   "plan_all_rewrites_ms": t, "plan_old_rewrites_ms": t,
//                   "plan_no_certify_ms": t, "certify_us": t | null,
//                   "certify_iqr_us": [q1, q3],
//                   "rownum_ordered": n, "rownum_unordered": n},
//                  ... ],
//     "totals": { "framework_us": t, ... },
//     "machine": { "cpu": "...", "hardware_concurrency": n } }
//
// Output: BENCH_optimizer.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "algebra/stats.h"
#include "bench/bench_util.h"
#include "opt/analyses.h"

namespace exrquy {
namespace {

using Clock = std::chrono::steady_clock;

double UsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

// Nearest-rank quantile, 0 < q <= 1.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// Runs `work` once untimed, then `reps` times timed; returns the median
// µs.
template <typename Work>
double ColumnUs(int reps, const Work& work) {
  work();
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    Clock::time_point t0 = Clock::now();
    work();
    us.push_back(UsSince(t0));
  }
  return Median(us);
}

// The CPU model from /proc/cpuinfo ("unknown" where there is none).
std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    size_t start = line.find_first_not_of(' ', colon + 1);
    if (start != std::string::npos) return line.substr(start);
  }
  return "unknown";
}

ColSet RootSeed(const Dag& dag, OpId root) {
  ColSet seed;
  for (ColId c : {col::iter(), col::pos(), col::item()}) {
    if (dag.op(root).HasCol(c)) seed.insert(c);
  }
  return seed;
}

struct Row {
  std::string name;
  size_t ops = 0;
  double framework_us = 0;
  double new_facts_us = 0;
  double semtype_us = 0;
  double orderdep_us = 0;
  double plan_all_ms = 0;
  double plan_old_ms = 0;
  double plan_nocert_ms = 0;
  double certify_us = 0;
  double certify_q1_us = 0;
  double certify_q3_us = 0;
  size_t rownum_ordered = 0;
  size_t rownum_unordered = 0;
};

void Run() {
  auto session = bench::MakeXMarkSession(0.004, nullptr);
  QueryOptions enabled = bench::Enabled();
  QueryOptions old_rewrites = enabled;
  old_rewrites.distinct_by_keys = false;
  old_rewrites.empty_short_circuit = false;
  old_rewrites.rownum_by_keys = false;
  old_rewrites.rownum_by_od = false;
  // Certificate emission + validation cost: `enabled` plans in the
  // default checking mode, `no_certify` turns the whole machinery off.
  // The delta is what translation validation adds to planning.
  QueryOptions certified = enabled;
  certified.certify.mode = CertifyMode::kCheck;
  QueryOptions no_certify = enabled;
  no_certify.certify.mode = CertifyMode::kOff;

  const int kAnalysisReps = 40;
  const int kPlanReps = 9;
  std::vector<Row> rows;

  for (const XMarkQuery& query : XMarkQueries()) {
    Result<QueryPlans> plans = session->Plan(query.text, enabled);
    if (!plans.ok()) {
      std::fprintf(stderr, "%s: %s\n", query.name.c_str(),
                   plans.status().ToString().c_str());
      continue;
    }
    const Dag& dag = *plans->dag;
    OpId root = plans->initial;
    std::vector<OpId> reachable = dag.ReachableFrom(root);
    ColSet seed = RootSeed(dag, root);

    Row row;
    row.name = query.name;
    row.ops = reachable.size();

    row.framework_us = ColumnUs(kAnalysisReps, [&] {
      (void)ComputeICols(dag, root, seed);
      PropertyTracker fp(&dag);
      for (OpId id : reachable) (void)fp.Get(id);
    });
    row.new_facts_us = ColumnUs(kAnalysisReps, [&] {
      CardTracker cards(&dag);
      KeyTracker keys(&dag, {&cards});
      RaiseTracker raise(&dag, {&cards});
      for (OpId id : reachable) {
        (void)cards.Get(id);
        (void)keys.Get(id);
        (void)raise.Get(id);
      }
      (void)ComputeOrderProvenance(dag, root, seed, nullptr);
    });

    // The order-reasoning domains, each timed on top of warmed
    // prerequisites so the column is the domain's marginal cost, not
    // a re-measurement of the facts it consumes.
    PropertyTracker oprops(&dag);
    CardTracker ocards(&dag);
    KeyTracker okeys(&dag, {&ocards});
    SemTypeTracker sem(&dag, {&ocards});
    for (OpId id : reachable) {
      (void)oprops.Get(id);
      (void)ocards.Get(id);
      (void)okeys.Get(id);
      (void)sem.Get(id);
    }
    row.semtype_us = ColumnUs(kAnalysisReps, [&] {
      SemTypeTracker fresh_sem(&dag, {&ocards});
      for (OpId id : reachable) (void)fresh_sem.Get(id);
    });
    row.orderdep_us = ColumnUs(kAnalysisReps, [&] {
      OrderTracker od(&dag, {&oprops, &ocards, &okeys, &sem});
      for (OpId id : reachable) (void)od.Get(id);
    });

    // Surviving % in the fully optimized plans, both ordering modes —
    // the corpus-wide ordered total is the number the order-dependency
    // trades push down (tests/test_plan_shapes.cc pins it).
    QueryOptions ordered;  // exploit on, mode ordered
    Result<QueryPlans> po = session->Plan(query.text, ordered);
    if (po.ok()) {
      row.rownum_ordered =
          CollectPlanStats(*po->dag, po->optimized).rownum_ops;
    }
    Result<QueryPlans> pu = session->Plan(query.text, enabled);
    if (pu.ok()) {
      row.rownum_unordered =
          CollectPlanStats(*pu->dag, pu->optimized).rownum_ops;
    }

    // The certify-on and certify-off plans run back to back in each
    // iteration (in alternating order), and certify_us is the median of
    // those paired differences: a difference of two medians taken from
    // different moments of a noisy host can come out negative.
    std::vector<double> all_ms, old_ms, nocert_ms, cert_delta_us;
    for (int i = 0; i < kPlanReps; ++i) {
      Clock::time_point t0 = Clock::now();
      (void)session->Plan(query.text, enabled);
      all_ms.push_back(UsSince(t0) / 1000.0);
      t0 = Clock::now();
      (void)session->Plan(query.text, old_rewrites);
      old_ms.push_back(UsSince(t0) / 1000.0);
      // Alternate which of the pair runs first.
      double cert_us = 0;
      double nocert_us = 0;
      for (int k = 0; k < 2; ++k) {
        bool cert = (k == 0) == (i % 2 == 0);
        t0 = Clock::now();
        (void)session->Plan(query.text, cert ? certified : no_certify);
        (cert ? cert_us : nocert_us) = UsSince(t0);
      }
      nocert_ms.push_back(nocert_us / 1000.0);
      cert_delta_us.push_back(cert_us - nocert_us);
    }
    row.plan_all_ms = Median(all_ms);
    row.plan_old_ms = Median(old_ms);
    row.plan_nocert_ms = Median(nocert_ms);
    row.certify_us = Median(cert_delta_us);
    row.certify_q1_us = Quantile(cert_delta_us, 0.25);
    row.certify_q3_us = Quantile(cert_delta_us, 0.75);
    rows.push_back(row);
  }

  std::printf(
      "Optimizer analysis cost — per domain and per plan\n\n");
  std::printf("%-6s %5s %13s %13s %11s %11s %10s %10s %10s %6s %6s\n",
              "query", "ops", "framework_us", "new_facts_us",
              "semtype_us", "orderdep_us", "plan_all", "plan_old",
              "certify_us", "%ord", "%unord");
  // A certify_us whose paired differences' IQR spans zero is unresolved:
  // printed as such, written as null.
  auto certify_text = [](const Row& r, const char* unresolved) {
    if (r.certify_q1_us <= 0 && r.certify_q3_us >= 0) {
      return std::string(unresolved);
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", r.certify_us);
    return std::string(buf);
  };
  Row total;
  for (const Row& r : rows) {
    std::printf(
        "%-6s %5zu %13.1f %13.1f %11.1f %11.1f %9.2fms %9.2fms "
        "%10s %6zu %6zu\n",
        r.name.c_str(), r.ops, r.framework_us, r.new_facts_us,
        r.semtype_us, r.orderdep_us, r.plan_all_ms, r.plan_old_ms,
        certify_text(r, "unresolved").c_str(), r.rownum_ordered,
        r.rownum_unordered);
    total.ops += r.ops;
    total.framework_us += r.framework_us;
    total.new_facts_us += r.new_facts_us;
    total.semtype_us += r.semtype_us;
    total.orderdep_us += r.orderdep_us;
    total.plan_all_ms += r.plan_all_ms;
    total.plan_old_ms += r.plan_old_ms;
    total.plan_nocert_ms += r.plan_nocert_ms;
    total.certify_us += r.certify_us;
    total.rownum_ordered += r.rownum_ordered;
    total.rownum_unordered += r.rownum_unordered;
  }
  std::printf(
      "%-6s %5zu %13.1f %13.1f %11.1f %11.1f %9.2fms %9.2fms "
      "%10.1f %6zu %6zu\n",
      "total", total.ops, total.framework_us,
      total.new_facts_us, total.semtype_us, total.orderdep_us,
      total.plan_all_ms, total.plan_old_ms, total.certify_us,
      total.rownum_ordered, total.rownum_unordered);
  std::printf("certification overhead: %.1f%% of certificate-free planning\n",
              total.plan_nocert_ms > 0
                  ? 100.0 * (total.certify_us / 1000.0) / total.plan_nocert_ms
                  : 0.0);

  FILE* f = std::fopen("BENCH_optimizer.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{ \"bench\": \"optimizer\",\n  \"queries\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ops\": %zu, "
                 "\"framework_us\": %.1f, \"new_facts_us\": %.1f, "
                 "\"semtype_us\": %.1f, \"orderdep_us\": %.1f, "
                 "\"plan_all_rewrites_ms\": %.3f, "
                 "\"plan_old_rewrites_ms\": %.3f, "
                 "\"plan_no_certify_ms\": %.3f, \"certify_us\": %s, "
                 "\"certify_iqr_us\": [%.1f, %.1f], "
                 "\"rownum_ordered\": %zu, \"rownum_unordered\": %zu}%s\n",
                 r.name.c_str(), r.ops, r.framework_us,
                 r.new_facts_us, r.semtype_us, r.orderdep_us, r.plan_all_ms,
                 r.plan_old_ms, r.plan_nocert_ms,
                 certify_text(r, "null").c_str(),
                 r.certify_q1_us, r.certify_q3_us,
                 r.rownum_ordered, r.rownum_unordered,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"totals\": {\"ops\": %zu, "
               "\"framework_us\": %.1f, \"new_facts_us\": %.1f, "
               "\"semtype_us\": %.1f, \"orderdep_us\": %.1f, "
               "\"plan_all_rewrites_ms\": %.3f, "
               "\"plan_old_rewrites_ms\": %.3f, "
               "\"plan_no_certify_ms\": %.3f, \"certify_us\": %.1f, "
               "\"rownum_ordered\": %zu, \"rownum_unordered\": %zu},\n"
               "  \"machine\": {\"cpu\": \"%s\", "
               "\"hardware_concurrency\": %u}\n}\n",
               total.ops, total.framework_us,
               total.new_facts_us, total.semtype_us, total.orderdep_us,
               total.plan_all_ms, total.plan_old_ms, total.plan_nocert_ms,
               total.certify_us, total.rownum_ordered,
               total.rownum_unordered, CpuModel().c_str(),
               std::thread::hardware_concurrency());
  std::fclose(f);
  std::printf("\nwritten to BENCH_optimizer.json\n");
}

}  // namespace
}  // namespace exrquy

int main() {
  exrquy::Run();
  return 0;
}
