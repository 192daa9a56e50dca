// Join-recognition experiment over the join-shaped XMark queries
// (Q8-Q12): cold and warm wall clock with join_recognition off and on,
// in both ordering modes, plus the recognized joins' build/probe/output
// row counts from the execution profile. Dumped as a table and as
// BENCH_join.json:
//
//   { "bench": "join_recognition",
//     "scale": s, "doc_bytes": N,
//     "queries": [ {"name": "Q8",
//                   "ordered":   {"off_warm_ms": t, "on_cold_ms": t,
//                                 "on_warm_ms": t, "speedup": x},
//                   "unordered": {...},
//                   "joins": [ {"kind": "ValueJoin", "build_rows": n,
//                               "probe_rows": n, "out_rows": n}, ... ]},
//                  ... ],
//     "geomean_warm_speedup_ordered": x,
//     "geomean_warm_speedup_unordered": x }
//
// Every off/on pair re-checks result equality inline — byte-identical
// serializations ordered, equal item multisets unordered; a speedup
// that changed the answer would be no speedup at all.
//
// EXRQUY_BENCH_SCALE overrides the document scale (default 0.008 — the
// retired product-space plans are cubic in it, and Q9's off
// configuration alone is seconds per run already at this size).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "opt/verify.h"

namespace exrquy {
namespace {

const char* kQueries[] = {"Q8", "Q9", "Q10", "Q11", "Q12"};

struct JoinRow {
  const char* kind;
  size_t build_rows;
  size_t probe_rows;
  size_t out_rows;
};

struct ModeRow {
  double off_warm_ms = -1;
  double on_cold_ms = -1;
  double on_warm_ms = -1;
};

// The recognized joins of the executed plan, with their input/output
// row counts from the profile. Plan compilation is deterministic, so
// the planned dag's op ids match the profiled execution's.
std::vector<JoinRow> ProfileJoins(Session* session, const std::string& text,
                                  const QueryOptions& options,
                                  const Profile& profile) {
  std::vector<JoinRow> joins;
  Result<QueryPlans> plans = session->Plan(text, options);
  if (!plans.ok()) return joins;
  std::map<OpId, size_t> out_rows;
  for (const Profile::OpMetrics& m : profile.ops()) {
    out_rows[m.op] = m.out_rows;
  }
  for (OpId id : plans->dag->ReachableFrom(plans->optimized)) {
    const Op& op = plans->dag->op(id);
    bool theta = op.kind == OpKind::kThetaJoin;
    bool value = op.kind == OpKind::kEquiJoin && op.value_join;
    if (!theta && !value) continue;
    size_t l = out_rows.count(op.children[0]) != 0
                   ? out_rows[op.children[0]]
                   : 0;
    size_t r = out_rows.count(op.children[1]) != 0
                   ? out_rows[op.children[1]]
                   : 0;
    size_t out = out_rows.count(id) != 0 ? out_rows[id] : 0;
    // The theta kernel probes its left (larger) input; the hash join
    // builds on whichever side is smaller.
    size_t build = theta ? r : std::min(l, r);
    size_t probe = theta ? l : std::max(l, r);
    joins.push_back({theta ? "ThetaJoin" : "ValueJoin", build, probe, out});
  }
  return joins;
}

void Run() {
  double scale = bench::EnvScale("EXRQUY_BENCH_SCALE", 0.008);
  size_t doc_bytes = 0;
  std::unique_ptr<Session> session =
      bench::MakeXMarkSession(scale, &doc_bytes);

  std::printf("Join recognition — XMark, %.3f scale (%zu KB)\n\n", scale,
              doc_bytes / 1024);
  std::printf("%-5s %-9s  %12s  %10s  %10s  %8s\n", "query", "mode",
              "off warm ms", "on cold ms", "on warm ms", "speedup");

  struct Row {
    const char* name;
    ModeRow ordered;
    ModeRow unordered;
    std::vector<JoinRow> joins;
  };
  std::vector<Row> rows;
  double log_speedup[2] = {0, 0};

  for (const char* name : kQueries) {
    const std::string& text = XMarkQueryText(name);
    Row row;
    row.name = name;
    for (OrderingMode mode :
         {OrderingMode::kOrdered, OrderingMode::kUnordered}) {
      bool ordered = mode == OrderingMode::kOrdered;
      QueryOptions on;
      on.default_ordering = mode;
      QueryOptions off = on;
      off.join_recognition = false;

      QueryResult off_result;
      double off_warm =
          bench::MedianExecMs(session.get(), text, off, 3, &off_result);
      QueryResult on_result;
      Result<QueryResult> cold = session->Execute(text, on);
      if (!cold.ok()) std::exit(1);
      double on_cold = cold->compile_ms + cold->execute_ms;
      double on_warm =
          bench::MedianExecMs(session.get(), text, on, 5, &on_result);

      // The optimization must never change the answer: byte-identical
      // ordered, the same item multiset unordered.
      if (ordered) {
        if (on_result.serialized != off_result.serialized) {
          std::fprintf(stderr, "%s: ordered results diverge off vs on\n",
                       name);
          std::exit(1);
        }
      } else {
        std::vector<std::string> a = on_result.items;
        std::vector<std::string> b = off_result.items;
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        if (a != b) {
          std::fprintf(stderr, "%s: unordered multisets diverge off vs on\n",
                       name);
          std::exit(1);
        }
      }

      ModeRow& m = ordered ? row.ordered : row.unordered;
      m.off_warm_ms = off_warm;
      m.on_cold_ms = on_cold;
      m.on_warm_ms = on_warm;
      log_speedup[ordered ? 0 : 1] +=
          std::log(off_warm / std::max(on_warm, 1e-3));
      std::printf("%-5s %-9s  %12.2f  %10.2f  %10.2f  %7.1fx\n", name,
                  ordered ? "ordered" : "unordered", off_warm, on_cold,
                  on_warm, off_warm / std::max(on_warm, 1e-3));

      if (ordered) {
        QueryOptions prof = on;
        prof.profile = true;
        Result<QueryResult> p = session->Execute(text, prof);
        if (!p.ok()) std::exit(1);
        row.joins = ProfileJoins(session.get(), text, on, p->profile);
      }
    }
    rows.push_back(std::move(row));
  }

  size_t n = rows.size();
  double geo_ordered = std::exp(log_speedup[0] / n);
  double geo_unordered = std::exp(log_speedup[1] / n);
  std::printf("\ngeomean warm speedup: ordered %.2fx, unordered %.2fx\n",
              geo_ordered, geo_unordered);

  std::FILE* out = std::fopen("BENCH_join.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_join.json\n");
    std::exit(1);
  }
  std::fprintf(out,
               "{\n  \"bench\": \"join_recognition\",\n"
               "  \"scale\": %.4f,\n  \"doc_bytes\": %zu,\n"
               "  \"queries\": [\n",
               scale, doc_bytes);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    auto mode_json = [&](const ModeRow& m) {
      std::fprintf(out,
                   "{\"off_warm_ms\": %.3f, \"on_cold_ms\": %.3f, "
                   "\"on_warm_ms\": %.3f, \"speedup\": %.2f}",
                   m.off_warm_ms, m.on_cold_ms, m.on_warm_ms,
                   m.off_warm_ms / std::max(m.on_warm_ms, 1e-3));
    };
    std::fprintf(out, "    {\"name\": \"%s\",\n     \"ordered\": ", r.name);
    mode_json(r.ordered);
    std::fprintf(out, ",\n     \"unordered\": ");
    mode_json(r.unordered);
    std::fprintf(out, ",\n     \"joins\": [");
    for (size_t j = 0; j < r.joins.size(); ++j) {
      std::fprintf(out,
                   "%s{\"kind\": \"%s\", \"build_rows\": %zu, "
                   "\"probe_rows\": %zu, \"out_rows\": %zu}",
                   j != 0 ? ", " : "", r.joins[j].kind, r.joins[j].build_rows,
                   r.joins[j].probe_rows, r.joins[j].out_rows);
    }
    std::fprintf(out, "]}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"geomean_warm_speedup_ordered\": %.3f,\n"
               "  \"geomean_warm_speedup_unordered\": %.3f\n}\n",
               geo_ordered, geo_unordered);
  std::fclose(out);
  std::printf("wrote BENCH_join.json\n");
}

}  // namespace
}  // namespace exrquy

int main() {
  exrquy::Run();
  return 0;
}
