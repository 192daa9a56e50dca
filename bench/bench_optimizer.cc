// Optimizer analysis cost: the dataflow framework (opt/analyses.h)
// versus the pre-framework one-shot walks it replaced, plus the cost of
// the new fact domains (keys / cardinality / error capability / order
// provenance) and of the whole rewrite pipeline with and without the
// fact-driven rewrites.
//
// The framework must be an overhead-free refactor for the migrated
// analyses: liveness and constant/arbitrary columns compute the same
// facts as verbatim local copies of the old code (kept below as the
// baseline), so `framework_us` vs `legacy_us` is an apples-to-apples
// walk of the same plans and should agree within noise.
//
// The per-domain columns isolate the marginal cost of the two
// order-reasoning domains (semantic types, order dependencies) on top
// of warmed prerequisites, and the surviving-% columns record the
// quantity the whole exercise is about: how many blocking sorts remain
// in the fully optimized plans, per ordering mode.
//
//   { "bench": "optimizer",
//     "queries": [ {"name": "Q1", "ops": N,
//                   "legacy_us": t, "framework_us": t,
//                   "new_facts_us": t, "semtype_us": t, "orderdep_us": t,
//                   "plan_all_rewrites_ms": t, "plan_old_rewrites_ms": t,
//                   "plan_no_certify_ms": t, "certify_us": t,
//                   "rownum_ordered": n, "rownum_unordered": n},
//                  ... ],
//     "totals": { "legacy_us": t, "framework_us": t, ... } }
//
// Output: BENCH_optimizer.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
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

// ---------------------------------------------------------------------------
// Verbatim local copies of the pre-framework one-shot analyses, kept as
// the timing baseline (the framework versions live in opt/analyses.cc).
// ---------------------------------------------------------------------------

std::unordered_map<OpId, ColSet> LegacyICols(const Dag& dag, OpId root,
                                             const ColSet& seed) {
  std::unordered_map<OpId, ColSet> icols;
  icols[root] = seed;
  std::vector<OpId> order = dag.ReachableFrom(root);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    OpId id = *it;
    const Op& op = dag.op(id);
    const ColSet& r = icols[id];
    auto need = [&](size_t child, ColId c) {
      if (c == kNoCol) return;
      icols[op.children[child]].insert(c);
    };
    auto need_set = [&](size_t child, const ColSet& cols) {
      const Op& ch = dag.op(op.children[child]);
      for (ColId c : cols) {
        if (ch.HasCol(c)) icols[op.children[child]].insert(c);
      }
    };
    switch (op.kind) {
      case OpKind::kLit:
      case OpKind::kDoc:
        break;
      case OpKind::kProject:
        for (const auto& [n, o] : op.proj) {
          if (r.count(n) != 0) need(0, o);
        }
        break;
      case OpKind::kSelect:
        need_set(0, r);
        need(0, op.col);
        break;
      case OpKind::kEquiJoin:
      case OpKind::kThetaJoin:
        need_set(0, r);
        need_set(1, r);
        need(0, op.col);
        need(1, op.col2);
        break;
      case OpKind::kCross:
      case OpKind::kUnion:
        need_set(0, r);
        need_set(1, r);
        break;
      case OpKind::kDifference:
      case OpKind::kSemiJoin:
        need_set(0, r);
        for (ColId k : op.keys) {
          need(0, k);
          need(1, k);
        }
        break;
      case OpKind::kDistinct:
        for (ColId c : dag.op(op.children[0]).schema) need(0, c);
        break;
      case OpKind::kRowNum: {
        ColSet pass = r;
        pass.erase(op.col);
        need_set(0, pass);
        for (const SortKey& k : op.order) need(0, k.col);
        need(0, op.part);
        break;
      }
      case OpKind::kRowId: {
        ColSet pass = r;
        pass.erase(op.col);
        need_set(0, pass);
        break;
      }
      case OpKind::kFun: {
        ColSet pass = r;
        pass.erase(op.col);
        need_set(0, pass);
        for (ColId a : op.args) need(0, a);
        break;
      }
      case OpKind::kAggr:
        need(0, op.col2);
        need(0, op.part);
        for (ColId k : op.keys) need(0, k);
        break;
      case OpKind::kThetaCount: {
        size_t g = ThetaCountGroupSide(dag, op);
        need(0, op.keys[0]);
        need(1, op.keys[1]);
        need(g, op.part);
        need(1 - g, op.col2);
        break;
      }
      case OpKind::kStep:
        need(0, col::iter());
        need(0, col::item());
        break;
      case OpKind::kElem:
      case OpKind::kAttr:
      case OpKind::kTextNode:
        need(0, col::iter());
        need(0, col::pos());
        need(0, col::item());
        need(1, col::iter());
        break;
      case OpKind::kRange:
        need(0, col::iter());
        need(0, op.col);
        need(0, op.col2);
        break;
      case OpKind::kCardCheck:
        need_set(0, r);
        need(0, col::iter());
        need(1, col::iter());
        break;
    }
  }
  return icols;
}

class LegacyProps {
 public:
  explicit LegacyProps(const Dag* dag) : dag_(dag) {}

  const ColProps& Get(OpId id) {
    auto it = memo_.find(id);
    if (it != memo_.end()) return it->second;
    ColProps props = Compute(id);
    return memo_.emplace(id, std::move(props)).first->second;
  }

 private:
  ColProps Compute(OpId id) {
    const Op& op = dag_->op(id);
    ColProps out;
    auto child = [&](size_t i) -> const ColProps& {
      return Get(op.children[i]);
    };
    auto inherit = [&](const ColProps& p) {
      for (ColId c : p.constant) {
        if (op.HasCol(c)) out.constant.insert(c);
      }
      for (ColId c : p.arbitrary) {
        if (op.HasCol(c)) out.arbitrary.insert(c);
      }
    };
    switch (op.kind) {
      case OpKind::kLit: {
        for (size_t i = 0; i < op.lit.cols.size(); ++i) {
          bool constant = true;
          for (size_t r = 1; r < op.lit.rows.size(); ++r) {
            if (!(op.lit.rows[r][i] == op.lit.rows[0][i])) {
              constant = false;
              break;
            }
          }
          if (constant) out.constant.insert(op.lit.cols[i]);
        }
        break;
      }
      case OpKind::kProject: {
        const ColProps& p = child(0);
        for (const auto& [n, o] : op.proj) {
          if (p.constant.count(o) != 0) out.constant.insert(n);
          if (p.arbitrary.count(o) != 0) out.arbitrary.insert(n);
        }
        break;
      }
      case OpKind::kSelect:
      case OpKind::kDistinct:
      case OpKind::kDifference:
      case OpKind::kSemiJoin:
      case OpKind::kCardCheck:
        inherit(child(0));
        break;
      case OpKind::kEquiJoin:
      case OpKind::kThetaJoin:
      case OpKind::kCross:
        inherit(child(0));
        inherit(child(1));
        break;
      case OpKind::kUnion: {
        const ColProps& a = child(0);
        const ColProps& b = child(1);
        for (ColId c : a.arbitrary) {
          if (b.arbitrary.count(c) != 0) out.arbitrary.insert(c);
        }
        break;
      }
      case OpKind::kRowNum:
        inherit(child(0));
        break;
      case OpKind::kRowId:
        inherit(child(0));
        out.arbitrary.insert(op.col);
        break;
      case OpKind::kFun: {
        inherit(child(0));
        out.constant.erase(op.col);
        out.arbitrary.erase(op.col);
        bool all_const = true;
        for (ColId a : op.args) {
          if (child(0).constant.count(a) == 0) all_const = false;
        }
        if (all_const) out.constant.insert(op.col);
        break;
      }
      case OpKind::kAggr:
      case OpKind::kThetaCount: {
        const ColProps& p = child(
            op.kind == OpKind::kAggr ? 0 : ThetaCountGroupSide(*dag_, op));
        if (op.part != kNoCol) {
          if (p.constant.count(op.part) != 0) out.constant.insert(op.part);
          if (p.arbitrary.count(op.part) != 0) out.arbitrary.insert(op.part);
        }
        break;
      }
      case OpKind::kRange:
      case OpKind::kStep:
      case OpKind::kElem:
      case OpKind::kAttr:
      case OpKind::kTextNode: {
        bool from_first =
            op.kind == OpKind::kStep || op.kind == OpKind::kRange;
        const ColProps& p = child(from_first ? 0 : 1);
        if (p.constant.count(col::iter()) != 0) {
          out.constant.insert(col::iter());
        }
        if (p.arbitrary.count(col::iter()) != 0) {
          out.arbitrary.insert(col::iter());
        }
        break;
      }
      case OpKind::kDoc:
        out.constant.insert(col::item());
        break;
    }
    return out;
  }

  const Dag* dag_;
  std::unordered_map<OpId, ColProps> memo_;
};

// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
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
  double legacy_us = 0;
  double framework_us = 0;
  double new_facts_us = 0;
  double semtype_us = 0;
  double orderdep_us = 0;
  double plan_all_ms = 0;
  double plan_old_ms = 0;
  double plan_nocert_ms = 0;
  double certify_us = 0;
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

    std::vector<double> legacy, framework, fresh, semtype, orderdep;
    for (int i = 0; i < kAnalysisReps; ++i) {
      Clock::time_point t0 = Clock::now();
      auto li = LegacyICols(dag, root, seed);
      LegacyProps lp(&dag);
      for (OpId id : reachable) (void)lp.Get(id);
      legacy.push_back(UsSince(t0));

      t0 = Clock::now();
      auto fi = ComputeICols(dag, root, seed);
      PropertyTracker fp(&dag);
      for (OpId id : reachable) (void)fp.Get(id);
      framework.push_back(UsSince(t0));

      // Sanity: same facts (the verifier audits this on every plan; the
      // bench re-checks so a drifted copy above can't silently skew the
      // baseline).
      for (OpId id : reachable) {
        if (li[id] != fi[id]) {
          std::fprintf(stderr, "%s: liveness mismatch!\n",
                       query.name.c_str());
          return;
        }
      }

      t0 = Clock::now();
      CardTracker cards(&dag);
      KeyTracker keys(&dag, &cards);
      RaiseTracker raise(&dag, &cards);
      for (OpId id : reachable) {
        (void)cards.Get(id);
        (void)keys.Get(id);
        (void)raise.Get(id);
      }
      (void)ComputeOrderProvenance(dag, root, seed, nullptr);
      fresh.push_back(UsSince(t0));

      // The order-reasoning domains, each timed on top of warmed
      // prerequisites so the column is the domain's marginal cost, not
      // a re-measurement of the facts it consumes.
      PropertyTracker oprops(&dag);
      CardTracker ocards(&dag);
      KeyTracker okeys(&dag, &ocards);
      for (OpId id : reachable) {
        (void)oprops.Get(id);
        (void)ocards.Get(id);
        (void)okeys.Get(id);
      }
      t0 = Clock::now();
      SemTypeTracker sem(&dag, &ocards);
      for (OpId id : reachable) (void)sem.Get(id);
      semtype.push_back(UsSince(t0));
      t0 = Clock::now();
      OrderTracker od(&dag, &oprops, &ocards, &okeys, &sem);
      for (OpId id : reachable) (void)od.Get(id);
      orderdep.push_back(UsSince(t0));
    }
    row.legacy_us = Median(legacy);
    row.framework_us = Median(framework);
    row.new_facts_us = Median(fresh);
    row.semtype_us = Median(semtype);
    row.orderdep_us = Median(orderdep);

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
    // iteration (in alternating order), and certify_us is the median of those paired
    // differences: a difference of two medians taken from different
    // moments of a noisy host can come out negative.
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
    rows.push_back(row);
  }

  std::printf(
      "Optimizer analysis cost — framework vs pre-framework walks\n\n");
  std::printf("%-6s %5s %11s %13s %13s %11s %11s %10s %10s %10s %6s %6s\n",
              "query", "ops", "legacy_us", "framework_us", "new_facts_us",
              "semtype_us", "orderdep_us", "plan_all", "plan_old",
              "certify_us", "%ord", "%unord");
  Row total;
  for (const Row& r : rows) {
    std::printf(
        "%-6s %5zu %11.1f %13.1f %13.1f %11.1f %11.1f %9.2fms %9.2fms "
        "%10.1f %6zu %6zu\n",
        r.name.c_str(), r.ops, r.legacy_us, r.framework_us, r.new_facts_us,
        r.semtype_us, r.orderdep_us, r.plan_all_ms, r.plan_old_ms,
        r.certify_us, r.rownum_ordered, r.rownum_unordered);
    total.ops += r.ops;
    total.legacy_us += r.legacy_us;
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
      "%-6s %5zu %11.1f %13.1f %13.1f %11.1f %11.1f %9.2fms %9.2fms "
      "%10.1f %6zu %6zu\n",
      "total", total.ops, total.legacy_us, total.framework_us,
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
                 "    {\"name\": \"%s\", \"ops\": %zu, \"legacy_us\": %.1f, "
                 "\"framework_us\": %.1f, \"new_facts_us\": %.1f, "
                 "\"semtype_us\": %.1f, \"orderdep_us\": %.1f, "
                 "\"plan_all_rewrites_ms\": %.3f, "
                 "\"plan_old_rewrites_ms\": %.3f, "
                 "\"plan_no_certify_ms\": %.3f, \"certify_us\": %.1f, "
                 "\"rownum_ordered\": %zu, \"rownum_unordered\": %zu}%s\n",
                 r.name.c_str(), r.ops, r.legacy_us, r.framework_us,
                 r.new_facts_us, r.semtype_us, r.orderdep_us, r.plan_all_ms,
                 r.plan_old_ms, r.plan_nocert_ms, r.certify_us,
                 r.rownum_ordered, r.rownum_unordered,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"totals\": {\"ops\": %zu, \"legacy_us\": %.1f, "
               "\"framework_us\": %.1f, \"new_facts_us\": %.1f, "
               "\"semtype_us\": %.1f, \"orderdep_us\": %.1f, "
               "\"plan_all_rewrites_ms\": %.3f, "
               "\"plan_old_rewrites_ms\": %.3f, "
               "\"plan_no_certify_ms\": %.3f, \"certify_us\": %.1f, "
               "\"rownum_ordered\": %zu, \"rownum_unordered\": %zu}\n}\n",
               total.ops, total.legacy_us, total.framework_us,
               total.new_facts_us, total.semtype_us, total.orderdep_us,
               total.plan_all_ms, total.plan_old_ms, total.plan_nocert_ms,
               total.certify_us, total.rownum_ordered,
               total.rownum_unordered);
  std::fclose(f);
  std::printf("\nwritten to BENCH_optimizer.json\n");
}

}  // namespace
}  // namespace exrquy

int main() {
  exrquy::Run();
  return 0;
}
