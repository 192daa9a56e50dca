// The back half of the query pipeline, shared by Session::Execute and
// QueryService::Execute (api/session.h): the one governor resolver and
// the one path from an optimized plan to result bytes.
#include "api/session.h"

#include <algorithm>
#include <string>

#include "engine/eval.h"
#include "engine/value.h"
#include "xml/serializer.h"

namespace exrquy {
namespace {

using Clock = std::chrono::steady_clock;

// Longest deadline honored, so the absolute deadline cannot overflow the
// clock (≈ 35 years).
constexpr uint64_t kMaxDeadlineMs = uint64_t{1} << 40;

// One cell of a witnessed column, rendered for byte-for-byte comparison.
// Nodes render by full serialization: the ids of constructed nodes
// legitimately differ between the two evaluations, their content must
// not.
std::string SpotCell(const Value& v, const NodeStore& store,
                     const StrPool& strings) {
  switch (v.kind) {
    case ValueKind::kInt:
      return "i:" + std::to_string(v.i);
    case ValueKind::kDouble:
      return "d:" + FormatDouble(v.d);
    case ValueKind::kString:
      return "s:" + strings.Get(v.str);
    case ValueKind::kUntyped:
      return "u:" + strings.Get(v.str);
    case ValueKind::kBool:
      return v.b ? "b:true" : "b:false";
    case ValueKind::kNode:
      return "n:" + SerializeNode(store, static_cast<NodeIdx>(v.node));
    default:
      break;  // no other kind is a query value
  }
  return "?";
}

Status SpotFail(const RewriteTrade& t, const std::string& detail) {
  return Internal("certify: [spot-check] " + t.rule + " op " +
                  std::to_string(t.from) + " -> op " + std::to_string(t.to) +
                  ": " + detail);
}

// The dynamic spot check: evaluates every committed rewrite's before and
// after sub-plans on this Session's documents and compares the exact
// witness columns byte-for-byte (as multisets when the rewrite is
// declared order-trading on the physical row order).
Status SpotCheckCertificates(const Dag& dag,
                             const std::vector<RewriteTrade>& trades,
                             const CertifySettings& resolved,
                             EvalContext* ctx) {
  for (const RewriteTrade& t : trades) {
    if (!RewriteCommitted(t, resolved) || t.from == t.to) continue;
    std::vector<ColWitness> cols;
    for (const ColWitness& w : t.witness) {
      if (w.exact) cols.push_back(w);
    }
    if (cols.empty()) continue;
    Result<TablePtr> before = Evaluator(dag, ctx).Eval(t.from);
    Result<TablePtr> after = Evaluator(dag, ctx).Eval(t.to);
    if (!before.ok() && !after.ok()) continue;  // both raise: equivalent
    if (before.ok() != after.ok()) {
      return SpotFail(t, "error behavior diverges: before " +
                             (before.ok() ? std::string("succeeds")
                                          : before.status().message()) +
                             ", after " +
                             (after.ok() ? std::string("succeeds")
                                         : after.status().message()));
    }
    const Table& b = **before;
    const Table& a = **after;
    if (b.rows() != a.rows()) {
      return SpotFail(t, "row counts diverge: before " +
                             std::to_string(b.rows()) + ", after " +
                             std::to_string(a.rows()));
    }
    std::vector<std::string> brows(b.rows());
    std::vector<std::string> arows(a.rows());
    for (size_t r = 0; r < b.rows(); ++r) {
      for (const ColWitness& w : cols) {
        brows[r] +=
            SpotCell(b.at(w.before, r), *ctx->store, *ctx->strings) + '\x1f';
        arows[r] +=
            SpotCell(a.at(w.after, r), *ctx->store, *ctx->strings) + '\x1f';
      }
    }
    if (t.rows_reordered) {
      std::sort(brows.begin(), brows.end());
      std::sort(arows.begin(), arows.end());
    }
    for (size_t r = 0; r < brows.size(); ++r) {
      if (brows[r] != arows[r]) {
        return SpotFail(t, "witnessed values diverge at row " +
                               std::to_string(r) + ": before {" + brows[r] +
                               "}, after {" + arows[r] + "}");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Result<Governor> ResolveGovernor(const QueryOptions& options,
                                 Clock::time_point start) {
  EXRQUY_RETURN_IF_ERROR(
      CheckRemovedKnobs(options.chunk_rows, options.inline_rows,
                        options.physical_sort_detection));
  Governor g;
  uint64_t deadline_ms =
      options.deadline_ms > 0 ? static_cast<uint64_t>(options.deadline_ms) : 0;
  if (deadline_ms == 0) {
    EXRQUY_ASSIGN_OR_RETURN(deadline_ms, StrictEnvU64("EXRQUY_DEADLINE_MS"));
  }
  if (deadline_ms != 0) {
    g.deadline = start + std::chrono::milliseconds(
                             std::min(deadline_ms, kMaxDeadlineMs));
  }
  g.memory_budget = options.memory_budget;
  if (g.memory_budget == 0) {
    EXRQUY_ASSIGN_OR_RETURN(g.memory_budget,
                            StrictEnvU64("EXRQUY_MEM_BUDGET"));
  }
  g.faults = options.faults;
  if (!g.faults.any()) {
    EXRQUY_ASSIGN_OR_RETURN(g.faults, FaultPlan::FromEnv());
  }
  g.account =
      g.memory_budget != 0 || g.faults.fail_alloc != 0 || options.profile;
  return g;
}

Status ExecutePlan(const PreparedPlan& plan,
                   const std::vector<RewriteTrade>* spot_trades,
                   const QueryOptions& options, const Governor& governor,
                   MemoryBudget* budget, NodeStore* store, StrPool* strings,
                   const std::map<StrId, NodeIdx>& documents,
                   QueryResult* result) {
  if (plan.dag() == nullptr) {
    return Internal("engine: ExecutePlan needs a prepared plan");
  }
  // Dynamic spot check: re-evaluate every committed rewrite's before and
  // after sub-plans on a fresh, ungoverned context (no deadline, faults,
  // or profile — those belong to the real run) and compare witnesses.
  if (spot_trades != nullptr) {
    EXRQUY_ASSIGN_OR_RETURN(CertifySettings resolved,
                            ResolveCertify(options.certify));
    if (resolved.mode != CertifyMode::kOff && resolved.spot_check) {
      EvalContext sctx;
      sctx.store = store;
      sctx.strings = strings;
      sctx.documents = documents;
      sctx.num_threads = 1;
      EXRQUY_RETURN_IF_ERROR(
          SpotCheckCertificates(*plan.dag(), *spot_trades, resolved, &sctx));
    }
  }

  FaultInjector injector(governor.faults);
  EvalContext ctx;
  ctx.store = store;
  ctx.strings = strings;
  ctx.documents = documents;
  ctx.num_threads = options.num_threads;
  ctx.release_intermediates = options.release_intermediates;
  ctx.pipelined_execution = options.pipelined_execution;
  ctx.morsel_rows = options.morsel_rows;
  if (options.profile) ctx.profile = &result->profile;
  ctx.cancel = options.cancel.get();
  if (governor.deadline.has_value()) {
    ctx.has_deadline = true;
    ctx.deadline = *governor.deadline;
  }
  ctx.budget = budget;
  if (governor.faults.any()) ctx.faults = &injector;

  Clock::time_point t1 = Clock::now();
  Evaluator evaluator(*plan.dag(), &ctx);
  Result<TablePtr> table = evaluator.Run(plan);
  if (options.profile && budget != nullptr) {
    result->profile.SetBudget(budget->limit(), budget->charged(),
                              budget->peak());
  }
  if (!table.ok()) return table.status();
  result->execute_ms = MsSince(t1);
  RenderResult(**table, ctx, &result->serialized, &result->items);
  return Status::Ok();
}

}  // namespace exrquy
