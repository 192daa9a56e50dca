#include "api/session.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "algebra/dot.h"
#include "engine/value.h"
#include "xml/serializer.h"
#include "compiler/compile.h"
#include "opt/analyses.h"
#include "opt/pipeline.h"
#include "opt/verify.h"
#include "xml/xml_parser.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"

namespace exrquy {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

uint64_t EnvU64(const char* name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return 0;
  char* end = nullptr;
  unsigned long long n = std::strtoull(v, &end, 10);
  return end == v ? 0 : static_cast<uint64_t>(n);
}

// Whether the rewrite this certificate describes made it into the plan:
// strict mode keeps the old sub-plan when the obligation fails.
bool Committed(const RewriteTrade& t, const CertifySettings& resolved) {
  return !(resolved.mode == CertifyMode::kStrict && t.checked && !t.valid);
}

}  // namespace

Session::Session() : store_(&strings_) {}

Status Session::LoadDocument(std::string_view name, std::string_view xml) {
  EXRQUY_ASSIGN_OR_RETURN(NodeIdx root, ParseXml(&store_, xml));
  store_.IndexFragment(store_.fragment_count() - 1);
  documents_[strings_.Intern(name)] = root;
  return Status::Ok();
}

Status Session::LoadDocumentFile(std::string_view name,
                                 const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFound("cannot open file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return LoadDocument(name, buf.str());
}

Result<QueryPlans> PlanQuery(std::string_view query,
                             const QueryOptions& options, StrPool* strings) {
  EXRQUY_ASSIGN_OR_RETURN(Query parsed, ParseQuery(query));

  NormalizeOptions norm;
  norm.insert_unordered =
      options.enable_order_indifference && options.insert_unordered;
  EXRQUY_RETURN_IF_ERROR(Normalize(&parsed, norm));

  CompileOptions copts;
  copts.default_mode = options.default_ordering;
  copts.exploit_unordered =
      options.enable_order_indifference && options.mode_rules;
  EXRQUY_ASSIGN_OR_RETURN(CompiledQuery compiled,
                          CompileQuery(parsed, strings, copts));

  QueryPlans plans;
  plans.dag = std::move(compiled.dag);
  plans.initial = compiled.root;

  // Every compiled plan is statically verified before it goes anywhere
  // near the rewrites or the engine: a miscompilation surfaces here as a
  // Status naming the violated invariant, not as wrong answers or UB.
  Status verified = VerifyPlan(*plans.dag, plans.initial);
  if (!verified.ok()) {
    return Internal("compiled plan rejected: " + verified.message());
  }

  OptimizeOptions oopts;
  oopts.enable = options.enable_order_indifference;
  oopts.rewrites.column_pruning = options.column_pruning;
  oopts.rewrites.weaken_rownum = options.weaken_rownum;
  oopts.rewrites.distinct_elimination = options.distinct_elimination;
  oopts.rewrites.step_merging = options.step_merging;
  oopts.rewrites.distinct_by_keys = options.distinct_by_keys;
  oopts.rewrites.empty_short_circuit = options.empty_short_circuit;
  oopts.rewrites.rownum_by_keys = options.rownum_by_keys;
  oopts.rewrites.rownum_by_od = options.rownum_by_od;
  oopts.rewrites.join_recognition = options.join_recognition;
  oopts.rewrites.theta_join = options.theta_join;
  oopts.rewrites.certify = options.certify;
  oopts.verify_each_pass = options.verify_each_pass;
  oopts.strings = strings;
  oopts.trade_log = &plans.trades;
  EXRQUY_ASSIGN_OR_RETURN(
      plans.optimized, Optimize(plans.dag.get(), plans.initial, oopts));

  // And once more after the pipeline (cheap single pass) so a rewrite
  // bug is caught even when the per-pass hook is off.
  verified = VerifyPlan(*plans.dag, plans.optimized);
  if (!verified.ok()) {
    return Internal("optimized plan rejected: " + verified.message());
  }
  return plans;
}

Result<QueryPlans> Session::PlanInternal(std::string_view query,
                                         const QueryOptions& options) {
  return PlanQuery(query, options, &strings_);
}

Result<QueryPlans> Session::Plan(std::string_view query,
                                 const QueryOptions& options) {
  return PlanInternal(query, options);
}

Result<OrderExplanation> Session::ExplainOrder(std::string_view query,
                                               const QueryOptions& options) {
  EXRQUY_ASSIGN_OR_RETURN(QueryPlans plans, PlanInternal(query, options));
  const Dag& dag = *plans.dag;
  ColSet seed;
  for (ColId c : {col::iter(), col::pos(), col::item()}) {
    if (dag.op(plans.optimized).HasCol(c)) seed.insert(c);
  }
  OrderProvenance prov =
      ComputeOrderProvenance(dag, plans.optimized, seed, &strings_);
  OrderExplanation out;
  for (OpId id : dag.ReachableFrom(plans.optimized)) {
    const Op& op = dag.op(id);
    if (op.kind != OpKind::kRowNum) continue;
    OrderExplanation::SortPoint p;
    p.op = id;
    p.label = OpToString(dag, id, strings_);
    p.source = op.prov;
    p.reasons = prov.ReasonsFor(id, op.col);
    out.sorts.push_back(std::move(p));
  }
  // The trade log now covers every rewrite family; --explain-order
  // surfaces only the % eliminations that actually made it into the plan
  // (strict certification keeps the old % when an obligation fails).
  CertifySettings resolved = ResolveCertify(options.certify);
  for (const RewriteTrade& t : plans.trades) {
    if (!t.order_trade || !Committed(t, resolved)) continue;
    OrderExplanation::Trade trade;
    trade.op = t.from;
    trade.label = OpToString(dag, t.from, strings_);
    trade.source = dag.op(t.from).prov;
    trade.rule = t.rule;
    trade.detail = t.detail;
    out.trades.push_back(std::move(trade));
  }
  std::map<OpId, std::vector<std::string>> annotations =
      ProvenanceAnnotations(dag, plans.optimized, prov);
  // Annotate the surviving replacements of traded %s with the trade's
  // justification (the eliminated % itself is no longer in the plan).
  for (const RewriteTrade& t : plans.trades) {
    if (!t.order_trade || !Committed(t, resolved)) continue;
    annotations[t.to].push_back("order traded (" + t.rule + "): " +
                                t.detail);
  }
  // Annotations for ops that did not survive later passes would confuse
  // the DOT rendering: restrict to the final plan.
  std::map<OpId, std::vector<std::string>> live;
  for (OpId id : dag.ReachableFrom(plans.optimized)) {
    auto it = annotations.find(id);
    if (it != annotations.end()) live.emplace(id, std::move(it->second));
  }
  out.dot = PlanToDot(dag, plans.optimized, strings_, live);
  return out;
}

Result<RewriteExplanation> Session::ExplainRewrites(
    std::string_view query, const QueryOptions& options) {
  EXRQUY_ASSIGN_OR_RETURN(QueryPlans plans, PlanInternal(query, options));
  const Dag& dag = *plans.dag;
  CertifySettings resolved = ResolveCertify(options.certify);
  RewriteExplanation out;
  std::map<OpId, std::vector<std::string>> annotations;
  for (const RewriteTrade& t : plans.trades) {
    RewriteExplanation::Entry e;
    e.from = t.from;
    e.to = t.to;
    e.rule = t.rule;
    e.detail = t.detail;
    e.label = OpToString(dag, t.from, strings_);
    e.source = dag.op(t.from).prov;
    for (const CitedFact& f : t.cited) e.facts.push_back(f.text);
    e.checked = t.checked;
    e.valid = t.valid;
    e.committed = Committed(t, resolved);
    e.obligation = t.obligation;
    e.diagnostic = t.diagnostic;
    ++out.emitted;
    if (t.checked && t.valid) ++out.validated;
    if (t.checked && !t.valid) ++out.rejected;
    std::string note = t.checked
                           ? (t.valid ? "certified (" + t.rule + ")"
                                      : "certificate FAILED [" +
                                            t.obligation + "] (" + t.rule +
                                            (e.committed ? ")"
                                                         : "), rewrite "
                                                           "kept out"))
                           : "uncertified (" + t.rule + ")";
    annotations[e.committed ? t.to : t.from].push_back(std::move(note));
    out.entries.push_back(std::move(e));
  }
  // Annotations for ops that did not survive later passes would confuse
  // the DOT rendering: restrict to the final plan.
  std::map<OpId, std::vector<std::string>> live;
  for (OpId id : dag.ReachableFrom(plans.optimized)) {
    auto it = annotations.find(id);
    if (it != annotations.end()) live.emplace(id, std::move(it->second));
  }
  out.dot = PlanToDot(dag, plans.optimized, strings_, live);
  return out;
}

namespace {

// Rolls the Session's shared state back to its pre-query snapshot on
// every exit path — success, compile error, runtime error, or governor
// abort. Constructed fragments and query-interned strings never outlive
// the Execute call (results hold plain std::strings), so a failing-query
// loop leaves the store and pool exactly where they started and the
// Session stays usable. Detaches the budget first so the rollback's
// Release calls don't hit an accountant that is about to go away with
// this frame anyway.
class SessionRestore {
 public:
  SessionRestore(NodeStore* store, StrPool* strings)
      : store_(store),
        strings_(strings),
        nodes_(store->node_count()),
        fragments_(store->fragment_count()),
        strs_(strings->size()) {}

  ~SessionRestore() {
    store_->set_budget(nullptr);
    strings_->set_budget(nullptr);
    store_->TruncateTo(nodes_, fragments_);
    strings_->TruncateTo(strs_);
  }

 private:
  NodeStore* store_;
  StrPool* strings_;
  size_t nodes_;
  size_t fragments_;
  size_t strs_;
};

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
    if (!Committed(t, resolved) || t.from == t.to) continue;
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

Result<QueryResult> Session::Execute(std::string_view query,
                                     const QueryOptions& options) {
  QueryResult result;

  // Resolve the governor configuration: explicit options beat the
  // environment (EXRQUY_DEADLINE_MS / EXRQUY_MEM_BUDGET / EXRQUY_FAULT_*).
  Clock::time_point start = Clock::now();
  int64_t deadline_ms = options.deadline_ms > 0
                            ? options.deadline_ms
                            : static_cast<int64_t>(EnvU64("EXRQUY_DEADLINE_MS"));
  size_t budget_limit = options.memory_budget > 0
                            ? options.memory_budget
                            : static_cast<size_t>(EnvU64("EXRQUY_MEM_BUDGET"));
  FaultPlan faults = options.faults;
  if (!faults.any()) {
    EXRQUY_ASSIGN_OR_RETURN(faults, FaultPlan::FromEnv());
  }

  MemoryBudget budget(budget_limit);
  if (faults.fail_alloc != 0) budget.FailChargeAt(faults.fail_alloc);
  FaultInjector injector(faults);
  // Accounting costs a few atomic ops per charge site; only pay them when
  // someone will observe the numbers (a limit, an alloc fault, a profile).
  bool account =
      budget_limit != 0 || faults.fail_alloc != 0 || options.profile;

  SessionRestore restore(&store_, &strings_);
  if (account) {
    store_.set_budget(&budget);
    strings_.set_budget(&budget);
  }

  EXRQUY_ASSIGN_OR_RETURN(QueryPlans plans, PlanInternal(query, options));
  result.compile_ms = MsSince(start);

  result.plan_initial = CollectPlanStats(*plans.dag, plans.initial);
  result.plan_optimized = CollectPlanStats(*plans.dag, plans.optimized);

  // Dynamic spot check: re-evaluate every committed rewrite's before and
  // after sub-plans on a fresh, ungoverned context (no deadline, faults,
  // or profile — those belong to the real run) and compare witnesses.
  CertifySettings resolved_certify = ResolveCertify(options.certify);
  if (resolved_certify.mode != CertifyMode::kOff && resolved_certify.spot_check) {
    EvalContext sctx;
    sctx.store = &store_;
    sctx.strings = &strings_;
    sctx.documents = documents_;
    sctx.num_threads = 1;
    EXRQUY_RETURN_IF_ERROR(SpotCheckCertificates(*plans.dag, plans.trades,
                                                 resolved_certify, &sctx));
  }

  EvalContext ctx;
  ctx.store = &store_;
  ctx.strings = &strings_;
  ctx.documents = documents_;
  ctx.detect_sorted_inputs = options.physical_sort_detection;
  ctx.num_threads = options.num_threads;
  ctx.release_intermediates = options.release_intermediates;
  ctx.pipelined_execution = options.pipelined_execution;
  ctx.chunk_rows = options.chunk_rows;
  ctx.morsel_rows = options.morsel_rows;
  ctx.inline_rows = options.inline_rows;
  if (options.profile) ctx.profile = &result.profile;
  ctx.cancel = options.cancel.get();
  if (deadline_ms > 0) {
    ctx.has_deadline = true;
    ctx.deadline = start + std::chrono::milliseconds(deadline_ms);
  }
  if (account) ctx.budget = &budget;
  if (faults.any()) ctx.faults = &injector;

  Clock::time_point t1 = Clock::now();
  Evaluator evaluator(*plans.dag, &ctx);
  Result<TablePtr> table = evaluator.Eval(plans.optimized);
  if (options.profile) {
    result.profile.SetBudget(budget.limit(), budget.charged(), budget.peak());
  }
  if (!table.ok()) return table.status();
  result.execute_ms = MsSince(t1);
  result.sorts_skipped = ctx.sorts_skipped;

  Result<std::string> serialized = SerializeResult(**table, ctx);
  Result<std::vector<std::string>> items = ResultItems(**table, ctx);
  if (!serialized.ok()) return serialized.status();
  if (!items.ok()) return items.status();
  result.serialized = std::move(serialized).value();
  result.items = std::move(items).value();
  return result;
}

}  // namespace exrquy
