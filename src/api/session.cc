#include "api/session.h"

#include <chrono>
#include <fstream>
#include <sstream>

#include "algebra/dot.h"
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

// DOT rendering of the plan under `root`, annotated. Annotations for ops
// that did not survive later passes would confuse it: only those of the
// final plan are kept.
std::string LiveDot(const Dag& dag, OpId root, const StrPool& strings,
                    std::map<OpId, std::vector<std::string>>* annotations) {
  std::map<OpId, std::vector<std::string>> live;
  for (OpId id : dag.ReachableFrom(root)) {
    auto it = annotations->find(id);
    if (it != annotations->end()) live.emplace(id, std::move(it->second));
  }
  return PlanToDot(dag, root, strings, live);
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
  QueryPlans plans;
  EXRQUY_ASSIGN_OR_RETURN(plans.certify, ResolveCertify(options.certify));
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

  plans.dag = std::move(compiled.dag);
  plans.initial = compiled.root;
  // One analysis cache for the whole plan: both verifications and every
  // rewrite pass derive each operator's facts at most once.
  plans.facts = std::make_unique<PlanFacts>(plans.dag.get());

  // Every compiled plan is statically verified before it goes anywhere
  // near the rewrites or the engine: a miscompilation surfaces here as a
  // Status naming the violated invariant, not as wrong answers or UB.
  Clock::time_point t0 = Clock::now();
  Status verified = VerifyPlan(*plans.dag, plans.initial, {},
                               plans.facts.get());
  plans.steps.verify_compiled_us = 1000.0 * MsSince(t0);
  if (!verified.ok()) {
    return Internal("compiled plan rejected: " + verified.message());
  }

  OptimizeOptions oopts;
  oopts.enable = options.enable_order_indifference;
  oopts.rewrites = static_cast<const RewriteOptions&>(options);
  oopts.rewrites.certify = plans.certify;
  oopts.verify_each_pass = options.verify_each_pass;
  oopts.strings = strings;
  oopts.trade_log = &plans.trades;
  t0 = Clock::now();
  EXRQUY_ASSIGN_OR_RETURN(
      plans.optimized,
      Optimize(plans.dag.get(), plans.initial, oopts, plans.facts.get()));
  plans.steps.optimize_us = 1000.0 * MsSince(t0);

  // And once more after the pipeline so a rewrite bug is caught even
  // when the per-pass hook is off. The shared cache has derived facts for
  // most of the optimized plan already, so this is mostly the checks.
  t0 = Clock::now();
  verified = VerifyPlan(*plans.dag, plans.optimized, {}, plans.facts.get());
  plans.steps.verify_optimized_us = 1000.0 * MsSince(t0);
  if (!verified.ok()) {
    return Internal("optimized plan rejected: " + verified.message());
  }
  // That verification covers the engine's structure/schema guard, so
  // preparing adds only the run order and the audited pipelines.
  EXRQUY_ASSIGN_OR_RETURN(
      plans.prepared,
      PreparePlan(*plans.dag, plans.optimized, /*verified=*/true));
  return plans;
}

Result<QueryPlans> Session::Plan(std::string_view query,
                                 const QueryOptions& options) {
  return PlanQuery(query, options, &strings_);
}

Result<OrderExplanation> Session::ExplainOrder(std::string_view query,
                                               const QueryOptions& options) {
  EXRQUY_ASSIGN_OR_RETURN(QueryPlans plans,
                          PlanQuery(query, options, &strings_));
  const Dag& dag = *plans.dag;
  OrderProvenance prov = ComputeOrderProvenance(
      dag, plans.optimized, RootSeed(dag, plans.optimized), &strings_);
  // Provenance is liveness with attribution: it must demand exactly the
  // live columns, each with at least one in-range reason.
  const std::vector<ColSet>& live = plans.facts->Live(plans.optimized);
  for (OpId id : dag.ReachableFrom(plans.optimized)) {
    ColSet domain;
    for (const auto& [c, reasons] : prov.demand[id]) {
      domain.insert(c);
      bool attributed = !reasons.empty();
      for (uint32_t r : reasons) attributed &= r < prov.reasons.size();
      if (!attributed) {
        return Internal("order provenance: op " + std::to_string(id) +
                        " column '" + ColName(c) +
                        "' carries no in-range reason");
      }
    }
    if (domain != live[id]) {
      return Internal("order provenance: op " + std::to_string(id) +
                      " demands " + ColSetToString(domain) +
                      ", live columns are " + ColSetToString(live[id]));
    }
  }
  OrderExplanation out;
  for (OpId id : dag.ReachableFrom(plans.optimized)) {
    const Op& op = dag.op(id);
    if (op.kind != OpKind::kRowNum) continue;
    OrderExplanation::SortPoint p;
    p.op = id;
    p.label = OpToString(dag, id, strings_);
    p.source = op.prov;
    p.reasons = prov.ReasonsFor(id, op.col);
    p.presorted = op.presorted;
    out.sorts.push_back(std::move(p));
  }
  std::map<OpId, std::vector<std::string>> annotations =
      ProvenanceAnnotations(dag, plans.optimized, prov);
  // The trade log now covers every rewrite family; --explain-order
  // surfaces only the % eliminations that actually made it into the plan
  // (strict certification keeps the old % when an obligation fails), and
  // annotates their surviving replacements with the trade's
  // justification (the eliminated % itself is no longer in the plan).
  for (const RewriteTrade& t : plans.trades) {
    if (!t.order_trade || !RewriteCommitted(t, plans.certify)) continue;
    OrderExplanation::Trade trade;
    trade.op = t.from;
    trade.label = OpToString(dag, t.from, strings_);
    trade.source = dag.op(t.from).prov;
    trade.rule = t.rule;
    trade.detail = t.detail;
    out.trades.push_back(std::move(trade));
    annotations[t.to].push_back("order traded (" + t.rule + "): " +
                                t.detail);
  }
  out.dot = LiveDot(dag, plans.optimized, strings_, &annotations);
  return out;
}

Result<RewriteExplanation> Session::ExplainRewrites(
    std::string_view query, const QueryOptions& options) {
  EXRQUY_ASSIGN_OR_RETURN(QueryPlans plans,
                          PlanQuery(query, options, &strings_));
  const Dag& dag = *plans.dag;
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
    e.committed = RewriteCommitted(t, plans.certify);
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
  out.dot = LiveDot(dag, plans.optimized, strings_, &annotations);
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

}  // namespace

Result<QueryResult> Session::Execute(std::string_view query,
                                     const QueryOptions& options) {
  Clock::time_point start = Clock::now();
  EXRQUY_ASSIGN_OR_RETURN(Governor governor, ResolveGovernor(options, start));
  MemoryBudget budget(governor.memory_budget);
  budget.FailChargeAt(governor.faults.fail_alloc);
  MemoryBudget* charged = governor.account ? &budget : nullptr;

  SessionRestore restore(&store_, &strings_);
  store_.set_budget(charged);
  strings_.set_budget(charged);

  EXRQUY_ASSIGN_OR_RETURN(QueryPlans plans,
                          PlanQuery(query, options, &strings_));
  QueryResult result;
  result.compile_ms = MsSince(start);
  result.plan_initial = CollectPlanStats(*plans.dag, plans.initial);
  result.plan_optimized = CollectPlanStats(*plans.dag, plans.optimized);
  plans.facts.reset();  // planning is over: free the cache before running
  EXRQUY_RETURN_IF_ERROR(ExecutePlan(plans.prepared, &plans.trades, options,
                                     governor, charged, &store_, &strings_,
                                     documents_, &result));
  return result;
}

}  // namespace exrquy
