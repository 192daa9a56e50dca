#include "layers.h"

#include "algebra/stats.h"
#include "compiler/compile.h"
#include "engine/eval.h"
#include "opt/pipeline.h"
#include "opt/verify.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"

namespace perfbench {

using exrquy::Result;

Result<exrquy::QueryPlans> PlanLayers(exrquy::Session* session,
                                      const Pair& pair, int threads,
                                      LayerTimes* times, LayerCounts* counts) {
  const exrquy::QueryOptions options = OptionsFor(pair, threads);

  Clock::time_point t = Clock::now();
  EXRQUY_ASSIGN_OR_RETURN(exrquy::Query parsed, exrquy::ParseQuery(*pair.text));
  times->parse_ms = MsSince(t);

  exrquy::NormalizeOptions norm;
  norm.insert_unordered =
      options.enable_order_indifference && options.insert_unordered;
  t = Clock::now();
  EXRQUY_RETURN_IF_ERROR(exrquy::Normalize(&parsed, norm));
  times->normalize_ms = MsSince(t);

  exrquy::CompileOptions copts;
  copts.default_mode = options.default_ordering;
  copts.exploit_unordered =
      options.enable_order_indifference && options.mode_rules;
  t = Clock::now();
  EXRQUY_ASSIGN_OR_RETURN(
      exrquy::CompiledQuery compiled,
      exrquy::CompileQuery(parsed, &session->strings(), copts));
  times->compile_ms = MsSince(t);

  exrquy::QueryPlans plans;
  plans.dag = std::move(compiled.dag);
  plans.initial = compiled.root;
  t = Clock::now();
  EXRQUY_RETURN_IF_ERROR(exrquy::VerifyPlan(*plans.dag, plans.initial));
  times->verify_ms = MsSince(t);

  exrquy::OptimizeOptions oopts;
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
  oopts.strings = &session->strings();
  oopts.trade_log = &plans.trades;
  t = Clock::now();
  EXRQUY_ASSIGN_OR_RETURN(
      plans.optimized, exrquy::Optimize(plans.dag.get(), plans.initial, oopts));
  times->optimize_ms = MsSince(t);

  t = Clock::now();
  EXRQUY_RETURN_IF_ERROR(exrquy::VerifyPlan(*plans.dag, plans.optimized));
  times->verify_ms += MsSince(t);

  exrquy::PlanStats initial =
      exrquy::CollectPlanStats(*plans.dag, plans.initial);
  exrquy::PlanStats optimized =
      exrquy::CollectPlanStats(*plans.dag, plans.optimized);
  counts->compiler_ops = initial.total_ops;
  counts->compiler_rownum_ops = initial.rownum_ops;
  counts->opt_ops = optimized.total_ops;
  counts->opt_rownum_ops = optimized.rownum_ops;
  counts->opt_theta_join_ops = optimized.theta_join_ops;
  counts->rewrites.clear();
  counts->certs_rejected = 0;
  for (const exrquy::RewriteTrade& trade : plans.trades) {
    ++counts->rewrites[trade.rule];
    if (trade.checked && !trade.valid) ++counts->certs_rejected;
  }
  return plans;
}

Result<std::string> TraceRequest(exrquy::Session* session, const Pair& pair,
                                 int threads,
                                 const exrquy::QueryPlans* planned,
                                 LayerTimes* times, LayerCounts* counts) {
  Clock::time_point start = Clock::now();
  exrquy::NodeStore& store = session->store();
  exrquy::StrPool& strings = session->strings();
  const size_t nodes = store.node_count();
  const size_t fragments = store.fragment_count();
  const size_t strs = strings.size();

  Result<std::string> out = [&]() -> Result<std::string> {
    exrquy::QueryPlans own;
    if (planned == nullptr) {
      EXRQUY_ASSIGN_OR_RETURN(
          own, PlanLayers(session, pair, threads, times, counts));
      planned = &own;
    }
    const exrquy::QueryOptions options = OptionsFor(pair, threads);
    exrquy::Profile profile;
    exrquy::EvalContext ctx;
    ctx.store = &store;
    ctx.strings = &strings;
    ctx.documents = session->documents();
    ctx.detect_sorted_inputs = options.physical_sort_detection;
    ctx.num_threads = options.num_threads;
    ctx.chunk_rows = options.chunk_rows;
    ctx.release_intermediates = options.release_intermediates;
    ctx.pipelined_execution = options.pipelined_execution;
    ctx.morsel_rows = options.morsel_rows;
    ctx.inline_rows = options.inline_rows;
    ctx.profile = &profile;

    Clock::time_point t = Clock::now();
    exrquy::Evaluator evaluator(*planned->dag, &ctx);
    EXRQUY_ASSIGN_OR_RETURN(exrquy::TablePtr table,
                            evaluator.Eval(planned->optimized));
    times->execute_ms = MsSince(t);

    t = Clock::now();
    EXRQUY_ASSIGN_OR_RETURN(std::string serialized,
                            exrquy::SerializeResult(*table, ctx));
    EXRQUY_RETURN_IF_ERROR(exrquy::ResultItems(*table, ctx).status());
    times->serialize_ms = MsSince(t);

    times->kind_ms.clear();
    for (const auto& [kind, bucket] : profile.by_kind()) {
      times->kind_ms[kind] = bucket.ms;
    }
    times->queue_wait_ms = 0;
    counts->intermediate_rows = 0;
    for (const exrquy::Profile::OpMetrics& m : profile.ops()) {
      times->queue_wait_ms += m.queue_ms;
      counts->intermediate_rows += m.out_rows;
    }
    counts->morsels = 0;
    for (const exrquy::Profile::PipelineMetrics& p : profile.pipelines()) {
      times->queue_wait_ms += p.queue_ms;
      counts->morsels += p.morsels;
    }
    counts->pipelines = profile.pipelines().size();
    counts->result_rows = table->rows();
    counts->peak_live_bytes = profile.peak_live_bytes();
    counts->result_bytes = serialized.size();
    return serialized;
  }();

  store.TruncateTo(nodes, fragments);
  strings.TruncateTo(strs);
  times->total_ms = MsSince(start);
  return out;
}

}  // namespace perfbench
