// The traced request path. Instead of Session::Execute, a traced request
// calls each layer's public entry point itself, in the order PlanQuery
// and Session::Execute call them, and times every call from here:
//
//   ParseQuery -> Normalize -> CompileQuery -> VerifyPlan -> Optimize ->
//   VerifyPlan -> Evaluator::Eval -> SerializeResult + ResultItems
//
// The evaluator runs with a Profile attached, which supplies the
// per-operator-kind times, row counts and scheduling facts. The
// Session's store and string pool are rolled back after every request,
// as Session::Execute does.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>

#include "api/session.h"
#include "common.h"

namespace perfbench {

// Times of one traced request, in ms. Planning times stay 0 when the
// request ran a plan built beforehand.
struct LayerTimes {
  double parse_ms = 0;
  double normalize_ms = 0;
  double compile_ms = 0;
  double verify_ms = 0;  // both VerifyPlan calls
  double optimize_ms = 0;
  double execute_ms = 0;
  double serialize_ms = 0;  // SerializeResult + ResultItems
  double queue_wait_ms = 0;
  double total_ms = 0;  // the whole traced request, rollback included
  std::map<std::string, double> kind_ms;  // Profile::by_kind, by OpKindName

  double LayerSum() const {
    return parse_ms + normalize_ms + compile_ms + verify_ms + optimize_ms +
           execute_ms + serialize_ms;
  }
};

// Exact counts of one traced request.
struct LayerCounts {
  size_t compiler_ops = 0;
  size_t compiler_rownum_ops = 0;
  size_t opt_ops = 0;
  size_t opt_rownum_ops = 0;
  size_t opt_theta_join_ops = 0;
  size_t certs_rejected = 0;
  std::map<std::string, size_t> rewrites;  // trade-log entries by rule
  size_t intermediate_rows = 0;            // sum of operator out_rows
  size_t result_rows = 0;
  size_t pipelines = 0;
  size_t morsels = 0;
  size_t peak_live_bytes = 0;
  size_t result_bytes = 0;
};

// Plans `pair` through the front-half layers, filling the planning times
// and the plan counts.
exrquy::Result<exrquy::QueryPlans> PlanLayers(exrquy::Session* session,
                                              const Pair& pair, int threads,
                                              LayerTimes* times,
                                              LayerCounts* counts);

// One traced request. Plans first unless `planned` is given; then
// evaluates, serializes and rolls the store and pool back to where they
// were on entry. Returns the serialized result.
exrquy::Result<std::string> TraceRequest(exrquy::Session* session,
                                         const Pair& pair, int threads,
                                         const exrquy::QueryPlans* planned,
                                         LayerTimes* times,
                                         LayerCounts* counts);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
