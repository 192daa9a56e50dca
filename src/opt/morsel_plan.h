// Morsel pipeline planning — the plan-time half of the engine's
// pipelined execution model (VXQuery/Hyper style, engine/eval.h).
//
// A *pipeline* is a maximal chain of non-blocking operators that the
// evaluator fuses into one scheduled unit: the chain's source rows are
// pulled in fixed-size morsels, each morsel flows through every stage
// without materializing the interior operators' tables, and the sink
// performs an ordered morsel merge (concatenation in morsel order) so
// the fused result is byte-identical to operator-at-a-time evaluation at
// every thread count and morsel size. Blocking operators — %, Distinct,
// Aggr, node constructors, the build side of a join — are pipeline
// breakers: they stay operator-at-a-time and bound every pipeline.
//
// Which operators may fuse, and where in a chain:
//
//   Project / Select / Fun    anywhere (head or interior); row-local
//   Union                     head only (the morsel domain is the
//                             concatenation of both materialized inputs)
//   EquiJoin                  head only: the probe side is chosen at
//                             run time by input cardinality, so both
//                             inputs must be materialized before the
//                             morsel domain is even known
//   ThetaJoin                 head or interior via its LEFT input (the
//                             kernel is left-probe/left-major; the right
//                             input is always materialized)
//   Step                      sink only: its output is the globally
//                             sorted duplicate-free (iter, node) set, so
//                             the sink merge re-sorts and dedups
//   RowId                     sink only: the ids are positions in the
//                             merged output, assigned at merge time
//
// An interior stage must have exactly one consumer in the evaluated
// sub-DAG (its table is never materialized, so nothing else may read
// it), and the root is never interior. Everything else runs standalone;
// the engine runs a fusable operator outside every chain as a one-stage
// pipeline of its own (Fusable below).
//
// Like every other optimizer claim in this codebase, the plan is not
// trusted: AuditMorselPlan re-derives each fusability condition
// independently, PreparePlan (engine/eval.h) refuses a plan that fails
// the audit, and the evaluator runs only prepared plans (diagnostics
// follow the plan verifier's format). Planning and audit run once per
// prepared plan, not once per run: a cached plan is audited when it is
// planned.
#ifndef EXRQUY_OPT_MORSEL_PLAN_H_
#define EXRQUY_OPT_MORSEL_PLAN_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "algebra/algebra.h"
#include "common/status.h"

namespace exrquy {

struct PipelineStage {
  OpId op = kNoOp;
  // Index into Op::children of the input that arrives morsel-by-morsel
  // from the previous stage; -1 for the head stage (all of whose inputs
  // are materialized tables).
  int pipe_child = -1;
};

struct Pipeline {
  // Bottom-up chain, ascending op id; front() is the head (the stage
  // that defines the morsel domain), back() is the sink (the only stage
  // whose table materializes).
  std::vector<PipelineStage> stages;

  OpId head() const { return stages.front().op; }
  OpId sink() const { return stages.back().op; }
};

struct MorselPlan {
  std::vector<Pipeline> pipelines;
  // Stage op -> index into `pipelines`, for every fused op (head,
  // interior, and sink). Ops absent here run standalone.
  std::unordered_map<OpId, uint32_t> pipeline_of;

  bool fused(OpId id) const { return pipeline_of.count(id) != 0; }
  // True when `id` is a non-sink stage of some pipeline (its table is
  // never materialized).
  bool interior(OpId id) const {
    auto it = pipeline_of.find(id);
    return it != pipeline_of.end() && pipelines[it->second].sink() != id;
  }
  bool sink(OpId id) const {
    auto it = pipeline_of.find(id);
    return it != pipeline_of.end() && pipelines[it->second].sink() == id;
  }
};

// True for the kinds that may be pipeline stages (the table above). The
// engine's morsel stage kernels are their only kernels: one that joins no
// chain runs as a one-stage pipeline.
bool Fusable(OpKind k);

// Identifies maximal fusable chains over the sub-DAG reachable from
// `root` (`order` as returned by Dag::ReachableFrom). Chains of fewer
// than two stages are not worth a pipeline and stay standalone. Pure
// analysis: the DAG is not modified.
MorselPlan PlanPipelines(const Dag& dag, const std::vector<OpId>& order,
                         OpId root);

// Independently re-derives every condition a pipeline relies on —
// stage kinds and positions, the unique-consumer property of interior
// stages, materialized externals, root never interior — directly from
// the DAG, sharing no state with PlanPipelines. Diagnostics:
//   morsel plan: [<invariant>] op <id> (<OpKind>): <detail>
Status AuditMorselPlan(const Dag& dag, const std::vector<OpId>& order,
                       OpId root, const MorselPlan& plan);

}  // namespace exrquy

#endif  // EXRQUY_OPT_MORSEL_PLAN_H_
