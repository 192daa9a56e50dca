#include "opt/morsel_plan.h"

#include <string>
#include <unordered_set>

namespace exrquy {
namespace {

// Kinds that may appear as a pipeline stage at all.
bool RowLocal(OpKind k) {
  return k == OpKind::kProject || k == OpKind::kSelect || k == OpKind::kFun;
}

bool HeadCapable(OpKind k) {
  return RowLocal(k) || k == OpKind::kUnion || k == OpKind::kEquiJoin ||
         k == OpKind::kThetaJoin;
}

bool SinkOnly(OpKind k) { return k == OpKind::kStep || k == OpKind::kRowId; }

// Parent-edge counts over the reachable sub-DAG, duplicates kept (an op
// consumed twice by one parent has two edges and can never be interior).
std::unordered_map<OpId, uint32_t> ParentEdges(const Dag& dag,
                                               const std::vector<OpId>& order) {
  std::unordered_map<OpId, uint32_t> edges;
  edges.reserve(order.size() * 2);
  for (OpId id : order) {
    for (OpId c : dag.op(id).children) ++edges[c];
  }
  return edges;
}

std::string Diag(const char* invariant, const Dag& dag, OpId id,
                 const std::string& detail) {
  return std::string("morsel plan: [") + invariant + "] op " +
         std::to_string(id) + " (" + OpKindName(dag.op(id).kind) +
         "): " + detail;
}

}  // namespace

bool Fusable(OpKind k) { return HeadCapable(k) || SinkOnly(k); }

MorselPlan PlanPipelines(const Dag& dag, const std::vector<OpId>& order,
                         OpId root) {
  MorselPlan plan;
  std::unordered_map<OpId, uint32_t> edges = ParentEdges(dag, order);
  // The unique parent of ops with exactly one parent edge.
  std::unordered_map<OpId, OpId> parent;
  parent.reserve(order.size());
  for (OpId id : order) {
    for (OpId c : dag.op(id).children) {
      if (edges.at(c) == 1) parent[c] = id;
    }
  }

  std::unordered_set<OpId> covered;
  // Ascending op ids: a maximal chain's head has the smallest id in the
  // chain (children precede parents), so growing upward from the first
  // uncovered head-capable op discovers each maximal chain exactly once.
  for (OpId h : order) {
    if (covered.count(h) != 0) continue;
    const Op& hop = dag.op(h);
    if (!HeadCapable(hop.kind)) continue;
    // A head's morsel domain is its materialized input(s); an input that
    // is this very op (degenerate self-loops cannot happen in a DAG) or
    // missing disqualifies nothing here — structure was verified already.

    Pipeline pl;
    pl.stages.push_back({h, -1});
    OpId cur = h;
    for (;;) {
      if (cur == root) break;  // the root's table must materialize
      auto eit = edges.find(cur);
      if (eit == edges.end() || eit->second != 1) break;
      OpId p = parent.at(cur);
      if (covered.count(p) != 0) break;
      const Op& pop = dag.op(p);
      bool is_sink_only = SinkOnly(pop.kind);
      if (!RowLocal(pop.kind) && pop.kind != OpKind::kThetaJoin &&
          !is_sink_only) {
        break;  // breaker (or head-only kind, which cannot sit mid-chain)
      }
      if (pop.kind == OpKind::kThetaJoin &&
          (pop.children[0] != cur || pop.children[1] == cur)) {
        // The theta kernel streams its left input only; a self-join on
        // the streamed op would leave the build side unmaterialized.
        break;
      }
      pl.stages.push_back({p, 0});
      cur = p;
      if (is_sink_only) break;  // Step/RowId terminate the chain
    }
    if (pl.stages.size() < 2) continue;  // a 1-stage pipeline is just the op
    uint32_t idx = static_cast<uint32_t>(plan.pipelines.size());
    for (const PipelineStage& st : pl.stages) {
      covered.insert(st.op);
      plan.pipeline_of.emplace(st.op, idx);
    }
    plan.pipelines.push_back(std::move(pl));
  }
  return plan;
}

Status AuditMorselPlan(const Dag& dag, const std::vector<OpId>& order,
                       OpId root, const MorselPlan& plan) {
  std::unordered_set<OpId> reachable(order.begin(), order.end());
  std::unordered_map<OpId, uint32_t> edges = ParentEdges(dag, order);

  // Coverage: every stage op appears in exactly one pipeline, once, and
  // pipeline_of mirrors the stage lists exactly.
  std::unordered_map<OpId, uint32_t> seen;
  std::unordered_set<OpId> interior;
  for (uint32_t pi = 0; pi < plan.pipelines.size(); ++pi) {
    const Pipeline& pl = plan.pipelines[pi];
    if (pl.stages.size() < 2) {
      return Internal("morsel plan: [pipeline-arity] pipeline " +
                      std::to_string(pi) + ": fewer than two stages");
    }
    for (size_t si = 0; si < pl.stages.size(); ++si) {
      OpId id = pl.stages[si].op;
      if (reachable.count(id) == 0) {
        return Internal(
            Diag("stage-reachable", dag, id, "not reachable from the root"));
      }
      if (!seen.emplace(id, pi).second) {
        return Internal(
            Diag("stage-unique", dag, id, "fused into more than one stage"));
      }
      auto it = plan.pipeline_of.find(id);
      if (it == plan.pipeline_of.end() || it->second != pi) {
        return Internal(Diag("stage-map", dag, id,
                             "pipeline_of does not name its pipeline"));
      }
      if (si + 1 < pl.stages.size()) interior.insert(id);
      if (si > 0 && !(pl.stages[si - 1].op < id)) {
        return Internal(Diag("stage-order", dag, id,
                             "stages not in ascending (bottom-up) op order"));
      }
    }
  }
  for (const auto& [id, pi] : plan.pipeline_of) {
    auto it = seen.find(id);
    if (it == seen.end() || it->second != pi) {
      return Internal(Diag("stage-map", dag, id,
                           "pipeline_of entry without a matching stage"));
    }
  }

  for (const Pipeline& pl : plan.pipelines) {
    for (size_t si = 0; si < pl.stages.size(); ++si) {
      const PipelineStage& st = pl.stages[si];
      const Op& op = dag.op(st.op);
      bool last = si + 1 == pl.stages.size();
      if (si == 0) {
        if (st.pipe_child != -1) {
          return Internal(Diag("head-source", dag, st.op,
                               "head stage claims an in-pipe input"));
        }
        if (!(RowLocal(op.kind) || op.kind == OpKind::kUnion ||
              op.kind == OpKind::kEquiJoin ||
              op.kind == OpKind::kThetaJoin)) {
          return Internal(
              Diag("head-kind", dag, st.op, "kind cannot head a pipeline"));
        }
      } else {
        if (st.pipe_child < 0 ||
            static_cast<size_t>(st.pipe_child) >= op.children.size()) {
          return Internal(Diag("pipe-child", dag, st.op,
                               "in-pipe child index out of range"));
        }
        if (op.children[st.pipe_child] != pl.stages[si - 1].op) {
          return Internal(Diag("pipe-child", dag, st.op,
                               "in-pipe child is not the previous stage"));
        }
        if (RowLocal(op.kind)) {
          if (st.pipe_child != 0) {
            return Internal(Diag("pipe-child", dag, st.op,
                                 "row-local stage must stream child 0"));
          }
        } else if (op.kind == OpKind::kThetaJoin) {
          if (st.pipe_child != 0) {
            return Internal(Diag("theta-stream", dag, st.op,
                                 "theta stage must stream its left input"));
          }
          if (op.children[1] == pl.stages[si - 1].op) {
            return Internal(Diag("theta-stream", dag, st.op,
                                 "theta build side is an interior stage"));
          }
        } else if (SinkOnly(op.kind)) {
          if (!last) {
            return Internal(Diag("sink-only", dag, st.op,
                                 "Step/RowId must be the pipeline sink"));
          }
        } else {
          return Internal(
              Diag("stage-kind", dag, st.op, "kind cannot be fused"));
        }
      }
      if (!last) {
        // An interior table is never materialized: its one and only
        // consumer must be the next stage, reading it in-pipe.
        auto eit = edges.find(st.op);
        uint32_t n = eit == edges.end() ? 0 : eit->second;
        if (n != 1) {
          return Internal(Diag("interior-consumers", dag, st.op,
                               "interior stage has " + std::to_string(n) +
                                   " consumer edges (need exactly 1)"));
        }
        if (st.op == root) {
          return Internal(Diag("interior-root", dag, st.op,
                               "the root's table must materialize"));
        }
      }
      // Every non-pipe input must be a materialized table — standalone
      // op or another pipeline's sink, never an interior stage.
      for (size_t ci = 0; ci < op.children.size(); ++ci) {
        if (si > 0 && static_cast<int>(ci) == st.pipe_child) continue;
        if (interior.count(op.children[ci]) != 0) {
          return Internal(Diag("external-materialized", dag, st.op,
                               "input op " + std::to_string(op.children[ci]) +
                                   " is an interior stage of a pipeline"));
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace exrquy
