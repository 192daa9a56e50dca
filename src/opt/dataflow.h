// A generic dataflow framework over the plan DAG.
//
// Every plan analysis in opt/ — column liveness (CDA), constant and
// arbitrary-order columns, key columns, cardinality intervals, error
// capability, order provenance — is an instance of the same scheme: a
// per-operator fact computed from the facts of its neighbours by a
// transfer function. The two engines below factor that scheme out;
// opt/analyses.h instantiates them with the concrete domains.
//
// An analysis is a plain struct with:
//
//   using Fact = ...;  // one element per operator, default-constructible
//   // forward: the fact of an operator from the facts of its children
//   Fact Transfer(const Dag&, OpId, const std::vector<const Fact*>& in);
//   // backward only: the least element, the least upper bound (several
//   // parents contribute to one child), and the contributions of an
//   // operator's fact to its children
//   Fact Bottom(const Dag&, OpId);
//   void Join(Fact* into, const Fact& from);
//   void Transfer(const Dag&, OpId, const Fact& fact,
//                 std::vector<Fact>* to_children);
//
// One sweep: OpIds are assigned bottom-up, so every edge points from a
// larger id to a smaller one (DCHECKed here) and ascending id order is a
// topological order of the DAG. The forward engine transfers each
// operator once, in ascending order, after all its children; the
// backward engine transfers each once, in descending order, after all
// its parents have joined their contributions in. Neither needs a
// worklist or a second visit.
//
// Storage is dense, indexed by OpId. Forward facts depend only on the
// sub-DAG below an operator, and the DAG is append-only (rewrites add
// operators, never mutate existing ones), so ForwardDataflow keeps every
// fact for the Dag's lifetime: a later Get sweeps only the operators not
// yet solved. The facts live in fixed-size blocks (OpFactBlocks), so a
// reference Get returned stays valid while later Gets grow the storage.
// Backward facts depend on the chosen root and seed, so BackwardDataflow
// solves per (root, seed) without caching.
#ifndef EXRQUY_OPT_DATAFLOW_H_
#define EXRQUY_OPT_DATAFLOW_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "algebra/algebra.h"
#include "common/check.h"

namespace exrquy {

// Effort counters, exposed so tests can pin the one-transfer-per-operator
// contract and the optimizer bench can report analysis effort.
struct DataflowStats {
  size_t solves = 0;     // sweeps started (uncached Gets / Solve calls)
  size_t transfers = 0;  // transfer-function applications
};

// Dense OpId-indexed storage allocated kBlock elements at a time. Growth
// appends blocks and never moves an element, so a reference into it
// stays valid for the storage's lifetime — which is what lets the
// memoizing engines hand out `const Fact&` while later Gets grow the
// storage. Elements are default-constructed when their block is
// allocated.
template <typename T>
class OpFactBlocks {
 public:
  static constexpr size_t kBlockShift = 6;
  static constexpr size_t kBlock = size_t{1} << kBlockShift;

  size_t size() const { return blocks_.size() * kBlock; }
  // Makes ids [0, n) addressable.
  void Grow(size_t n) {
    while (size() < n) blocks_.push_back(std::make_unique<T[]>(kBlock));
  }
  T& operator[](OpId id) {
    return blocks_[id >> kBlockShift][id & (kBlock - 1)];
  }

 private:
  std::vector<std::unique_ptr<T[]>> blocks_;
};

// Facts flow from children to parents (bottom-up), memoized across Get
// calls and across DAG growth.
template <typename A>
class ForwardDataflow {
 public:
  using Fact = typename A::Fact;

  explicit ForwardDataflow(const Dag* dag, A analysis = A())
      : dag_(dag), analysis_(std::move(analysis)) {}

  const Fact& Get(OpId id) {
    if (id >= state_.size() || state_[id] != kSolved) Solve(id);
    return facts_[id];
  }

  const DataflowStats& stats() const { return stats_; }

 private:
  enum : uint8_t { kUnseen, kQueued, kSolved };

  void Solve(OpId root) {
    ++stats_.solves;
    if (state_.size() < dag_->size()) state_.resize(dag_->size(), kUnseen);
    // The scratch buffers are reused across solves. They are moved out
    // for the solve, so a transfer that re-enters Get just starts with
    // empty ones.
    std::vector<OpId> pending = std::move(pending_);
    std::vector<const Fact*> in = std::move(in_);
    // The unsolved part of the reachable sub-DAG, then one ascending
    // sweep over it: children transfer before their parents.
    pending.assign(1, root);
    state_[root] = kQueued;
    for (size_t i = 0; i < pending.size(); ++i) {
      for (OpId c : dag_->op(pending[i]).children) {
        if (state_[c] == kUnseen) {
          state_[c] = kQueued;
          pending.push_back(c);
        }
      }
    }
    std::sort(pending.begin(), pending.end());
    facts_.Grow(pending.back() + 1);
    for (OpId id : pending) {
      in.clear();
      for (OpId c : dag_->op(id).children) {
        EXRQUY_DCHECK(c < id);
        in.push_back(&facts_[c]);
      }
      facts_[id] = analysis_.Transfer(*dag_, id, in);
      state_[id] = kSolved;
      ++stats_.transfers;
    }
    pending_ = std::move(pending);
    in_ = std::move(in);
  }

  const Dag* dag_;
  A analysis_;
  OpFactBlocks<Fact> facts_;    // by OpId
  std::vector<uint8_t> state_;  // by OpId
  std::vector<OpId> pending_;   // scratch for Solve
  std::vector<const Fact*> in_;
  DataflowStats stats_;
};

// Facts flow from parents to children (top-down), seeded at a root.
template <typename A>
class BackwardDataflow {
 public:
  using Fact = typename A::Fact;

  explicit BackwardDataflow(const Dag* dag, A analysis = A())
      : dag_(dag), analysis_(std::move(analysis)) {}

  // The facts of the sub-DAG under `root`, with `seed` joined into the
  // root's fact, indexed by OpId (Bottom for operators `root` does not
  // reach).
  std::vector<Fact> Solve(OpId root, const Fact& seed) {
    ++stats_.solves;
    std::vector<OpId> order = dag_->ReachableFrom(root);
    std::vector<Fact> facts;
    facts.reserve(order.back() + 1);
    for (OpId id = 0; id <= order.back(); ++id) {
      facts.push_back(analysis_.Bottom(*dag_, id));
    }
    analysis_.Join(&facts[root], seed);
    std::vector<Fact> contrib;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const Op& op = dag_->op(*it);
      contrib.clear();
      for (OpId c : op.children) {
        EXRQUY_DCHECK(c < *it);
        contrib.push_back(analysis_.Bottom(*dag_, c));
      }
      analysis_.Transfer(*dag_, *it, facts[*it], &contrib);
      ++stats_.transfers;
      for (size_t i = 0; i < op.children.size(); ++i) {
        analysis_.Join(&facts[op.children[i]], contrib[i]);
      }
    }
    return facts;
  }

  const DataflowStats& stats() const { return stats_; }

 private:
  const Dag* dag_;
  A analysis_;
  DataflowStats stats_;
};

}  // namespace exrquy

#endif  // EXRQUY_OPT_DATAFLOW_H_
