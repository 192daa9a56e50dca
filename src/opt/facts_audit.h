// Independent fact re-derivation, shared by the plan verifier
// (opt/verify.h) and the rewrite-certificate checker (opt/certify.h).
//
// Transfer rules stay independent; definitions are shared and tested
// against the engine. Every per-operator transfer rule here deliberately
// re-implements the one of the optimizer's dataflow analyses
// (opt/analyses.h): the audits built on top are only worth running
// against a second, independent derivation of how facts flow through
// the plan. What a function returns and how it maps order (the
// signature tables of algebra/algebra.h), when one sortedness fact
// implies another (FactImplies, AddOrderFact, OrderImplied) and
// saturating row-count arithmetic are definitions, not transfer rules:
// both sides call the same code, and tests/test_signatures.cc checks it
// against the engine and against brute force, which a second copy
// could not. All derived sets are sound under-approximations (a column
// listed as constant *is* constant in every model), so an audit failure
// always means the *claim* was too strong, never that the fact base was
// too weak to matter.
#ifndef EXRQUY_OPT_FACTS_AUDIT_H_
#define EXRQUY_OPT_FACTS_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "opt/analyses.h"

namespace exrquy {

// Independently derived facts about one operator's output, used to audit
// the optimizer's property claims and rewrite certificates.
struct OpFacts {
  ColSet constant;    // every row holds the same value
  ColSet arbitrary;   // relative order carries no semantic information
  ColSet keys;        // no two rows share a value (row-identifying)
  // Sound row-count bounds; at_most_one_row / no_rows are derived views
  // (max_rows <= 1 / max_rows == 0) kept for claim-audit convenience.
  uint64_t min_rows = 0;
  uint64_t max_rows = kUnboundedRows;
  bool at_most_one_row = false;
  bool no_rows = false;  // statically empty (e.g. a 0-row literal)
  // Sound per-column item kinds (absent = no static knowledge, i.e.
  // kAny): every value the column can hold belongs to the kind's
  // OrderCompare class.
  ColMap<ItemKind> kinds;
  // Sound sorted-prefix facts: the output rows are physically sorted
  // (and, when strict, duplicate-free) the way each fact says.
  std::vector<OrderFact> sorted;
};

// The derived kind of one column (kAny when nothing is known).
ItemKind KindAt(const OpFacts& f, ColId c);

// Whether the derived facts force `requested` to be realized already
// (the order-dependency trade's licensing condition).
bool SortedCovers(const OpFacts& f, const std::vector<SortKey>& requested);

// The pre-framework one-shot liveness walk, preserved as the independent
// reference for auditing the dataflow-framework ComputeICols: parents
// first in reverse topological (descending id) order, one transfer each.
// Indexed by OpId (root + 1 entries), empty for operators `root` does
// not reach; `reached`, when given, receives the ids the walk visited in
// ascending order.
std::vector<ColSet> DeriveLiveColumns(const Dag& dag, OpId root,
                                      const ColSet& seed,
                                      std::vector<OpId>* reached = nullptr);

// The same walk without the element-content item edge: the reference
// for auditing identity observation (ComputeObservedCols) — the
// deferred-constructor marks and their certificates.
std::vector<ColSet> DeriveObservedColumns(
    const Dag& dag, OpId root, const ColSet& seed,
    std::vector<OpId>* reached = nullptr);

// The serialization columns {iter, pos, item} the plan under `root`
// produces: the seed of every root-anchored backward walk.
ColSet RootSeed(const Dag& dag, OpId root);

std::string ColSetToString(const ColSet& cols);

// The audit fact base over a growing DAG, derived on demand and memoized
// for the Dag's lifetime — both for operators of the pre-pass plan and
// for replacements appended during a pass. Each Get sweeps the
// underived operators reachable from its argument once, in ascending id
// order (children always carry smaller ids), into dense per-OpId
// storage; returned references stay valid as the storage grows. The
// sweep is the audit's own, not the analyses' engine (opt/dataflow.h).
class FactsAudit {
 public:
  explicit FactsAudit(const Dag* dag) : dag_(dag) {}

  // Facts for `id`, deriving (and caching) the reachable region first.
  // Requires a structurally and schema-wise valid plan below `id`.
  const OpFacts& Get(OpId id);

  // Join-graph isolation: the columns of `id` that carry iteration/order
  // scaffolding (loop-lifting iter/pos columns, % and # results) rather
  // than item values. Re-derived forward from the column sources,
  // independently of the join-recognition rewrite whose claims it
  // audits. Deliberately over-approximated — a column touched by any
  // scaffolding source counts as scaffolding, so over-approximation can
  // only reject a plan, never admit a bad one.
  const ColSet& Scaffolding(OpId id);

  // Whether evaluating the sub-plan rooted at `id` can raise a dynamic
  // error. An independent re-derivation of the error-capability
  // analysis, using the audit's own row bounds instead of CardTracker's.
  bool MayRaise(OpId id);

 private:
  template <typename T>
  struct Memo {
    OpFactBlocks<T> facts;       // by OpId
    std::vector<uint8_t> state;  // by OpId: unseen, queued, derived
    std::vector<OpId> region;    // scratch for Sweep
    std::vector<const T*> in;
  };
  // Derives `memo`'s facts for the underived region under `root`:
  // derive(id, children's facts) for each, children first.
  template <typename T, typename Derive>
  const T& Sweep(OpId root, Memo<T>* memo, Derive derive);

  const Dag* dag_;
  Memo<OpFacts> facts_;
  Memo<ColSet> scaff_;
  Memo<bool> raise_;
};

// One plan's analysis cache, owned beside its Dag for the whole of one
// query's planning (PlanQuery): the optimizer's forward trackers, whose
// claims the rewrites consume, and the audit fact base that checks those
// claims (VerifyPlan) and the rewrites' certificates (CertifyChecker).
// Both are valid for every root of the append-only Dag. The two are
// only stored together: the audit never reads a tracker, so sharing the
// cache does not share a derivation.
//
// The root-anchored backward walks — liveness and identity observation,
// each by the framework and by the audit's reference walk — are
// memoized for the most recent root each: one plan's verification, the
// rewrite pass over the same root and that pass's certificate checker
// share one walk. All are seeded with RootSeed.
class PlanFacts {
 public:
  explicit PlanFacts(const Dag* dag) : analyses(dag), audit(dag), dag_(dag) {}

  // The walked columns per OpId, and the ids the walk reached
  // (ascending; filled by the audit walks only).
  struct RootColumns {
    OpId root = kNoOp;
    std::vector<ColSet> cols;
    std::vector<OpId> region;
  };

  const std::vector<ColSet>& Live(OpId root);           // ComputeICols
  const RootColumns& AuditLive(OpId root);              // DeriveLiveColumns
  const std::vector<ColSet>& Observed(OpId root);       // ComputeObservedCols
  const RootColumns& AuditObserved(OpId root);          // DeriveObservedColumns

  ForwardAnalyses analyses;
  FactsAudit audit;

 private:
  using Solver = std::vector<ColSet> (*)(const Dag&, OpId, const ColSet&,
                                         std::vector<OpId>*);
  const RootColumns& Memo(RootColumns* memo, OpId root, Solver solve);

  const Dag* dag_;
  RootColumns live_;
  RootColumns audit_live_;
  RootColumns observed_;
  RootColumns audit_observed_;
};

}  // namespace exrquy

#endif  // EXRQUY_OPT_FACTS_AUDIT_H_
