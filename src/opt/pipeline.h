// The optimization pipeline: column dependency analysis + rewrites,
// iterated to a fixpoint (pruning exposes more pruning, e.g. removing a
// % makes two location steps adjacent and mergeable).
#ifndef EXRQUY_OPT_PIPELINE_H_
#define EXRQUY_OPT_PIPELINE_H_

#include "algebra/algebra.h"
#include "common/status.h"
#include "opt/rewrites.h"

namespace exrquy {

struct OptimizeOptions {
  // Master switch; when false the emitted plan runs as-is (the paper's
  // baseline configuration).
  bool enable = true;
  RewriteOptions rewrites;
  int max_passes = 8;

  // Re-verifies the plan (opt/verify.h, all checks) after every rewrite
  // pass. When a pass breaks an invariant the failure names the pass,
  // the verifier diagnostic and the failed obligation of the pass's
  // first certificate that was checked and found invalid (each rewrite
  // instance carries its own certificate, opt/certify.h); it carries a
  // dot graph of the bad plan when `strings` is set. Verification never
  // changes the plan.
  bool verify_each_pass = false;
  const StrPool* strings = nullptr;  // for dot dumps in failure reports

  // When non-null, every % the rewrite passes eliminated is appended
  // with the rule that fired and its justification (rewrites.h), for
  // Session::ExplainOrder / --explain-order.
  std::vector<RewriteTrade>* trade_log = nullptr;
};

// Returns the new plan root (ops are appended to the same DAG; use
// ReachableFrom/CollectPlanStats on the returned root), the first
// verifier diagnostic when `verify_each_pass` catches a bad rewrite, or
// an InvalidArgument for a malformed EXRQUY_CERTIFY (resolved once
// here, for every pass). Every pass and verification reads and extends
// `facts`, the plan's analysis cache (opt/facts_audit.h); when null,
// Optimize keeps a cache of its own.
Result<OpId> Optimize(Dag* dag, OpId root, const OptimizeOptions& options,
                      PlanFacts* facts = nullptr);

}  // namespace exrquy

#endif  // EXRQUY_OPT_PIPELINE_H_
