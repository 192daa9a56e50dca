// Static plan verification: a single-pass well-formedness and property
// checker over the algebra DAG. The optimizer's rewrites (column pruning,
// % weakening, distinct elimination, step merging) are only trustworthy
// if every intermediate plan stays well-formed, so the verifier checks
// three layers of invariants and reports the first violation as a
// Status (never UB or a CHECK abort):
//
//  (1) structure   — every edge points to an existing, *earlier* operator
//                    (acyclicity is a local property of the id order),
//                    kNoOp never appears as a child, per-kind child
//                    arity holds, and the node-constructor sharing
//                    exemption actually holds (distinct constructor ids);
//  (2) schema      — each operator references only columns its inputs
//                    produce, produces no duplicate output column, kNoCol
//                    never escapes into a schema or a column reference,
//                    per-FunKind arities and per-Aggr argument rules
//                    hold, and the stored schema matches an independent
//                    re-derivation;
//  (3) properties  — every fact the optimizer's dataflow analyses claim
//                    (opt/analyses.h) is cross-checked against an
//                    independently derived fact base (OpFacts: constants,
//                    order-meaningless columns, keys, row-count bounds,
//                    item kinds, sorted-prefix facts):
//                    PropertyTracker's constant/arbitrary claims (which
//                    license % weakening), KeyTracker's key claims (which
//                    license Distinct elimination and keyed % collapse),
//                    CardTracker's intervals (which license the
//                    empty-plan short-circuit), SemTypeTracker's kind
//                    claims (which gate the monotone-map order rules and
//                    the join kind classes), and OrderTracker's
//                    sorted-prefix claims (which license the
//                    order-dependency %→# trade) must all be derivable;
//                    the
//                    column dependency analysis never demands a column an
//                    operator cannot produce (so CDA pruning can never
//                    have deleted a live column) and must agree exactly
//                    with a preserved copy of the pre-framework one-shot
//                    walk — which covers the demand edges identity
//                    observation and order provenance share with it
//                    (analyses.cc); every presorted %'s input must
//                    be derivably sorted by its partition and then its
//                    criteria; and every deferred element
//                    constructor's item column must be unobserved.
//                    Order provenance itself is not solved here: its
//                    payload is checked by Session::ExplainOrder.
//
// Diagnostics are stable and test-assertable:
//   plan verifier: [<invariant>] op <id> (<OpKind>): <detail>
#ifndef EXRQUY_OPT_VERIFY_H_
#define EXRQUY_OPT_VERIFY_H_

#include <unordered_map>
#include <vector>

#include "algebra/algebra.h"
#include "common/status.h"
#include "opt/analyses.h"
#include "opt/facts_audit.h"

namespace exrquy {

// Structural invariants (layer 1) and schemas are always checked — they
// are the precondition for walking the DAG at all; the flag gates the
// layers on top of them.
struct VerifyOptions {
  // Re-derives column properties and cross-checks PropertyTracker and
  // ComputeICols. Slightly more expensive (still one pass per analysis);
  // the per-pass pipeline hook runs with this on.
  bool check_properties = true;
};

// The independently derived fact base (OpFacts, FactsAudit) lives in
// opt/facts_audit.h, shared with the rewrite-certificate checker
// (opt/certify.h).

// Checks a set of claimed properties for `id` against independently
// derived facts: every claimed column must exist in the operator's
// schema and be derivable. Returns the first violation as a
// "[property-claim]" diagnostic.
Status CheckClaims(const Dag& dag, OpId id, const OpFacts& claimed,
                   const OpFacts& derived);

// Checks a claimed row-count interval for `id` against independently
// derived bounds: the claim is sound only if it contains the derived
// interval. Returns the first violation as a "[cardinality-claim]"
// diagnostic.
Status CheckCardClaim(const Dag& dag, OpId id, const CardRange& claimed,
                      const OpFacts& derived);

// Checks the semantic-type domain's claims for `id`: every claimed kind
// must be at least as wide as the independently derived one. Returns the
// first violation as a "[semantic-type-claim]" diagnostic.
Status CheckSemTypeClaims(const Dag& dag, OpId id, const SemType& claimed,
                          const OpFacts& derived);

// Checks the order-dependency domain's claims for `id`: every claimed
// sorted-prefix fact must be implied by an independently derived one (or
// hold trivially on an at-most-one-row output). Returns the first
// violation as an "[order-dependency-claim]" diagnostic.
Status CheckOrderClaims(const Dag& dag, OpId id, const OrderFacts& claimed,
                        const OpFacts& derived);

// Verifies the sub-plan rooted at `root`. Cheap: one pass per enabled
// analysis over the reachable sub-DAG, no allocation proportional to the
// data. Safe to call on arbitrarily malformed DAGs (including cyclic
// edges and out-of-range ids): the property layer, the only one that
// reads `facts`, runs after the structure and schema checks passed.
// `facts` is the plan's analysis cache (PlanFacts, opt/facts_audit.h):
// the tracker claims and the audit facts of operators an earlier
// verification or rewrite pass already derived are read from it, not
// re-derived. When null, the call derives into a cache of its own.
Status VerifyPlan(const Dag& dag, OpId root,
                  const VerifyOptions& options = {},
                  PlanFacts* facts = nullptr);

}  // namespace exrquy

#endif  // EXRQUY_OPT_VERIFY_H_
