// Plan rewrites driven by column dependency analysis and column
// properties:
//
//  * column pruning — dead %, #, ⊕ and attached constants are removed;
//    projections are narrowed and composed (Section 4.1, Figure 9),
//  * % weakening — order/grouping criteria that are constant are dropped;
//    a % ordered (only) by arbitrary-order columns with no meaningful
//    grouping becomes a free # (Section 7),
//  * distinct elimination — Distinct over a (union of) location step
//    results that are pairwise disjoint is removed; this is the rewrite
//    that trades the node set union '|' for sequence concatenation ','
//    (Section 4.2, Figure 10),
//  * step merging — descendant-or-self::node()/child::nt becomes
//    descendant::nt once the intervening order derivation is gone (the
//    exceptional Q6/Q7 speedups of Section 5),
//
// plus the fact-driven rewrites unlocked by the dataflow analyses
// (opt/analyses.h):
//
//  * key-based distinct elimination — Distinct whose input has a key
//    column (or at most one row) is dropped: a duplicate-free column
//    makes the whole rows pairwise distinct,
//  * empty-plan short-circuiting — a sub-plan with a statically-zero row
//    bound collapses to an empty literal, provided evaluating it can
//    never raise a dynamic error (the error capability analysis gates
//    this, so error semantics are preserved),
//  * key-justified % collapse — a % whose partition column is a key of
//    its input (or whose input has at most one row) ranks singleton
//    groups; the rank is the constant 1 and the blocking sort vanishes
//    without consuming the order demand. Keys include the iterations a
//    cardinality assertion makes unique (fn:exactly-one),
//  * order-dependency % collapse — a % whose requested order the input
//    provably already realizes (the order-dependency domain) performs an
//    identity sort: it degrades to a positional # carrying the very same
//    1..n values.
//
// After the rewrite fixpoint, one more pass marks the final plan
// (MarkPlan): an element constructor whose nodes no consumer can tell
// apart from copies of them is deferred, and the enclosing constructor
// builds its elements in place (Op::deferred); a % whose input provably
// arrives sorted by its partition and then its criteria is presorted,
// and ranks without sorting (Op::presorted).
#ifndef EXRQUY_OPT_REWRITES_H_
#define EXRQUY_OPT_REWRITES_H_

#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "opt/certify.h"

namespace exrquy {

struct RewriteOptions {
  bool column_pruning = true;        // CDA (Section 4.1)
  bool weaken_rownum = true;         // constant/arbitrary cols (Section 7)
  bool distinct_elimination = true;  // '|' -> ',' (Section 4.2)
  bool step_merging = true;          // Q6/Q7 step fusion
  // Fact-driven rewrites (key / cardinality / error-capability analyses).
  bool distinct_by_keys = true;      // key columns elide Distinct
  bool empty_short_circuit = true;   // statically empty sub-plans collapse
  bool rownum_by_keys = true;        // keyed partitions make % rank 1
  // Order-dependency driven % elimination: a % whose input already
  // realizes its order becomes #, or is marked presorted (MarkPlan).
  // (Singleton partitions, including asserted-unique iterations, are
  // rownum_by_keys's trade.)
  bool rownum_by_od = true;
  // Value-join recognition: comparisons evaluated over loop-lifted
  // product spaces are re-rooted as joins on the compared item columns,
  // keeping iteration/order scaffolding out of the join predicates.
  bool join_recognition = true;
  // Allow non-equality comparisons to become ThetaJoin operators; when
  // off, only hash-joinable equality predicates are recognized.
  bool theta_join = true;
  // Identity indifference: mark element constructors whose item column
  // no consumer observes (ComputeObservedCols) as deferred, so each
  // constructed node is written once, by the outermost constructor.
  bool deferred_construction = true;
  // Rewrite certification (opt/certify.h): every rewrite instance emits
  // a certificate an independent checker validates. kDefault resolves
  // against EXRQUY_CERTIFY (unset -> check) once per plan, in Optimize;
  // RewriteOnce itself reads kDefault as kCheck. kOff emits bare trade
  // records; kCheck validates every certificate and records the outcome;
  // kStrict rejects any rewrite whose certificate fails its obligation
  // and keeps the old sub-plan; spot_check additionally evaluates
  // before/after sub-plans before execution and compares the witnessed
  // columns byte-for-byte.
  CertifySettings certify;
};

// The individually switchable rewrite families, one entry each: the name
// the ablations and error messages use, and its flag. Everything that
// enumerates the families — the QueryService cache key, the tests —
// iterates this table, so a new family is one flag plus one entry here.
struct RewriteFamily {
  const char* name;
  bool RewriteOptions::*flag;
};

inline constexpr RewriteFamily kRewriteFamilies[] = {
    {"column_pruning", &RewriteOptions::column_pruning},
    {"weaken_rownum", &RewriteOptions::weaken_rownum},
    {"distinct_elimination", &RewriteOptions::distinct_elimination},
    {"step_merging", &RewriteOptions::step_merging},
    {"distinct_by_keys", &RewriteOptions::distinct_by_keys},
    {"empty_short_circuit", &RewriteOptions::empty_short_circuit},
    {"rownum_by_keys", &RewriteOptions::rownum_by_keys},
    {"rownum_by_od", &RewriteOptions::rownum_by_od},
    {"join_recognition", &RewriteOptions::join_recognition},
    {"theta_join", &RewriteOptions::theta_join},
    {"deferred_construction", &RewriteOptions::deferred_construction},
};

// Every rewrite instance the pass performed is logged as a certificate —
// the family, before/after roots, the cited facts, a column witness map,
// and (unless certification is off) the checker's verdict. The legacy %-
// elimination trade log is the order_trade subset of these entries.
using RewriteTrade = RewriteCertificate;

// Whether the rewrite a certificate describes made it into the plan:
// strict certification keeps the old sub-plan when the obligation fails.
inline bool RewriteCommitted(const RewriteTrade& t,
                             const CertifySettings& resolved) {
  return !(resolved.mode == CertifyMode::kStrict && t.checked && !t.valid);
}

// One rewrite pass over the sub-DAG rooted at `root`; returns the new
// root and sets *changed if the plan shrank or any operator changed.
// The pass reads the forward facts its rewrites consume, and its
// certificate checker the audit facts, from `facts` — the plan's cache,
// built over `dag` and shared by every pass and verification of the plan
// — and derives only what no earlier pass did. When `trades` is
// non-null, every rewrite instance the pass performed is appended with
// the reason it is sound (its certificate).
OpId RewriteOnce(Dag* dag, OpId root, const RewriteOptions& options,
                 PlanFacts* facts, bool* changed,
                 std::vector<RewriteTrade>* trades = nullptr);

// The mark pass over the plan rooted at `root`, run once after the
// rewrite fixpoint (a rewrite pass rebuilds a presorted % unmarked): with
// deferred_construction, defers every element constructor whose item
// column is identity-unobserved (PlanFacts::Observed); with rownum_by_od,
// marks presorted every % whose input provably realizes RowNumSortKeys.
// Each mark carries a certificate (appended to `trades` when non-null);
// strict certification keeps a rejected operator unmarked. Rebuilds the
// marks' ancestors and returns the new root.
OpId MarkPlan(Dag* dag, OpId root, const RewriteOptions& options,
              PlanFacts* facts, std::vector<RewriteTrade>* trades = nullptr);

}  // namespace exrquy

#endif  // EXRQUY_OPT_REWRITES_H_
