// Value-join recognition: the paper's loop-lifted compilation scheme
// evaluates a comparison between two unordered sequences by building the
// *product space* of the enclosing for-loops — a per-iteration join on
// the iteration column whose input tables grow with |outer| x |inner|
// rows (Q8/Q9's quadratic/cubic "join" queries, Section 5: "execution
// times explode"). The comparison itself never looks at the iteration
// scaffolding, though: per iteration it compares the very same item
// values that a value-based join would pair directly.
//
// This module recognizes that shape and re-roots it:
//
//  * RecognizeJoins scans a plan for the EBV-over-product-space idiom —
//    Select(ebv-Aggr(Union(Cross(Distinct(σ(Fun cmp(⋈ iter)))), true),
//    Cross(loop \ ..., false))) consumed through the re-attachment
//    composite π(⋈ bind(π(⋈ iterR(items, σ)), map)), or by a whole
//    for-loop return body over the survivors — and proves from the
//    plan's own structure that the inner for-space is the exact product
//    of the outer loop with a loop-invariant document-level node
//    sequence (every iteration steps the same path from the same
//    document root).
//
//  * EmitJoin rebuilds the inner sequence once at document level, keys
//    it with a fresh # (rid), re-roots both comparison chains onto their
//    small inputs, and joins them on the *compared item columns* — an
//    equality predicate over hash-safe kinds becomes a value-marked
//    EquiJoin (Op::value_join), anything else a ThetaJoin. Iteration and
//    order scaffolding columns (iter, pos, % results, the fresh rid)
//    never appear in the join predicate; the plan verifier audits this
//    independently ([join-isolation-claim] in opt/verify.cc).
//
// The surviving (outer, rid) pairs reproduce the original per-iteration
// survivors exactly: the S-space iterations are in bijection with
// (outer iteration, document item) pairs, and each comparison side
// computes a per-row function of only its own half of that pair.
#ifndef EXRQUY_OPT_JOIN_PLAN_H_
#define EXRQUY_OPT_JOIN_PLAN_H_

#include <map>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "opt/analyses.h"
#include "opt/rewrites.h"

namespace exrquy {

// How the recognized region consumes the predicate's survivors.
enum class JoinAnchorKind {
  // π(⋈ bind(π(⋈ iterR(items_s, σ)), map_s)) — the predicate's
  // survivors re-attached straight to the outer loop.
  kPredicate,
  // The inner for-loop's whole return expression: any body B over the
  // survivors, re-attached to the outer loop with its order columns.
  // Recognizing the full composite lets EmitJoin retire the product
  // space itself — the surviving (outer, rid) pairs are renumbered into
  // fresh dense iteration ids that reproduce the original iteration
  // order, and B is rebuilt over them.
  kReturn,
};

// One recognized comparison `a_col cmp b_col` between a plan computed
// over the inner sequence (cur: leaves items_s / loop_s) and one over
// the outer loop's items lifted into the product space (leaf `lift`).
// A predicate EBV built from an `and`-conjunction yields one JoinPred
// per conjunct; the region's survivors are the iterations where every
// conjunct has a matching pair, i.e. the intersection of the per-
// predicate survivor sets.
struct JoinPred {
  FunKind cmp = FunKind::kEq;
  ColId a_col = kNoCol;
  ColId b_col = kNoCol;
  bool a_in_cur = false;  // a_col lives on the inner (cur) side
  OpId cur_root = kNoOp;
  OpId outer_root = kNoOp;
  ColId cur_iter = kNoCol;    // iteration column at each side's top
  ColId outer_iter = kNoCol;
};

// One recognized value-join region, keyed by its anchor: the Project
// that re-attaches the surviving iterations to the outer loop. All ids
// refer to the plan RecognizeJoins scanned.
struct JoinSpec {
  JoinAnchorKind akind = JoinAnchorKind::kPredicate;
  OpId anchor = kNoOp;  // π{iter:iter1X[, item]}(⋈ bind(M, map_s))
  bool with_item = false;  // anchor also carries the inner item column

  // The recognized comparisons — one for a plain predicate, several for
  // an `and`-conjunction of product-space comparisons.
  std::vector<JoinPred> preds;

  // The product space S: numbering op N under map_s/loop_s/items_s.
  OpId space = kNoOp;    // N
  OpId items_s = kNoOp;  // π{iter:bind, item}(N)
  OpId loop_s = kNoOp;   // π{iter:bind}(N)
  OpId map_s = kNoOp;    // π{iter1X:iter, bindX:bind}(N)
  ColId iter1x = kNoCol;
  ColId bindx = kNoCol;

  // Outer loop: `lift` = π{iter:bindX, item}(⋈(outer_items, map_s))
  // lifts outer_items into S; outer_items = π{iter:bind, item}(src_num)
  // (a constant column such as the variable's pos may be attached)
  // enumerates the outer iterations themselves.
  OpId lift = kNoOp;
  OpId outer_items = kNoOp;
  OpId src_num = kNoOp;

  // Document-level rebuild of the per-iteration content: the original
  // Step ops (innermost first) applied over `base` (an existing
  // Cross(1-row Lit, Doc)) or over a fresh one around `doc_op`.
  OpId base = kNoOp;
  OpId doc_op = kNoOp;
  std::vector<OpId> steps;

  // kReturn only — the recognized return composite:
  //   anchor = π{iter:iter1X[, pos:posX], item}([ret_num](⋈ iter=bindX(
  //            B, map_s)))
  // B reaches the product space only through the survivor loop
  // π{iter}(sel) and the filtered bindings ⋈ iter=iterR(X, π{iterR:
  // iter}(sel)), X = items_s or a companion plan keyed by S-iterations;
  // everything else in B is a fixed table. EmitJoin rebuilds the whole
  // anchor with exactly these leaves (and map_s) substituted.
  OpId sel = kNoOp;        // the predicate's surviving S-iterations
  OpId survivors = kNoOp;  // π{iter}(sel), when B uses it
  std::vector<OpId> bindings;
  OpId dead_const = kNoOp;  // B = Cross(B0, 1-row Lit) read by nothing
                            // above B: rebuilt as B0 alone
};

// Scans the sub-plan rooted at `root` for value-join regions. Returns
// the recognized specs keyed by anchor id. Purely structural — never
// mutates the plan.
std::map<OpId, JoinSpec> RecognizeJoins(const Dag& dag, OpId root);

// Builds the re-rooted join plan for `spec` and returns its root.
// `outer_items_new` is the current pass's rewrite of spec.outer_items.
// Returns kNoOp when the join is refused: equality keys whose kinds are
// not provably hash-safe fall back to ThetaJoin, and ThetaJoin in turn
// requires options.theta_join plus statically non-node operand kinds
// (node operands make the comparison itself a type error — the original
// plan must keep raising it per iteration). `props` tells whether the
// outer iteration ids are an arbitrary # numbering (a return anchor's
// survivor renumbering then is one too). `detail` receives the
// justification for the --explain-order trade log.
OpId EmitJoin(Dag* dag, const JoinSpec& spec, OpId outer_items_new,
              const RewriteOptions& options, PropertyTracker* props,
              SemTypeTracker* sem, CardTracker* cards,
              std::string* detail);

}  // namespace exrquy

#endif  // EXRQUY_OPT_JOIN_PLAN_H_
