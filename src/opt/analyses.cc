#include "opt/analyses.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace exrquy {

// ---------------------------------------------------------------------------
// The demand rules of Figure 8, written once. Column liveness, identity
// observation and order provenance are three payloads over this one edge
// table; the one-shot walk in the verifier's independent audit
// (opt/facts_audit.cc) keeps its own copy on purpose and cross-checks the
// liveness payload on every verified plan ([liveness-equivalence]).
// ---------------------------------------------------------------------------

namespace {

// Emits the demand edges of operator `id`, given the columns `demand`
// requested of its output:
//  * need(child, c)      — the operator itself consumes column c of
//                          child `child` (c != kNoCol);
//  * pass(child, out, in) — demand for output column `out` passes
//                          through as demand for column `in` of child
//                          `child` (in == out except under a projection).
// Demand passes through only to a child that produces the column, and
// never for the operator's own output column.
// With `identity` set, the content item an element constructor copies
// without inspecting is not demanded (identity observation).
template <typename Need, typename Pass>
void DemandEdges(const Dag& dag, OpId id, const ColSet& demand,
                 bool identity, Need need, Pass pass) {
  const Op& op = dag.op(id);
  auto consume = [&](size_t child, ColId c) {
    if (c != kNoCol) need(child, c);
  };
  auto through = [&](size_t child, ColId except) {
    const Op& ch = dag.op(op.children[child]);
    for (ColId c : demand) {
      if (c != except && ch.HasCol(c)) pass(child, c, c);
    }
  };
  switch (op.kind) {
    case OpKind::kLit:
    case OpKind::kDoc:
      break;
    case OpKind::kProject:
      for (const auto& [n, o] : op.proj) {
        if (demand.count(n) != 0) pass(0, n, o);
      }
      break;
    case OpKind::kSelect:
      through(0, kNoCol);
      consume(0, op.col);
      break;
    case OpKind::kEquiJoin:
    case OpKind::kThetaJoin:
      through(0, kNoCol);
      through(1, kNoCol);
      consume(0, op.col);
      consume(1, op.col2);
      break;
    case OpKind::kCross:
    case OpKind::kUnion:
      through(0, kNoCol);
      through(1, kNoCol);
      break;
    case OpKind::kDifference:
    case OpKind::kSemiJoin:
      through(0, kNoCol);
      for (ColId k : op.keys) {
        consume(0, k);
        consume(1, k);
      }
      break;
    case OpKind::kDistinct:
      // Duplicate elimination depends on every input column.
      for (ColId c : dag.op(op.children[0]).schema) consume(0, c);
      break;
    case OpKind::kRowNum:
      through(0, op.col);
      for (const SortKey& k : op.order) consume(0, k.col);
      consume(0, op.part);
      break;
    case OpKind::kRowId:
      through(0, op.col);
      break;
    case OpKind::kFun:
      through(0, op.col);
      for (ColId a : op.args) consume(0, a);
      break;
    case OpKind::kAggr:
      consume(0, op.col2);
      consume(0, op.part);
      for (ColId k : op.keys) consume(0, k);
      break;
    case OpKind::kThetaCount: {
      size_t g = ThetaCountGroupSide(dag, op);
      consume(0, op.keys[0]);
      consume(1, op.keys[1]);
      consume(g, op.part);
      consume(1 - g, op.col2);
      break;
    }
    case OpKind::kStep:
      consume(0, col::iter());
      consume(0, col::item());
      break;
    case OpKind::kElem:
    case OpKind::kAttr:
    case OpKind::kTextNode:
      consume(0, col::iter());
      consume(0, col::pos());
      if (!(identity && op.kind == OpKind::kElem)) consume(0, col::item());
      consume(1, col::iter());
      break;
    case OpKind::kRange:
      consume(0, col::iter());
      consume(0, op.col);
      consume(0, op.col2);
      break;
    case OpKind::kCardCheck:
      through(0, kNoCol);
      consume(0, col::iter());
      consume(1, col::iter());
      break;
  }
}

// The liveness payload: a demanded column is a set member. With
// `identity` set, the same sweep solves identity observation
// (ComputeObservedCols).
struct LivenessAnalysis {
  using Fact = ColSet;
  bool identity = false;

  Fact Bottom(const Dag&, OpId) const { return {}; }

  void Join(Fact* into, const Fact& from) const {
    into->insert(from.begin(), from.end());
  }

  void Transfer(const Dag& dag, OpId id, const Fact& r,
                std::vector<Fact>* out) const {
    DemandEdges(
        dag, id, r, identity,
        [&](size_t child, ColId c) {
          // Unconditional: the verifier audits that demanded columns
          // are producible.
          EXRQUY_DCHECK(dag.op(dag.op(id).children[child]).HasCol(c));
          (*out)[child].insert(c);
        },
        [&](size_t child, ColId, ColId in) { (*out)[child].insert(in); });
  }
};

}  // namespace

std::vector<ColSet> ComputeICols(const Dag& dag, OpId root,
                                 const ColSet& seed) {
  BackwardDataflow<LivenessAnalysis> engine(&dag);
  return engine.Solve(root, seed);
}

std::vector<ColSet> ComputeObservedCols(const Dag& dag, OpId root,
                                        const ColSet& seed) {
  BackwardDataflow<LivenessAnalysis> engine(&dag, {/*identity=*/true});
  return engine.Solve(root, seed);
}

// ---------------------------------------------------------------------------
// Constant / arbitrary-order columns: forward analysis. The transfer is
// the per-operator rule set the old PropertyTracker applied in its
// memoized bottom-up walk, unchanged (and deliberately without the
// single-row saturation the verifier's independent derivation performs —
// the claims must stay a subset of the derivable facts, not equal).
// ---------------------------------------------------------------------------

ColProps ConstArbAnalysis::Transfer(
    const Dag& dag, OpId id, const std::vector<const ColProps*>& in) const {
  const Op& op = dag.op(id);
  ColProps out;
  auto child = [&](size_t i) -> const ColProps& { return *in[i]; };
  auto inherit = [&](const ColProps& p) {
    for (ColId c : p.constant) {
      if (op.HasCol(c)) out.constant.insert(c);
    }
    for (ColId c : p.arbitrary) {
      if (op.HasCol(c)) out.arbitrary.insert(c);
    }
  };

  switch (op.kind) {
    case OpKind::kLit: {
      for (size_t i = 0; i < op.lit.cols.size(); ++i) {
        bool constant = true;
        for (size_t r = 1; r < op.lit.rows.size(); ++r) {
          if (!(op.lit.rows[r][i] == op.lit.rows[0][i])) {
            constant = false;
            break;
          }
        }
        if (constant) out.constant.insert(op.lit.cols[i]);
      }
      break;
    }
    case OpKind::kProject: {
      const ColProps& p = child(0);
      for (const auto& [n, o] : op.proj) {
        if (p.constant.count(o) != 0) out.constant.insert(n);
        if (p.arbitrary.count(o) != 0) out.arbitrary.insert(n);
      }
      break;
    }
    case OpKind::kSelect:
    case OpKind::kDistinct:
    case OpKind::kDifference:
    case OpKind::kSemiJoin:
    case OpKind::kCardCheck:
      inherit(child(0));
      break;
    case OpKind::kEquiJoin:
    case OpKind::kThetaJoin:
    case OpKind::kCross:
      inherit(child(0));
      inherit(child(1));
      break;
    case OpKind::kUnion: {
      // A column stays constant only if both branches are constant with
      // the same value — value tracking is out of scope, so constancy is
      // dropped; arbitrariness survives if both branches are arbitrary.
      const ColProps& a = child(0);
      const ColProps& b = child(1);
      for (ColId c : a.arbitrary) {
        if (b.arbitrary.count(c) != 0) out.arbitrary.insert(c);
      }
      break;
    }
    case OpKind::kRowNum:
      inherit(child(0));
      // The produced rank is meaningful (unless its criteria were
      // arbitrary — but then the rewriter turns the op into # anyway).
      break;
    case OpKind::kRowId:
      inherit(child(0));
      // Positional ids are proven row positions — physically ascending —
      // so only an arbitrary # makes its column order-meaningless.
      if (!op.positional) out.arbitrary.insert(op.col);
      break;
    case OpKind::kFun: {
      inherit(child(0));
      out.constant.erase(op.col);
      out.arbitrary.erase(op.col);
      bool all_const = true;
      for (ColId a : op.args) {
        if (child(0).constant.count(a) == 0) all_const = false;
      }
      if (all_const) out.constant.insert(op.col);
      break;
    }
    case OpKind::kAggr:
    case OpKind::kThetaCount: {
      const ColProps& p =
          child(op.kind == OpKind::kAggr ? 0 : ThetaCountGroupSide(dag, op));
      if (op.part != kNoCol) {
        if (p.constant.count(op.part) != 0) out.constant.insert(op.part);
        if (p.arbitrary.count(op.part) != 0) out.arbitrary.insert(op.part);
      }
      break;
    }
    case OpKind::kRange:
    case OpKind::kStep:
    case OpKind::kElem:
    case OpKind::kAttr:
    case OpKind::kTextNode: {
      // The iter column descends from the context/loop input (child 0 for
      // steps and ranges, child 1 — the loop — for constructors).
      bool from_first =
          op.kind == OpKind::kStep || op.kind == OpKind::kRange;
      const ColProps& p = child(from_first ? 0 : 1);
      if (p.constant.count(col::iter()) != 0) {
        out.constant.insert(col::iter());
      }
      if (p.arbitrary.count(col::iter()) != 0) {
        out.arbitrary.insert(col::iter());
      }
      break;
    }
    case OpKind::kDoc:
      out.constant.insert(col::item());
      break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Cardinality intervals.
// ---------------------------------------------------------------------------

uint64_t SatAdd(uint64_t a, uint64_t b) {
  if (a == kUnboundedRows || b == kUnboundedRows) return kUnboundedRows;
  uint64_t s = a + b;
  return s < a ? kUnboundedRows : s;
}

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kUnboundedRows || b == kUnboundedRows) return kUnboundedRows;
  if (a > kUnboundedRows / b) return kUnboundedRows;
  return a * b;
}

std::string CardRange::ToString() const {
  std::string lo = min == kUnboundedRows ? "inf" : std::to_string(min);
  std::string hi = max == kUnboundedRows ? "inf" : std::to_string(max);
  return "[" + lo + "," + hi + "]";
}

CardRange CardAnalysis::Transfer(
    const Dag& dag, OpId id, const std::vector<const CardRange*>& in) const {
  const Op& op = dag.op(id);
  auto child = [&](size_t i) -> const CardRange& { return *in[i]; };
  CardRange out;
  switch (op.kind) {
    case OpKind::kLit:
      out.min = out.max = op.lit.rows.size();
      break;
    case OpKind::kProject:
    case OpKind::kRowNum:
    case OpKind::kRowId:
    case OpKind::kFun:
    case OpKind::kCardCheck:
      out = child(0);
      break;
    case OpKind::kSelect:
    case OpKind::kDifference:
    case OpKind::kSemiJoin:
      out.min = 0;
      out.max = child(0).max;
      break;
    case OpKind::kDistinct:
      out.min = child(0).min > 0 ? 1 : 0;
      out.max = child(0).max;
      break;
    case OpKind::kEquiJoin:
    case OpKind::kThetaJoin:
      out.min = 0;
      out.max = SatMul(child(0).max, child(1).max);
      break;
    case OpKind::kCross:
      out.min = SatMul(child(0).min, child(1).min);
      out.max = SatMul(child(0).max, child(1).max);
      break;
    case OpKind::kUnion:
      out.min = SatAdd(child(0).min, child(1).min);
      out.max = SatAdd(child(0).max, child(1).max);
      break;
    case OpKind::kAggr:
      if (op.part == kNoCol) {
        // The whole table is one group, and the engine emits that group
        // even for an empty input (count() = 0, EBV = false, ...).
        out.min = out.max = 1;
      } else {
        out.min = child(0).min > 0 ? 1 : 0;
        out.max = child(0).max;
      }
      break;
    case OpKind::kThetaCount:
      // At most one row per group; a group without a match is dropped.
      out.min = 0;
      out.max = child(ThetaCountGroupSide(dag, op)).max;
      break;
    case OpKind::kStep:
    case OpKind::kRange:
      // Arbitrary fan-out per context row; empty context stays empty.
      out.min = 0;
      out.max = child(0).max == 0 ? 0 : kUnboundedRows;
      break;
    case OpKind::kElem:
    case OpKind::kAttr:
    case OpKind::kTextNode:
      // One constructed node per row of the loop relation (child 1).
      out = child(1);
      break;
    case OpKind::kDoc:
      out.min = out.max = 1;
      break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Key columns.
// ---------------------------------------------------------------------------

namespace {

// The compiler's padding idiom for an empty result per iteration:
//   pad = Cross(Difference(A, π c:x (S), {c}), one-row literal)
// next to p = π ..., c:x, ... (S) (or p = S when x = c). The padding
// holds exactly the c values that p lacks, so p and pad never share a
// c value.
bool PadsOn(const Dag& dag, OpId p, OpId pad, ColId c) {
  const Op& cross = dag.op(pad);
  if (cross.kind != OpKind::kCross) return false;
  for (size_t side = 0; side < 2; ++side) {
    const Op& lit = dag.op(cross.children[1 - side]);
    const Op& diff = dag.op(cross.children[side]);
    if (lit.kind != OpKind::kLit || lit.lit.rows.size() != 1 ||
        lit.HasCol(c) || diff.kind != OpKind::kDifference ||
        diff.keys != std::vector<ColId>{c}) {
      continue;
    }
    const Op& b = dag.op(diff.children[1]);
    if (b.kind != OpKind::kProject || b.proj.size() != 1 ||
        b.proj[0].first != c) {
      continue;
    }
    const ColId x = b.proj[0].second;
    if (p == b.children[0] && x == c) return true;
    const Op& po = dag.op(p);
    if (po.kind == OpKind::kProject && po.children[0] == b.children[0] &&
        std::find(po.proj.begin(), po.proj.end(), std::make_pair(c, x)) !=
            po.proj.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace

ColSet KeyAnalysis::Transfer(const Dag& dag, OpId id,
                             const std::vector<const ColSet*>& in) const {
  const Op& op = dag.op(id);
  auto child = [&](size_t i) -> const ColSet& { return *in[i]; };
  auto at_most_one = [&](size_t i) {
    return cards->Get(op.children[i]).max <= 1;
  };
  ColSet out;
  // Keys of a child that survive into this operator's schema.
  auto inherit = [&](const ColSet& k) {
    for (ColId c : op.schema) {
      if (k.count(c) != 0) out.insert(c);
    }
  };

  switch (op.kind) {
    case OpKind::kLit: {
      size_t n = op.lit.rows.size();
      for (size_t i = 0; i < op.lit.cols.size(); ++i) {
        bool distinct = true;
        for (size_t r = 0; r < n && distinct; ++r) {
          for (size_t r2 = r + 1; r2 < n; ++r2) {
            if (op.lit.rows[r][i] == op.lit.rows[r2][i]) {
              distinct = false;
              break;
            }
          }
        }
        if (distinct) out.insert(op.lit.cols[i]);
      }
      break;
    }
    case OpKind::kProject:
      for (const auto& [n, o] : op.proj) {
        if (child(0).count(o) != 0) out.insert(n);
      }
      break;
    // Row subsets: distinct values stay distinct.
    case OpKind::kSelect:
    case OpKind::kDistinct:
    case OpKind::kDifference:
    case OpKind::kSemiJoin:
      inherit(child(0));
      break;
    case OpKind::kCardCheck:
      inherit(child(0));
      // Once the per-iteration assertion has passed, every iteration
      // holds at most max_card rows: for fn:zero-or-one / fn:exactly-one
      // that makes iter duplicate-free. (Relies on the compiler invariant
      // that the checked relation's iterations all stem from the loop
      // relation, child 1.)
      if (op.max_card <= 1) out.insert(col::iter());
      break;
    case OpKind::kEquiJoin:
    case OpKind::kThetaJoin:
    case OpKind::kCross: {
      // A side's keys survive when each of its rows appears at most
      // once: the other side contributes at most one match per row.
      // (A ThetaJoin row can match several distinct far-side values
      // even when those are duplicate-free, so only the <=1-row case
      // applies there, as for ×.)
      bool left_once;
      bool right_once;
      if (op.kind == OpKind::kEquiJoin) {
        left_once = child(1).count(op.col2) != 0 || at_most_one(1);
        right_once = child(0).count(op.col) != 0 || at_most_one(0);
      } else {
        left_once = at_most_one(1);
        right_once = at_most_one(0);
      }
      if (left_once) inherit(child(0));
      if (right_once) inherit(child(1));
      break;
    }
    case OpKind::kUnion: {
      // A statically empty branch preserves the other branch's keys, and
      // a key of both branches survives when one branch is the other's
      // empty-result padding (the shape of a where clause's surviving
      // iterations); other cross-branch value reasoning is out of scope.
      const OpId l = op.children[0];
      const OpId r = op.children[1];
      if (cards->Get(l).max == 0) {
        inherit(child(1));
      } else if (cards->Get(r).max == 0) {
        inherit(child(0));
      } else {
        for (ColId c : child(0)) {
          if (child(1).count(c) != 0 &&
              (PadsOn(dag, l, r, c) || PadsOn(dag, r, l, c))) {
            out.insert(c);
          }
        }
      }
      break;
    }
    case OpKind::kRowNum:
      inherit(child(0));
      // A dense numbering over the whole table identifies rows; within
      // partitions it repeats across groups.
      if (op.part == kNoCol) out.insert(op.col);
      break;
    case OpKind::kRowId:
      inherit(child(0));
      out.insert(op.col);
      break;
    case OpKind::kFun:
      inherit(child(0));
      break;
    case OpKind::kAggr:
    case OpKind::kThetaCount:
      if (op.part != kNoCol) out.insert(op.part);  // one row per group
      break;
    case OpKind::kStep:
      // Document structure: every node has exactly one parent, at most
      // one attribute of a given name, and belongs to exactly one
      // element's attribute list.
      switch (op.axis) {
        case Axis::kSelf:  // a row subset of the (iter, item) context
          inherit(child(0));
          break;
        case Axis::kParent:  // at most one output row per context row
          if (child(0).count(col::iter()) != 0) out.insert(col::iter());
          break;
        case Axis::kChild:  // distinct parents have disjoint children
          if (child(0).count(col::item()) != 0) out.insert(col::item());
          break;
        case Axis::kAttribute:
          // Attributes of distinct elements are distinct nodes; a name
          // test additionally caps the fan-out at one row per context.
          if (child(0).count(col::item()) != 0) out.insert(col::item());
          if (op.test.kind == NodeTest::Kind::kName &&
              child(0).count(col::iter()) != 0) {
            out.insert(col::iter());
          }
          break;
        default:
          // Descendant/ancestor/sibling subtrees of distinct context
          // nodes can overlap: no keys survive.
          break;
      }
      break;
    case OpKind::kRange:
      break;
    case OpKind::kElem:
    case OpKind::kAttr:
    case OpKind::kTextNode:
      if (child(1).count(col::iter()) != 0) out.insert(col::iter());
      out.insert(col::item());  // distinct node identities
      break;
    case OpKind::kDoc:
      break;  // single-row saturation below covers it
  }
  // Everything is a key of a relation with at most one row.
  if (cards->Get(id).max <= 1) {
    for (ColId c : op.schema) out.insert(c);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Semantic types.
// ---------------------------------------------------------------------------

ItemKind SemType::KindOf(ColId c) const {
  auto it = kinds.find(c);
  return it == kinds.end() ? ItemKind::kAny : it->second;
}

SemType SemTypeAnalysis::Transfer(const Dag& dag, OpId id,
                                  const std::vector<const SemType*>& in) const {
  const Op& op = dag.op(id);
  auto child = [&](size_t i) -> const SemType& { return *in[i]; };
  SemType out;
  auto inherit = [&](const SemType& t) {
    for (const auto& [c, k] : t.kinds) {
      if (op.HasCol(c)) out.kinds.emplace(c, k);
    }
  };

  switch (op.kind) {
    case OpKind::kLit: {
      for (size_t i = 0; i < op.lit.cols.size(); ++i) {
        if (op.lit.rows.empty()) continue;
        ItemKind k = KindOfValue(op.lit.rows[0][i]);
        for (size_t r = 1; r < op.lit.rows.size() && k != ItemKind::kAny;
             ++r) {
          k = KindJoin(k, KindOfValue(op.lit.rows[r][i]));
        }
        if (k != ItemKind::kAny) out.kinds.emplace(op.lit.cols[i], k);
      }
      break;
    }
    case OpKind::kProject: {
      const SemType& t = child(0);
      for (const auto& [n, o] : op.proj) {
        ItemKind k = t.KindOf(o);
        if (k != ItemKind::kAny) out.kinds.emplace(n, k);
      }
      break;
    }
    // Row subsets: kinds survive.
    case OpKind::kSelect:
    case OpKind::kDistinct:
    case OpKind::kDifference:
    case OpKind::kSemiJoin:
    case OpKind::kCardCheck:
      inherit(child(0));
      break;
    case OpKind::kRowNum:
    case OpKind::kRowId:
      inherit(child(0));
      out.kinds[op.col] = ItemKind::kInt;
      break;
    case OpKind::kFun: {
      inherit(child(0));
      ItemKind arg0 = op.args.empty() ? ItemKind::kAny
                                      : child(0).KindOf(op.args[0]);
      ItemKind k = Signature(op.fun).ResultFor(arg0);
      if (k != ItemKind::kAny) {
        out.kinds[op.col] = k;
      } else {
        out.kinds.erase(op.col);
      }
      break;
    }
    case OpKind::kAggr: {
      const SemType& t = child(0);
      if (op.part != kNoCol) {
        ItemKind pk = t.KindOf(op.part);
        if (pk != ItemKind::kAny) out.kinds.emplace(op.part, pk);
      }
      ItemKind k = Signature(op.aggr).ResultFor(t.KindOf(op.col2));
      if (k != ItemKind::kAny) out.kinds[op.col] = k;
      break;
    }
    case OpKind::kThetaCount: {
      ItemKind pk = child(ThetaCountGroupSide(dag, op)).KindOf(op.part);
      if (pk != ItemKind::kAny) out.kinds.emplace(op.part, pk);
      out.kinds[op.col] = ItemKind::kInt;
      break;
    }
    case OpKind::kStep: {
      ItemKind ik = child(0).KindOf(col::iter());
      if (ik != ItemKind::kAny) out.kinds.emplace(col::iter(), ik);
      out.kinds[col::item()] = ItemKind::kNode;
      break;
    }
    case OpKind::kRange: {
      ItemKind ik = child(0).KindOf(col::iter());
      if (ik != ItemKind::kAny) out.kinds.emplace(col::iter(), ik);
      out.kinds[col::item()] = ItemKind::kInt;
      break;
    }
    case OpKind::kDoc:
      out.kinds[col::item()] = ItemKind::kNode;
      break;
    case OpKind::kElem:
    case OpKind::kAttr:
    case OpKind::kTextNode: {
      ItemKind ik = child(1).KindOf(col::iter());
      if (ik != ItemKind::kAny) out.kinds.emplace(col::iter(), ik);
      out.kinds[col::item()] = ItemKind::kNode;
      break;
    }
    case OpKind::kEquiJoin:
    case OpKind::kThetaJoin:
    case OpKind::kCross:
      inherit(child(0));
      inherit(child(1));
      break;
    case OpKind::kUnion: {
      const SemType& a = child(0);
      const SemType& b = child(1);
      for (const auto& [c, k] : a.kinds) {
        if (!op.HasCol(c)) continue;
        ItemKind j = KindJoin(k, b.KindOf(c));
        if (j != ItemKind::kAny) out.kinds.emplace(c, j);
      }
      if (cards->Get(op.children[0]).max == 0) inherit(b);
      break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Order dependencies.
// ---------------------------------------------------------------------------

bool FactImplies(const OrderFact& f, const OrderFact& g) {
  bool f_prefix_of_g =
      f.keys.size() <= g.keys.size() &&
      std::equal(f.keys.begin(), f.keys.end(), g.keys.begin());
  // A fully strict prefix leaves no ties: any extension holds, strictly.
  if (f_prefix_of_g && f.strict) return true;
  bool g_prefix_of_f =
      g.keys.size() <= f.keys.size() &&
      std::equal(g.keys.begin(), g.keys.end(), f.keys.begin());
  // Sorted by a longer list implies sorted by any prefix (non-strictly).
  return g_prefix_of_f && !g.strict;
}

void AddOrderFact(std::vector<OrderFact>* facts, OrderFact f,
                  size_t max_facts, size_t max_keys) {
  std::vector<SortKey> keys;
  for (const SortKey& k : f.keys) {
    bool dup = false;
    for (const SortKey& seen : keys) {
      if (seen.col == k.col) {
        dup = true;  // sorting again by an earlier key is a no-op
        break;
      }
    }
    if (!dup) keys.push_back(k);
  }
  if (keys.size() > max_keys) {
    keys.resize(max_keys);
    f.strict = false;  // strictness spoke about the full prefix
  }
  f.keys = std::move(keys);
  if (f.keys.empty()) return;
  for (const OrderFact& have : *facts) {
    if (FactImplies(have, f)) return;
  }
  facts->erase(std::remove_if(facts->begin(), facts->end(),
                              [&](const OrderFact& have) {
                                return FactImplies(f, have);
                              }),
               facts->end());
  if (facts->size() >= max_facts) return;
  facts->push_back(std::move(f));
}

std::string OrderFact::ToString() const {
  std::string out = "<";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i != 0) out += ",";
    out += ColName(keys[i].col);
    if (keys[i].descending) out += " desc";
  }
  out += ">";
  if (strict) out += "!";
  return out;
}

std::string OrderFacts::ToString() const {
  std::string out;
  for (const OrderFact& f : facts) {
    if (!out.empty()) out += " ";
    out += f.ToString();
  }
  return out;
}

bool OrderImplied(const std::vector<OrderFact>& facts, const ColSet& constants,
                  const ColSet& keys, bool at_most_one,
                  const std::vector<SortKey>& requested) {
  if (at_most_one) return true;  // one row is sorted every way
  // Criteria over constant columns tie on every row: skippable.
  std::vector<SortKey> want;
  for (const SortKey& k : requested) {
    if (constants.count(k.col) == 0) want.push_back(k);
  }
  // covered[i]: the rows are in the order want[i..]. A fact matching
  // want[i..j) covers it when the match ends on a duplicate-free key (no
  // ties left), or covered[j] holds: ties on the matched prefix are
  // contiguous runs of rows that are sorted by want[j..] (conjunction).
  std::vector<bool> covered(want.size() + 1, false);
  covered[want.size()] = true;
  for (size_t i = want.size(); i-- > 0;) {
    for (const OrderFact& f : facts) {
      size_t qi = i;
      size_t fi = 0;
      while (!covered[i]) {
        // Constant fact keys tie on every row too; the remaining keys
        // still describe the physical order exactly.
        while (fi < f.keys.size() && constants.count(f.keys[fi].col) != 0) {
          ++fi;
        }
        if (fi == f.keys.size()) {
          // Fact exhausted with requested keys left: only a
          // duplicate-free consumed prefix pins the remaining order.
          covered[i] = f.strict;
          break;
        }
        if (!(f.keys[fi++] == want[qi])) break;
        covered[i] = keys.count(want[qi++].col) != 0 || covered[qi];
      }
    }
  }
  return covered[0];
}

OrderFacts OrderAnalysis::Transfer(
    const Dag& dag, OpId id, const std::vector<const OrderFacts*>& in) const {
  const Op& op = dag.op(id);
  auto child = [&](size_t i) -> const OrderFacts& { return *in[i]; };
  OrderFacts out;
  auto add = [&](OrderFact f) {
    AddOrderFact(&out.facts, std::move(f), kMaxOrderFacts, kMaxOrderKeys);
  };
  // A child fact survives an op that keeps the surviving rows in their
  // relative order; keys the op's schema no longer carries truncate the
  // fact (losing strictness with them).
  auto inherit = [&](const OrderFacts& f) {
    for (const OrderFact& fact : f.facts) {
      OrderFact g;
      for (const SortKey& k : fact.keys) {
        if (!op.HasCol(k.col)) break;
        g.keys.push_back(k);
      }
      if (g.keys.empty()) continue;
      g.strict = fact.strict && g.keys.size() == fact.keys.size();
      add(std::move(g));
    }
  };

  switch (op.kind) {
    case OpKind::kLit: {
      // Literal tables with statically sorted integer columns (value
      // classes beyond xs:integer would need the engine's comparator).
      for (size_t i = 0; i < op.lit.cols.size(); ++i) {
        bool ints = true;
        bool asc = true;
        bool desc = true;
        bool strict_asc = true;
        bool strict_desc = true;
        for (size_t r = 0; r < op.lit.rows.size() && ints; ++r) {
          if (op.lit.rows[r][i].kind != ValueKind::kInt) ints = false;
        }
        if (!ints) continue;
        for (size_t r = 1; r < op.lit.rows.size(); ++r) {
          int64_t a = op.lit.rows[r - 1][i].i;
          int64_t b = op.lit.rows[r][i].i;
          if (a > b) asc = strict_asc = false;
          if (a < b) desc = strict_desc = false;
          if (a == b) strict_asc = strict_desc = false;
        }
        if (asc) {
          add({{{op.lit.cols[i], false}}, strict_asc});
        } else if (desc) {
          add({{{op.lit.cols[i], true}}, strict_desc});
        }
      }
      break;
    }
    case OpKind::kProject: {
      // Rename fact keys; a dropped key truncates the fact. A column
      // projected under several names yields the first alias (caps keep
      // the expansion linear).
      for (const OrderFact& fact : child(0).facts) {
        OrderFact g;
        bool complete = true;
        for (const SortKey& k : fact.keys) {
          ColId renamed = kNoCol;
          for (const auto& [n, o] : op.proj) {
            if (o == k.col) {
              renamed = n;
              break;
            }
          }
          if (renamed == kNoCol) {
            complete = false;
            break;
          }
          g.keys.push_back({renamed, k.descending});
        }
        if (g.keys.empty()) continue;
        g.strict = fact.strict && complete;
        add(std::move(g));
      }
      break;
    }
    // Row subsets preserve relative order; so do per-row extensions.
    case OpKind::kSelect:
    case OpKind::kDistinct:
    case OpKind::kDifference:
    case OpKind::kSemiJoin:
    case OpKind::kCardCheck:
      inherit(child(0));
      break;
    case OpKind::kRowNum: {
      inherit(child(0));
      // % keeps the physical row order (ranks are written back into the
      // input's row slots). When the input already realizes
      // RowNumSortKeys, the stable sort is the identity: each partition
      // is a contiguous run ranked 1, 2, ... in physical order.
      OpId c = op.children[0];
      if (OrderImplied(child(0).facts, props->Get(c).constant, keys->Get(c),
                       cards->Get(c).max <= 1, RowNumSortKeys(op))) {
        if (op.part != kNoCol) {
          add({{{op.part, false}, {op.col, false}}, true});
        }
        if (op.part == kNoCol || props->Get(c).constant.count(op.part) != 0) {
          add({{{op.col, false}}, true});
        }
      }
      break;
    }
    case OpKind::kRowId:
      inherit(child(0));
      // # assigns r+1 to physical row r: strictly ascending by
      // construction, whether the ids are positional or arbitrary.
      add({{{op.col, false}}, true});
      break;
    case OpKind::kFun: {
      inherit(child(0));
      // Monotone ⊕ maps transfer sortedness through the function: for a
      // fact sorted by [..., arg, ...], the image column sorts the same
      // way (order-isomorphic maps keep the tail and strictness; merely
      // monotone ones truncate, since ties in the image hide order). The
      // map depends on the argument's kind (the function's signature):
      // OrderCompare is type-class-major, so e.g. number("10") <
      // number("9") while "10" < "9".
      if (op.args.size() == 1) {
        ColId arg = op.args[0];
        OrderMap map = Signature(op.fun).OrderFor(
            sem->Get(op.children[0]).KindOf(arg));
        if (map != OrderMap::kNone) {
          for (const OrderFact& fact : child(0).facts) {
            for (size_t i = 0; i < fact.keys.size(); ++i) {
              if (fact.keys[i].col != arg) continue;
              OrderFact g = fact;
              g.keys[i].col = op.col;
              if (map == OrderMap::kAnti) {
                g.keys[i].descending = !g.keys[i].descending;
              }
              if (map == OrderMap::kMono) {
                g.keys.resize(i + 1);
                g.strict = false;
              }
              add(std::move(g));
            }
          }
        }
      }
      break;
    }
    case OpKind::kAggr:
      if (op.part != kNoCol) {
        // Groups are emitted in first-appearance order: an input sorted
        // by the partition column lists each group contiguously, so the
        // output (one row per group) is sorted — and duplicate-free —
        // by it.
        for (const OrderFact& fact : child(0).facts) {
          if (!fact.keys.empty() && fact.keys[0].col == op.part) {
            add({{fact.keys[0]}, true});
          }
        }
      }
      break;
    case OpKind::kStep:
      // Steps sort and de-duplicate their output globally by (iter,
      // item) — the context-order/document-order contract (engine).
      add({{{col::iter(), false}, {col::item(), false}}, true});
      break;
    case OpKind::kRange:
      // Row-major expansion: each input row emits its items in
      // ascending order.
      for (const OrderFact& fact : child(0).facts) {
        if (fact.keys[0].col != col::iter()) continue;
        if (fact.keys.size() == 1 && fact.strict) {
          add({{fact.keys[0], {col::item(), false}}, true});
        } else {
          add({{fact.keys[0]}, false});
        }
      }
      break;
    case OpKind::kCross: {
      // Left-major: the output enumerates left rows in order, each
      // paired with every right row in order.
      uint64_t left_max = cards->Get(op.children[0]).max;
      uint64_t right_max = cards->Get(op.children[1]).max;
      for (const OrderFact& f : child(0).facts) {
        add({f.keys, f.strict && right_max <= 1});
        if (f.strict) {
          // A strict left prefix makes the concatenation sorted: ties
          // on the left keys happen only within one left row's block.
          for (const OrderFact& g : child(1).facts) {
            OrderFact cat;
            cat.keys = f.keys;
            cat.keys.insert(cat.keys.end(), g.keys.begin(), g.keys.end());
            cat.strict = g.strict;
            add(std::move(cat));
          }
        }
      }
      if (left_max <= 1) {
        for (const OrderFact& g : child(1).facts) add(g);
      }
      break;
    }
    case OpKind::kEquiJoin:
    case OpKind::kThetaJoin: {
      // The engine picks the equi-join build side at run time (the
      // smaller input), so only a statically at-most-one-row far side
      // guarantees the output is a subsequence of the near side: either
      // the near side is the probe (order preserved), or it is smaller
      // than a <=1-row relation, i.e. empty. ThetaJoin probes the left
      // side but may emit per-probe matches in build-value order, so the
      // same conservative rule applies.
      if (cards->Get(op.children[1]).max <= 1) {
        for (const OrderFact& f : child(0).facts) add(f);
      }
      if (cards->Get(op.children[0]).max <= 1) {
        for (const OrderFact& g : child(1).facts) add(g);
      }
      break;
    }
    case OpKind::kUnion:
      // Append: facts survive only when one branch is statically empty
      // (the boundary value is unknown otherwise).
      if (cards->Get(op.children[0]).max == 0) {
        inherit(child(1));
      } else if (cards->Get(op.children[1]).max == 0) {
        inherit(child(0));
      }
      break;
    case OpKind::kDoc:
      // Single row: OrderImplied's at-most-one case covers it.
      break;
    case OpKind::kThetaCount:
      // Groups come in pair-stream first-appearance order, which no
      // input sortedness fact describes.
      break;
    case OpKind::kElem:
    case OpKind::kAttr:
    case OpKind::kTextNode:
      // Constructor output order is an engine detail we leave opaque.
      break;
  }
  return out;
}

bool ForwardAnalyses::OrderCovers(OpId id,
                                  const std::vector<SortKey>& requested) {
  return OrderImplied(od.Get(id).facts, props.Get(id).constant, keys.Get(id),
                      cards.Get(id).max <= 1, requested);
}

// ---------------------------------------------------------------------------
// Error capability.
// ---------------------------------------------------------------------------

bool RaiseAnalysis::Transfer(const Dag& dag, OpId id,
                             const std::vector<const bool*>& in) const {
  for (const bool* c : in) {
    if (*c) return true;
  }
  const Op& op = dag.op(id);
  switch (op.kind) {
    case OpKind::kDoc:
      return true;  // unknown document name
    case OpKind::kCardCheck:
      return true;  // can fire even on an empty input (min_card > 0)
    case OpKind::kRange:
      // Non-integer or oversized bounds — per input row.
      return cards->Get(op.children[0]).max > 0;
    case OpKind::kFun:
      // Casts, arithmetic on non-numerics, division by zero,
      // incomparable comparisons — all per input row. Treating every
      // function as error-capable is conservative but only ever blocks
      // a rewrite.
      return cards->Get(op.children[0]).max > 0;
    case OpKind::kThetaJoin:
    case OpKind::kThetaCount:
      // The comparison raises on incomparable pairs — only when pairs
      // can exist at all.
      return cards->Get(op.children[0]).max > 0 &&
             cards->Get(op.children[1]).max > 0;
    case OpKind::kAggr:
      switch (op.aggr) {
        case AggrKind::kSum:
        case AggrKind::kMax:
        case AggrKind::kMin:
        case AggrKind::kAvg:
          return true;  // type errors; avg/min/max of an empty group
        default:
          return false;
      }
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Order provenance.
// ---------------------------------------------------------------------------

namespace {

// Classifies the internal consumption of a column by `consumer` as a
// human-readable reason, carrying the consumer's source expression.
std::string ReasonLabel(const Dag& dag, OpId consumer,
                        const StrPool* strings) {
  const Op& op = dag.op(consumer);
  std::string what;
  auto named = [&](StrId s) {
    return strings != nullptr ? strings->Get(s) : std::string("?");
  };
  switch (op.kind) {
    case OpKind::kRowNum:
      what = "sort/grouping criteria of % (row numbering)";
      break;
    case OpKind::kSelect:
      what = "row filter";
      break;
    case OpKind::kEquiJoin:
    case OpKind::kThetaJoin:
      what = "join condition";
      break;
    case OpKind::kThetaCount:
      what = "join condition of count()";
      break;
    case OpKind::kDifference:
      what = "anti-join keys";
      break;
    case OpKind::kSemiJoin:
      what = "semi-join keys";
      break;
    case OpKind::kDistinct:
      what = "duplicate elimination";
      break;
    case OpKind::kFun:
      what = std::string("argument of ") + FunKindName(op.fun);
      break;
    case OpKind::kAggr:
      if (op.aggr == AggrKind::kStrJoin && !op.keys.empty()) {
        what = "order-sensitive aggregation (string-join)";
      } else {
        what = std::string("aggregation ") + AggrKindName(op.aggr);
      }
      break;
    case OpKind::kStep:
      what = std::string("location step context (") + AxisName(op.axis) +
             (strings != nullptr
                  ? "::" + NodeTestToString(op.test, *strings)
                  : std::string()) +
             ")";
      break;
    case OpKind::kElem:
      what = "element constructor <" + named(op.name) +
             "> (content in sequence order)";
      break;
    case OpKind::kAttr:
      what = "attribute constructor @" + named(op.name);
      break;
    case OpKind::kTextNode:
      what = "text node constructor (content in sequence order)";
      break;
    case OpKind::kRange:
      what = "range bounds ('to')";
      break;
    case OpKind::kCardCheck:
      what = "cardinality check " + named(op.name);
      break;
    default:
      what = std::string("consumed by ") + OpKindName(op.kind);
      break;
  }
  if (!op.prov.empty()) what += " -- " + op.prov;
  return what;
}

// The provenance payload over the same demand edges: a reason is
// attached wherever the operator itself consumes a column (need), and
// reasons are copied wherever demand merely passes through (pass). Every demanded column therefore carries at least one reason,
// and the demanded column sets coincide with ComputeICols.
struct ProvenanceAnalysis {
  using Fact = OrderProvenance::Demand;
  static constexpr uint32_t kNoReason = ~uint32_t{0};

  const StrPool* strings = nullptr;
  std::vector<OrderReason>* reasons = nullptr;
  std::vector<uint32_t>* intern = nullptr;  // by consumer OpId

  uint32_t Reason(const Dag& dag, OpId consumer) const {
    uint32_t& id = (*intern)[consumer];
    if (id == kNoReason) {
      id = static_cast<uint32_t>(reasons->size());
      reasons->push_back({consumer, ReasonLabel(dag, consumer, strings)});
    }
    return id;
  }

  Fact Bottom(const Dag&, OpId) const { return {}; }

  void Join(Fact* into, const Fact& from) const {
    for (const auto& [c, rs] : from) (*into)[c].insert(rs.begin(), rs.end());
  }

  void Transfer(const Dag& dag, OpId id, const Fact& r,
                std::vector<Fact>* out) const {
    ColSet demand;
    for (const auto& [c, reasons] : r) demand.insert(c);
    DemandEdges(
        dag, id, demand, /*identity=*/false,
        [&](size_t child, ColId c) {
          (*out)[child][c].insert(Reason(dag, id));
        },
        [&](size_t child, ColId from, ColId to) {
          const OrderProvenance::ReasonIds& rs = r.find(from)->second;
          (*out)[child][to].insert(rs.begin(), rs.end());
        });
  }
};

}  // namespace

std::vector<std::string> OrderProvenance::ReasonsFor(OpId id,
                                                     ColId col) const {
  std::vector<std::string> out;
  if (id >= demand.size()) return out;
  auto cit = demand[id].find(col);
  if (cit == demand[id].end()) return out;
  for (uint32_t r : cit->second) {
    if (r < reasons.size()) out.push_back(reasons[r].label);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

OrderProvenance ComputeOrderProvenance(const Dag& dag, OpId root,
                                       const ColSet& seed,
                                       const StrPool* strings) {
  OrderProvenance out;
  std::vector<uint32_t> intern(root + 1, ProvenanceAnalysis::kNoReason);
  ProvenanceAnalysis analysis{strings, &out.reasons, &intern};
  // The root demand: the query result is serialized in sequence order.
  uint32_t serialize = static_cast<uint32_t>(out.reasons.size());
  out.reasons.push_back(
      {kNoOp, "result serialization (the query result is delivered in "
              "sequence order)"});
  ProvenanceAnalysis::Fact seed_fact;
  for (ColId c : seed) seed_fact[c].insert(serialize);
  BackwardDataflow<ProvenanceAnalysis> engine(&dag, analysis);
  out.demand = engine.Solve(root, seed_fact);
  return out;
}

std::map<OpId, std::vector<std::string>> ProvenanceAnnotations(
    const Dag& dag, OpId root, const OrderProvenance& prov) {
  std::map<OpId, std::vector<std::string>> out;
  for (OpId id : dag.ReachableFrom(root)) {
    const Op& op = dag.op(id);
    if (op.kind != OpKind::kRowNum) continue;
    std::vector<std::string> lines = prov.ReasonsFor(id, op.col);
    if (lines.empty()) {
      lines.push_back("rank never consumed (removable by column pruning)");
    }
    for (std::string& l : lines) l = "ordered because: " + l;
    out.emplace(id, std::move(lines));
  }
  return out;
}

}  // namespace exrquy
