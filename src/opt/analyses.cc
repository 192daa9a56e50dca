#include "opt/analyses.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace exrquy {

// ---------------------------------------------------------------------------
// Column liveness: backward set-union analysis. The transfer edges are
// the demand rules of Figure 8 — exactly the edges the one-shot walk in
// the verifier's independent re-derivation uses (opt/verify.cc), which
// cross-checks this implementation on every verified plan.
// ---------------------------------------------------------------------------

namespace {

struct LivenessAnalysis {
  using Fact = ColSet;

  Fact Bottom(const Dag&, OpId) const { return {}; }

  bool Join(Fact* into, const Fact& from) const {
    bool changed = false;
    for (ColId c : from) changed |= into->insert(c).second;
    return changed;
  }

  void Transfer(const Dag& dag, OpId id, const Fact& r,
                std::vector<Fact>* out) const {
    const Op& op = dag.op(id);
    // Demands a specific column of child `child` (unconditionally: the
    // verifier audits that demanded columns are producible).
    auto need = [&](size_t child, ColId c) {
      if (c == kNoCol) return;
      EXRQUY_DCHECK(dag.op(op.children[child]).HasCol(c));
      (*out)[child].insert(c);
    };
    // Passes the upstream demand through to child `child`, restricted to
    // the columns that child produces.
    auto need_set = [&](size_t child, const ColSet& cols) {
      const Op& ch = dag.op(op.children[child]);
      for (ColId c : cols) {
        if (ch.HasCol(c)) (*out)[child].insert(c);
      }
    };

    switch (op.kind) {
      case OpKind::kLit:
      case OpKind::kDoc:
        break;
      case OpKind::kProject:
        for (const auto& [n, o] : op.proj) {
          if (r.count(n) != 0) need(0, o);
        }
        break;
      case OpKind::kSelect:
        need_set(0, r);
        need(0, op.col);
        break;
      case OpKind::kEquiJoin:
      case OpKind::kThetaJoin:
        need_set(0, r);
        need_set(1, r);
        need(0, op.col);
        need(1, op.col2);
        break;
      case OpKind::kCross:
        need_set(0, r);
        need_set(1, r);
        break;
      case OpKind::kUnion:
        need_set(0, r);
        need_set(1, r);
        break;
      case OpKind::kDifference:
      case OpKind::kSemiJoin:
        need_set(0, r);
        for (ColId k : op.keys) {
          need(0, k);
          need(1, k);
        }
        break;
      case OpKind::kDistinct: {
        // Duplicate elimination depends on every input column.
        for (ColId c : dag.op(op.children[0]).schema) need(0, c);
        break;
      }
      case OpKind::kRowNum: {
        ColSet pass = r;
        pass.erase(op.col);
        need_set(0, pass);
        for (const SortKey& k : op.order) need(0, k.col);
        need(0, op.part);
        break;
      }
      case OpKind::kRowId: {
        ColSet pass = r;
        pass.erase(op.col);
        need_set(0, pass);
        break;
      }
      case OpKind::kFun: {
        ColSet pass = r;
        pass.erase(op.col);
        need_set(0, pass);
        for (ColId a : op.args) need(0, a);
        break;
      }
      case OpKind::kAggr:
        need(0, op.col2);
        need(0, op.part);
        for (ColId k : op.keys) need(0, k);
        break;
      case OpKind::kThetaCount: {
        size_t g = ThetaCountGroupSide(dag, op);
        need(0, op.keys[0]);
        need(1, op.keys[1]);
        need(g, op.part);
        need(1 - g, op.col2);
        break;
      }
      case OpKind::kStep:
        need(0, col::iter());
        need(0, col::item());
        break;
      case OpKind::kElem:
      case OpKind::kAttr:
      case OpKind::kTextNode:
        need(0, col::iter());
        need(0, col::pos());
        need(0, col::item());
        need(1, col::iter());
        break;
      case OpKind::kRange:
        need(0, col::iter());
        need(0, op.col);
        need(0, op.col2);
        break;
      case OpKind::kCardCheck:
        need_set(0, r);
        need(0, col::iter());
        need(1, col::iter());
        break;
    }
  }
};

}  // namespace

std::unordered_map<OpId, ColSet> ComputeICols(const Dag& dag, OpId root,
                                              const ColSet& seed) {
  BackwardDataflow<LivenessAnalysis> engine(&dag);
  return engine.Solve(root, seed);
}

// ---------------------------------------------------------------------------
// Constant / arbitrary-order columns: forward analysis. The transfer is
// the per-operator rule set the old PropertyTracker applied in its
// memoized bottom-up walk, unchanged (and deliberately without the
// single-row saturation the verifier's independent derivation performs —
// the claims must stay a subset of the derivable facts, not equal).
// ---------------------------------------------------------------------------

ColProps ConstArbAnalysis::Bottom(const Dag&, OpId) const { return {}; }

bool ConstArbAnalysis::Join(ColProps* into, const ColProps& from) const {
  bool changed = false;
  for (ColId c : from.constant) changed |= into->constant.insert(c).second;
  for (ColId c : from.arbitrary) changed |= into->arbitrary.insert(c).second;
  return changed;
}

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

const ColProps& PropertyTracker::Get(OpId id) { return engine_.Get(id); }

// ---------------------------------------------------------------------------
// Cardinality intervals.
// ---------------------------------------------------------------------------

namespace {

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

}  // namespace

std::string CardRange::ToString() const {
  std::string lo = min == kUnboundedRows ? "inf" : std::to_string(min);
  std::string hi = max == kUnboundedRows ? "inf" : std::to_string(max);
  return "[" + lo + "," + hi + "]";
}

CardRange CardAnalysis::Bottom(const Dag&, OpId) const { return {}; }

bool CardAnalysis::Join(CardRange* into, const CardRange& from) const {
  bool changed = false;
  if (from.min < into->min) {
    into->min = from.min;
    changed = true;
  }
  if (from.max > into->max) {
    into->max = from.max;
    changed = true;
  }
  return changed;
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

const CardRange& CardTracker::Get(OpId id) { return engine_.Get(id); }


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

ColSet KeyAnalysis::Bottom(const Dag&, OpId) const { return {}; }

bool KeyAnalysis::Join(ColSet* into, const ColSet& from) const {
  bool changed = false;
  for (ColId c : from) changed |= into->insert(c).second;
  return changed;
}

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
    case OpKind::kCardCheck:
      inherit(child(0));
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

const ColSet& KeyTracker::Get(OpId id) { return engine_.Get(id); }

// ---------------------------------------------------------------------------
// Semantic types.
// ---------------------------------------------------------------------------

const char* ItemKindName(ItemKind kind) {
  switch (kind) {
    case ItemKind::kInt:
      return "int";
    case ItemKind::kNumeric:
      return "numeric";
    case ItemKind::kString:
      return "string";
    case ItemKind::kBool:
      return "bool";
    case ItemKind::kNode:
      return "node";
    case ItemKind::kAny:
      return "any";
  }
  return "?";
}

bool KindLe(ItemKind a, ItemKind b) {
  if (a == b || b == ItemKind::kAny) return true;
  return a == ItemKind::kInt && b == ItemKind::kNumeric;
}

ItemKind KindJoin(ItemKind a, ItemKind b) {
  if (KindLe(a, b)) return b;
  if (KindLe(b, a)) return a;
  return ItemKind::kAny;
}

bool OneComparisonClass(ItemKind a, ItemKind b) {
  if (a == b) {
    return a == ItemKind::kInt || a == ItemKind::kString ||
           a == ItemKind::kBool;
  }
  return (KindIsNumeric(a) && b == ItemKind::kString) ||
         (a == ItemKind::kString && KindIsNumeric(b));
}

ItemKind SemType::KindOf(ColId c) const {
  auto it = kinds.find(c);
  return it == kinds.end() ? ItemKind::kAny : it->second;
}

namespace {

// The static kind of one literal value. kUntyped compares in
// OrderCompare's string class (engine/value.cc), hence kString.
ItemKind KindOfValue(const Value& v) {
  switch (v.kind) {
    case ValueKind::kInt:
      return ItemKind::kInt;
    case ValueKind::kDouble:
      return ItemKind::kNumeric;
    case ValueKind::kString:
    case ValueKind::kUntyped:
      return ItemKind::kString;
    case ValueKind::kBool:
      return ItemKind::kBool;
    case ValueKind::kNode:
      return ItemKind::kNode;
  }
  return ItemKind::kAny;
}

// The kind of a ⊕ result, given the kind of its first argument.
ItemKind KindOfFun(FunKind fun, ItemKind arg0) {
  switch (fun) {
    case FunKind::kIDiv:
    case FunKind::kStringLength:
      return ItemKind::kInt;
    case FunKind::kAdd:
    case FunKind::kSub:
    case FunKind::kMul:
    case FunKind::kDiv:
    case FunKind::kMod:
    case FunKind::kNeg:
    case FunKind::kToDouble:
    case FunKind::kAbs:
    case FunKind::kFloor:
    case FunKind::kCeiling:
    case FunKind::kRound:
      return ItemKind::kNumeric;
    case FunKind::kEq:
    case FunKind::kNe:
    case FunKind::kLt:
    case FunKind::kLe:
    case FunKind::kGt:
    case FunKind::kGe:
    case FunKind::kNodeBefore:
    case FunKind::kNodeAfter:
    case FunKind::kNodeIs:
    case FunKind::kAnd:
    case FunKind::kOr:
    case FunKind::kNot:
    case FunKind::kContains:
    case FunKind::kStartsWith:
    case FunKind::kEndsWith:
      return ItemKind::kBool;
    case FunKind::kToString:
    case FunKind::kConcat:
    case FunKind::kUpperCase:
    case FunKind::kLowerCase:
    case FunKind::kNormalizeSpace:
    case FunKind::kSubstring2:
    case FunKind::kSubstring3:
    case FunKind::kNodeName:
      return ItemKind::kString;
    case FunKind::kAtomize:
      // Atomics pass through unchanged; nodes atomize to untypedAtomic,
      // which lives in the string order class.
      if (arg0 == ItemKind::kNode) return ItemKind::kString;
      if (arg0 == ItemKind::kAny) return ItemKind::kAny;
      return arg0;
  }
  return ItemKind::kAny;
}

}  // namespace

SemType SemTypeAnalysis::Bottom(const Dag&, OpId) const { return {}; }

bool SemTypeAnalysis::Join(SemType* into, const SemType& from) const {
  bool changed = false;
  for (const auto& [c, k] : from.kinds) {
    auto it = into->kinds.find(c);
    if (it == into->kinds.end()) {
      into->kinds.emplace(c, k);
      changed = true;
    } else if (it->second != k) {
      ItemKind widened = KindJoin(it->second, k);
      if (widened != it->second) {
        it->second = widened;
        changed = true;
      }
    }
  }
  for (ColId c : from.unit_groups) {
    changed |= into->unit_groups.insert(c).second;
  }
  return changed;
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
    for (ColId c : t.unit_groups) {
      if (op.HasCol(c)) out.unit_groups.insert(c);
    }
  };
  auto inherit_kinds = [&](const SemType& t) {
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
        if (t.unit_groups.count(o) != 0) out.unit_groups.insert(n);
      }
      break;
    }
    // Row subsets: both kinds and duplicate-freedom survive.
    case OpKind::kSelect:
    case OpKind::kDistinct:
    case OpKind::kDifference:
    case OpKind::kSemiJoin:
      inherit(child(0));
      break;
    case OpKind::kCardCheck:
      inherit(child(0));
      // The new source of unit groups: once the per-iteration assertion
      // has passed, every iteration holds at most max_card rows — for
      // fn:zero-or-one / fn:exactly-one that makes iter duplicate-free.
      // (Relies on the compiler invariant that the checked relation's
      // iterations all stem from the loop relation, child 1.)
      if (op.max_card <= 1) out.unit_groups.insert(col::iter());
      break;
    case OpKind::kRowNum:
      inherit(child(0));
      out.kinds[op.col] = ItemKind::kInt;
      if (op.part == kNoCol) out.unit_groups.insert(op.col);
      break;
    case OpKind::kRowId:
      inherit(child(0));
      out.kinds[op.col] = ItemKind::kInt;
      out.unit_groups.insert(op.col);
      break;
    case OpKind::kFun: {
      inherit(child(0));
      out.unit_groups.erase(op.col);
      ItemKind arg0 = op.args.empty() ? ItemKind::kAny
                                      : child(0).KindOf(op.args[0]);
      ItemKind k = KindOfFun(op.fun, arg0);
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
        out.unit_groups.insert(op.part);  // one row per group
      }
      ItemKind k = ItemKind::kAny;
      switch (op.aggr) {
        case AggrKind::kCount:
          k = ItemKind::kInt;
          break;
        case AggrKind::kSum:
        case AggrKind::kAvg:
          k = ItemKind::kNumeric;
          break;
        case AggrKind::kMin:
        case AggrKind::kMax: {
          ItemKind ak = t.KindOf(op.col2);
          if (ak != ItemKind::kNode) k = ak;  // nodes atomize first
          break;
        }
        case AggrKind::kEbv:
          k = ItemKind::kBool;
          break;
        case AggrKind::kStrJoin:
          k = ItemKind::kString;
          break;
      }
      if (k != ItemKind::kAny) out.kinds[op.col] = k;
      break;
    }
    case OpKind::kThetaCount: {
      ItemKind pk = child(ThetaCountGroupSide(dag, op)).KindOf(op.part);
      if (pk != ItemKind::kAny) out.kinds.emplace(op.part, pk);
      out.unit_groups.insert(op.part);  // one row per group
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
    case OpKind::kCross: {
      inherit_kinds(child(0));
      inherit_kinds(child(1));
      // A side's duplicate-free columns stay duplicate-free when the
      // other side contributes at most one row (value-based conditions
      // belong to the key domain; the two compose in the rewriter).
      if (cards->Get(op.children[1]).max <= 1) {
        for (ColId c : child(0).unit_groups) {
          if (op.HasCol(c)) out.unit_groups.insert(c);
        }
      }
      if (cards->Get(op.children[0]).max <= 1) {
        for (ColId c : child(1).unit_groups) {
          if (op.HasCol(c)) out.unit_groups.insert(c);
        }
      }
      break;
    }
    case OpKind::kUnion: {
      const SemType& a = child(0);
      const SemType& b = child(1);
      for (const auto& [c, k] : a.kinds) {
        if (!op.HasCol(c)) continue;
        ItemKind j = KindJoin(k, b.KindOf(c));
        if (j != ItemKind::kAny) out.kinds.emplace(c, j);
      }
      if (cards->Get(op.children[0]).max == 0) {
        for (const auto& [c, k] : b.kinds) {
          if (op.HasCol(c)) out.kinds.emplace(c, k);
        }
        for (ColId c : b.unit_groups) {
          if (op.HasCol(c)) out.unit_groups.insert(c);
        }
      } else if (cards->Get(op.children[1]).max == 0) {
        for (ColId c : a.unit_groups) {
          if (op.HasCol(c)) out.unit_groups.insert(c);
        }
      }
      break;
    }
  }
  // Every column of an at-most-one-row relation is trivially
  // duplicate-free.
  if (cards->Get(id).max <= 1) {
    for (ColId c : op.schema) out.unit_groups.insert(c);
  }
  return out;
}

const SemType& SemTypeTracker::Get(OpId id) { return engine_.Get(id); }

// ---------------------------------------------------------------------------
// Order dependencies.
// ---------------------------------------------------------------------------

namespace {

// Caps keeping the fact sets small: at most this many facts per
// operator, each with at most this many sort keys.
constexpr size_t kMaxOrderFacts = 6;
constexpr size_t kMaxOrderKeys = 4;

// F logically implies G: rows sorted (and possibly duplicate-free) the
// way F says are necessarily sorted the way G says.
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

// Normalizes (dropping repeated columns, capping the key count) and
// inserts `f` unless an existing fact already implies it; drops existing
// facts the new one implies. Deterministic first-come eviction keeps the
// set bounded.
void AddOrderFact(std::vector<OrderFact>* facts, OrderFact f) {
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
  if (keys.size() > kMaxOrderKeys) {
    keys.resize(kMaxOrderKeys);
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
  if (facts->size() >= kMaxOrderFacts) return;
  facts->push_back(std::move(f));
}

}  // namespace

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
  if (want.empty()) return true;
  for (const OrderFact& f : facts) {
    size_t qi = 0;
    size_t fi = 0;
    bool covered = false;
    while (true) {
      if (qi == want.size()) {
        covered = true;
        break;
      }
      // Constant fact keys tie on every row too; the remaining keys
      // still describe the physical order exactly.
      while (fi < f.keys.size() && constants.count(f.keys[fi].col) != 0) {
        ++fi;
      }
      if (fi == f.keys.size()) {
        // Fact exhausted with requested keys left: only a duplicate-free
        // consumed prefix pins the remaining order (no ties to break).
        covered = f.strict;
        break;
      }
      if (f.keys[fi].col != want[qi].col ||
          f.keys[fi].descending != want[qi].descending) {
        break;
      }
      if (keys.count(want[qi].col) != 0) {
        covered = true;  // duplicate-free key: later criteria never fire
        break;
      }
      ++qi;
      ++fi;
    }
    if (covered) return true;
  }
  return false;
}

OrderFacts OrderAnalysis::Bottom(const Dag&, OpId) const { return {}; }

bool OrderAnalysis::Join(OrderFacts* into, const OrderFacts& from) const {
  bool changed = false;
  for (const OrderFact& f : from.facts) {
    std::vector<OrderFact> before = into->facts;
    AddOrderFact(&into->facts, f);
    changed |= into->facts != before;
  }
  return changed;
}

OrderFacts OrderAnalysis::Transfer(
    const Dag& dag, OpId id, const std::vector<const OrderFacts*>& in) const {
  const Op& op = dag.op(id);
  auto child = [&](size_t i) -> const OrderFacts& { return *in[i]; };
  OrderFacts out;
  auto add = [&](OrderFact f) { AddOrderFact(&out.facts, std::move(f)); };
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
      // input's row slots). When the requested order is one the input
      // already realizes, the stable sort is the identity and the ranks
      // are 1..n in physical order: a strictly ascending column.
      OpId c = op.children[0];
      bool part_skippable =
          op.part == kNoCol ||
          props->Get(c).constant.count(op.part) != 0;
      if (part_skippable &&
          OrderImplied(child(0).facts, props->Get(c).constant,
                       keys->Get(c), cards->Get(c).max <= 1, op.order)) {
        add({{{op.col, false}}, true});
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
      // monotone ones truncate, since ties in the image hide order).
      // All edges require a statically numeric argument: OrderCompare
      // is type-class-major, so e.g. number("10") < number("9") while
      // "10" < "9" — monotonicity only holds inside the numeric class.
      if (op.args.size() == 1 &&
          KindIsNumeric(sem->Get(op.children[0]).KindOf(op.args[0]))) {
        enum class MapKind { kNone, kIso, kMono, kAnti };
        MapKind map = MapKind::kNone;
        switch (op.fun) {
          case FunKind::kToDouble:
            map = MapKind::kIso;  // numeric identity under OrderCompare
            break;
          case FunKind::kFloor:
          case FunKind::kCeiling:
          case FunKind::kRound:
            map = MapKind::kMono;  // monotone, but collapses ties
            break;
          case FunKind::kNeg:
            map = MapKind::kAnti;  // strictly antitone
            break;
          default:
            break;
        }
        if (map != MapKind::kNone) {
          ColId arg = op.args[0];
          for (const OrderFact& fact : child(0).facts) {
            for (size_t i = 0; i < fact.keys.size(); ++i) {
              if (fact.keys[i].col != arg) continue;
              OrderFact g = fact;
              g.keys[i].col = op.col;
              if (map == MapKind::kAnti) {
                g.keys[i].descending = !g.keys[i].descending;
              }
              if (map == MapKind::kMono) {
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

const OrderFacts& OrderTracker::Get(OpId id) { return engine_.Get(id); }

bool OrderTracker::Covers(OpId id, const std::vector<SortKey>& requested) {
  return OrderImplied(Get(id).facts, props_->Get(id).constant,
                      keys_->Get(id), cards_->Get(id).max <= 1, requested);
}

// ---------------------------------------------------------------------------
// Error capability.
// ---------------------------------------------------------------------------

bool RaiseAnalysis::Bottom(const Dag&, OpId) const { return false; }

bool RaiseAnalysis::Join(bool* into, const bool& from) const {
  if (from && !*into) {
    *into = true;
    return true;
  }
  return false;
}

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

bool RaiseTracker::Get(OpId id) { return engine_.Get(id); }

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
      what = "cardinality check fn:" + named(op.name);
      break;
    default:
      what = std::string("consumed by ") + OpKindName(op.kind);
      break;
  }
  if (!op.prov.empty()) what += " -- " + op.prov;
  return what;
}

// Mirrors LivenessAnalysis edge-for-edge, attaching a reason wherever a
// column is consumed by the operator itself (need) and copying reasons
// wherever demand merely passes through (need_set / Project). Because
// every inserted column carries at least one reason, the demanded
// column sets coincide exactly with ComputeICols — which the verifier
// checks.
struct ProvenanceAnalysis {
  using Fact = std::map<ColId, std::set<uint32_t>>;

  const Dag* dag = nullptr;
  const StrPool* strings = nullptr;
  std::vector<OrderReason>* reasons = nullptr;
  std::map<OpId, uint32_t>* intern = nullptr;

  uint32_t Reason(OpId consumer) const {
    auto it = intern->find(consumer);
    if (it != intern->end()) return it->second;
    uint32_t id = static_cast<uint32_t>(reasons->size());
    reasons->push_back({consumer, ReasonLabel(*dag, consumer, strings)});
    intern->emplace(consumer, id);
    return id;
  }

  Fact Bottom(const Dag&, OpId) const { return {}; }

  bool Join(Fact* into, const Fact& from) const {
    bool changed = false;
    for (const auto& [c, rs] : from) {
      std::set<uint32_t>& dst = (*into)[c];
      for (uint32_t r : rs) changed |= dst.insert(r).second;
    }
    return changed;
  }

  void Transfer(const Dag& dg, OpId id, const Fact& r,
                std::vector<Fact>* out) const {
    const Op& op = dg.op(id);
    auto need = [&](size_t child, ColId c) {
      if (c == kNoCol) return;
      (*out)[child][c].insert(Reason(id));
    };
    auto pass = [&](size_t child, const Fact& f) {
      const Op& ch = dg.op(op.children[child]);
      for (const auto& [c, rs] : f) {
        if (ch.HasCol(c)) (*out)[child][c].insert(rs.begin(), rs.end());
      }
    };

    switch (op.kind) {
      case OpKind::kLit:
      case OpKind::kDoc:
        break;
      case OpKind::kProject:
        for (const auto& [n, o] : op.proj) {
          auto it = r.find(n);
          if (it != r.end()) {
            (*out)[0][o].insert(it->second.begin(), it->second.end());
          }
        }
        break;
      case OpKind::kSelect:
        pass(0, r);
        need(0, op.col);
        break;
      case OpKind::kEquiJoin:
      case OpKind::kThetaJoin:
        pass(0, r);
        pass(1, r);
        need(0, op.col);
        need(1, op.col2);
        break;
      case OpKind::kCross:
      case OpKind::kUnion:
        pass(0, r);
        pass(1, r);
        break;
      case OpKind::kDifference:
      case OpKind::kSemiJoin:
        pass(0, r);
        for (ColId k : op.keys) {
          need(0, k);
          need(1, k);
        }
        break;
      case OpKind::kDistinct:
        for (ColId c : dg.op(op.children[0]).schema) need(0, c);
        break;
      case OpKind::kRowNum: {
        Fact p = r;
        p.erase(op.col);
        pass(0, p);
        for (const SortKey& k : op.order) need(0, k.col);
        need(0, op.part);
        break;
      }
      case OpKind::kRowId: {
        Fact p = r;
        p.erase(op.col);
        pass(0, p);
        break;
      }
      case OpKind::kFun: {
        Fact p = r;
        p.erase(op.col);
        pass(0, p);
        for (ColId a : op.args) need(0, a);
        break;
      }
      case OpKind::kAggr:
        need(0, op.col2);
        need(0, op.part);
        for (ColId k : op.keys) need(0, k);
        break;
      case OpKind::kThetaCount: {
        size_t g = ThetaCountGroupSide(dg, op);
        need(0, op.keys[0]);
        need(1, op.keys[1]);
        need(g, op.part);
        need(1 - g, op.col2);
        break;
      }
      case OpKind::kStep:
        need(0, col::iter());
        need(0, col::item());
        break;
      case OpKind::kElem:
      case OpKind::kAttr:
      case OpKind::kTextNode:
        need(0, col::iter());
        need(0, col::pos());
        need(0, col::item());
        need(1, col::iter());
        break;
      case OpKind::kRange:
        need(0, col::iter());
        need(0, op.col);
        need(0, op.col2);
        break;
      case OpKind::kCardCheck:
        pass(0, r);
        need(0, col::iter());
        need(1, col::iter());
        break;
    }
  }
};

}  // namespace

std::vector<std::string> OrderProvenance::ReasonsFor(OpId id,
                                                     ColId col) const {
  std::vector<std::string> out;
  auto it = demand.find(id);
  if (it == demand.end()) return out;
  auto cit = it->second.find(col);
  if (cit == it->second.end()) return out;
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
  std::map<OpId, uint32_t> intern;
  ProvenanceAnalysis analysis{&dag, strings, &out.reasons, &intern};
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
