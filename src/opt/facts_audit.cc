#include "opt/facts_audit.h"

#include <algorithm>

namespace exrquy {
namespace {

// Everything that is true of a relation with at most one row: any column
// is trivially constant, order-meaningless, and row-identifying.
void SaturateSingleRow(const Op& op, OpFacts* f) {
  for (ColId c : op.schema) {
    f->constant.insert(c);
    f->arbitrary.insert(c);
    f->keys.insert(c);
  }
}

// Deliberately local saturating arithmetic (not shared with
// opt/analyses.cc): the whole point of the fact base is that it is
// derived independently of the implementation it audits.
uint64_t BoundAdd(uint64_t a, uint64_t b) {
  if (a == kUnboundedRows || b == kUnboundedRows) return kUnboundedRows;
  uint64_t s = a + b;
  return s < a ? kUnboundedRows : s;
}

uint64_t BoundMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kUnboundedRows || b == kUnboundedRows) return kUnboundedRows;
  if (a > kUnboundedRows / b) return kUnboundedRows;
  return a * b;
}

// ---------------------------------------------------------------------------
// Semantic kinds and sorted-prefix facts: independent re-derivations of
// the two static-analysis domains behind the order-dependency and
// semantic-type trades.
// ---------------------------------------------------------------------------

ItemKind LitValueKind(const Value& v) {
  switch (v.kind) {
    case ValueKind::kInt:
      return ItemKind::kInt;
    case ValueKind::kDouble:
      return ItemKind::kNumeric;
    case ValueKind::kString:
    case ValueKind::kUntyped:  // untypedAtomic compares in the string class
      return ItemKind::kString;
    case ValueKind::kBool:
      return ItemKind::kBool;
    case ValueKind::kNode:
      return ItemKind::kNode;
  }
  return ItemKind::kAny;
}

ItemKind FunResultKind(FunKind fun, ItemKind arg0) {
  switch (fun) {
    // Integer results.
    case FunKind::kIDiv:
    case FunKind::kStringLength:
      return ItemKind::kInt;
    // Numeric results (possibly fractional).
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
    // Boolean results.
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
    // String results.
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
      // Atomics pass through; nodes atomize to untypedAtomic (string
      // class).
      if (arg0 == ItemKind::kNode) return ItemKind::kString;
      return arg0;
  }
  return ItemKind::kAny;
}

void DeriveKinds(const Dag& dag, OpId id,
                 const std::unordered_map<OpId, OpFacts>& facts,
                 OpFacts* out) {
  const Op& op = dag.op(id);
  auto child = [&](size_t i) -> const OpFacts& {
    return facts.at(op.children[i]);
  };
  auto put = [&](ColId c, ItemKind k) {
    if (k != ItemKind::kAny) out->kinds[c] = k;
  };
  auto inherit = [&](const OpFacts& f) {
    for (const auto& [c, k] : f.kinds) {
      if (op.HasCol(c)) out->kinds.emplace(c, k);
    }
  };
  switch (op.kind) {
    case OpKind::kLit:
      for (size_t i = 0; i < op.lit.cols.size(); ++i) {
        if (op.lit.rows.empty()) continue;
        ItemKind k = LitValueKind(op.lit.rows[0][i]);
        for (size_t r = 1; r < op.lit.rows.size(); ++r) {
          k = KindJoin(k, LitValueKind(op.lit.rows[r][i]));
        }
        put(op.lit.cols[i], k);
      }
      break;
    case OpKind::kProject:
      for (const auto& [n, o] : op.proj) put(n, KindAt(child(0), o));
      break;
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
      out->kinds[op.col] = ItemKind::kInt;
      break;
    case OpKind::kFun:
      inherit(child(0));
      out->kinds.erase(op.col);
      put(op.col, FunResultKind(
                      op.fun, op.args.empty() ? ItemKind::kAny
                                              : KindAt(child(0), op.args[0])));
      break;
    case OpKind::kAggr: {
      if (op.part != kNoCol) put(op.part, KindAt(child(0), op.part));
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
        case AggrKind::kMax:
          k = KindAt(child(0), op.col2);
          if (k == ItemKind::kNode) k = ItemKind::kAny;  // atomizes first
          break;
        case AggrKind::kEbv:
          k = ItemKind::kBool;
          break;
        case AggrKind::kStrJoin:
          k = ItemKind::kString;
          break;
      }
      put(op.col, k);
      break;
    }
    case OpKind::kThetaCount:
      put(op.part, KindAt(child(ThetaCountGroupSide(dag, op)), op.part));
      out->kinds[op.col] = ItemKind::kInt;
      break;
    case OpKind::kStep:
      put(col::iter(), KindAt(child(0), col::iter()));
      out->kinds[col::item()] = ItemKind::kNode;
      break;
    case OpKind::kRange:
      put(col::iter(), KindAt(child(0), col::iter()));
      out->kinds[col::item()] = ItemKind::kInt;
      break;
    case OpKind::kDoc:
      out->kinds[col::item()] = ItemKind::kNode;
      break;
    case OpKind::kElem:
    case OpKind::kAttr:
    case OpKind::kTextNode:
      put(col::iter(), KindAt(child(1), col::iter()));
      out->kinds[col::item()] = ItemKind::kNode;
      break;
    case OpKind::kEquiJoin:
    case OpKind::kThetaJoin:
    case OpKind::kCross:
      inherit(child(0));
      inherit(child(1));
      break;
    case OpKind::kUnion:
      if (child(0).no_rows) {
        inherit(child(1));
      } else if (child(1).no_rows) {
        inherit(child(0));
      } else {
        for (const auto& [c, k] : child(0).kinds) {
          if (op.HasCol(c)) put(c, KindJoin(k, KindAt(child(1), c)));
        }
      }
      break;
  }
}

// The audit's fact caps are wider than the analysis's (6 facts of 4
// keys): subsumption only ever replaces a fact with a stronger one, so a
// wider derived set can never lose a claim the tracker retained.
constexpr size_t kAuditMaxSortedFacts = 12;
constexpr size_t kAuditMaxSortedKeys = 6;

void AddSorted(std::vector<OrderFact>* sorted, OrderFact f) {
  std::vector<SortKey> keys;
  for (const SortKey& k : f.keys) {
    bool dup = false;
    for (const SortKey& seen : keys) dup |= seen.col == k.col;
    if (!dup) keys.push_back(k);
  }
  if (keys.size() > kAuditMaxSortedKeys) {
    keys.resize(kAuditMaxSortedKeys);
    f.strict = false;
  }
  f.keys = std::move(keys);
  if (f.keys.empty()) return;
  for (const OrderFact& have : *sorted) {
    if (SortedImplies(have, f)) return;
  }
  sorted->erase(std::remove_if(sorted->begin(), sorted->end(),
                               [&](const OrderFact& have) {
                                 return SortedImplies(f, have);
                               }),
                sorted->end());
  if (sorted->size() >= kAuditMaxSortedFacts) return;
  sorted->push_back(std::move(f));
}

void DeriveSorted(const Dag& dag, OpId id,
                  const std::unordered_map<OpId, OpFacts>& facts,
                  OpFacts* out) {
  const Op& op = dag.op(id);
  auto child = [&](size_t i) -> const OpFacts& {
    return facts.at(op.children[i]);
  };
  auto add = [&](OrderFact f) { AddSorted(&out->sorted, std::move(f)); };
  // Order-preserving ops keep child facts, truncated at the first key
  // the schema no longer carries (truncation loses strictness).
  auto inherit = [&](const OpFacts& f) {
    for (const OrderFact& fact : f.sorted) {
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
    case OpKind::kLit:
      for (size_t i = 0; i < op.lit.cols.size(); ++i) {
        bool ints = true;
        for (const auto& row : op.lit.rows) {
          ints &= row[i].kind == ValueKind::kInt;
        }
        if (!ints) continue;
        bool asc = true;
        bool desc = true;
        bool ties = false;
        for (size_t r = 1; r < op.lit.rows.size(); ++r) {
          int64_t a = op.lit.rows[r - 1][i].i;
          int64_t b = op.lit.rows[r][i].i;
          asc &= a <= b;
          desc &= a >= b;
          ties |= a == b;
        }
        if (asc) {
          add({{{op.lit.cols[i], false}}, !ties});
        } else if (desc) {
          add({{{op.lit.cols[i], true}}, !ties});
        }
      }
      break;
    case OpKind::kProject:
      for (const OrderFact& fact : child(0).sorted) {
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
    case OpKind::kSelect:
    case OpKind::kDistinct:
    case OpKind::kDifference:
    case OpKind::kSemiJoin:
    case OpKind::kCardCheck:
      inherit(child(0));
      break;
    case OpKind::kRowNum:
      inherit(child(0));
      // Ranks are written back into the input's row slots; when the
      // requested order is already realized the stable sort is the
      // identity and the ranks are 1..n in physical order.
      if ((op.part == kNoCol ||
           child(0).constant.count(op.part) != 0) &&
          SortedCovers(child(0), op.order)) {
        add({{{op.col, false}}, true});
      }
      break;
    case OpKind::kRowId:
      inherit(child(0));
      add({{{op.col, false}}, true});  // r+1 per physical row r
      break;
    case OpKind::kFun:
      inherit(child(0));
      // Monotone single-argument maps over statically numeric input
      // (OrderCompare is type-class-major: monotonicity only holds
      // inside the numeric class).
      if (op.args.size() == 1 &&
          KindIsNumeric(KindAt(child(0), op.args[0]))) {
        bool iso = op.fun == FunKind::kToDouble;
        bool mono = op.fun == FunKind::kFloor ||
                    op.fun == FunKind::kCeiling || op.fun == FunKind::kRound;
        bool anti = op.fun == FunKind::kNeg;
        if (iso || mono || anti) {
          for (const OrderFact& fact : child(0).sorted) {
            for (size_t i = 0; i < fact.keys.size(); ++i) {
              if (fact.keys[i].col != op.args[0]) continue;
              OrderFact g = fact;
              g.keys[i].col = op.col;
              if (anti) g.keys[i].descending = !g.keys[i].descending;
              if (mono) {
                g.keys.resize(i + 1);  // ties in the image hide order
                g.strict = false;
              }
              add(std::move(g));
            }
          }
        }
      }
      break;
    case OpKind::kAggr:
      if (op.part != kNoCol) {
        // Groups are emitted in first-appearance order.
        for (const OrderFact& fact : child(0).sorted) {
          if (!fact.keys.empty() && fact.keys[0].col == op.part) {
            add({{fact.keys[0]}, true});
          }
        }
      }
      break;
    case OpKind::kStep:
      // The engine sorts and de-duplicates step output globally.
      add({{{col::iter(), false}, {col::item(), false}}, true});
      break;
    case OpKind::kRange:
      for (const OrderFact& fact : child(0).sorted) {
        if (fact.keys[0].col != col::iter()) continue;
        if (fact.keys.size() == 1 && fact.strict) {
          add({{fact.keys[0], {col::item(), false}}, true});
        } else {
          add({{fact.keys[0]}, false});
        }
      }
      break;
    case OpKind::kCross:
      // Left-major enumeration.
      for (const OrderFact& f : child(0).sorted) {
        add({f.keys, f.strict && child(1).max_rows <= 1});
        if (f.strict) {
          for (const OrderFact& g : child(1).sorted) {
            OrderFact cat;
            cat.keys = f.keys;
            cat.keys.insert(cat.keys.end(), g.keys.begin(), g.keys.end());
            cat.strict = g.strict;
            add(std::move(cat));
          }
        }
      }
      if (child(0).max_rows <= 1) {
        for (const OrderFact& g : child(1).sorted) add(g);
      }
      break;
    case OpKind::kEquiJoin:
    case OpKind::kThetaJoin:
      // Only a statically at-most-one-row far side guarantees the
      // output is a subsequence of the near side (the engine picks the
      // equi-join build side dynamically; the theta kernel may emit
      // per-probe matches in build-value order).
      if (child(1).max_rows <= 1) {
        for (const OrderFact& f : child(0).sorted) add(f);
      }
      if (child(0).max_rows <= 1) {
        for (const OrderFact& g : child(1).sorted) add(g);
      }
      break;
    case OpKind::kUnion:
      if (child(0).no_rows) {
        inherit(child(1));
      } else if (child(1).no_rows) {
        inherit(child(0));
      }
      break;
    case OpKind::kThetaCount:  // pair-stream first-appearance order
    case OpKind::kDoc:
    case OpKind::kElem:
    case OpKind::kAttr:
    case OpKind::kTextNode:
      break;
  }
}

// Whether `pad` is the empty-result padding of `p` on column c:
// Cross(one-row literal without c, Difference(A, π c:x (S), {c})) next
// to p = S (x = c) or p = a projection of S that maps c from x. The
// padding rows then carry exactly the c values missing from p.
bool PaddingOf(const Dag& dag, OpId p, OpId pad, ColId c) {
  const Op& cross = dag.op(pad);
  if (cross.kind != OpKind::kCross) return false;
  for (OpId side : cross.children) {
    const Op& diff = dag.op(side);
    const Op& lit = dag.op(side == cross.children[0] ? cross.children[1]
                                                      : cross.children[0]);
    if (diff.kind != OpKind::kDifference || diff.keys.size() != 1 ||
        diff.keys[0] != c || lit.kind != OpKind::kLit ||
        lit.lit.rows.size() != 1 || lit.HasCol(c)) {
      continue;
    }
    const Op& sub = dag.op(diff.children[1]);
    if (sub.kind != OpKind::kProject || sub.proj.size() != 1 ||
        sub.proj[0].first != c) {
      continue;
    }
    OpId source = sub.children[0];
    ColId from = sub.proj[0].second;
    if (p == source) {
      if (from == c) return true;
      continue;
    }
    const Op& po = dag.op(p);
    if (po.kind != OpKind::kProject || po.children[0] != source) continue;
    for (const auto& [n, o] : po.proj) {
      if (n == c && o == from) return true;
    }
  }
  return false;
}

// One operator's scaffolding transfer (see DeriveScaffolding); the
// children's sets must already be present in `scaff`.
ColSet DeriveOpScaffolding(const Dag& dag, OpId id,
                           const std::unordered_map<OpId, ColSet>& scaff) {
  const Op& op = dag.op(id);
  ColSet out;
  auto from = [&](size_t i) -> const ColSet& {
    return scaff.at(op.children[i]);
  };
  auto inherit = [&](const ColSet& s) {
    for (ColId c : op.schema) {
      if (s.count(c) != 0) out.insert(c);
    }
  };
  switch (op.kind) {
    case OpKind::kLit:
      // Literal loop relations seed the iteration columns.
      for (ColId c : op.lit.cols) {
        if (c == col::iter() || c == col::pos()) out.insert(c);
      }
      break;
    case OpKind::kDoc:
      break;  // a document node is an item value
    case OpKind::kProject:
      for (const auto& [n, o] : op.proj) {
        if (from(0).count(o) != 0) out.insert(n);
      }
      break;
    case OpKind::kSelect:
    case OpKind::kDistinct:
    case OpKind::kDifference:
    case OpKind::kSemiJoin:
    case OpKind::kCardCheck:
      inherit(from(0));
      break;
    case OpKind::kEquiJoin:
    case OpKind::kThetaJoin:
    case OpKind::kCross:
    case OpKind::kUnion:
      inherit(from(0));
      inherit(from(1));
      break;
    case OpKind::kRowNum:
    case OpKind::kRowId:
      // The produced numbering is the scaffolding the paper's %-trading
      // machinery manages.
      inherit(from(0));
      out.insert(op.col);
      break;
    case OpKind::kFun:
      inherit(from(0));
      out.erase(op.col);
      for (ColId a : op.args) {
        if (from(0).count(a) != 0) out.insert(op.col);
      }
      break;
    case OpKind::kAggr:
      // The aggregate result is a value; the group column keeps its
      // nature.
      if (op.part != kNoCol && from(0).count(op.part) != 0) {
        out.insert(op.part);
      }
      break;
    case OpKind::kThetaCount:
      if (from(ThetaCountGroupSide(dag, op)).count(op.part) != 0) {
        out.insert(op.part);
      }
      break;
    case OpKind::kStep:
    case OpKind::kRange:
      // Output items are document nodes / range values; iter descends
      // from the context.
      if (from(0).count(col::iter()) != 0) out.insert(col::iter());
      break;
    case OpKind::kElem:
    case OpKind::kAttr:
    case OpKind::kTextNode:
      if (from(1).count(col::iter()) != 0) out.insert(col::iter());
      break;
  }
  return out;
}

}  // namespace

ItemKind KindAt(const OpFacts& f, ColId c) {
  auto it = f.kinds.find(c);
  return it == f.kinds.end() ? ItemKind::kAny : it->second;
}

bool SortedImplies(const OrderFact& f, const OrderFact& g) {
  bool f_prefix =
      f.keys.size() <= g.keys.size() &&
      std::equal(f.keys.begin(), f.keys.end(), g.keys.begin());
  if (f_prefix && f.strict) return true;  // no ties: any extension holds
  bool g_prefix =
      g.keys.size() <= f.keys.size() &&
      std::equal(g.keys.begin(), g.keys.end(), f.keys.begin());
  return g_prefix && !g.strict;  // longer sort implies its prefixes
}

bool SortedCovers(const OpFacts& f, const std::vector<SortKey>& requested) {
  if (f.at_most_one_row) return true;
  std::vector<SortKey> want;
  for (const SortKey& k : requested) {
    if (f.constant.count(k.col) == 0) want.push_back(k);
  }
  if (want.empty()) return true;
  for (const OrderFact& fact : f.sorted) {
    size_t qi = 0;
    size_t fi = 0;
    bool covered = false;
    while (true) {
      if (qi == want.size()) {
        covered = true;
        break;
      }
      while (fi < fact.keys.size() &&
             f.constant.count(fact.keys[fi].col) != 0) {
        ++fi;
      }
      if (fi == fact.keys.size()) {
        covered = fact.strict;
        break;
      }
      if (fact.keys[fi].col != want[qi].col ||
          fact.keys[fi].descending != want[qi].descending) {
        break;
      }
      if (f.keys.count(want[qi].col) != 0) {
        covered = true;  // duplicate-free: later criteria never fire
        break;
      }
      ++qi;
      ++fi;
    }
    if (covered) return true;
  }
  return false;
}

OpFacts DeriveOpFacts(const Dag& dag, OpId id,
                      const std::unordered_map<OpId, OpFacts>& facts) {
  const Op& op = dag.op(id);
  OpFacts out;
  auto child = [&](size_t i) -> const OpFacts& {
    return facts.at(op.children[i]);
  };
  // Copies the facts of columns that survive into this operator's schema
  // (row-preserving or row-subsetting operators).
  auto inherit = [&](const OpFacts& f, bool keep_keys) {
    for (ColId c : op.schema) {
      if (f.constant.count(c) != 0) out.constant.insert(c);
      if (f.arbitrary.count(c) != 0) out.arbitrary.insert(c);
      if (keep_keys && f.keys.count(c) != 0) out.keys.insert(c);
    }
  };

  switch (op.kind) {
    case OpKind::kLit: {
      size_t n = op.lit.rows.size();
      out.min_rows = out.max_rows = n;
      for (size_t i = 0; i < op.lit.cols.size(); ++i) {
        bool constant = true;
        bool distinct = true;
        for (size_t r = 0; r < n; ++r) {
          for (size_t r2 = r + 1; r2 < n; ++r2) {
            if (op.lit.rows[r][i] == op.lit.rows[r2][i]) {
              distinct = false;
            } else {
              constant = false;
            }
          }
        }
        if (constant) out.constant.insert(op.lit.cols[i]);
        if (distinct) out.keys.insert(op.lit.cols[i]);
      }
      break;
    }
    case OpKind::kProject: {
      const OpFacts& f = child(0);
      out.min_rows = f.min_rows;
      out.max_rows = f.max_rows;
      for (const auto& [n, o] : op.proj) {
        if (f.constant.count(o) != 0) out.constant.insert(n);
        if (f.arbitrary.count(o) != 0) out.arbitrary.insert(n);
        if (f.keys.count(o) != 0) out.keys.insert(n);
      }
      break;
    }
    // Row subsets: every per-column fact survives; only the lower row
    // bound is lost (CardCheck is row-preserving when it succeeds, and a
    // failing check produces no table at all).
    case OpKind::kSelect:
    case OpKind::kDifference:
    case OpKind::kSemiJoin: {
      const OpFacts& f = child(0);
      out.min_rows = 0;
      out.max_rows = f.max_rows;
      inherit(f, /*keep_keys=*/true);
      break;
    }
    case OpKind::kDistinct: {
      const OpFacts& f = child(0);
      out.min_rows = f.min_rows > 0 ? 1 : 0;
      out.max_rows = f.max_rows;
      inherit(f, /*keep_keys=*/true);
      break;
    }
    case OpKind::kCardCheck: {
      const OpFacts& f = child(0);
      out.min_rows = f.min_rows;
      out.max_rows = f.max_rows;
      inherit(f, /*keep_keys=*/true);
      // A passed per-iteration assertion of at most one row makes iter
      // duplicate-free. (Relies on the compiler invariant that the
      // checked relation's iterations all stem from the loop relation.)
      if (op.max_card <= 1) out.keys.insert(col::iter());
      break;
    }
    case OpKind::kEquiJoin:
    case OpKind::kThetaJoin:
    case OpKind::kCross: {
      const OpFacts& l = child(0);
      const OpFacts& r = child(1);
      if (op.kind == OpKind::kCross) {
        out.min_rows = BoundMul(l.min_rows, r.min_rows);
      } else {
        out.min_rows = 0;
      }
      out.max_rows = BoundMul(l.max_rows, r.max_rows);
      inherit(l, /*keep_keys=*/false);
      inherit(r, /*keep_keys=*/false);
      // A side's keys survive when each of its rows appears at most once:
      // the other side contributes at most one match per row.
      bool left_once;
      bool right_once;
      if (op.kind == OpKind::kEquiJoin) {
        left_once = r.keys.count(op.col2) != 0 || r.at_most_one_row;
        right_once = l.keys.count(op.col) != 0 || l.at_most_one_row;
      } else {
        left_once = r.at_most_one_row;
        right_once = l.at_most_one_row;
      }
      if (left_once) {
        for (ColId c : l.keys) out.keys.insert(c);
      }
      if (right_once) {
        for (ColId c : r.keys) out.keys.insert(c);
      }
      break;
    }
    case OpKind::kUnion: {
      const OpFacts& l = child(0);
      const OpFacts& r = child(1);
      out.min_rows = BoundAdd(l.min_rows, r.min_rows);
      out.max_rows = BoundAdd(l.max_rows, r.max_rows);
      if (l.no_rows) {
        inherit(r, /*keep_keys=*/true);
      } else if (r.no_rows) {
        inherit(l, /*keep_keys=*/true);
      } else {
        // Constancy needs cross-branch value reasoning (out of scope);
        // order-meaninglessness survives when both agree, and a key of
        // both branches when one pads the other.
        for (ColId c : l.arbitrary) {
          if (r.arbitrary.count(c) != 0) out.arbitrary.insert(c);
        }
        for (ColId c : l.keys) {
          if (r.keys.count(c) != 0 &&
              (PaddingOf(dag, op.children[0], op.children[1], c) ||
               PaddingOf(dag, op.children[1], op.children[0], c))) {
            out.keys.insert(c);
          }
        }
      }
      break;
    }
    case OpKind::kRowNum: {
      const OpFacts& f = child(0);
      out.min_rows = f.min_rows;
      out.max_rows = f.max_rows;
      inherit(f, /*keep_keys=*/true);
      // A dense numbering over the whole table identifies rows; within
      // partitions it repeats across groups.
      if (op.part == kNoCol) out.keys.insert(op.col);
      break;
    }
    case OpKind::kRowId: {
      const OpFacts& f = child(0);
      out.min_rows = f.min_rows;
      out.max_rows = f.max_rows;
      inherit(f, /*keep_keys=*/true);
      out.keys.insert(op.col);
      // A plain # numbers rows in arbitrary order; a positional #
      // (RowId^) numbers the physical row order, which carries the very
      // order the order-dependency trade proved meaningful.
      if (!op.positional) out.arbitrary.insert(op.col);
      break;
    }
    case OpKind::kFun: {
      const OpFacts& f = child(0);
      out.min_rows = f.min_rows;
      out.max_rows = f.max_rows;
      inherit(f, /*keep_keys=*/true);
      bool all_const = true;
      for (ColId a : op.args) {
        if (f.constant.count(a) == 0) all_const = false;
      }
      if (all_const) out.constant.insert(op.col);
      break;
    }
    case OpKind::kAggr: {
      const OpFacts& f = child(0);
      if (op.part == kNoCol) {
        // The whole table is one group; the engine emits that group even
        // for an empty input (count() = 0, EBV = false, ...).
        out.min_rows = out.max_rows = 1;
      } else {
        out.min_rows = f.min_rows > 0 ? 1 : 0;
        out.max_rows = f.max_rows;
      }
      if (op.part != kNoCol) {
        if (f.constant.count(op.part) != 0) out.constant.insert(op.part);
        if (f.arbitrary.count(op.part) != 0) out.arbitrary.insert(op.part);
        out.keys.insert(op.part);  // one output row per group
      }
      break;
    }
    case OpKind::kThetaCount: {
      // One row per group with a match: at most one per group-side row.
      const OpFacts& f = child(ThetaCountGroupSide(dag, op));
      out.min_rows = 0;
      out.max_rows = f.max_rows;
      if (f.constant.count(op.part) != 0) out.constant.insert(op.part);
      if (f.arbitrary.count(op.part) != 0) out.arbitrary.insert(op.part);
      out.keys.insert(op.part);
      break;
    }
    case OpKind::kStep: {
      // (iter, item) rows fanned out from the context; iter facts flow
      // through, cardinality does not (an empty context stays empty).
      const OpFacts& f = child(0);
      out.min_rows = 0;
      out.max_rows = f.max_rows == 0 ? 0 : kUnboundedRows;
      if (f.constant.count(col::iter()) != 0) {
        out.constant.insert(col::iter());
      }
      if (f.arbitrary.count(col::iter()) != 0) {
        out.arbitrary.insert(col::iter());
      }
      // Document structure: every node has exactly one parent, at most
      // one attribute of a given name, and belongs to exactly one
      // element's attribute list.
      switch (op.axis) {
        case Axis::kSelf:  // a row subset of the (iter, item) context
          if (f.keys.count(col::iter()) != 0) out.keys.insert(col::iter());
          if (f.keys.count(col::item()) != 0) out.keys.insert(col::item());
          break;
        case Axis::kParent:  // at most one output row per context row
          if (f.keys.count(col::iter()) != 0) out.keys.insert(col::iter());
          break;
        case Axis::kChild:  // distinct parents have disjoint children
          if (f.keys.count(col::item()) != 0) out.keys.insert(col::item());
          break;
        case Axis::kAttribute:
          // Attributes of distinct elements are distinct nodes; a name
          // test additionally caps the fan-out at one row per context.
          if (f.keys.count(col::item()) != 0) out.keys.insert(col::item());
          if (op.test.kind == NodeTest::Kind::kName &&
              f.keys.count(col::iter()) != 0) {
            out.keys.insert(col::iter());
          }
          break;
        default:
          // Descendant/ancestor/sibling subtrees of distinct context
          // nodes can overlap: no keys survive.
          break;
      }
      break;
    }
    case OpKind::kRange: {
      const OpFacts& f = child(0);
      out.min_rows = 0;
      out.max_rows = f.max_rows == 0 ? 0 : kUnboundedRows;
      if (f.constant.count(col::iter()) != 0) {
        out.constant.insert(col::iter());
      }
      if (f.arbitrary.count(col::iter()) != 0) {
        out.arbitrary.insert(col::iter());
      }
      break;
    }
    case OpKind::kElem:
    case OpKind::kAttr:
    case OpKind::kTextNode: {
      // One fresh node per row of the loop relation (child 1).
      const OpFacts& loop = child(1);
      out.min_rows = loop.min_rows;
      out.max_rows = loop.max_rows;
      if (loop.constant.count(col::iter()) != 0) {
        out.constant.insert(col::iter());
      }
      if (loop.arbitrary.count(col::iter()) != 0) {
        out.arbitrary.insert(col::iter());
      }
      if (loop.keys.count(col::iter()) != 0) out.keys.insert(col::iter());
      out.keys.insert(col::item());  // distinct node identities
      break;
    }
    case OpKind::kDoc:
      out.min_rows = out.max_rows = 1;
      break;
  }
  out.at_most_one_row = out.max_rows <= 1;
  out.no_rows = out.max_rows == 0;
  if (out.at_most_one_row) SaturateSingleRow(op, &out);
  DeriveKinds(dag, id, facts, &out);
  DeriveSorted(dag, id, facts, &out);
  return out;
}

std::unordered_map<OpId, OpFacts> DeriveFacts(const Dag& dag, OpId root) {
  std::unordered_map<OpId, OpFacts> facts;
  for (OpId id : dag.ReachableFrom(root)) {
    facts.emplace(id, DeriveOpFacts(dag, id, facts));
  }
  return facts;
}

std::unordered_map<OpId, ColSet> DeriveScaffolding(
    const Dag& dag, const std::vector<OpId>& order) {
  std::unordered_map<OpId, ColSet> scaff;
  for (OpId id : order) {
    scaff.emplace(id, DeriveOpScaffolding(dag, id, scaff));
  }
  return scaff;
}

std::unordered_map<OpId, ColSet> DeriveLiveColumns(const Dag& dag, OpId root,
                                                   const ColSet& seed) {
  std::unordered_map<OpId, ColSet> icols;
  icols[root] = seed;

  std::vector<OpId> order = dag.ReachableFrom(root);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    OpId id = *it;
    const Op& op = dag.op(id);
    const ColSet& r = icols[id];

    auto need = [&](size_t child, ColId c) {
      if (c == kNoCol) return;
      icols[op.children[child]].insert(c);
    };
    auto need_set = [&](size_t child, const ColSet& cols) {
      const Op& ch = dag.op(op.children[child]);
      for (ColId c : cols) {
        if (ch.HasCol(c)) icols[op.children[child]].insert(c);
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
      case OpKind::kDistinct:
        for (ColId c : dag.op(op.children[0]).schema) need(0, c);
        break;
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
  return icols;
}

std::string ColSetToString(const ColSet& cols) {
  std::string out = "{";
  bool first = true;
  for (ColId c : cols) {
    if (!first) out += ",";
    first = false;
    out += ColName(c);
  }
  return out + "}";
}

const OpFacts& FactsAudit::Get(OpId id) {
  auto it = facts_.find(id);
  if (it != facts_.end()) return it->second;
  for (OpId x : dag_->ReachableFrom(id)) {
    if (facts_.count(x) == 0) {
      facts_.emplace(x, DeriveOpFacts(*dag_, x, facts_));
    }
  }
  return facts_.at(id);
}

const ColSet& FactsAudit::Scaffolding(OpId id) {
  auto it = scaff_.find(id);
  if (it != scaff_.end()) return it->second;
  for (OpId x : dag_->ReachableFrom(id)) {
    if (scaff_.count(x) == 0) {
      scaff_.emplace(x, DeriveOpScaffolding(*dag_, x, scaff_));
    }
  }
  return scaff_.at(id);
}

bool FactsAudit::MayRaise(OpId id) {
  auto it = raise_.find(id);
  if (it != raise_.end()) return it->second != 0;
  for (OpId x : dag_->ReachableFrom(id)) {
    if (raise_.count(x) != 0) continue;
    const Op& op = dag_->op(x);
    bool r = false;
    for (OpId c : op.children) r |= raise_.at(c) != 0;
    // Independent restatement of the error-capability rules
    // (RaiseAnalysis in opt/analyses.cc), gated on the audit's own row
    // bounds rather than CardTracker's.
    switch (op.kind) {
      case OpKind::kDoc:
        r = true;  // unknown document name
        break;
      case OpKind::kCardCheck:
        r = true;  // can fire even on an empty input (min_card > 0)
        break;
      case OpKind::kRange:
      case OpKind::kFun:
        // Non-integer bounds / casts / arithmetic errors — per input row.
        r = r || Get(op.children[0]).max_rows > 0;
        break;
      case OpKind::kThetaJoin:
      case OpKind::kThetaCount:
        // The comparison raises on incomparable pairs — only when pairs
        // can exist at all.
        r = r || (Get(op.children[0]).max_rows > 0 &&
                  Get(op.children[1]).max_rows > 0);
        break;
      case OpKind::kAggr:
        switch (op.aggr) {
          case AggrKind::kSum:
          case AggrKind::kMax:
          case AggrKind::kMin:
          case AggrKind::kAvg:
            r = true;  // type errors; avg/min/max of an empty group
            break;
          default:
            break;
        }
        break;
      default:
        break;
    }
    raise_.emplace(x, r ? 1 : 0);
  }
  return raise_.at(id) != 0;
}

}  // namespace exrquy
