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

// ---------------------------------------------------------------------------
// Semantic kinds and sorted-prefix facts: the audit's own transfer rules
// for the two static-analysis domains behind the order-dependency trade.
// Transfer rules stay independent; definitions are shared and tested
// against the engine: the rules below read the function signatures
// (algebra/algebra.h) and the order-fact algebra and saturating row
// arithmetic of opt/analyses.h, the same code the analyses call.
// ---------------------------------------------------------------------------

void DeriveKinds(const Dag& dag, OpId id,
                 const std::vector<const OpFacts*>& in, OpFacts* out) {
  const Op& op = dag.op(id);
  auto child = [&](size_t i) -> const OpFacts& { return *in[i]; };
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
        ItemKind k = KindOfValue(op.lit.rows[0][i]);
        for (size_t r = 1; r < op.lit.rows.size(); ++r) {
          k = KindJoin(k, KindOfValue(op.lit.rows[r][i]));
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
      put(op.col, Signature(op.fun).ResultFor(
                      op.args.empty() ? ItemKind::kAny
                                      : KindAt(child(0), op.args[0])));
      break;
    case OpKind::kAggr:
      if (op.part != kNoCol) put(op.part, KindAt(child(0), op.part));
      put(op.col, Signature(op.aggr).ResultFor(KindAt(child(0), op.col2)));
      break;
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

// The audit's fact caps are wider than the analysis's (kMaxOrderFacts,
// kMaxOrderKeys): subsumption only ever replaces a fact with a stronger
// one, so a wider derived set can never lose a claim the tracker
// retained.
constexpr size_t kAuditMaxSortedFacts = 12;
constexpr size_t kAuditMaxSortedKeys = 6;

void DeriveSorted(const Dag& dag, OpId id,
                  const std::vector<const OpFacts*>& in, OpFacts* out) {
  const Op& op = dag.op(id);
  auto child = [&](size_t i) -> const OpFacts& { return *in[i]; };
  auto add = [&](OrderFact f) {
    AddOrderFact(&out->sorted, std::move(f), kAuditMaxSortedFacts,
                 kAuditMaxSortedKeys);
  };
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
      // input already realizes the partition-then-criteria order the
      // stable sort is the identity, and each partition (a contiguous
      // run) is ranked 1, 2, ... in physical order: strictly sorted by
      // (part, rank), and by the rank alone when there is one group.
      if (SortedCovers(child(0), RowNumSortKeys(op))) {
        if (op.part != kNoCol) {
          add({{{op.part, false}, {op.col, false}}, true});
        }
        if (op.part == kNoCol || child(0).constant.count(op.part) != 0) {
          add({{{op.col, false}}, true});
        }
      }
      break;
    case OpKind::kRowId:
      inherit(child(0));
      add({{{op.col, false}}, true});  // r+1 per physical row r
      break;
    case OpKind::kFun:
      inherit(child(0));
      // Single-argument maps, as the function's signature classes them
      // for the argument's kind.
      if (op.args.size() == 1) {
        OrderMap map =
            Signature(op.fun).OrderFor(KindAt(child(0), op.args[0]));
        if (map != OrderMap::kNone) {
          for (const OrderFact& fact : child(0).sorted) {
            for (size_t i = 0; i < fact.keys.size(); ++i) {
              if (fact.keys[i].col != op.args[0]) continue;
              OrderFact g = fact;
              g.keys[i].col = op.col;
              if (map == OrderMap::kAnti) {
                g.keys[i].descending = !g.keys[i].descending;
              }
              if (map == OrderMap::kMono) {
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

// One operator's scaffolding transfer (FactsAudit::Scaffolding), from
// its children's sets.
ColSet DeriveOpScaffolding(const Dag& dag, OpId id,
                           const std::vector<const ColSet*>& in) {
  const Op& op = dag.op(id);
  ColSet out;
  auto from = [&](size_t i) -> const ColSet& { return *in[i]; };
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

bool SortedCovers(const OpFacts& f, const std::vector<SortKey>& requested) {
  return OrderImplied(f.sorted, f.constant, f.keys, f.at_most_one_row,
                      requested);
}

namespace {

// Derives the facts of a single operator from its children's facts.
OpFacts DeriveOpFacts(const Dag& dag, OpId id,
                      const std::vector<const OpFacts*>& in) {
  const Op& op = dag.op(id);
  OpFacts out;
  auto child = [&](size_t i) -> const OpFacts& { return *in[i]; };
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
        out.min_rows = SatMul(l.min_rows, r.min_rows);
      } else {
        out.min_rows = 0;
      }
      out.max_rows = SatMul(l.max_rows, r.max_rows);
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
      out.min_rows = SatAdd(l.min_rows, r.min_rows);
      out.max_rows = SatAdd(l.max_rows, r.max_rows);
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
  DeriveKinds(dag, id, in, &out);
  DeriveSorted(dag, id, in, &out);
  return out;
}

// The one-shot walk behind DeriveLiveColumns and, with `identity` set,
// DeriveObservedColumns.
std::vector<ColSet> DeriveColumns(const Dag& dag, OpId root,
                                  const ColSet& seed,
                                  std::vector<OpId>* reached, bool identity) {
  std::vector<ColSet> icols(root + 1);
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
        // Element content is copied into the new element: its order and
        // grouping are inspected, its items' identities are not.
        need(0, col::iter());
        need(0, col::pos());
        if (!identity) need(0, col::item());
        need(1, col::iter());
        break;
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
  if (reached != nullptr) *reached = std::move(order);
  return icols;
}

}  // namespace

std::vector<ColSet> DeriveLiveColumns(const Dag& dag, OpId root,
                                      const ColSet& seed,
                                      std::vector<OpId>* reached) {
  return DeriveColumns(dag, root, seed, reached, /*identity=*/false);
}

std::vector<ColSet> DeriveObservedColumns(const Dag& dag, OpId root,
                                          const ColSet& seed,
                                          std::vector<OpId>* reached) {
  return DeriveColumns(dag, root, seed, reached, /*identity=*/true);
}

ColSet RootSeed(const Dag& dag, OpId root) {
  ColSet seed;
  for (ColId c : {col::iter(), col::pos(), col::item()}) {
    if (dag.op(root).HasCol(c)) seed.insert(c);
  }
  return seed;
}

const PlanFacts::RootColumns& PlanFacts::Memo(RootColumns* memo, OpId root,
                                              Solver solve) {
  if (memo->root != root) {
    memo->cols = solve(*dag_, root, RootSeed(*dag_, root), &memo->region);
    memo->root = root;
  }
  return *memo;
}

const std::vector<ColSet>& PlanFacts::Live(OpId root) {
  return Memo(&live_, root,
              [](const Dag& dag, OpId r, const ColSet& seed,
                 std::vector<OpId>*) { return ComputeICols(dag, r, seed); })
      .cols;
}

const PlanFacts::RootColumns& PlanFacts::AuditLive(OpId root) {
  return Memo(&audit_live_, root, DeriveLiveColumns);
}

const std::vector<ColSet>& PlanFacts::Observed(OpId root) {
  return Memo(&observed_, root,
              [](const Dag& dag, OpId r, const ColSet& seed,
                 std::vector<OpId>*) {
                return ComputeObservedCols(dag, r, seed);
              })
      .cols;
}

const PlanFacts::RootColumns& PlanFacts::AuditObserved(OpId root) {
  return Memo(&audit_observed_, root, DeriveObservedColumns);
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

template <typename T, typename Derive>
const T& FactsAudit::Sweep(OpId root, Memo<T>* memo, Derive derive) {
  enum : uint8_t { kUnseen, kQueued, kDone };
  if (root < memo->state.size() && memo->state[root] == kDone) {
    return memo->facts[root];
  }
  if (memo->state.size() < dag_->size()) {
    memo->state.resize(dag_->size(), kUnseen);
  }
  // Scratch reused across sweeps; moved out for the sweep, so a
  // re-entrant sweep of the same memo starts with empty buffers.
  std::vector<OpId> region = std::move(memo->region);
  std::vector<const T*> in = std::move(memo->in);
  region.assign(1, root);
  memo->state[root] = kQueued;
  for (size_t i = 0; i < region.size(); ++i) {
    for (OpId c : dag_->op(region[i]).children) {
      if (memo->state[c] == kUnseen) {
        memo->state[c] = kQueued;
        region.push_back(c);
      }
    }
  }
  std::sort(region.begin(), region.end());
  memo->facts.Grow(region.back() + 1);
  for (OpId x : region) {
    in.clear();
    for (OpId c : dag_->op(x).children) in.push_back(&memo->facts[c]);
    memo->facts[x] = derive(x, in);
    memo->state[x] = kDone;
  }
  memo->region = std::move(region);
  memo->in = std::move(in);
  return memo->facts[root];
}

const OpFacts& FactsAudit::Get(OpId id) {
  return Sweep(id, &facts_,
               [&](OpId x, const std::vector<const OpFacts*>& in) {
                 return DeriveOpFacts(*dag_, x, in);
               });
}

const ColSet& FactsAudit::Scaffolding(OpId id) {
  return Sweep(id, &scaff_,
               [&](OpId x, const std::vector<const ColSet*>& in) {
                 return DeriveOpScaffolding(*dag_, x, in);
               });
}

bool FactsAudit::MayRaise(OpId id) {
  return Sweep(id, &raise_, [&](OpId x, const std::vector<const bool*>& in) {
    const Op& op = dag_->op(x);
    bool r = false;
    for (const bool* c : in) r |= *c;
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
    return r;
  });
}

}  // namespace exrquy
