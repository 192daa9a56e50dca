#include "opt/join_plan.h"

#include <algorithm>
#include <optional>

#include "common/check.h"
#include "common/symbols.h"

namespace exrquy {
namespace {

// a cmp b  ==  b MirrorCmp(cmp) a.
FunKind MirrorCmp(FunKind cmp) {
  switch (cmp) {
    case FunKind::kLt:
      return FunKind::kGt;
    case FunKind::kLe:
      return FunKind::kGe;
    case FunKind::kGt:
      return FunKind::kLt;
    case FunKind::kGe:
      return FunKind::kLe;
    default:
      return cmp;  // kEq / kNe are symmetric
  }
}

bool IsCmp(FunKind f) {
  switch (f) {
    case FunKind::kEq:
    case FunKind::kNe:
    case FunKind::kLt:
    case FunKind::kLe:
    case FunKind::kGt:
    case FunKind::kGe:
      return true;
    default:
      return false;
  }
}

// The old column that Project `p` exposes as `n`, or kNoCol.
ColId ProjOld(const Op& p, ColId n) {
  for (const auto& [nn, oo] : p.proj) {
    if (nn == n) return oo;
  }
  return kNoCol;
}

// Project with exactly the given (new, old) entries, in any order.
bool ProjIs(const Op& p, std::vector<std::pair<ColId, ColId>> want) {
  if (p.kind != OpKind::kProject || p.proj.size() != want.size()) {
    return false;
  }
  for (const auto& e : p.proj) {
    auto it = std::find(want.begin(), want.end(), e);
    if (it == want.end()) return false;
    want.erase(it);
  }
  return true;
}

bool IsOneRowLit(const Op& op) {
  return op.kind == OpKind::kLit && op.lit.rows.size() == 1;
}

// One-row boolean literal [item = value] — the EBV true/false padding.
bool IsBoolLit(const Op& op, bool value) {
  return IsOneRowLit(op) && op.lit.cols.size() == 1 &&
         op.lit.cols[0] == col::item() && op.lit.rows[0][0] == Value::Bool(value);
}

bool IsNumbering(const Op& op) {
  return op.kind == OpKind::kRowNum || op.kind == OpKind::kRowId;
}

// One product-space comparison raised from the predicate EBV, before
// its sides are classified as cur/outer.
struct RawPred {
  OpId side_a;
  OpId side_b;
  ColId iter2x;  // the per-iteration join's right-side iteration column
  FunKind cmp;
  ColId a_col;
  ColId b_col;
};

class Recognizer {
 public:
  explicit Recognizer(const Dag& dag) : dag_(dag) {}

  std::map<OpId, JoinSpec> Run(OpId root) {
    std::map<OpId, JoinSpec> specs;
    for (OpId id : dag_.ReachableFrom(root)) {
      JoinSpec spec;
      if (MatchAnchor(id, &spec)) {
        specs.emplace(id, std::move(spec));
        continue;
      }
      spec = JoinSpec();
      if (MatchReturnAnchor(id, &spec)) specs.emplace(id, std::move(spec));
    }
    return specs;
  }

 private:
  const Op& op(OpId id) const { return dag_.op(id); }

  // Whether `target` is reachable from `id` (inclusive). Children have
  // smaller ids than their parents, so nothing below `target` reaches it.
  bool Reaches(OpId id, OpId target, std::map<OpId, bool>* memo) const {
    if (id <= target) return id == target;
    if (auto it = memo->find(id); it != memo->end()) return it->second;
    bool r = false;
    for (OpId c : op(id).children) {
      if (Reaches(c, target, memo)) {
        r = true;
        break;
      }
    }
    (*memo)[id] = r;
    return r;
  }

  // The re-attachment of an inner for-loop's per-S-iteration result B to
  // the outer loop, below the anchor `id`:
  //   ⋈ iter=bindX(B, map_s), map_s = π{iter1X:iter, bindX:bind}(N)
  // with N the S-space bind numbering. Fills the spec's anchor and
  // S-space ids and returns B, or kNoOp.
  OpId MatchReattach(OpId id, OpId j_id, ColId iter1x, JoinSpec* s) {
    const Op& j = op(j_id);
    if (j.kind != OpKind::kEquiJoin || j.value_join ||
        j.col != col::iter()) {
      return kNoOp;
    }
    const Op& map = op(j.children[1]);
    if (map.kind != OpKind::kProject) return kNoOp;
    OpId n_id = map.children[0];
    if (!IsNumbering(op(n_id)) ||
        !ProjIs(map, {{iter1x, col::iter()}, {j.col2, op(n_id).col}})) {
      return kNoOp;
    }
    s->anchor = id;
    s->space = n_id;
    s->map_s = j.children[1];
    s->iter1x = iter1x;
    s->bindx = j.col2;
    return j.children[0];
  }

  // items_s = π{iter:bind, item}(N).
  bool IsItems(OpId id, const JoinSpec* s) const {
    const Op& o = op(id);
    return o.kind == OpKind::kProject && o.children[0] == s->space &&
           ProjIs(o, {{col::iter(), op(s->space).col},
                      {col::item(), col::item()}});
  }

  // The anchor composite re-attaching the surviving S-iterations to the
  // outer loop:
  //   π{iter:iter1X[, item]}(⋈ iter=bindX(M, map_s))
  //   M = π{iter[, item]}(⋈ iter=iterRX(items_s, π{iterRX:iter}(SEL)))
  bool MatchAnchor(OpId id, JoinSpec* s) {
    const Op& a = op(id);
    if (a.kind != OpKind::kProject) return false;
    ColId iter1x = ProjOld(a, col::iter());
    if (iter1x == kNoCol || iter1x == col::item()) return false;
    if (ProjIs(a, {{col::iter(), iter1x}})) {
      s->with_item = false;
    } else if (ProjIs(a, {{col::iter(), iter1x},
                          {col::item(), col::item()}})) {
      s->with_item = true;
    } else {
      return false;
    }
    OpId m_id = MatchReattach(id, a.children[0], iter1x, s);
    if (m_id == kNoOp) return false;

    const Op& m = op(m_id);
    if (s->with_item) {
      if (!ProjIs(m, {{col::iter(), col::iter()},
                      {col::item(), col::item()}})) {
        return false;
      }
    } else if (!ProjIs(m, {{col::iter(), col::iter()}})) {
      return false;
    }
    const Op& j1 = op(m.children[0]);
    if (j1.kind != OpKind::kEquiJoin || j1.value_join) return false;
    if (j1.col != col::iter()) return false;
    if (!IsItems(j1.children[0], s)) return false;
    s->items_s = j1.children[0];
    const Op& selp = op(j1.children[1]);
    if (selp.kind != OpKind::kProject ||
        !ProjIs(selp, {{j1.col2, col::iter()}})) {
      return false;
    }

    std::vector<RawPred> raws;
    return MatchEbv(selp.children[0], s->space, s, &raws) &&
           MatchSpace(s->space, s) && ClassifyAll(raws, s);
  }

  // The return composite — a whole inner for-loop whose body B runs
  // over the iterations the EBV predicate keeps:
  //   π{iter:iter1X[, pos:posX], item}([ret_num](⋈ iter=bindX(B,
  //     map_s)))
  // ret_num numbers each outer iteration's items by S-iteration first
  // (RowNum posX:<iter, ...>|iter1X) or arbitrarily (RowId posX). B is
  // any plan Walk admits in body mode. Recognizing the whole composite
  // lets EmitJoin drop the S-space numbering itself and renumber only
  // the survivors.
  bool MatchReturnAnchor(OpId id, JoinSpec* s) {
    const Op& a = op(id);
    if (a.kind != OpKind::kProject ||
        ProjOld(a, col::item()) != col::item()) {
      return false;
    }
    ColId iter1x = ProjOld(a, col::iter());
    ColId posx = ProjOld(a, col::pos());
    if (iter1x == kNoCol || a.proj.size() != (posx == kNoCol ? 2u : 3u)) {
      return false;
    }
    OpId j_id = a.children[0];
    if (posx != kNoCol) {
      const Op& rn = op(j_id);
      if (!IsNumbering(rn) || rn.col != posx) return false;
      if (rn.kind == OpKind::kRowNum &&
          (rn.part != iter1x || rn.order.empty() ||
           rn.order[0] != SortKey{col::iter(), false})) {
        return false;
      }
      j_id = rn.children[0];
    }
    OpId b_id = MatchReattach(id, j_id, iter1x, s);
    if (b_id == kNoOp) return false;
    // A constant attached to B's rows (the compiler's pos) that nothing
    // above B reads is dead: the rebuild leaves it out.
    const Op& b = op(b_id);
    if (b.kind == OpKind::kCross && IsOneRowLit(op(b.children[1]))) {
      ColSet read{col::iter()};
      for (const auto& e : a.proj) read.insert(e.second);
      if (j_id != a.children[0]) {
        for (const SortKey& k : op(a.children[0]).order) read.insert(k.col);
      }
      bool dead = true;
      for (ColId c : op(b.children[1]).schema) dead = dead && !read.count(c);
      if (dead) s->dead_const = b_id;
    }

    // The predicate's survivors: the Select under B whose EBV
    // scaffolding is total over this S-space's loop.
    std::vector<RawPred> raws;
    for (OpId c : dag_.ReachableFrom(b_id)) {
      const Op& o = op(c);
      if (o.kind != OpKind::kSelect || o.col != col::item()) continue;
      raws.clear();
      if (MatchEbv(c, s->space, s, &raws)) {
        s->sel = c;
        break;
      }
    }
    if (s->sel == kNoOp) return false;

    // items_s is unique by hash-consing, so a scan of the predicate's
    // region finds the one the comparison sides use.
    for (OpId c : dag_.ReachableFrom(s->sel)) {
      if (IsItems(c, s)) {
        s->items_s = c;
        break;
      }
    }
    if (s->items_s == kNoOp) return false;
    s->akind = JoinAnchorKind::kReturn;
    if (!MatchSpace(s->space, s) || !ClassifyAll(raws, s)) return false;

    // B must key its rows by the S-iteration in `iter` (the re-attaching
    // join's key) and return item values, never iteration ids.
    WalkState body(WalkMode::kBody);
    auto bi = Walk(b_id, s, &body);
    return bi && bi->count(col::iter()) != 0 && bi->count(col::item()) == 0;
  }

  // The EBV scaffolding over the per-iteration predicate:
  //   Select item(Union(π{iter, item:e}(Aggr e:ebv(item)|iter(T)),
  //     Cross(loop_s \iter π{iter}(Aggr), [false])))
  // where T is a boolean tree: the survivors-Union of one comparison, or
  // an `and` pairing two padded boolean subtrees per iteration.
  bool MatchEbv(OpId sel_id, OpId n_id, JoinSpec* s,
                std::vector<RawPred>* raws) {
    const Op& sel = op(sel_id);
    if (sel.kind != OpKind::kSelect || sel.col != col::item()) return false;
    const Op& u2 = op(sel.children[0]);
    if (u2.kind != OpKind::kUnion) return false;
    const Op& pa = op(u2.children[0]);
    if (pa.kind != OpKind::kProject) return false;
    OpId ag_id = pa.children[0];
    const Op& ag = op(ag_id);
    if (ag.kind != OpKind::kAggr || ag.aggr != AggrKind::kEbv ||
        ag.part != col::iter() || ag.col2 != col::item()) {
      return false;
    }
    if (!ProjIs(pa, {{col::iter(), col::iter()}, {col::item(), ag.col}})) {
      return false;
    }
    OpId loop_id = MatchFalseBranch(u2.children[1], ag_id);
    if (loop_id == kNoOp) return false;
    const Op& loop = op(loop_id);
    const Op& n = op(n_id);
    if (loop.kind != OpKind::kProject || loop.children[0] != n_id ||
        !ProjIs(loop, {{col::iter(), n.col}})) {
      return false;
    }
    s->loop_s = loop_id;
    return MatchBoolTree(ag.children[0], loop_id, raws);
  }

  // A per-iteration boolean tree under an EBV Aggr: either the
  // survivors-Union of one comparison, or an `and`-conjunction
  //   π{iter, item:c}(Fun c:and(item, y)(⋈ iter=iterK(L,
  //     π{iterK:iter, y:item}(R))))
  // pairing two padded boolean subtrees per iteration. Nested `and`s
  // recurse through the padding, so a chain of conjuncts flattens into
  // one RawPred per comparison.
  bool MatchBoolTree(OpId id, OpId loop, std::vector<RawPred>* raws) {
    const Op& o = op(id);
    if (o.kind == OpKind::kUnion) return MatchCmpUnion(id, loop, raws);
    if (o.kind != OpKind::kProject) return false;
    ColId c = ProjOld(o, col::item());
    if (c == kNoCol ||
        !ProjIs(o, {{col::iter(), col::iter()}, {col::item(), c}})) {
      return false;
    }
    const Op& f = op(o.children[0]);
    if (f.kind != OpKind::kFun || f.fun != FunKind::kAnd || f.col != c ||
        f.args.size() != 2 || f.args[0] != col::item()) {
      return false;
    }
    const Op& j = op(f.children[0]);
    if (j.kind != OpKind::kEquiJoin || j.value_join ||
        j.col != col::iter()) {
      return false;
    }
    const Op& rp = op(j.children[1]);
    if (rp.kind != OpKind::kProject ||
        !ProjIs(rp, {{j.col2, col::iter()}, {f.args[1], col::item()}})) {
      return false;
    }
    return MatchPaddedBool(j.children[0], loop, raws) &&
           MatchPaddedBool(rp.children[0], loop, raws);
  }

  // Union(π{iter, item:e}(Aggr e:ebv(item)|iter(T)),
  //       Cross(loop \iter π{iter}(Aggr), [false])) — one conjunct's
  // boolean value per iteration, padded to total over the loop.
  bool MatchPaddedBool(OpId id, OpId loop, std::vector<RawPred>* raws) {
    const Op& u = op(id);
    if (u.kind != OpKind::kUnion) return false;
    const Op& pa = op(u.children[0]);
    if (pa.kind != OpKind::kProject) return false;
    OpId ag_id = pa.children[0];
    const Op& ag = op(ag_id);
    if (ag.kind != OpKind::kAggr || ag.aggr != AggrKind::kEbv ||
        ag.part != col::iter() || ag.col2 != col::item()) {
      return false;
    }
    if (!ProjIs(pa, {{col::iter(), col::iter()}, {col::item(), ag.col}})) {
      return false;
    }
    if (MatchFalseBranch(u.children[1], ag_id) != loop) return false;
    return MatchBoolTree(ag.children[0], loop, raws);
  }

  // The survivors of one comparison, padded to a boolean per iteration:
  //   Union(Cross([Distinct](π{iter}(σ cmp(Fun cmp(⋈ iter)))), [true]),
  //         Cross(loop \iter π{iter}(·), [false]))
  bool MatchCmpUnion(OpId id, OpId loop, std::vector<RawPred>* raws) {
    const Op& u1 = op(id);
    OpId true_id = u1.children[0];
    const Op& t = op(true_id);
    if (t.kind != OpKind::kCross || !IsBoolLit(op(t.children[1]), true)) {
      return false;
    }
    // The Distinct over the survivors is optional: when a key fact
    // already proves at most one matching pair per iteration, the
    // distinct_by_keys rewrite has dropped it. Either way the EBV Aggr
    // collapses duplicates, and EmitJoin re-Distincts the survivors.
    const Op& d = op(t.children[0]);
    const Op& pi =
        d.kind == OpKind::kDistinct ? op(d.children[0]) : d;
    if (pi.kind != OpKind::kProject ||
        !ProjIs(pi, {{col::iter(), col::iter()}})) {
      return false;
    }
    const Op& selc = op(pi.children[0]);
    if (selc.kind != OpKind::kSelect) return false;
    const Op& fo = op(selc.children[0]);
    if (fo.kind != OpKind::kFun || fo.col != selc.col || !IsCmp(fo.fun) ||
        fo.args.size() != 2) {
      return false;
    }
    const Op& j = op(fo.children[0]);
    if (j.kind != OpKind::kEquiJoin || j.value_join) return false;
    if (j.col != col::iter()) return false;
    if (MatchFalseBranch(u1.children[1], true_id) != loop) return false;
    raws->push_back({j.children[0], j.children[1], j.col2, fo.fun,
                     fo.args[0], fo.args[1]});
    return true;
  }

  // Cross(Difference on iter(loop, π{iter}(src)), [item=false]) -> loop.
  OpId MatchFalseBranch(OpId id, OpId src) {
    const Op& c = op(id);
    if (c.kind != OpKind::kCross || !IsBoolLit(op(c.children[1]), false)) {
      return kNoOp;
    }
    const Op& diff = op(c.children[0]);
    if (diff.kind != OpKind::kDifference ||
        diff.keys != std::vector<ColId>{col::iter()}) {
      return kNoOp;
    }
    const Op& pr = op(diff.children[1]);
    if (pr.kind != OpKind::kProject || pr.children[0] != src ||
        !ProjIs(pr, {{col::iter(), col::iter()}})) {
      return kNoOp;
    }
    return diff.children[0];
  }

  // The composite lifting some outer value into a loop:
  //   π{iter:bX, item:item}(⋈ iter=iX(inner, π{iX:iter, bX:bind}(NX)))
  bool LiftShape(OpId id, OpId* nx, ColId* bindc, OpId* inner) {
    const Op& p = op(id);
    if (p.kind != OpKind::kProject || p.proj.size() != 2) return false;
    ColId bx = ProjOld(p, col::iter());
    if (bx == kNoCol || ProjOld(p, col::item()) != col::item()) return false;
    const Op& ej = op(p.children[0]);
    if (ej.kind != OpKind::kEquiJoin || ej.value_join ||
        ej.col != col::iter()) {
      return false;
    }
    const Op& mp = op(ej.children[1]);
    if (mp.kind != OpKind::kProject) return false;
    const Op& nxo = op(mp.children[0]);
    if (!IsNumbering(nxo)) return false;
    if (!ProjIs(mp, {{ej.col2, col::iter()}, {bx, nxo.col}})) return false;
    *nx = mp.children[0];
    *bindc = bx;
    *inner = ej.children[0];
    return true;
  }

  // Cross(1-row Lit{iter}, Doc) — the document-level loop of exactly one
  // iteration whose content is the document root.
  bool IsDocBase(OpId id) {
    const Op& c = op(id);
    if (c.kind != OpKind::kCross) return false;
    const Op& l = op(c.children[0]);
    return IsOneRowLit(l) && l.schema == std::vector<ColId>{col::iter()} &&
           op(c.children[1]).kind == OpKind::kDoc;
  }

  // Proves the S-space is the exact product of an outer loop with a
  // loop-invariant document-level node sequence, and records how to
  // rebuild that sequence. Two source forms below the numbering + Step
  // chain:
  //  (i)  Cross(π{iter:c}(NN), Doc) — the document root crossed into an
  //       outer loop directly;
  //  (ii) a chain of lift composites bottoming out at Cross(Lit, Doc) —
  //       a `let $d := doc(..)` lifted through nested for-loops. Every
  //       iteration's content is the single document root either way.
  bool MatchSpace(OpId n_id, JoinSpec* s) {
    OpId cur = n_id;
    while (IsNumbering(op(cur))) cur = op(cur).children[0];
    std::vector<OpId> steps;
    while (op(cur).kind == OpKind::kStep) {
      steps.push_back(cur);
      cur = op(cur).children[0];
    }
    std::reverse(steps.begin(), steps.end());  // innermost first
    s->steps = std::move(steps);

    const Op& src = op(cur);
    if (IsDocBase(cur)) return false;  // no outer loop to re-attach to
    if (src.kind == OpKind::kCross &&
        op(src.children[1]).kind == OpKind::kDoc) {
      const Op& l = op(src.children[0]);
      if (l.kind != OpKind::kProject || l.proj.size() != 1 ||
          l.proj[0].first != col::iter()) {
        return false;
      }
      OpId nn_id = l.children[0];
      const Op& nn = op(nn_id);
      // The outer iterations must be duplicate-free: a numbering result.
      if (!IsNumbering(nn) || nn.col != l.proj[0].second) return false;
      s->doc_op = src.children[1];
      s->base = kNoOp;
      s->src_num = nn_id;
      return true;
    }
    OpId nx = kNoOp, inner = kNoOp;
    ColId bindc = kNoCol;
    if (!LiftShape(cur, &nx, &bindc, &inner)) return false;
    OpId b = inner;
    while (!IsDocBase(b)) {
      OpId nx2 = kNoOp, in2 = kNoOp;
      ColId bc2 = kNoCol;
      if (!LiftShape(b, &nx2, &bc2, &in2)) return false;
      b = in2;
    }
    s->base = b;
    s->src_num = nx;
    return true;
  }

  // What a Walk is proving, and so which leaves it admits.
  enum class WalkMode {
    kCur,    // a comparison side over the inner sequence: items_s, loop_s
    kOuter,  // a comparison side over the outer items: this spec's lift
    kBody,   // a return body: the survivor loop and filtered bindings
  };
  struct WalkState {
    explicit WalkState(WalkMode m) : mode(m) {}
    WalkMode mode;
    std::map<OpId, std::optional<ColSet>> memo;
    std::map<OpId, bool> reach;
    OpId lift = kNoOp;         // kOuter: the lift composite met
    OpId outer_items = kNoOp;  // kOuter: the outer items it lifts
  };

  // Walks a sub-plan down to its leaves, tracking which columns carry
  // the S-space iteration id (or, in a body, a # over it). EmitJoin
  // renames those ids — to document-level rids in a comparison side, to
  // renumbered survivor ids in a body — so a tracked column may serve
  // only as an equi-join key, a partition or a sort key, never as a
  // value: a side then computes the same per-iteration function, and a
  // body the same rows up to the renaming. Sub-plans that never reach
  // the S-space numbering N are fixed tables: they meet the same rows
  // under either naming and pass through the re-rooting untouched. N
  // itself, or any path to it besides the mode's leaves, is refused.
  // Returns the tracked columns at the top, or nullopt if the sub-plan
  // reaches anything outside the allowed shape.
  std::optional<ColSet> Walk(OpId id, JoinSpec* s, WalkState* w) {
    if (auto it = w->memo.find(id); it != w->memo.end()) return it->second;
    std::optional<ColSet> r = WalkOp(id, s, w);
    w->memo[id] = r;
    return r;
  }

  std::optional<ColSet> WalkOp(OpId id, JoinSpec* s, WalkState* w) {
    const Op& o = op(id);
    switch (w->mode) {
      case WalkMode::kCur:
        if (id == s->items_s || id == s->loop_s) return ColSet{col::iter()};
        break;
      case WalkMode::kOuter: {
        OpId nx = kNoOp, inner = kNoOp;
        ColId bindc = kNoCol;
        if (LiftShape(id, &nx, &bindc, &inner)) {
          // Must be THE lift through this anchor's map_s.
          const Op& ej = op(o.children[0]);
          if (ej.children[1] != s->map_s || ej.col2 != s->iter1x ||
              bindc != s->bindx ||
              (w->lift != kNoOp && w->lift != id)) {
            return std::nullopt;
          }
          w->lift = id;
          w->outer_items = inner;
          return ColSet{col::iter()};
        }
        break;
      }
      case WalkMode::kBody:
        if (o.kind == OpKind::kProject && o.children[0] == s->sel &&
            ProjIs(o, {{col::iter(), col::iter()}})) {
          s->survivors = id;
          return ColSet{col::iter()};
        }
        if (o.kind == OpKind::kEquiJoin && !o.value_join &&
            o.col == col::iter() &&
            ProjIs(op(o.children[1]), {{o.col2, col::iter()}}) &&
            op(o.children[1]).children[0] == s->sel) {
          // A filtered binding: X must key its rows by the S-iteration
          // in exactly the join column, carrying no iteration ids
          // elsewhere.
          WalkState xw(WalkMode::kCur);
          auto xi = Walk(o.children[0], s, &xw);
          if (!xi || *xi != ColSet{col::iter()}) return std::nullopt;
          s->bindings.push_back(id);
          return ColSet{col::iter(), o.col2};
        }
        break;
    }
    if (id == s->space) return std::nullopt;
    if (!Reaches(id, s->space, &w->reach)) return ColSet{};
    const bool body = w->mode == WalkMode::kBody;
    auto walk = [&](OpId c) { return Walk(c, s, w); };
    switch (o.kind) {
      case OpKind::kProject: {
        auto sub = walk(o.children[0]);
        if (!sub) return std::nullopt;
        ColSet out;
        for (const auto& [n, old] : o.proj) {
          if (sub->count(old) != 0) out.insert(n);
        }
        return std::optional<ColSet>(out);
      }
      case OpKind::kFun: {
        auto sub = walk(o.children[0]);
        if (!sub) return std::nullopt;
        for (ColId a : o.args) {
          if (sub->count(a) != 0) return std::nullopt;
        }
        return sub;
      }
      case OpKind::kStep: {
        auto sub = walk(o.children[0]);
        if (!sub || *sub != ColSet{col::iter()}) return std::nullopt;
        return sub;
      }
      case OpKind::kSelect: {
        auto sub = walk(o.children[0]);
        if (!sub || sub->count(o.col) != 0) return std::nullopt;
        return sub;
      }
      case OpKind::kDistinct: {
        // Global dedup equals per-iteration dedup: rows keep their
        // iteration column, and iterations are renamed injectively.
        return walk(o.children[0]);
      }
      case OpKind::kCardCheck: {
        // Groups by the literal `iter` column on both children; per-rid
        // groups equal the per-iteration groups, so the assertion maps.
        auto sub = walk(o.children[0]);
        auto lp = walk(o.children[1]);
        if (!sub || !lp || sub->count(col::iter()) == 0 ||
            lp->count(col::iter()) == 0) {
          return std::nullopt;
        }
        return sub;
      }
      case OpKind::kCross: {
        // × with a fixed table on (at least) one side.
        auto l = walk(o.children[0]);
        auto r = walk(o.children[1]);
        if (!l || !r || (!l->empty() && !r->empty())) return std::nullopt;
        ColSet out = *l;
        out.insert(r->begin(), r->end());
        return std::optional<ColSet>(out);
      }
      case OpKind::kEquiJoin:
      case OpKind::kThetaJoin: {
        auto l = walk(o.children[0]);
        auto r = walk(o.children[1]);
        if (!l || !r) return std::nullopt;
        if (!l->empty() && !r->empty()) {
          // Per-iteration pairing: both sides join on their own
          // iteration column.
          if (o.kind != OpKind::kEquiJoin || o.value_join) {
            return std::nullopt;
          }
          if (l->count(o.col) == 0 || r->count(o.col2) == 0) {
            return std::nullopt;
          }
        } else if (l->count(o.col) != 0 || r->count(o.col2) != 0) {
          // Join against a fixed table: keyed on value columns only, so
          // each iteration's rows meet the same table either way.
          return std::nullopt;
        }
        ColSet out = *l;
        out.insert(r->begin(), r->end());
        return std::optional<ColSet>(out);
      }
      // The body-only kinds below run over the survivors alone, and the
      // renumbered ids keep their order.
      case OpKind::kUnion: {
        auto l = body ? walk(o.children[0]) : std::nullopt;
        auto r = body ? walk(o.children[1]) : std::nullopt;
        if (!l || !r || *l != *r) return std::nullopt;
        return l;
      }
      case OpKind::kRowNum:
      case OpKind::kRowId: {
        auto sub = walk(o.children[0]);
        if (!sub) return std::nullopt;
        if (o.kind == OpKind::kRowNum && body) {
          // Over the survivors alone a % partitioned or led by the
          // iteration ranks the same rows in the same order.
          bool by_iter =
              sub->empty() || sub->count(o.part) != 0 ||
              (!o.order.empty() && sub->count(o.order[0].col) != 0);
          if (!by_iter) return std::nullopt;
          return sub;
        }
        // A # (or a % over a side, whose rows the re-rooting regroups
        // by rid) numbers differently under the renaming: its ids serve
        // as keys only, like iteration ids.
        ColSet out = *sub;
        if (!out.empty()) out.insert(o.col);
        return std::optional<ColSet>(out);
      }
      case OpKind::kAggr: {
        auto sub = body ? walk(o.children[0]) : std::nullopt;
        if (!sub || sub->count(o.col2) != 0 ||
            (!sub->empty() && sub->count(o.part) == 0)) {
          return std::nullopt;
        }
        return sub->empty() ? ColSet{} : ColSet{o.part};
      }
      case OpKind::kElem:
      case OpKind::kAttr:
      case OpKind::kTextNode: {
        // One node per loop iteration from that iteration's content.
        auto c = body ? walk(o.children[0]) : std::nullopt;
        auto l = body ? walk(o.children[1]) : std::nullopt;
        if (!c || !l || *l != ColSet{col::iter()} ||
            c->count(col::iter()) == 0 || c->count(col::item()) != 0) {
          return std::nullopt;
        }
        return l;
      }
      default:
        return std::nullopt;
    }
  }

  bool ClassifyAll(const std::vector<RawPred>& raws, JoinSpec* s) {
    if (raws.empty()) return false;
    for (const RawPred& raw : raws) {
      if (!ClassifySides(raw, s)) return false;
    }
    return true;
  }

  bool ClassifySides(const RawPred& raw, JoinSpec* s) {
    for (int swap = 0; swap < 2; ++swap) {
      OpId curc = swap != 0 ? raw.side_b : raw.side_a;
      OpId outc = swap != 0 ? raw.side_a : raw.side_b;
      WalkState cw(WalkMode::kCur);
      auto cur_iters = Walk(curc, s, &cw);
      if (!cur_iters || cur_iters->size() != 1) continue;
      WalkState ow(WalkMode::kOuter);
      auto out_iters = Walk(outc, s, &ow);
      OpId lift = ow.lift, oi = ow.outer_items;
      if (!out_iters || out_iters->size() != 1 || lift == kNoOp) continue;

      ColId cur_iter = *cur_iters->begin();
      ColId outer_iter = *out_iters->begin();
      // The per-iteration join must pair each side by its own iteration
      // column: left (side_a) joins on `iter`, right on iter2X.
      ColId a_side_iter = swap != 0 ? outer_iter : cur_iter;
      ColId b_side_iter = swap != 0 ? cur_iter : outer_iter;
      if (a_side_iter != col::iter() || b_side_iter != raw.iter2x) {
        continue;
      }

      // The compared columns are item values, one per side.
      bool a_in_cur = op(curc).HasCol(raw.a_col);
      bool b_in_cur = op(curc).HasCol(raw.b_col);
      if (a_in_cur == b_in_cur) continue;
      if (a_in_cur ? !op(outc).HasCol(raw.b_col)
                   : !op(outc).HasCol(raw.a_col)) {
        continue;
      }
      if (raw.a_col == cur_iter || raw.a_col == outer_iter ||
          raw.b_col == cur_iter || raw.b_col == outer_iter) {
        continue;
      }

      // The lifted outer items must enumerate exactly the outer loop the
      // S-space was built over: the same numbering op that seeded the
      // product source. A constant attached to each of them (the for
      // variable's pos) changes no row.
      OpId oib = oi;
      if (op(oi).kind == OpKind::kCross && IsOneRowLit(op(op(oi).children[1]))) {
        oib = op(oi).children[0];
      }
      const Op& oio = op(oib);
      const Op& nn = op(s->src_num);
      if (oio.kind != OpKind::kProject || oio.children[0] != s->src_num ||
          !ProjIs(oio, {{col::iter(), nn.col},
                        {col::item(), col::item()}})) {
        continue;
      }
      // Every conjunct's outer side must lift through the one composite
      // this spec's map_s defines; hash-consing makes it unique, so
      // later conjuncts simply land on the same node.
      if (s->lift != kNoOp && s->lift != lift) continue;

      JoinPred p;
      p.cmp = raw.cmp;
      p.a_col = raw.a_col;
      p.b_col = raw.b_col;
      p.a_in_cur = a_in_cur;
      p.cur_root = curc;
      p.outer_root = outc;
      p.cur_iter = cur_iter;
      p.outer_iter = outer_iter;
      s->preds.push_back(p);
      s->lift = lift;
      s->outer_items = oi;
      return true;
    }
    return false;
  }

  const Dag& dag_;
};

// Re-emits the subtree under `id` with the leaf substitutions applied:
// every operator above a substituted leaf is copied over its rebuilt
// children (constructors keep their constructor id), everything else —
// the fixed tables Walk admitted — is shared as-is.
OpId Rebuild(Dag* dag, OpId id, const std::map<OpId, OpId>& leaves,
             std::map<OpId, OpId>* memo) {
  if (auto it = leaves.find(id); it != leaves.end()) return it->second;
  if (auto it = memo->find(id); it != memo->end()) return it->second;
  Op copy = dag->op(id);
  bool changed = false;
  for (OpId& c : copy.children) {
    OpId c2 = Rebuild(dag, c, leaves, memo);
    changed |= c2 != c;
    c = c2;
  }
  OpId out = changed ? dag->Add(std::move(copy)) : id;
  (*memo)[id] = out;
  return out;
}

bool HashSafeKind(ItemKind k) {
  // Exactly the verifier's gate: within these classes the engine's
  // bit-exact (untyped-normalized) hash equality coincides with the
  // general-comparison eq. Mixed int/double (kNumeric) does not — 5 and
  // 5.0e0 compare equal but hash apart.
  return k == ItemKind::kInt || k == ItemKind::kString ||
         k == ItemKind::kBool;
}

bool NonNodeKind(ItemKind k) {
  return k != ItemKind::kNode && k != ItemKind::kAny;
}

}  // namespace

std::map<OpId, JoinSpec> RecognizeJoins(const Dag& dag, OpId root) {
  return Recognizer(dag).Run(root);
}

OpId EmitJoin(Dag* dag, const JoinSpec& spec, OpId outer_items_new,
              const RewriteOptions& options, PropertyTracker* props,
              SemTypeTracker* sem, CardTracker* cards,
              std::string* detail) {
  const Op& oi = dag->op(outer_items_new);
  if (!oi.HasCol(col::iter()) || !oi.HasCol(col::item())) return kNoOp;

  // The inner sequence, rebuilt once at document level and keyed by a
  // fresh # — one rid per document item, standing in for the per-outer-
  // iteration copies the product space materialized.
  OpId base = spec.base;
  if (base == kNoOp) {
    LitTable one;
    one.cols = {col::iter()};
    one.rows = {{Value::Int(1)}};
    base = dag->Cross(dag->Lit(std::move(one)), spec.doc_op);
  }
  OpId chain = base;
  for (OpId sid : spec.steps) {
    const Op& st = dag->op(sid);
    chain = dag->Step(chain, st.axis, st.test);
  }
  ColId rid = FreshCol("rid");
  OpId k = dag->RowId(chain, rid);
  OpId k_items =
      dag->Project(k, {{col::iter(), rid}, {col::item(), col::item()}});
  OpId k_loop = dag->Project(k, {{col::iter(), rid}});

  std::map<OpId, OpId> memo_cur;
  std::map<OpId, OpId> leaves_cur{{spec.items_s, k_items},
                                  {spec.loop_s, k_loop}};
  std::map<OpId, OpId> memo_out;
  std::map<OpId, OpId> leaves_out{{spec.lift, outer_items_new}};

  // One join per conjunct. Each conjunct's surviving (outer iteration,
  // rid) pairs are the original S-iterations where it has a matching
  // pair — the Distinct mirrors the EBV's "any match" — and the
  // conjunction holds exactly on the intersection of those sets, taken
  // here with scaffolding semijoins on the canonical pair columns.
  ColId o_iter = spec.preds[0].outer_iter;
  ColId c_iter = spec.preds[0].cur_iter;
  struct BuiltJoin {
    OpId keep;
    uint64_t est;  // cardinality-interval upper bound on survivors
  };
  std::vector<BuiltJoin> built;
  std::string hows;
  for (const JoinPred& p : spec.preds) {
    OpId cur2 = Rebuild(dag, p.cur_root, leaves_cur, &memo_cur);
    OpId outer2 = Rebuild(dag, p.outer_root, leaves_out, &memo_out);

    ColId o_key = p.a_in_cur ? p.b_col : p.a_col;
    ColId c_key = p.a_in_cur ? p.a_col : p.b_col;
    ItemKind ko = sem->Get(outer2).KindOf(o_key);
    ItemKind kc = sem->Get(cur2).KindOf(c_key);

    const char* how = nullptr;
    OpId vj = kNoOp;
    if (p.cmp == FunKind::kEq && ko == kc && HashSafeKind(ko)) {
      // Hash value join; the engine picks the build side by size.
      vj = dag->ValueJoin(outer2, cur2, o_key, c_key);
      how = "hash value join";
    } else if (options.theta_join && NonNodeKind(ko) && NonNodeKind(kc)) {
      // ThetaJoin evaluates the comparison over exactly the pairs the
      // product-space plan compared, so dynamic-error conditions are
      // preserved. Probe (left) side: the larger input, for chunk
      // parallelism across its rows.
      uint64_t co = cards->Get(outer2).max;
      uint64_t cc = cards->Get(cur2).max;
      bool cur_left = cc >= co;
      OpId l = cur_left ? cur2 : outer2;
      OpId r = cur_left ? outer2 : cur2;
      ColId lk = cur_left ? c_key : o_key;
      ColId rk = cur_left ? o_key : c_key;
      // p.cmp is stated as a_col cmp b_col; mirror if a sits right.
      bool a_left = cur_left == p.a_in_cur;
      vj = dag->ThetaJoin(l, r, lk, a_left ? p.cmp : MirrorCmp(p.cmp), rk);
      how = "theta join";
    } else {
      return kNoOp;
    }

    OpId ki = dag->Distinct(dag->Project(
        vj, {{o_iter, p.outer_iter}, {c_iter, p.cur_iter}}));
    built.push_back({ki, cards->Get(ki).max});
    if (!hows.empty()) hows += ", and ";
    hows += std::string(how) + " on " + ColName(p.a_col) + " " +
            FunKindName(p.cmp) + " " + ColName(p.b_col) + " (" +
            ItemKindName(ko) + "/" + ItemKindName(kc) + " keys)";
  }
  // Greedy intersection order from the cardinality intervals: the
  // tightest survivor set seeds the semijoin chain, so every probe that
  // follows scans the smallest left side available. Stable, so equal
  // estimates keep the conjuncts' source order — plans stay
  // deterministic.
  std::stable_sort(built.begin(), built.end(),
                   [](const BuiltJoin& a, const BuiltJoin& b) {
                     return a.est < b.est;
                   });
  OpId keep = kNoOp;
  for (const BuiltJoin& b : built) {
    keep = keep == kNoOp ? b.keep
                         : dag->SemiJoin(keep, b.keep, {o_iter, c_iter});
  }
  OpId result = kNoOp;
  if (spec.akind == JoinAnchorKind::kReturn) {
    // Renumber the survivors into fresh dense iteration ids. Within each
    // outer iteration the rids are the inner sequence's document order —
    // exactly the order the product space enumerated — so sorting by
    // (outer iteration, rid) makes the fresh ids order-isomorphic to the
    // original S-iterations everywhere they are compared below.
    // Where the outer iteration ids are themselves an arbitrary #
    // (unordered mode), weaken_rownum would degrade this % to a # and so
    // change the ids under certificates already witnessing them: emit
    // the # directly. Its ids follow the survivors' physical order, which
    // within each outer iteration is the rid order.
    ColId s2 = FreshCol("s2");
    OpId renum =
        options.weaken_rownum &&
                props->Get(keep).arbitrary.count(o_iter) != 0
            ? dag->RowId(keep, s2)
            : dag->RowNum(keep, s2, {{o_iter, false}, {c_iter, false}},
                          kNoCol);

    // The body's leaves over the survivors: the loop, each filtered
    // binding — its companion re-rooted onto the document-level rids and
    // joined down to the survivors — and the map back to the outer loop.
    std::map<OpId, OpId> leaves{
        {spec.map_s,
         dag->Project(renum, {{spec.iter1x, o_iter}, {spec.bindx, s2}})}};
    if (spec.survivors != kNoOp) {
      leaves[spec.survivors] = dag->Project(renum, {{col::iter(), s2}});
    }
    ColId tr = FreshCol("tr");
    OpId surv = dag->Project(renum, {{s2, s2}, {tr, c_iter}});
    const std::vector<OpId> body = dag->ReachableFrom(spec.anchor);
    for (OpId b : spec.bindings) {
      OpId x = dag->op(b).children[0];
      ColId iter_r = dag->op(b).col2;
      OpId x2 = Rebuild(dag, x, leaves_cur, &memo_cur);
      OpId j = dag->EquiJoin(x2, surv, col::iter(), tr);
      // The binding's columns over the survivors, its iterations renamed.
      auto over = [&](const std::vector<std::pair<ColId, ColId>>& proj) {
        std::vector<std::pair<ColId, ColId>> out;
        for (const auto& [n, o] : proj) {
          out.emplace_back(n, o == col::iter() || o == iter_r ? s2 : o);
        }
        return dag->Project(j, std::move(out));
      };
      std::vector<std::pair<ColId, ColId>> all;
      for (ColId c : dag->op(b).schema) all.emplace_back(c, c);
      leaves[b] = over(all);
      // A projection of the binding folds into it, as the next pass's
      // projection merging would.
      for (OpId p : body) {
        if (dag->op(p).kind == OpKind::kProject &&
            dag->op(p).children[0] == b) {
          leaves[p] = over(dag->op(p).proj);
        }
      }
    }
    std::map<OpId, OpId> memo;
    if (spec.dead_const != kNoOp) {
      leaves[spec.dead_const] = Rebuild(
          dag, dag->op(spec.dead_const).children[0], leaves, &memo);
    }
    result = Rebuild(dag, spec.anchor, leaves, &memo);
    if (detail != nullptr) {
      *detail = hows +
                "; for-loop return re-rooted, product space replaced by " +
                "survivor renumbering over " +
                std::to_string(spec.steps.size()) + "-step document items";
    }
    return result;
  }
  if (!spec.with_item) {
    result = dag->Project(keep, {{col::iter(), o_iter}});
  } else {
    // Re-attach the inner item by rid — plain scaffolding equi-join.
    ColId ridf = FreshCol("rid");
    OpId kre =
        dag->Project(k, {{ridf, rid}, {col::item(), col::item()}});
    OpId j = dag->EquiJoin(keep, kre, c_iter, ridf);
    result = dag->Project(
        j, {{col::iter(), o_iter}, {col::item(), col::item()}});
  }
  if (detail != nullptr) {
    *detail = hows + "; iteration-product space re-rooted at " +
              std::to_string(spec.steps.size()) + "-step document items";
  }
  return result;
}

}  // namespace exrquy
