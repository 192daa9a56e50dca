#include "compiler/compile.h"

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/symbols.h"

namespace exrquy {
namespace {

using col::item;
using col::iter;
using col::pos;

// Standard projection list (iter, pos, item).
std::vector<std::pair<ColId, ColId>> Ipi() {
  return {{iter(), iter()}, {pos(), pos()}, {item(), item()}};
}

std::vector<std::pair<ColId, ColId>> Ii() {
  return {{iter(), iter()}, {item(), item()}};
}

// The ⊕ function of each comparison, arithmetic and logical operator.
constexpr std::pair<BinOp, FunKind> kOperatorFuns[] = {
    {BinOp::kEq, FunKind::kEq},     {BinOp::kNe, FunKind::kNe},
    {BinOp::kLt, FunKind::kLt},     {BinOp::kLe, FunKind::kLe},
    {BinOp::kGt, FunKind::kGt},     {BinOp::kGe, FunKind::kGe},
    {BinOp::kAdd, FunKind::kAdd},   {BinOp::kSub, FunKind::kSub},
    {BinOp::kMul, FunKind::kMul},   {BinOp::kDiv, FunKind::kDiv},
    {BinOp::kIDiv, FunKind::kIDiv}, {BinOp::kMod, FunKind::kMod},
    {BinOp::kNeg, FunKind::kNeg},   {BinOp::kAnd, FunKind::kAnd},
    {BinOp::kOr, FunKind::kOr},     {BinOp::kBefore, FunKind::kNodeBefore},
    {BinOp::kIs, FunKind::kNodeIs}, {BinOp::kAfter, FunKind::kNodeAfter},
};

Result<FunKind> OperatorFun(BinOp op) {
  for (const auto& [b, f] : kOperatorFuns) {
    if (b == op) return f;
  }
  return Internal("bad operator");
}

class Compiler {
 public:
  Compiler(Dag* dag, StrPool* strings, bool exploit_unordered)
      : dag_(dag), strings_(strings), exploit_(exploit_unordered) {}

  Result<OpId> CompileRoot(const Expr& body, OrderingMode mode) {
    LitTable loop0;
    loop0.cols = {iter()};
    loop0.rows = {{Value::Int(1)}};
    Scope root;
    root.loop = dag_->Lit(std::move(loop0));
    EXRQUY_ASSIGN_OR_RETURN(OpId q, CompileExpr(body, root, mode));
    OpId out = dag_->Project(q, Ipi());
    dag_->SetProv(out, "serialize");
    return out;
  }

 private:
  // -- Scopes (variable environments with lazy lifting/restriction) --------

  struct Scope {
    OpId loop = kNoOp;
    enum class Link { kRoot, kSame, kLift, kRestrict };
    Link link = Link::kRoot;
    Scope* parent = nullptr;
    // kLift: map relation (map_outer = outer iter, map_inner = inner iter).
    // kRestrict: map = filter loop projected to column map_outer.
    OpId map = kNoOp;
    ColId map_outer = kNoCol;
    ColId map_inner = kNoCol;
    std::map<std::string, OpId> vars;
    std::map<std::string, OpId> cache;
  };

  Result<OpId> LookupVar(Scope& scope, const std::string& name) {
    auto it = scope.vars.find(name);
    if (it != scope.vars.end()) return it->second;
    it = scope.cache.find(name);
    if (it != scope.cache.end()) return it->second;
    if (scope.parent == nullptr) {
      return NotFound("undefined variable $" + name);
    }
    EXRQUY_ASSIGN_OR_RETURN(OpId p, LookupVar(*scope.parent, name));
    OpId result = p;
    switch (scope.link) {
      case Scope::Link::kSame:
        break;
      case Scope::Link::kLift: {
        // Lift the variable into the inner iteration space: one copy of
        // each outer row per inner iteration (Section 3, seq -> iter).
        OpId j = dag_->EquiJoin(p, scope.map, iter(), scope.map_outer);
        result = dag_->Project(j, {{iter(), scope.map_inner},
                                   {pos(), pos()},
                                   {item(), item()}});
        break;
      }
      case Scope::Link::kRestrict: {
        OpId j = dag_->EquiJoin(p, scope.map, iter(), scope.map_outer);
        result = dag_->Project(j, Ipi());
        break;
      }
      case Scope::Link::kRoot:
        EXRQUY_CHECK(false);
    }
    scope.cache[name] = result;
    return result;
  }

  // Inner scope for a bound table qb with columns (iter, pos, item, bind).
  Scope MakeLiftScope(Scope* outer, OpId qb) {
    Scope s;
    s.link = Scope::Link::kLift;
    s.parent = outer;
    s.map_outer = dag_->FreshCol("iter1");
    s.map_inner = dag_->FreshCol("bind");
    s.map = dag_->Project(
        qb, {{s.map_outer, iter()}, {s.map_inner, col::bind()}});
    s.loop = dag_->Project(qb, {{iter(), col::bind()}});
    return s;
  }

  // Scope restricted to the iterations in `filter_loop` (column iter).
  Scope MakeRestrictScope(Scope* outer, OpId filter_loop) {
    Scope s;
    s.link = Scope::Link::kRestrict;
    s.parent = outer;
    s.loop = filter_loop;
    s.map_outer = dag_->FreshCol("iterR");
    s.map = dag_->Project(filter_loop, {{s.map_outer, iter()}});
    return s;
  }

  Scope MakeSameScope(Scope* outer) {
    Scope s;
    s.link = Scope::Link::kSame;
    s.parent = outer;
    s.loop = outer->loop;
    return s;
  }

  // -- Small plan helpers ---------------------------------------------------

  OpId Empty() { return dag_->Empty({iter(), pos(), item()}); }

  // loop × [pos=1, item=v]
  OpId ConstSeq(OpId loop, Value v) {
    return dag_->AttachConst(dag_->AttachConst(loop, pos(), Value::Int(1)),
                             item(), v);
  }

  OpId ToTriple(OpId q_iter_item) {
    return dag_->AttachConst(q_iter_item, pos(), Value::Int(1));
  }

  // Applies a unary function to the item column, keeping (iter, pos).
  OpId MapItem(OpId q, FunKind fun) {
    ColId tmp = dag_->FreshCol("item");
    OpId f = dag_->Fun(q, fun, tmp, {item()});
    return dag_->Project(f,
                         {{iter(), iter()}, {pos(), pos()}, {item(), tmp}});
  }

  OpId Atomize(OpId q) { return MapItem(q, FunKind::kAtomize); }

  // Joins (iter, ..., item) plans on iter; returns the joined plan and
  // the columns holding their items, in order.
  std::pair<OpId, std::vector<ColId>> JoinOnIter(
      const std::vector<OpId>& qs) {
    OpId plan = kNoOp;
    std::vector<ColId> items = {item()};
    for (size_t i = 1; i < qs.size(); ++i) {
      ColId in = dag_->FreshCol("iter" + std::to_string(i + 1));
      ColId tn = dag_->FreshCol("item" + std::to_string(i + 1));
      OpId r = dag_->Project(qs[i], {{in, iter()}, {tn, item()}});
      if (plan == kNoOp) plan = dag_->Project(qs[0], Ii());
      plan = dag_->EquiJoin(plan, r, iter(), in);
      items.push_back(tn);
    }
    return {plan, std::move(items)};
  }

  // `fun` over the items of the plans `args`, joined on iter. Returns
  // (iter, pos, item).
  OpId Apply(FunKind fun, const std::vector<OpId>& args) {
    if (args.size() == 1) return MapItem(args[0], fun);
    auto [plan, items] = JoinOnIter(args);
    ColId res = dag_->FreshCol("item");
    OpId f = dag_->Fun(plan, fun, res, std::move(items));
    return ToTriple(dag_->Project(f, {{iter(), iter()}, {item(), res}}));
  }

  // Adds rows [iter, default] for loop iterations missing in q (iter,
  // item); with pos 1 when q is an (iter, pos, item) triple, and with a
  // column `present`, true on q's rows and false on the added ones, when
  // one is named.
  OpId WithDefault(OpId q, OpId loop, Value dflt, ColId present = kNoCol) {
    OpId iters = dag_->Project(q, {{iter(), iter()}});
    OpId missing = dag_->Difference(loop, iters, {iter()});
    OpId d = dag_->AttachConst(missing, item(), dflt);
    if (dag_->op(q).HasCol(pos())) d = ToTriple(d);
    if (present != kNoCol) {
      q = dag_->AttachConst(q, present, Value::Bool(true));
      d = dag_->AttachConst(d, present, Value::Bool(false));
    }
    return dag_->Union(q, d);
  }

  // Grouped aggregate over the item column with a per-iteration default.
  // Returns (iter, item).
  OpId AggrDefault(OpId q, AggrKind aggr, OpId loop, const Value* dflt) {
    ColId res = dag_->FreshCol("item");
    OpId a = dag_->Aggr(dag_->Project(q, Ipi()), aggr, res,
                        aggr == AggrKind::kCount ? kNoCol : item(), iter());
    OpId renamed = dag_->Project(a, {{iter(), iter()}, {item(), res}});
    if (dflt == nullptr) return renamed;
    return WithDefault(renamed, loop, *dflt);
  }

  // Effective boolean value: (iter, item-bool), one row per loop iter.
  Result<OpId> CompileEbv(const Expr& e, Scope& scope, OrderingMode mode) {
    EXRQUY_ASSIGN_OR_RETURN(OpId q, CompileExpr(e, scope, mode));
    Value f = Value::Bool(false);
    return AggrDefault(q, AggrKind::kEbv, scope.loop, &f);
  }

  // -- Provenance -----------------------------------------------------------

  std::string Label(const Expr& e) {
    std::string s = ExprToString(e);
    if (s.size() > 56) s = s.substr(0, 53) + "...";
    return s;
  }

  // -- Expression dispatch --------------------------------------------------

  Result<OpId> CompileExpr(const Expr& e, Scope& scope, OrderingMode mode) {
    size_t before = dag_->size();
    Result<OpId> r = CompileDispatch(e, scope, mode);
    if (r.ok()) {
      std::string label = Label(e);
      for (OpId id = static_cast<OpId>(before); id < dag_->size(); ++id) {
        dag_->SetProv(id, label);
      }
    }
    return r;
  }

  Result<OpId> CompileDispatch(const Expr& e, Scope& scope,
                               OrderingMode mode) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        return ConstSeq(scope.loop, Value::Int(e.int_value));
      case ExprKind::kDoubleLit:
        return ConstSeq(scope.loop, Value::Double(e.double_value));
      case ExprKind::kStringLit:
        return ConstSeq(scope.loop,
                        Value::Str(strings_->Intern(e.string_value)));
      case ExprKind::kEmptySeq:
        return Empty();
      case ExprKind::kVarRef:
        return LookupVar(scope, e.string_value);
      case ExprKind::kContextItem:
        return LookupVar(scope, ".");
      case ExprKind::kSequence: {
        std::vector<OpId> parts;
        for (const ExprPtr& c : e.children) {
          EXRQUY_ASSIGN_OR_RETURN(OpId q, CompileExpr(*c, scope, mode));
          parts.push_back(q);
        }
        return SequencePlans(parts);
      }
      case ExprKind::kFlwor:
        return CompileFlwor(e, scope, mode);
      case ExprKind::kIf:
        return CompileIf(e, scope, mode);
      case ExprKind::kQuantified:
        return CompileSome(e, scope, mode);
      case ExprKind::kPathStep:
        return CompileStep(e, scope, mode);
      case ExprKind::kPathFilter:
        return CompilePathFilter(e, scope, mode);
      case ExprKind::kPredicate:
        return CompilePredicate(e, scope, mode);
      case ExprKind::kSetOp:
        return CompileSetOp(e, scope, mode);
      case ExprKind::kGeneralComp:
      case ExprKind::kValueComp:
      case ExprKind::kNodeComp:
        return CompileComparison(e, scope, mode);
      case ExprKind::kArith:
        return CompileArith(e, scope, mode);
      case ExprKind::kRange:
        return CompileRange(e, scope, mode);
      case ExprKind::kLogical:
        return CompileLogical(e, scope, mode);
      case ExprKind::kFunctionCall:
        return CompileCall(e, scope, mode);
      case ExprKind::kOrderedExpr:
        return CompileExpr(*e.children[0], scope, e.mode);
      case ExprKind::kElementCtor:
        return CompileElementCtor(e, scope, mode);
      case ExprKind::kAttributeCtor:
        return Internal("attribute constructor outside element");
      case ExprKind::kTextCtor: {
        EXRQUY_ASSIGN_OR_RETURN(OpId q,
                                CompileExpr(*e.children[0], scope, mode));
        OpId content =
            MapItem(MapItem(dag_->Project(q, Ipi()), FunKind::kAtomize),
                    FunKind::kToString);
        return ToTriple(dag_->Text(content, scope.loop));
      }
    }
    return Internal("unhandled expression kind");
  }

  // (e1, e2, ...): disjoint union with ord-tagged renumbering. The
  // iter -> seq interaction (type 4) stays intact in either ordering mode
  // (Figure 3); column dependency analysis removes the % when pos turns
  // out not to be required.
  OpId SequencePlans(const std::vector<OpId>& parts) {
    if (parts.empty()) return Empty();
    if (parts.size() == 1) return dag_->Project(parts[0], Ipi());
    ColId ord = dag_->FreshCol("ord");
    ColId posn = dag_->FreshCol("pos1");
    OpId u = kNoOp;
    for (size_t i = 0; i < parts.size(); ++i) {
      OpId p = dag_->AttachConst(dag_->Project(parts[i], Ipi()), ord,
                                 Value::Int(static_cast<int64_t>(i)));
      u = (i == 0) ? p : dag_->Union(u, p);
    }
    OpId rn = dag_->RowNum(u, posn, {{ord, false}, {pos(), false}}, iter());
    return dag_->Project(rn,
                         {{iter(), iter()}, {pos(), posn}, {item(), item()}});
  }

  // -- FLWOR ----------------------------------------------------------------

  struct FlworTail {
    OpId body = kNoOp;
    struct Key {
      // (iter, item[, present]), one row per inner iteration; `present`
      // is false where the key is empty (its item a placeholder).
      OpId plan;
      ColId present;
      bool descending;
      bool empty_greatest;
    };
    std::vector<Key> keys;
  };

  Result<OpId> CompileFlwor(const Expr& e, Scope& scope, OrderingMode mode) {
    size_t for_count = 0;
    size_t last_for = 0;
    for (size_t i = 0; i < e.clauses.size(); ++i) {
      if (e.clauses[i].kind == FlworClause::Kind::kFor) {
        ++for_count;
        last_for = i;
      }
    }
    if (!e.order_by.empty() && for_count != 1) {
      return Unimplemented(
          "order by is supported for FLWOR blocks with exactly one for "
          "clause");
    }
    EXRQUY_ASSIGN_OR_RETURN(FlworTail tail,
                            CompileFlworRest(e, 0, last_for, scope, mode));
    EXRQUY_CHECK(tail.keys.empty());  // consumed by the for clause
    return tail.body;
  }

  Result<FlworTail> CompileFlworRest(const Expr& e, size_t idx,
                                     size_t last_for, Scope& scope,
                                     OrderingMode mode) {
    if (idx == e.clauses.size()) return CompileFlworEnd(e, scope, mode);

    const FlworClause& c = e.clauses[idx];
    if (c.kind == FlworClause::Kind::kLet) {
      EXRQUY_ASSIGN_OR_RETURN(OpId q, CompileExpr(*c.expr, scope, mode));
      Scope inner = MakeSameScope(&scope);
      inner.vars[c.var] = q;
      return CompileFlworRest(e, idx + 1, last_for, inner, mode);
    }

    // for $x (at $p) in e1
    EXRQUY_ASSIGN_OR_RETURN(OpId q1, CompileExpr(*c.expr, scope, mode));
    q1 = dag_->Project(q1, Ipi());
    // Rule BIND (ordered) vs Rule BIND# (Figure 7). A FLWOR whose result
    // is reordered by order by is also free to bind in arbitrary order
    // (context (f) in Section 1).
    bool free_bind =
        exploit_ && (mode == OrderingMode::kUnordered ||
                     (!e.order_by.empty() && idx == last_for));
    OpId qb;
    if (free_bind) {
      qb = dag_->RowId(q1, col::bind());
    } else {
      qb = dag_->RowNum(q1, col::bind(), {{iter(), false}, {pos(), false}},
                        kNoCol);
    }
    Scope inner = MakeLiftScope(&scope, qb);
    inner.vars[c.var] = ToTriple(
        dag_->Project(qb, {{iter(), col::bind()}, {item(), item()}}));
    if (!c.pos_var.empty()) {
      // The positional variable must consistently reflect the position in
      // the binding sequence (Section 2.1, Expression (4)). Under LOC#,
      // pos holds arbitrary unique values numbered across iterations, so
      // $p is derived by a dense per-iteration re-ranking; the nondeter-
      // minism of the binding order is preserved, its density restored.
      OpId psrc = qb;
      ColId pcol = pos();
      if (exploit_ && mode == OrderingMode::kUnordered) {
        pcol = dag_->FreshCol("prank");
        psrc = dag_->RowNum(qb, pcol, {{pos(), false}}, iter());
      }
      inner.vars[c.pos_var] = ToTriple(
          dag_->Project(psrc, {{iter(), col::bind()}, {item(), pcol}}));
    }

    EXRQUY_ASSIGN_OR_RETURN(
        FlworTail tail, CompileFlworRest(e, idx + 1, last_for, inner, mode));

    // Back-mapping: derive the result's sequence order from the binding
    // order (order interaction iter -> seq, type 3) — or from the order
    // by keys.
    OpId j = dag_->EquiJoin(tail.body, inner.map, iter(), inner.map_inner);
    std::vector<SortKey> criteria;
    if (idx == last_for && !e.order_by.empty()) {
      EXRQUY_CHECK(tail.keys.size() == e.order_by.size());
      for (const FlworTail::Key& k : tail.keys) {
        ColId kb = dag_->FreshCol("kbind");
        ColId kv = dag_->FreshCol("key");
        std::vector<std::pair<ColId, ColId>> proj = {{kb, iter()},
                                                     {kv, item()}};
        // An empty key sorts least (or greatest) of all: by `present`
        // first, false before true unless the two directions differ.
        if (k.present != kNoCol) {
          proj.push_back({k.present, k.present});
          criteria.push_back({k.present, k.descending != k.empty_greatest});
        }
        j = dag_->EquiJoin(j, dag_->Project(k.plan, std::move(proj)), iter(),
                           kb);
        criteria.push_back({kv, k.descending});
      }
      tail.keys.clear();
    }
    criteria.push_back({iter(), false});  // binding order (iter = bind here)
    criteria.push_back({pos(), false});
    ColId posn = dag_->FreshCol("pos1");
    OpId rn = dag_->RowNum(j, posn, std::move(criteria), inner.map_outer);
    dag_->SetProv(rn, "return (iter->seq)");
    FlworTail out;
    out.body = dag_->Project(
        rn, {{iter(), inner.map_outer}, {pos(), posn}, {item(), item()}});
    out.keys = std::move(tail.keys);
    return out;
  }

  Result<FlworTail> CompileFlworEnd(const Expr& e, Scope& scope,
                                    OrderingMode mode) {
    Scope* cur = &scope;
    Scope restricted;  // keep alive while compiling keys and return
    if (e.where) {
      EXRQUY_ASSIGN_OR_RETURN(OpId qw, CompileEbv(*e.where, scope, mode));
      OpId filt = dag_->Project(dag_->Select(qw, item()), {{iter(), iter()}});
      restricted = MakeRestrictScope(&scope, filt);
      cur = &restricted;
    }
    FlworTail tail;
    for (const OrderSpec& spec : e.order_by) {
      EXRQUY_ASSIGN_OR_RETURN(OpId kq, CompileExpr(*spec.key, *cur, mode));
      // A key is an xs:anyAtomicType? argument. Its untypedAtomic values
      // need no cast to xs:string: OrderCompare ranks them as strings.
      Card known = KnownCard(*spec.key, kq, *cur);
      OpId k = dag_->Project(
          LowerArg(kq, known, {Occurs::kOpt, Convert::kAtomize},
                   "order by key", *cur),
          Ii());
      ColId present = known.min < 1 ? dag_->FreshCol("present") : kNoCol;
      if (present != kNoCol) {
        k = WithDefault(k, cur->loop, Value::Untyped(StrPool::kEmpty),
                        present);
      }
      tail.keys.push_back({k, present, spec.descending, spec.empty_greatest});
    }
    EXRQUY_ASSIGN_OR_RETURN(tail.body, CompileExpr(*e.ret, *cur, mode));
    tail.body = dag_->Project(tail.body, Ipi());
    return tail;
  }

  // -- Conditionals and quantifiers -----------------------------------------

  Result<OpId> CompileIf(const Expr& e, Scope& scope, OrderingMode mode) {
    EXRQUY_ASSIGN_OR_RETURN(OpId qc, CompileEbv(*e.children[0], scope, mode));
    OpId then_loop =
        dag_->Project(dag_->Select(qc, item()), {{iter(), iter()}});
    ColId notc = dag_->FreshCol("not");
    OpId qn = dag_->Fun(qc, FunKind::kNot, notc, {item()});
    OpId else_loop =
        dag_->Project(dag_->Select(qn, notc), {{iter(), iter()}});
    Scope then_scope = MakeRestrictScope(&scope, then_loop);
    Scope else_scope = MakeRestrictScope(&scope, else_loop);
    EXRQUY_ASSIGN_OR_RETURN(OpId qt,
                            CompileExpr(*e.children[1], then_scope, mode));
    EXRQUY_ASSIGN_OR_RETURN(OpId qe,
                            CompileExpr(*e.children[2], else_scope, mode));
    return dag_->Union(dag_->Project(qt, Ipi()), dag_->Project(qe, Ipi()));
  }

  // some $x in e1 satisfies e2 (every was normalized away).
  Result<OpId> CompileSome(const Expr& e, Scope& scope, OrderingMode mode) {
    EXRQUY_CHECK(e.op == BinOp::kOr);
    EXRQUY_ASSIGN_OR_RETURN(OpId q1, CompileExpr(*e.children[0], scope, mode));
    q1 = dag_->Project(q1, Ipi());
    OpId qb;
    if (exploit_ && mode == OrderingMode::kUnordered) {
      qb = dag_->RowId(q1, col::bind());
    } else {
      qb = dag_->RowNum(q1, col::bind(), {{iter(), false}, {pos(), false}},
                        kNoCol);
    }
    Scope inner = MakeLiftScope(&scope, qb);
    inner.vars[e.string_value] = ToTriple(
        dag_->Project(qb, {{iter(), col::bind()}, {item(), item()}}));
    EXRQUY_ASSIGN_OR_RETURN(OpId qs, CompileEbv(*e.children[1], inner, mode));
    OpId sel = dag_->Select(qs, item());
    OpId back = dag_->EquiJoin(dag_->Project(sel, {{iter(), iter()}}),
                               inner.map, iter(), inner.map_inner);
    OpId found =
        dag_->Distinct(dag_->Project(back, {{iter(), inner.map_outer}}));
    OpId t = dag_->AttachConst(found, item(), Value::Bool(true));
    return ToTriple(WithDefault(t, scope.loop, Value::Bool(false)));
  }

  // -- Paths ------------------------------------------------------------

  Result<OpId> CompileStep(const Expr& e, Scope& scope, OrderingMode mode) {
    EXRQUY_ASSIGN_OR_RETURN(OpId q, CompileExpr(*e.children[0], scope, mode));
    NodeTest test;
    test.kind = e.test_kind;
    if (test.kind == NodeTest::Kind::kName) {
      test.name = strings_->Intern(e.test_name);
    }
    OpId st = dag_->Step(dag_->Project(q, Ii()), e.axis, test);
    if (exploit_ && mode == OrderingMode::kUnordered) {
      // Rule LOC#: sequence order is arbitrary.
      return dag_->RowId(st, pos());
    }
    // Rule LOC: document order determines sequence order (doc -> seq).
    return dag_->Project(dag_->RowNum(st, pos(), {{item(), false}}, iter()),
                         Ipi());
  }

  // e1/(e2): evaluate e2 once per context node of e1, take the distinct
  // node-set union of the per-context results, and derive sequence order
  // from document order (or arbitrarily, under LOC#-style indifference).
  Result<OpId> CompilePathFilter(const Expr& e, Scope& scope,
                                 OrderingMode mode) {
    EXRQUY_ASSIGN_OR_RETURN(OpId q1, CompileExpr(*e.children[0], scope, mode));
    q1 = dag_->Project(q1, Ipi());
    // Context iteration order is unobservable: the final set is re-sorted
    // (or arbitrary), so # is sound in either mode.
    OpId qb = dag_->RowId(q1, col::bind());
    Scope inner = MakeLiftScope(&scope, qb);
    inner.vars["."] = ToTriple(
        dag_->Project(qb, {{iter(), col::bind()}, {item(), item()}}));
    EXRQUY_ASSIGN_OR_RETURN(OpId qe,
                            CompileExpr(*e.children[1], inner, mode));
    OpId back = dag_->EquiJoin(dag_->Project(qe, Ii()), inner.map, iter(),
                               inner.map_inner);
    OpId set = dag_->Distinct(dag_->Project(
        back, {{iter(), inner.map_outer}, {item(), item()}}));
    if (exploit_ && mode == OrderingMode::kUnordered) {
      return dag_->RowId(set, pos());
    }
    return dag_->Project(dag_->RowNum(set, pos(), {{item(), false}}, iter()),
                         Ipi());
  }

  Result<OpId> CompileSetOp(const Expr& e, Scope& scope, OrderingMode mode) {
    EXRQUY_ASSIGN_OR_RETURN(OpId q1, CompileExpr(*e.children[0], scope, mode));
    EXRQUY_ASSIGN_OR_RETURN(OpId q2, CompileExpr(*e.children[1], scope, mode));
    OpId l = dag_->Project(q1, Ii());
    OpId r = dag_->Project(q2, Ii());
    OpId set;
    switch (e.op) {
      case BinOp::kUnion:
        set = dag_->Distinct(dag_->Union(l, r));
        break;
      case BinOp::kIntersect:
        set = dag_->SemiJoin(dag_->Distinct(l), r, {iter(), item()});
        break;
      case BinOp::kExcept:
        set = dag_->Difference(dag_->Distinct(l), r, {iter(), item()});
        break;
      default:
        return Internal("bad set op");
    }
    if (exploit_ && mode == OrderingMode::kUnordered) {
      return dag_->RowId(set, pos());
    }
    return dag_->Project(dag_->RowNum(set, pos(), {{item(), false}}, iter()),
                         Ipi());
  }

  // Recognizes `position() op <int>` / `<int> op position()` predicates;
  // fills *op_out (normalized to position-on-the-left) and *value_out.
  static bool IsPositionComparison(const Expr& p, FunKind* op_out,
                                   int64_t* value_out) {
    if (p.kind != ExprKind::kGeneralComp && p.kind != ExprKind::kValueComp) {
      return false;
    }
    auto is_position = [](const Expr& e) {
      return e.kind == ExprKind::kFunctionCall &&
             e.string_value == "position" && e.children.empty();
    };
    const Expr* lhs = p.children[0].get();
    const Expr* rhs = p.children[1].get();
    // The normalizer may have wrapped general-comparison operands.
    auto unwrap = [](const Expr* e) {
      while (e->kind == ExprKind::kFunctionCall &&
             e->string_value == "unordered") {
        e = e->children[0].get();
      }
      return e;
    };
    lhs = unwrap(lhs);
    rhs = unwrap(rhs);
    bool swapped;
    const Expr* value;
    if (is_position(*lhs) && rhs->kind == ExprKind::kIntLit) {
      swapped = false;
      value = rhs;
    } else if (is_position(*rhs) && lhs->kind == ExprKind::kIntLit) {
      swapped = true;
      value = lhs;
    } else {
      return false;
    }
    // With position() on the right, lt and gt (le and ge) swap.
    constexpr BinOp kMirrored[] = {BinOp::kEq, BinOp::kNe, BinOp::kGt,
                                   BinOp::kGe, BinOp::kLt, BinOp::kLe};
    if (p.op > BinOp::kGe) return false;
    *op_out =
        *OperatorFun(swapped ? kMirrored[static_cast<size_t>(p.op)] : p.op);
    *value_out = value->int_value;
    return true;
  }

  Result<OpId> CompilePredicate(const Expr& e, Scope& scope,
                                OrderingMode mode) {
    EXRQUY_ASSIGN_OR_RETURN(OpId q1, CompileExpr(*e.children[0], scope, mode));
    q1 = dag_->Project(q1, Ipi());
    const Expr& p = *e.children[1];

    // position() comparisons: a dense re-rank filtered by the relation.
    FunKind pos_op;
    int64_t pos_value;
    if (IsPositionComparison(p, &pos_op, &pos_value)) {
      ColId rank = dag_->FreshCol("rank");
      OpId rn = dag_->RowNum(q1, rank, {{pos(), false}}, iter());
      ColId kc = dag_->FreshCol("k");
      OpId withk = dag_->AttachConst(rn, kc, Value::Int(pos_value));
      ColId sel = dag_->FreshCol("sel");
      OpId flagged = dag_->Fun(withk, pos_op, sel, {rank, kc});
      return dag_->Project(dag_->Select(flagged, sel), Ipi());
    }

    // Positional predicates re-rank by pos (dense), then select the rank.
    if (p.kind == ExprKind::kIntLit ||
        (p.kind == ExprKind::kFunctionCall && p.string_value == "last" &&
         p.children.empty())) {
      ColId rank = dag_->FreshCol("rank");
      OpId rn = dag_->RowNum(q1, rank, {{pos(), false}}, iter());
      ColId cmp = dag_->FreshCol("sel");
      OpId flagged;
      if (p.kind == ExprKind::kIntLit) {
        ColId kc = dag_->FreshCol("k");
        OpId withk = dag_->AttachConst(rn, kc, Value::Int(p.int_value));
        flagged = dag_->Fun(withk, FunKind::kEq, cmp, {rank, kc});
      } else {
        ColId cnt = dag_->FreshCol("cnt");
        OpId counts = dag_->Aggr(q1, AggrKind::kCount, cnt, kNoCol, iter());
        ColId ci = dag_->FreshCol("iterC");
        OpId counts_r = dag_->Project(counts, {{ci, iter()}, {cnt, cnt}});
        OpId withc = dag_->EquiJoin(rn, counts_r, iter(), ci);
        flagged = dag_->Fun(withc, FunKind::kEq, cmp, {rank, cnt});
      }
      return dag_->Project(dag_->Select(flagged, cmp), Ipi());
    }

    // General predicate: filter by the effective boolean value of p with
    // the context item bound to each node. The context binding order is
    // never observable (filtering keeps the original rows), so # is sound
    // in either mode.
    OpId qb = dag_->RowId(q1, col::bind());
    Scope inner = MakeLiftScope(&scope, qb);
    inner.vars["."] = ToTriple(
        dag_->Project(qb, {{iter(), col::bind()}, {item(), item()}}));
    EXRQUY_ASSIGN_OR_RETURN(OpId qp, CompileEbv(p, inner, mode));
    ColId kb = dag_->FreshCol("keep");
    OpId keep = dag_->Project(dag_->Select(qp, item()), {{kb, iter()}});
    OpId j = dag_->EquiJoin(qb, keep, col::bind(), kb);
    return dag_->Project(j, Ipi());
  }

  // -- Comparisons, arithmetic, logic ---------------------------------------

  Result<OpId> CompileComparison(const Expr& e, Scope& scope,
                                 OrderingMode mode) {
    EXRQUY_ASSIGN_OR_RETURN(OpId q1, CompileExpr(*e.children[0], scope, mode));
    EXRQUY_ASSIGN_OR_RETURN(OpId q2, CompileExpr(*e.children[1], scope, mode));
    if (e.kind != ExprKind::kNodeComp) {
      q1 = Atomize(dag_->Project(q1, Ipi()));
      q2 = Atomize(dag_->Project(q2, Ipi()));
    }
    EXRQUY_ASSIGN_OR_RETURN(FunKind fk, OperatorFun(e.op));
    // Existential semantics: a pair-wise comparison over the per-iteration
    // cross product (the value-based join of Section 5 arises here), then
    // per-iteration existence.
    auto [plan, items] = JoinOnIter({q1, q2});
    ColId b = dag_->FreshCol("cmp");
    OpId c = dag_->Fun(plan, fk, b, std::move(items));
    dag_->SetProv(plan, "join");
    dag_->SetProv(c, "join");
    OpId found =
        dag_->Distinct(dag_->Project(dag_->Select(c, b), {{iter(), iter()}}));
    OpId t = dag_->AttachConst(found, item(), Value::Bool(true));
    return ToTriple(WithDefault(t, scope.loop, Value::Bool(false)));
  }

  Result<OpId> CompileArith(const Expr& e, Scope& scope, OrderingMode mode) {
    EXRQUY_ASSIGN_OR_RETURN(FunKind fk, OperatorFun(e.op));
    if (e.op == BinOp::kNeg) {
      EXRQUY_ASSIGN_OR_RETURN(OpId q, CompileExpr(*e.children[0], scope, mode));
      return Apply(fk, {Atomize(dag_->Project(q, Ipi()))});
    }
    EXRQUY_ASSIGN_OR_RETURN(OpId q1, CompileExpr(*e.children[0], scope, mode));
    EXRQUY_ASSIGN_OR_RETURN(OpId q2, CompileExpr(*e.children[1], scope, mode));
    q1 = Atomize(dag_->Project(q1, Ipi()));
    q2 = Atomize(dag_->Project(q2, Ipi()));
    return Apply(fk, {q1, q2});
  }

  // e1 to e2: the integer range sequence, in ascending sequence order
  // (the Range operator emits values ascending; pos derives from the
  // value order, or arbitrarily under order indifference).
  Result<OpId> CompileRange(const Expr& e, Scope& scope, OrderingMode mode) {
    EXRQUY_ASSIGN_OR_RETURN(OpId q1, CompileExpr(*e.children[0], scope, mode));
    EXRQUY_ASSIGN_OR_RETURN(OpId q2, CompileExpr(*e.children[1], scope, mode));
    q1 = Atomize(dag_->Project(q1, Ipi()));
    q2 = Atomize(dag_->Project(q2, Ipi()));
    auto [plan, items] = JoinOnIter({q1, q2});
    OpId r = dag_->Range(plan, items[0], items[1]);
    if (exploit_ && mode == OrderingMode::kUnordered) {
      return dag_->RowId(r, pos());
    }
    return dag_->Project(dag_->RowNum(r, pos(), {{item(), false}}, iter()),
                         Ipi());
  }

  Result<OpId> CompileLogical(const Expr& e, Scope& scope,
                              OrderingMode mode) {
    EXRQUY_ASSIGN_OR_RETURN(OpId qa, CompileEbv(*e.children[0], scope, mode));
    EXRQUY_ASSIGN_OR_RETURN(OpId qb, CompileEbv(*e.children[1], scope, mode));
    return Apply(*OperatorFun(e.op), {qa, qb});
  }

  // -- Function calls ---------------------------------------------------

  // Bounds on the items per iteration that the compiler already
  // guarantees for argument `e`, compiled to `q`: a CardCheck's over this
  // loop, one for a literal and for a call whose row returns exactly one
  // item, none for ().
  struct Card {
    int64_t min = 0;
    int64_t max = std::numeric_limits<int64_t>::max();
  };
  Card KnownCard(const Expr& e, OpId q, const Scope& scope) {
    const Op& op = dag_->op(q);
    if (op.kind == OpKind::kCardCheck && op.children[1] == scope.loop) {
      return {op.min_card, op.max_card};
    }
    if (e.kind == ExprKind::kIntLit || e.kind == ExprKind::kDoubleLit ||
        e.kind == ExprKind::kStringLit) {
      return {1, 1};
    }
    if (e.kind == ExprKind::kEmptySeq) return {0, 0};
    if (e.kind != ExprKind::kFunctionCall) return {};
    Result<Callee> c = FindCallee(e.string_value, e.children.size());
    if (!c.ok() || c->call == nullptr) return {};
    Card card{1, 1};
    for (size_t i = 0; i < c->arity; ++i) {
      const Param& p = c->call->params[i];
      if (p.occurs == Occurs::kMany && !c->aggregate) return {};
      if (p.occurs != Occurs::kOne && p.on_empty == OnEmpty::kNothing) {
        card.min = 0;
      }
    }
    return card;
  }

  Value EmptyOf(OnEmpty e) {
    if (e == OnEmpty::kResultZero) return Value::Int(0);
    return Value::Str(e == OnEmpty::kArgNaN ? strings_->Intern("NaN")
                                            : StrPool::kEmpty);
  }

  // One argument lowered by its parameter row: a CardCheck (labelled
  // `label`) for a bounded occurrence, the conversion, and the value an
  // empty argument stands for; the check and the default only where
  // `known` does not already rule the case out. Returns (iter, pos, item).
  OpId LowerArg(OpId q, Card known, const Param& p, const std::string& label,
                const Scope& scope) {
    q = dag_->Project(q, Ipi());
    int64_t lo = p.occurs == Occurs::kOne ? 1 : 0;
    if (p.occurs != Occurs::kMany && (known.min < lo || known.max > 1)) {
      q = dag_->CardCheck(q, scope.loop, lo, 1, strings_->Intern(label));
      known.min = std::max(known.min, lo);
    }
    if (p.convert != Convert::kNone) q = Atomize(q);
    if (p.convert == Convert::kString) q = MapItem(q, FunKind::kToString);
    if (p.on_empty != OnEmpty::kNothing && !IsResult(p.on_empty) &&
        known.min < 1) {
      q = WithDefault(q, scope.loop, EmptyOf(p.on_empty));
    }
    return q;
  }

  // A call of a signature row: every argument lowered by its parameter,
  // then the function over the arguments (folded left over a variadic
  // row's) or the aggregate, then the row's result for an empty argument.
  Result<OpId> LowerCall(const Expr& e, const Callee& c, Scope& scope,
                         OrderingMode mode) {
    std::vector<OpId> args;
    for (const ExprPtr& a : e.children) {
      EXRQUY_ASSIGN_OR_RETURN(OpId q, CompileExpr(*a, scope, mode));
      args.push_back(q);
    }
    const std::string label = "fn:" + e.string_value;
    for (size_t i = 0; i < args.size(); ++i) {
      args[i] = LowerArg(args[i], KnownCard(*e.children[i], args[i], scope),
                         c.call->params[std::min(i, c.arity - 1)], label,
                         scope);
    }
    const OnEmpty on_empty = c.call->params[0].on_empty;
    Value empty = EmptyOf(on_empty);
    if (c.aggregate) {
      OpId a = AggrDefault(args[0], c.aggr, scope.loop,
                           IsResult(on_empty) ? &empty : nullptr);
      dag_->SetProv(a, label);
      return ToTriple(a);
    }
    OpId r = Apply(c.fun, {args.begin(), args.begin() + c.arity});
    for (size_t i = c.arity; i < args.size(); ++i) {
      r = Apply(c.fun, {r, args[i]});
    }
    return IsResult(on_empty) ? WithDefault(r, scope.loop, empty) : r;
  }

  Result<OpId> CompileCall(const Expr& e, Scope& scope, OrderingMode mode) {
    const std::string& name = e.string_value;
    EXRQUY_ASSIGN_OR_RETURN(Callee callee,
                            FindCallee(name, e.children.size()));
    if (callee.call != nullptr) return LowerCall(e, callee, scope, mode);
    auto arity = [&](size_t n) -> Status {
      if (e.children.size() != n) {
        return TypeError("fn:" + name + " expects " + std::to_string(n) +
                         " argument(s)");
      }
      return Status::Ok();
    };

    if (name == "true" || name == "false") {
      EXRQUY_RETURN_IF_ERROR(arity(0));
      return ConstSeq(scope.loop, Value::Bool(name == "true"));
    }
    if (name == "doc") {
      EXRQUY_RETURN_IF_ERROR(arity(1));
      if (e.children[0]->kind != ExprKind::kStringLit) {
        return Unimplemented("fn:doc requires a string literal argument");
      }
      OpId d = dag_->Doc(strings_->Intern(e.children[0]->string_value));
      return ToTriple(dag_->Cross(scope.loop, d));
    }
    if (name == "unordered") {
      EXRQUY_RETURN_IF_ERROR(arity(1));
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      if (!exploit_) return q;  // identity, like the engines of Section 6
      // Rule FN:UNORDERED: #pos(π_iter,item(q)).
      return dag_->RowId(dag_->Project(q, Ii()), pos());
    }

    if (name == "empty" || name == "exists") {
      EXRQUY_RETURN_IF_ERROR(arity(1));
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      Value zero = Value::Int(0);
      OpId cnt = AggrDefault(dag_->Project(q, Ipi()), AggrKind::kCount,
                             scope.loop, &zero);
      ColId z = dag_->FreshCol("zero");
      OpId withz = dag_->AttachConst(cnt, z, Value::Int(0));
      ColId b = dag_->FreshCol("item");
      OpId f = dag_->Fun(withz,
                         name == "empty" ? FunKind::kEq : FunKind::kNe, b,
                         {item(), z});
      return ToTriple(dag_->Project(f, {{iter(), iter()}, {item(), b}}));
    }

    if (name == "boolean") {
      EXRQUY_RETURN_IF_ERROR(arity(1));
      EXRQUY_ASSIGN_OR_RETURN(OpId q, CompileEbv(*e.children[0], scope, mode));
      return ToTriple(q);
    }
    if (name == "not") {
      EXRQUY_RETURN_IF_ERROR(arity(1));
      EXRQUY_ASSIGN_OR_RETURN(OpId q, CompileEbv(*e.children[0], scope, mode));
      ColId b = dag_->FreshCol("item");
      OpId f = dag_->Fun(q, FunKind::kNot, b, {item()});
      return ToTriple(dag_->Project(f, {{iter(), iter()}, {item(), b}}));
    }

    if (name == "distinct-values") {
      EXRQUY_RETURN_IF_ERROR(arity(1));
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      OpId d = dag_->Distinct(
          dag_->Project(Atomize(dag_->Project(q, Ipi())), Ii()));
      // The spec leaves the result order implementation defined: a free #
      // when order indifference is exploited, a deterministic sort
      // otherwise.
      if (exploit_) return dag_->RowId(d, pos());
      return dag_->Project(dag_->RowNum(d, pos(), {{item(), false}}, iter()),
                           Ipi());
    }

    if (name == "string-join") {
      EXRQUY_RETURN_IF_ERROR(arity(2));
      if (e.children[1]->kind != ExprKind::kStringLit) {
        return Unimplemented(
            "fn:string-join requires a string literal separator");
      }
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      q = MapItem(Atomize(dag_->Project(q, Ipi())), FunKind::kToString);
      ColId res = dag_->FreshCol("item");
      OpId a = dag_->AggrStrJoin(
          dag_->Project(q, Ipi()), res, item(), iter(), pos(),
          strings_->Intern(e.children[1]->string_value));
      OpId renamed = dag_->Project(a, {{iter(), iter()}, {item(), res}});
      return ToTriple(
          WithDefault(renamed, scope.loop, Value::Str(StrPool::kEmpty)));
    }

    if (name == "reverse") {
      // Order sensitive: pos is renumbered in reverse — this one *cannot*
      // ignore its argument's order, so no fn:unordered is inserted for
      // it and the pos computation below stays live even under CDA.
      EXRQUY_RETURN_IF_ERROR(arity(1));
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      ColId rev = dag_->FreshCol("pos1");
      OpId rn = dag_->RowNum(dag_->Project(q, Ipi()), rev,
                             {{pos(), true}}, iter());
      return dag_->Project(rn,
                           {{iter(), iter()}, {pos(), rev}, {item(), item()}});
    }

    if (name == "zero-or-one" || name == "exactly-one" ||
        name == "one-or-more") {
      // Cardinality-checked identities: the argument passes through, but
      // the engine raises err:FORG000x when a loop iteration violates
      // the bound.
      EXRQUY_RETURN_IF_ERROR(arity(1));
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      int64_t lo = name == "zero-or-one" ? 0 : 1;
      int64_t hi = name == "one-or-more"
                       ? std::numeric_limits<int64_t>::max()
                       : 1;
      return dag_->CardCheck(dag_->Project(q, Ipi()), scope.loop, lo, hi,
                             strings_->Intern("fn:" + name));
    }

    if (name == "subsequence") {
      if (e.children.size() != 2 && e.children.size() != 3) {
        return TypeError("fn:subsequence expects 2 or 3 arguments");
      }
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      q = dag_->Project(q, Ipi());
      // Dense per-iteration ranks; the window bounds round per spec.
      ColId rank = dag_->FreshCol("rank");
      OpId rn = dag_->RowNum(q, rank, {{pos(), false}}, iter());
      EXRQUY_ASSIGN_OR_RETURN(OpId qs,
                              CompileExpr(*e.children[1], scope, mode));
      qs = MapItem(Atomize(dag_->Project(qs, Ipi())), FunKind::kRound);
      ColId si = dag_->FreshCol("iterS");
      ColId sv = dag_->FreshCol("start");
      OpId smap = dag_->Project(qs, {{si, iter()}, {sv, item()}});
      OpId j = dag_->EquiJoin(rn, smap, iter(), si);
      ColId ok1 = dag_->FreshCol("sel");
      OpId f1 = dag_->Fun(j, FunKind::kGe, ok1, {rank, sv});
      OpId filtered = dag_->Select(f1, ok1);
      if (e.children.size() == 3) {
        EXRQUY_ASSIGN_OR_RETURN(OpId ql,
                                CompileExpr(*e.children[2], scope, mode));
        ql = MapItem(Atomize(dag_->Project(ql, Ipi())), FunKind::kRound);
        ColId li = dag_->FreshCol("iterL");
        ColId lv = dag_->FreshCol("len");
        OpId lmap = dag_->Project(ql, {{li, iter()}, {lv, item()}});
        OpId j2 = dag_->EquiJoin(filtered, lmap, iter(), li);
        ColId bound = dag_->FreshCol("bound");
        OpId add = dag_->Fun(j2, FunKind::kAdd, bound, {sv, lv});
        ColId ok2 = dag_->FreshCol("sel");
        OpId f2 = dag_->Fun(add, FunKind::kLt, ok2, {rank, bound});
        filtered = dag_->Select(f2, ok2);
      }
      return dag_->Project(filtered, Ipi());
    }

    if (name == "last" || name == "position") {
      return Unimplemented("fn:" + name +
                           " is supported only inside predicates");
    }
    return NotFound("unknown function: " + name);
  }

  // -- Constructors -----------------------------------------------------

  // Compiles an attribute-value template to a singleton string (iter,
  // pos, item) plan.
  Result<OpId> CompileAvt(const std::vector<CtorPart>& parts, Scope& scope,
                          OrderingMode mode) {
    std::vector<OpId> plans;
    for (const CtorPart& p : parts) {
      if (p.expr == nullptr) {
        plans.push_back(
            ConstSeq(scope.loop, Value::Str(strings_->Intern(p.text))));
        continue;
      }
      EXRQUY_ASSIGN_OR_RETURN(OpId q, CompileExpr(*p.expr, scope, mode));
      q = MapItem(Atomize(dag_->Project(q, Ipi())), FunKind::kToString);
      // Space-joined in sequence order (pos), '' when empty.
      ColId res = dag_->FreshCol("item");
      OpId a = dag_->AggrStrJoin(dag_->Project(q, Ipi()), res, item(),
                                 iter(), pos(), strings_->Intern(" "));
      OpId renamed = dag_->Project(a, {{iter(), iter()}, {item(), res}});
      OpId joined =
          WithDefault(renamed, scope.loop, Value::Str(StrPool::kEmpty));
      plans.push_back(ToTriple(joined));
    }
    if (plans.empty()) {
      return ConstSeq(scope.loop, Value::Str(StrPool::kEmpty));
    }
    OpId acc = plans[0];
    for (size_t i = 1; i < plans.size(); ++i) {
      acc = Apply(FunKind::kConcat, {acc, plans[i]});
    }
    return acc;
  }

  Result<OpId> CompileElementCtor(const Expr& e, Scope& scope,
                                  OrderingMode mode) {
    std::vector<OpId> content;
    for (const ExprPtr& a : e.children) {
      EXRQUY_CHECK(a->kind == ExprKind::kAttributeCtor);
      EXRQUY_ASSIGN_OR_RETURN(OpId value, CompileAvt(a->parts, scope, mode));
      OpId attr =
          dag_->Attr(strings_->Intern(a->string_value), value, scope.loop);
      content.push_back(ToTriple(attr));
    }
    for (const CtorPart& p : e.parts) {
      if (p.expr == nullptr) {
        // Literal content is a *text node*, not an atomic: it must not
        // participate in the space-joining of adjacent atomics
        // (<e>a{1}b</e> serializes as a1b).
        OpId lit =
            ConstSeq(scope.loop, Value::Str(strings_->Intern(p.text)));
        content.push_back(ToTriple(dag_->Text(lit, scope.loop)));
        continue;
      }
      EXRQUY_ASSIGN_OR_RETURN(OpId q, CompileExpr(*p.expr, scope, mode));
      content.push_back(q);
    }
    OpId content_plan = SequencePlans(content);
    OpId el =
        dag_->Elem(strings_->Intern(e.string_value), content_plan, scope.loop);
    dag_->SetProv(el, "constructor");
    return ToTriple(el);
  }

  Dag* dag_;
  StrPool* strings_;
  bool exploit_;
};

}  // namespace

Result<CompiledQuery> CompileQuery(const Query& query, StrPool* strings,
                                   const CompileOptions& options) {
  CompiledQuery out;
  out.dag = std::make_unique<Dag>(query.fresh_names);
  Compiler compiler(out.dag.get(), strings, options.exploit_unordered);
  OrderingMode mode = query.has_ordering_decl ? query.default_ordering
                                              : options.default_mode;
  if (!options.exploit_unordered) {
    // Baseline configuration: strict ordering throughout (Section 5's
    // "compiler ignores order indifference").
    mode = OrderingMode::kOrdered;
  }
  EXRQUY_ASSIGN_OR_RETURN(out.root, compiler.CompileRoot(*query.body, mode));
  return out;
}

}  // namespace exrquy
