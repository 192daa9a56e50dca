#include "compiler/compile.h"

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
    s.map_outer = FreshCol("iter1");
    s.map_inner = FreshCol("bind");
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
    s.map_outer = FreshCol("iterR");
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
    ColId tmp = FreshCol("item");
    OpId f = dag_->Fun(q, fun, tmp, {item()});
    return dag_->Project(f,
                         {{iter(), iter()}, {pos(), pos()}, {item(), tmp}});
  }

  OpId Atomize(OpId q) { return MapItem(q, FunKind::kAtomize); }

  // Joins two (iter, ..., item) plans on iter; returns the joined plan and
  // the column holding the right item.
  struct Joined {
    OpId plan;
    ColId right_item;
  };
  Joined JoinOnIter(OpId q1, OpId q2) {
    ColId i2 = FreshCol("iter2");
    ColId t2 = FreshCol("item2");
    OpId r = dag_->Project(q2, {{i2, iter()}, {t2, item()}});
    OpId l = dag_->Project(q1, Ii());
    return Joined{dag_->EquiJoin(l, r, iter(), i2), t2};
  }

  // Adds rows [iter, default] for loop iterations missing in q (iter,
  // item); with pos 1 when q is an (iter, pos, item) triple.
  OpId WithDefault(OpId q, OpId loop, Value dflt) {
    OpId present = dag_->Project(q, {{iter(), iter()}});
    OpId missing = dag_->Difference(loop, present, {iter()});
    OpId d = dag_->AttachConst(missing, item(), dflt);
    if (dag_->op(q).HasCol(pos())) d = ToTriple(d);
    return dag_->Union(q, d);
  }

  // Grouped aggregate over the item column with a per-iteration default.
  // Returns (iter, item).
  OpId AggrDefault(OpId q, AggrKind aggr, OpId loop, const Value* dflt,
                   ColId order_col = kNoCol) {
    ColId res = FreshCol("item");
    OpId a = dag_->Aggr(dag_->Project(q, Ipi()), aggr, res,
                        aggr == AggrKind::kCount ? kNoCol : item(), iter(),
                        order_col);
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
    ColId ord = FreshCol("ord");
    ColId posn = FreshCol("pos1");
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
      OpId plan;  // (iter, item), one row per inner iteration
      bool descending;
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
        pcol = FreshCol("prank");
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
        ColId kb = FreshCol("kbind");
        ColId kv = FreshCol("key");
        OpId keymap = dag_->Project(k.plan, {{kb, iter()}, {kv, item()}});
        j = dag_->EquiJoin(j, keymap, iter(), kb);
        criteria.push_back({kv, k.descending});
      }
      tail.keys.clear();
    }
    criteria.push_back({iter(), false});  // binding order (iter = bind here)
    criteria.push_back({pos(), false});
    ColId posn = FreshCol("pos1");
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
      kq = Atomize(dag_->Project(kq, Ipi()));
      // One key row per iteration; empty keys order first (our
      // approximation of 'empty least': the empty string).
      Value empty_key = Value::Untyped(StrPool::kEmpty);
      OpId k = AggrDefault(kq, AggrKind::kMax, cur->loop, &empty_key);
      tail.keys.push_back({k, spec.descending});
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
    ColId notc = FreshCol("not");
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
    FunKind op;
    switch (p.op) {
      case BinOp::kEq:
        op = FunKind::kEq;
        break;
      case BinOp::kNe:
        op = FunKind::kNe;
        break;
      case BinOp::kLt:
        op = swapped ? FunKind::kGt : FunKind::kLt;
        break;
      case BinOp::kLe:
        op = swapped ? FunKind::kGe : FunKind::kLe;
        break;
      case BinOp::kGt:
        op = swapped ? FunKind::kLt : FunKind::kGt;
        break;
      case BinOp::kGe:
        op = swapped ? FunKind::kLe : FunKind::kGe;
        break;
      default:
        return false;
    }
    *op_out = op;
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
      ColId rank = FreshCol("rank");
      OpId rn = dag_->RowNum(q1, rank, {{pos(), false}}, iter());
      ColId kc = FreshCol("k");
      OpId withk = dag_->AttachConst(rn, kc, Value::Int(pos_value));
      ColId sel = FreshCol("sel");
      OpId flagged = dag_->Fun(withk, pos_op, sel, {rank, kc});
      return dag_->Project(dag_->Select(flagged, sel), Ipi());
    }

    // Positional predicates re-rank by pos (dense), then select the rank.
    if (p.kind == ExprKind::kIntLit ||
        (p.kind == ExprKind::kFunctionCall && p.string_value == "last" &&
         p.children.empty())) {
      ColId rank = FreshCol("rank");
      OpId rn = dag_->RowNum(q1, rank, {{pos(), false}}, iter());
      ColId cmp = FreshCol("sel");
      OpId flagged;
      if (p.kind == ExprKind::kIntLit) {
        ColId kc = FreshCol("k");
        OpId withk = dag_->AttachConst(rn, kc, Value::Int(p.int_value));
        flagged = dag_->Fun(withk, FunKind::kEq, cmp, {rank, kc});
      } else {
        ColId cnt = FreshCol("cnt");
        OpId counts = dag_->Aggr(q1, AggrKind::kCount, cnt, kNoCol, iter());
        ColId ci = FreshCol("iterC");
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
    ColId kb = FreshCol("keep");
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
    FunKind fk;
    switch (e.op) {
      case BinOp::kEq:
        fk = FunKind::kEq;
        break;
      case BinOp::kNe:
        fk = FunKind::kNe;
        break;
      case BinOp::kLt:
        fk = FunKind::kLt;
        break;
      case BinOp::kLe:
        fk = FunKind::kLe;
        break;
      case BinOp::kGt:
        fk = FunKind::kGt;
        break;
      case BinOp::kGe:
        fk = FunKind::kGe;
        break;
      case BinOp::kBefore:
        fk = FunKind::kNodeBefore;
        break;
      case BinOp::kAfter:
        fk = FunKind::kNodeAfter;
        break;
      case BinOp::kIs:
        fk = FunKind::kNodeIs;
        break;
      default:
        return Internal("bad comparison op");
    }
    // Existential semantics: a pair-wise comparison over the per-iteration
    // cross product (the value-based join of Section 5 arises here), then
    // per-iteration existence.
    Joined j = JoinOnIter(q1, q2);
    ColId b = FreshCol("cmp");
    OpId c = dag_->Fun(j.plan, fk, b, {item(), j.right_item});
    dag_->SetProv(j.plan, "join");
    dag_->SetProv(c, "join");
    OpId found =
        dag_->Distinct(dag_->Project(dag_->Select(c, b), {{iter(), iter()}}));
    OpId t = dag_->AttachConst(found, item(), Value::Bool(true));
    return ToTriple(WithDefault(t, scope.loop, Value::Bool(false)));
  }

  Result<OpId> CompileArith(const Expr& e, Scope& scope, OrderingMode mode) {
    FunKind fk;
    switch (e.op) {
      case BinOp::kAdd:
        fk = FunKind::kAdd;
        break;
      case BinOp::kSub:
        fk = FunKind::kSub;
        break;
      case BinOp::kMul:
        fk = FunKind::kMul;
        break;
      case BinOp::kDiv:
        fk = FunKind::kDiv;
        break;
      case BinOp::kIDiv:
        fk = FunKind::kIDiv;
        break;
      case BinOp::kMod:
        fk = FunKind::kMod;
        break;
      case BinOp::kNeg: {
        EXRQUY_ASSIGN_OR_RETURN(OpId q,
                                CompileExpr(*e.children[0], scope, mode));
        return MapItem(Atomize(dag_->Project(q, Ipi())), FunKind::kNeg);
      }
      default:
        return Internal("bad arithmetic op");
    }
    EXRQUY_ASSIGN_OR_RETURN(OpId q1, CompileExpr(*e.children[0], scope, mode));
    EXRQUY_ASSIGN_OR_RETURN(OpId q2, CompileExpr(*e.children[1], scope, mode));
    q1 = Atomize(dag_->Project(q1, Ipi()));
    q2 = Atomize(dag_->Project(q2, Ipi()));
    Joined j = JoinOnIter(q1, q2);
    ColId res = FreshCol("item");
    OpId f = dag_->Fun(j.plan, fk, res, {item(), j.right_item});
    return ToTriple(dag_->Project(f, {{iter(), iter()}, {item(), res}}));
  }

  // e1 to e2: the integer range sequence, in ascending sequence order
  // (the Range operator emits values ascending; pos derives from the
  // value order, or arbitrarily under order indifference).
  Result<OpId> CompileRange(const Expr& e, Scope& scope, OrderingMode mode) {
    EXRQUY_ASSIGN_OR_RETURN(OpId q1, CompileExpr(*e.children[0], scope, mode));
    EXRQUY_ASSIGN_OR_RETURN(OpId q2, CompileExpr(*e.children[1], scope, mode));
    q1 = Atomize(dag_->Project(q1, Ipi()));
    q2 = Atomize(dag_->Project(q2, Ipi()));
    Joined j = JoinOnIter(q1, q2);
    OpId r = dag_->Range(j.plan, item(), j.right_item);
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
    Joined j = JoinOnIter(qa, qb);
    ColId res = FreshCol("item");
    OpId f = dag_->Fun(j.plan,
                       e.op == BinOp::kAnd ? FunKind::kAnd : FunKind::kOr,
                       res, {item(), j.right_item});
    return ToTriple(dag_->Project(f, {{iter(), iter()}, {item(), res}}));
  }

  // -- Function calls ---------------------------------------------------

  Result<OpId> CompileCall(const Expr& e, Scope& scope, OrderingMode mode) {
    const std::string& name = e.string_value;
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

    if (name == "count" || name == "sum" || name == "max" || name == "min" ||
        name == "avg") {
      EXRQUY_RETURN_IF_ERROR(arity(1));
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      q = dag_->Project(q, Ipi());
      if (name != "count") q = Atomize(q);
      AggrKind ak = name == "count" ? AggrKind::kCount
                    : name == "sum" ? AggrKind::kSum
                    : name == "max" ? AggrKind::kMax
                    : name == "min" ? AggrKind::kMin
                                    : AggrKind::kAvg;
      OpId a;
      if (name == "count" || name == "sum") {
        Value zero = Value::Int(0);
        a = AggrDefault(q, ak, scope.loop, &zero);
      } else {
        a = AggrDefault(q, ak, scope.loop, nullptr);
      }
      if (name == "count") dag_->SetProv(a, "fn:count");
      return ToTriple(a);
    }

    if (name == "empty" || name == "exists") {
      EXRQUY_RETURN_IF_ERROR(arity(1));
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      Value zero = Value::Int(0);
      OpId cnt = AggrDefault(dag_->Project(q, Ipi()), AggrKind::kCount,
                             scope.loop, &zero);
      ColId z = FreshCol("zero");
      OpId withz = dag_->AttachConst(cnt, z, Value::Int(0));
      ColId b = FreshCol("item");
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
      ColId b = FreshCol("item");
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

    if (name == "data") {
      EXRQUY_RETURN_IF_ERROR(arity(1));
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      return Atomize(dag_->Project(q, Ipi()));
    }
    if (name == "string") {
      EXRQUY_RETURN_IF_ERROR(arity(1));
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      return MapItem(Atomize(dag_->Project(q, Ipi())), FunKind::kToString);
    }
    if (name == "number") {
      // The argument is xs:anyAtomicType?: an iteration with several
      // items raises, like zero-or-one. number(()) is NaN: an iteration
      // without an item gets the string "NaN", which kToDouble casts to
      // NaN. (A NaN literal would not equal itself, and the Dag
      // hash-conses literals by equality.)
      EXRQUY_RETURN_IF_ERROR(arity(1));
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      q = dag_->CardCheck(dag_->Project(q, Ipi()), scope.loop, 0, 1,
                          strings_->Intern(name));
      OpId a = WithDefault(Atomize(q), scope.loop,
                           Value::Str(strings_->Intern("NaN")));
      return MapItem(a, FunKind::kToDouble);
    }
    if (name == "string-length") {
      EXRQUY_RETURN_IF_ERROR(arity(1));
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      return MapItem(
          MapItem(Atomize(dag_->Project(q, Ipi())), FunKind::kToString),
          FunKind::kStringLength);
    }

    if (name == "contains") {
      EXRQUY_RETURN_IF_ERROR(arity(2));
      EXRQUY_ASSIGN_OR_RETURN(OpId q1,
                              CompileExpr(*e.children[0], scope, mode));
      EXRQUY_ASSIGN_OR_RETURN(OpId q2,
                              CompileExpr(*e.children[1], scope, mode));
      q1 = MapItem(Atomize(dag_->Project(q1, Ipi())), FunKind::kToString);
      q2 = MapItem(Atomize(dag_->Project(q2, Ipi())), FunKind::kToString);
      Joined j = JoinOnIter(q1, q2);
      ColId b = FreshCol("item");
      OpId f =
          dag_->Fun(j.plan, FunKind::kContains, b, {item(), j.right_item});
      return ToTriple(dag_->Project(f, {{iter(), iter()}, {item(), b}}));
    }

    if (name == "concat") {
      if (e.children.size() < 2) {
        return TypeError("fn:concat expects at least two arguments");
      }
      OpId acc = kNoOp;
      for (const ExprPtr& arg : e.children) {
        EXRQUY_ASSIGN_OR_RETURN(OpId q, CompileExpr(*arg, scope, mode));
        q = MapItem(Atomize(dag_->Project(q, Ipi())), FunKind::kToString);
        if (acc == kNoOp) {
          acc = q;
          continue;
        }
        Joined j = JoinOnIter(acc, q);
        ColId res = FreshCol("item");
        OpId f =
            dag_->Fun(j.plan, FunKind::kConcat, res, {item(), j.right_item});
        acc = ToTriple(dag_->Project(f, {{iter(), iter()}, {item(), res}}));
      }
      return acc;
    }

    if (name == "starts-with" || name == "ends-with") {
      EXRQUY_RETURN_IF_ERROR(arity(2));
      EXRQUY_ASSIGN_OR_RETURN(OpId q1,
                              CompileExpr(*e.children[0], scope, mode));
      EXRQUY_ASSIGN_OR_RETURN(OpId q2,
                              CompileExpr(*e.children[1], scope, mode));
      q1 = MapItem(Atomize(dag_->Project(q1, Ipi())), FunKind::kToString);
      q2 = MapItem(Atomize(dag_->Project(q2, Ipi())), FunKind::kToString);
      Joined j = JoinOnIter(q1, q2);
      ColId b = FreshCol("item");
      OpId f = dag_->Fun(j.plan,
                         name == "starts-with" ? FunKind::kStartsWith
                                               : FunKind::kEndsWith,
                         b, {item(), j.right_item});
      return ToTriple(dag_->Project(f, {{iter(), iter()}, {item(), b}}));
    }

    if (name == "upper-case" || name == "lower-case" ||
        name == "normalize-space") {
      EXRQUY_RETURN_IF_ERROR(arity(1));
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      FunKind fk = name == "upper-case"   ? FunKind::kUpperCase
                   : name == "lower-case" ? FunKind::kLowerCase
                                          : FunKind::kNormalizeSpace;
      return MapItem(
          MapItem(Atomize(dag_->Project(q, Ipi())), FunKind::kToString), fk);
    }

    if (name == "substring") {
      if (e.children.size() != 2 && e.children.size() != 3) {
        return TypeError("fn:substring expects 2 or 3 arguments");
      }
      EXRQUY_ASSIGN_OR_RETURN(OpId q1,
                              CompileExpr(*e.children[0], scope, mode));
      EXRQUY_ASSIGN_OR_RETURN(OpId q2,
                              CompileExpr(*e.children[1], scope, mode));
      q1 = MapItem(Atomize(dag_->Project(q1, Ipi())), FunKind::kToString);
      q2 = Atomize(dag_->Project(q2, Ipi()));
      Joined j = JoinOnIter(q1, q2);
      ColId res = FreshCol("item");
      if (e.children.size() == 2) {
        OpId f = dag_->Fun(j.plan, FunKind::kSubstring2, res,
                           {item(), j.right_item});
        return ToTriple(dag_->Project(f, {{iter(), iter()}, {item(), res}}));
      }
      EXRQUY_ASSIGN_OR_RETURN(OpId q3,
                              CompileExpr(*e.children[2], scope, mode));
      q3 = Atomize(dag_->Project(q3, Ipi()));
      ColId i3 = FreshCol("iter3");
      ColId t3 = FreshCol("item3");
      OpId r3 = dag_->Project(q3, {{i3, iter()}, {t3, item()}});
      OpId j3 = dag_->EquiJoin(j.plan, r3, iter(), i3);
      OpId f = dag_->Fun(j3, FunKind::kSubstring3, res,
                         {item(), j.right_item, t3});
      return ToTriple(dag_->Project(f, {{iter(), iter()}, {item(), res}}));
    }

    if (name == "abs" || name == "floor" || name == "ceiling" ||
        name == "round") {
      EXRQUY_RETURN_IF_ERROR(arity(1));
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      FunKind fk = name == "abs"     ? FunKind::kAbs
                   : name == "floor" ? FunKind::kFloor
                   : name == "ceiling" ? FunKind::kCeiling
                                       : FunKind::kRound;
      return MapItem(Atomize(dag_->Project(q, Ipi())), fk);
    }

    if (name == "name" || name == "local-name") {
      EXRQUY_RETURN_IF_ERROR(arity(1));
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      return MapItem(dag_->Project(q, Ipi()), FunKind::kNodeName);
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
      ColId res = FreshCol("item");
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
      ColId rev = FreshCol("pos1");
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
                             strings_->Intern(name));
    }

    if (name == "subsequence") {
      if (e.children.size() != 2 && e.children.size() != 3) {
        return TypeError("fn:subsequence expects 2 or 3 arguments");
      }
      EXRQUY_ASSIGN_OR_RETURN(OpId q,
                              CompileExpr(*e.children[0], scope, mode));
      q = dag_->Project(q, Ipi());
      // Dense per-iteration ranks; the window bounds round per spec.
      ColId rank = FreshCol("rank");
      OpId rn = dag_->RowNum(q, rank, {{pos(), false}}, iter());
      EXRQUY_ASSIGN_OR_RETURN(OpId qs,
                              CompileExpr(*e.children[1], scope, mode));
      qs = MapItem(Atomize(dag_->Project(qs, Ipi())), FunKind::kRound);
      ColId si = FreshCol("iterS");
      ColId sv = FreshCol("start");
      OpId smap = dag_->Project(qs, {{si, iter()}, {sv, item()}});
      OpId j = dag_->EquiJoin(rn, smap, iter(), si);
      ColId ok1 = FreshCol("sel");
      OpId f1 = dag_->Fun(j, FunKind::kGe, ok1, {rank, sv});
      OpId filtered = dag_->Select(f1, ok1);
      if (e.children.size() == 3) {
        EXRQUY_ASSIGN_OR_RETURN(OpId ql,
                                CompileExpr(*e.children[2], scope, mode));
        ql = MapItem(Atomize(dag_->Project(ql, Ipi())), FunKind::kRound);
        ColId li = FreshCol("iterL");
        ColId lv = FreshCol("len");
        OpId lmap = dag_->Project(ql, {{li, iter()}, {lv, item()}});
        OpId j2 = dag_->EquiJoin(filtered, lmap, iter(), li);
        ColId bound = FreshCol("bound");
        OpId add = dag_->Fun(j2, FunKind::kAdd, bound, {sv, lv});
        ColId ok2 = FreshCol("sel");
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
      ColId res = FreshCol("item");
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
      Joined j = JoinOnIter(acc, plans[i]);
      ColId res = FreshCol("item");
      OpId f =
          dag_->Fun(j.plan, FunKind::kConcat, res, {item(), j.right_item});
      acc = ToTriple(dag_->Project(f, {{iter(), iter()}, {item(), res}}));
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
  out.dag = std::make_unique<Dag>();
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
