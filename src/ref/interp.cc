#include "ref/interp.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>

#include "algebra/algebra.h"
#include "common/check.h"
#include "xml/serializer.h"
#include "xml/step.h"

namespace exrquy {

namespace {

// fn:round's half-up rule (toward positive infinity), exact on every
// double: the distance to the floor is computed without rounding. A
// negative argument that rounds to zero gives negative zero (F&O 3.1,
// 4.4.4).
double RoundHalf(double x) {
  double down = std::floor(x);
  double r = x - down < 0.5 ? down : down + 1;
  return r == 0 && x < 0 ? -0.0 : r;
}

}  // namespace

RefInterpreter::RefInterpreter(NodeStore* store, StrPool* strings,
                               std::map<StrId, NodeIdx> documents)
    : store_(store),
      strings_(strings),
      documents_(std::move(documents)),
      ops_(strings, store) {}

Result<std::vector<Value>> RefInterpreter::Eval(const Expr& body) {
  Env env;
  return EvalExpr(body, env);
}

std::vector<std::string> RefInterpreter::Render(
    const std::vector<Value>& items) const {
  std::vector<std::string> out;
  out.reserve(items.size());
  for (const Value& v : items) {
    if (v.kind == ValueKind::kNode) {
      out.push_back(SerializeNode(*store_, v.node));
    } else {
      out.push_back(ops_.Render(v));
    }
  }
  return out;
}

Result<bool> RefInterpreter::Ebv(const Sequence& s) const {
  if (s.empty()) return false;
  if (s.size() == 1) return ops_.EbvSingle(s[0]);
  for (const Value& v : s) {
    if (v.kind == ValueKind::kNode) return true;
  }
  return TypeError("effective boolean value of a multi-item atomic sequence");
}

Result<Value> RefInterpreter::Singleton(const Sequence& s,
                                        const char* what) const {
  if (s.size() != 1) {
    return TypeError(std::string(what) + ": expected a singleton");
  }
  return s[0];
}

Result<int64_t> RefInterpreter::RangeBound(const Value& v) const {
  Value a = ops_.Atomize(v);
  if (a.kind == ValueKind::kInt) return a.i;
  EXRQUY_ASSIGN_OR_RETURN(Value d, ops_.ToDouble(a));
  if (!(d.d >= -0x1p63 && d.d < 0x1p63)) {
    return TypeError("err:FOCA0003: range bound " + FormatDouble(d.d) +
                     " is not a representable integer");
  }
  return static_cast<int64_t>(d.d);
}

RefInterpreter::Sequence RefInterpreter::SortedDistinct(Sequence s) const {
  std::stable_sort(s.begin(), s.end(), [&](const Value& a, const Value& b) {
    return ops_.OrderCompare(a, b) < 0;
  });
  Sequence out;
  for (const Value& v : s) {
    if (out.empty() || !(out.back() == v)) out.push_back(v);
  }
  return out;
}

Result<RefInterpreter::Sequence> RefInterpreter::EvalExpr(const Expr& e,
                                                          Env& env) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      return Sequence{Value::Int(e.int_value)};
    case ExprKind::kDoubleLit:
      return Sequence{Value::Double(e.double_value)};
    case ExprKind::kStringLit:
      return Sequence{Value::Str(strings_->Intern(e.string_value))};
    case ExprKind::kEmptySeq:
      return Sequence{};
    case ExprKind::kVarRef: {
      auto it = env.find(e.string_value);
      if (it == env.end()) {
        return NotFound("undefined variable $" + e.string_value);
      }
      return it->second;
    }
    case ExprKind::kContextItem: {
      auto it = env.find(".");
      if (it == env.end()) return NotFound("no context item");
      return it->second;
    }
    case ExprKind::kSequence: {
      Sequence out;
      for (const ExprPtr& c : e.children) {
        EXRQUY_ASSIGN_OR_RETURN(Sequence part, EvalExpr(*c, env));
        out.insert(out.end(), part.begin(), part.end());
      }
      return out;
    }
    case ExprKind::kFlwor:
      return EvalFlwor(e, env);
    case ExprKind::kIf: {
      EXRQUY_ASSIGN_OR_RETURN(Sequence cond, EvalExpr(*e.children[0], env));
      EXRQUY_ASSIGN_OR_RETURN(bool b, Ebv(cond));
      return EvalExpr(*e.children[b ? 1 : 2], env);
    }
    case ExprKind::kQuantified: {
      EXRQUY_CHECK(e.op == BinOp::kOr);  // `every` was normalized away
      EXRQUY_ASSIGN_OR_RETURN(Sequence domain,
                              EvalExpr(*e.children[0], env));
      Sequence saved;
      bool had = env.count(e.string_value) != 0;
      if (had) saved = env[e.string_value];
      bool found = false;
      for (const Value& v : domain) {
        env[e.string_value] = {v};
        Result<Sequence> s = EvalExpr(*e.children[1], env);
        if (!s.ok()) {
          if (had) env[e.string_value] = saved; else env.erase(e.string_value);
          return s.status();
        }
        Result<bool> b = Ebv(*s);
        if (!b.ok()) {
          if (had) env[e.string_value] = saved; else env.erase(e.string_value);
          return b.status();
        }
        if (*b) {
          found = true;
          break;
        }
      }
      if (had) env[e.string_value] = saved; else env.erase(e.string_value);
      return Sequence{Value::Bool(found)};
    }
    case ExprKind::kPathStep:
      return EvalPathStep(e, env);
    case ExprKind::kPathFilter: {
      EXRQUY_ASSIGN_OR_RETURN(Sequence ctx, EvalExpr(*e.children[0], env));
      Sequence collected;
      Sequence saved;
      bool had = env.count(".") != 0;
      if (had) saved = env["."];
      for (const Value& v : ctx) {
        env["."] = {v};
        Result<Sequence> r = EvalExpr(*e.children[1], env);
        if (!r.ok()) {
          if (had) env["."] = saved; else env.erase(".");
          return r.status();
        }
        collected.insert(collected.end(), r->begin(), r->end());
      }
      if (had) env["."] = saved; else env.erase(".");
      return SortedDistinct(std::move(collected));
    }
    case ExprKind::kPredicate:
      return EvalPredicate(e, env);
    case ExprKind::kSetOp: {
      EXRQUY_ASSIGN_OR_RETURN(Sequence l, EvalExpr(*e.children[0], env));
      EXRQUY_ASSIGN_OR_RETURN(Sequence r, EvalExpr(*e.children[1], env));
      Sequence ld = SortedDistinct(std::move(l));
      Sequence rd = SortedDistinct(std::move(r));
      Sequence out;
      switch (e.op) {
        case BinOp::kUnion:
          std::set_union(ld.begin(), ld.end(), rd.begin(), rd.end(),
                         std::back_inserter(out),
                         [&](const Value& a, const Value& b) {
                           return ops_.OrderCompare(a, b) < 0;
                         });
          break;
        case BinOp::kIntersect:
          std::set_intersection(ld.begin(), ld.end(), rd.begin(), rd.end(),
                                std::back_inserter(out),
                                [&](const Value& a, const Value& b) {
                                  return ops_.OrderCompare(a, b) < 0;
                                });
          break;
        case BinOp::kExcept:
          std::set_difference(ld.begin(), ld.end(), rd.begin(), rd.end(),
                              std::back_inserter(out),
                              [&](const Value& a, const Value& b) {
                                return ops_.OrderCompare(a, b) < 0;
                              });
          break;
        default:
          return Internal("bad set op");
      }
      return out;
    }
    case ExprKind::kGeneralComp:
    case ExprKind::kValueComp:
    case ExprKind::kNodeComp:
      return EvalComparison(e, env);
    case ExprKind::kArith:
      return EvalArith(e, env);
    case ExprKind::kRange: {
      EXRQUY_ASSIGN_OR_RETURN(Sequence l, EvalExpr(*e.children[0], env));
      EXRQUY_ASSIGN_OR_RETURN(Sequence r, EvalExpr(*e.children[1], env));
      if (l.empty() || r.empty()) return Sequence{};
      EXRQUY_ASSIGN_OR_RETURN(Value lo, Singleton(l, "range"));
      EXRQUY_ASSIGN_OR_RETURN(Value hi, Singleton(r, "range"));
      EXRQUY_ASSIGN_OR_RETURN(int64_t a, RangeBound(lo));
      EXRQUY_ASSIGN_OR_RETURN(int64_t b, RangeBound(hi));
      if (a > b) return Sequence{};
      // The span in unsigned arithmetic: b - a overflows int64_t.
      if (static_cast<uint64_t>(b) - static_cast<uint64_t>(a) > 10'000'000) {
        return TypeError("range expression too large");
      }
      Sequence out;
      // Stops at b instead of stepping past it: at b = INT64_MAX, `++v`
      // would overflow.
      for (int64_t v = a;; ++v) {
        out.push_back(Value::Int(v));
        if (v == b) break;
      }
      return out;
    }
    case ExprKind::kLogical: {
      EXRQUY_ASSIGN_OR_RETURN(Sequence l, EvalExpr(*e.children[0], env));
      EXRQUY_ASSIGN_OR_RETURN(Sequence r, EvalExpr(*e.children[1], env));
      EXRQUY_ASSIGN_OR_RETURN(bool a, Ebv(l));
      EXRQUY_ASSIGN_OR_RETURN(bool b, Ebv(r));
      return Sequence{
          Value::Bool(e.op == BinOp::kAnd ? (a && b) : (a || b))};
    }
    case ExprKind::kFunctionCall:
      return EvalCall(e, env);
    case ExprKind::kOrderedExpr:
      // Ordered-mode reference semantics in either case.
      return EvalExpr(*e.children[0], env);
    case ExprKind::kElementCtor:
      return EvalCtor(e, env);
    case ExprKind::kAttributeCtor:
      return Internal("attribute constructor outside element");
    case ExprKind::kTextCtor: {
      EXRQUY_ASSIGN_OR_RETURN(Sequence c, EvalExpr(*e.children[0], env));
      if (c.empty()) return Sequence{};
      std::string s;
      for (size_t i = 0; i < c.size(); ++i) {
        if (i) s += ' ';
        EXRQUY_ASSIGN_OR_RETURN(Value sv, ops_.ToString(ops_.Atomize(c[i])));
        s += strings_->Get(sv.str);
      }
      return Sequence{Value::Node(store_->MakeText(strings_->Intern(s)))};
    }
  }
  return Internal("unhandled expression kind");
}

Result<RefInterpreter::Sequence> RefInterpreter::EvalFlwor(const Expr& e,
                                                           Env& env) {
  size_t for_count = 0;
  for (const FlworClause& c : e.clauses) {
    if (c.kind == FlworClause::Kind::kFor) ++for_count;
  }
  if (!e.order_by.empty() && for_count != 1) {
    return Unimplemented(
        "order by is supported for FLWOR blocks with exactly one for "
        "clause");
  }
  std::vector<Keyed> keyed;
  EXRQUY_ASSIGN_OR_RETURN(Sequence direct,
                          EvalFlworClauses(e, 0, env, &keyed));
  if (e.order_by.empty()) return direct;

  // An empty key is less than every value under `empty least`, greater
  // under `empty greatest`; NaN is less than every other value.
  std::stable_sort(
      keyed.begin(), keyed.end(), [&](const Keyed& a, const Keyed& b) {
        for (size_t k = 0; k < e.order_by.size(); ++k) {
          const std::optional<Value>& x = a.first[k];
          const std::optional<Value>& y = b.first[k];
          int c;
          if (x && y) {
            c = ops_.OrderCompare(*x, *y);
          } else {
            c = static_cast<int>(x.has_value()) -
                static_cast<int>(y.has_value());
            if (e.order_by[k].empty_greatest) c = -c;
          }
          if (c != 0) return e.order_by[k].descending ? c > 0 : c < 0;
        }
        return false;
      });
  Sequence out;
  for (const auto& [keys, items] : keyed) {
    out.insert(out.end(), items.begin(), items.end());
  }
  return out;
}

Result<RefInterpreter::Sequence> RefInterpreter::EvalFlworClauses(
    const Expr& e, size_t idx, Env& env,
    std::vector<Keyed>* keyed_results) {
  if (idx == e.clauses.size()) {
    if (e.where != nullptr) {
      EXRQUY_ASSIGN_OR_RETURN(Sequence w, EvalExpr(*e.where, env));
      EXRQUY_ASSIGN_OR_RETURN(bool pass, Ebv(w));
      if (!pass) return Sequence{};
    }
    if (e.order_by.empty()) return EvalExpr(*e.ret, env);
    // Each key atomizes to at most one value (XQuery 3.12.3), and an
    // untypedAtomic key is cast to xs:string.
    std::vector<std::optional<Value>> keys;
    for (const OrderSpec& spec : e.order_by) {
      EXRQUY_ASSIGN_OR_RETURN(Sequence k, EvalExpr(*spec.key, env));
      if (k.size() > 1) {
        return CardinalityError("order by key: argument has " +
                                std::to_string(k.size()) + " item(s)");
      }
      if (k.empty()) {
        keys.emplace_back();
        continue;
      }
      Value v = ops_.Atomize(k[0]);
      if (v.kind == ValueKind::kUntyped) {
        EXRQUY_ASSIGN_OR_RETURN(v, ops_.ToString(v));
      }
      keys.emplace_back(v);
    }
    EXRQUY_ASSIGN_OR_RETURN(Sequence items, EvalExpr(*e.ret, env));
    keyed_results->emplace_back(std::move(keys), std::move(items));
    return Sequence{};
  }

  const FlworClause& c = e.clauses[idx];
  auto restore = [&](const std::string& name, bool had, Sequence saved) {
    if (had) {
      env[name] = std::move(saved);
    } else {
      env.erase(name);
    }
  };

  if (c.kind == FlworClause::Kind::kLet) {
    EXRQUY_ASSIGN_OR_RETURN(Sequence v, EvalExpr(*c.expr, env));
    bool had = env.count(c.var) != 0;
    Sequence saved = had ? env[c.var] : Sequence{};
    env[c.var] = std::move(v);
    Result<Sequence> out = EvalFlworClauses(e, idx + 1, env, keyed_results);
    restore(c.var, had, std::move(saved));
    return out;
  }

  EXRQUY_ASSIGN_OR_RETURN(Sequence binding, EvalExpr(*c.expr, env));
  bool had = env.count(c.var) != 0;
  Sequence saved = had ? env[c.var] : Sequence{};
  bool had_pos = !c.pos_var.empty() && env.count(c.pos_var) != 0;
  Sequence saved_pos =
      had_pos ? env[c.pos_var] : Sequence{};
  Sequence out;
  for (size_t i = 0; i < binding.size(); ++i) {
    env[c.var] = {binding[i]};
    if (!c.pos_var.empty()) {
      env[c.pos_var] = {Value::Int(static_cast<int64_t>(i) + 1)};
    }
    Result<Sequence> part = EvalFlworClauses(e, idx + 1, env, keyed_results);
    if (!part.ok()) {
      restore(c.var, had, std::move(saved));
      if (!c.pos_var.empty()) restore(c.pos_var, had_pos, std::move(saved_pos));
      return part.status();
    }
    out.insert(out.end(), part->begin(), part->end());
  }
  restore(c.var, had, std::move(saved));
  if (!c.pos_var.empty()) restore(c.pos_var, had_pos, std::move(saved_pos));
  return out;
}

Result<RefInterpreter::Sequence> RefInterpreter::EvalPathStep(const Expr& e,
                                                              Env& env) {
  EXRQUY_ASSIGN_OR_RETURN(Sequence ctx, EvalExpr(*e.children[0], env));
  std::vector<int64_t> iters;
  std::vector<NodeIdx> nodes;
  for (const Value& v : ctx) {
    if (v.kind != ValueKind::kNode) {
      return TypeError("path step applied to a non-node item");
    }
    iters.push_back(0);
    nodes.push_back(v.node);
  }
  NodeTest test;
  test.kind = e.test_kind;
  if (test.kind == NodeTest::Kind::kName) {
    test.name = strings_->Intern(e.test_name);
  }
  std::vector<int64_t> out_iters;
  std::vector<NodeIdx> out_nodes;
  EvalStep(*store_, e.axis, test, std::move(iters), std::move(nodes),
           &out_iters, &out_nodes);
  Sequence out;
  out.reserve(out_nodes.size());
  for (NodeIdx n : out_nodes) out.push_back(Value::Node(n));
  return out;
}

Result<RefInterpreter::Sequence> RefInterpreter::EvalPredicate(const Expr& e,
                                                               Env& env) {
  EXRQUY_ASSIGN_OR_RETURN(Sequence base, EvalExpr(*e.children[0], env));
  const Expr& p = *e.children[1];

  if (p.kind == ExprKind::kIntLit) {
    int64_t k = p.int_value;
    if (k < 1 || static_cast<size_t>(k) > base.size()) return Sequence{};
    return Sequence{base[static_cast<size_t>(k) - 1]};
  }
  if (p.kind == ExprKind::kFunctionCall && p.string_value == "last" &&
      p.children.empty()) {
    if (base.empty()) return Sequence{};
    return Sequence{base.back()};
  }

  // position() comparisons.
  auto unwrap = [](const Expr* x) {
    while (x->kind == ExprKind::kFunctionCall &&
           x->string_value == "unordered") {
      x = x->children[0].get();
    }
    return x;
  };
  if ((p.kind == ExprKind::kGeneralComp || p.kind == ExprKind::kValueComp) &&
      p.children.size() == 2) {
    const Expr* lhs = unwrap(p.children[0].get());
    const Expr* rhs = unwrap(p.children[1].get());
    auto is_position = [](const Expr& x) {
      return x.kind == ExprKind::kFunctionCall &&
             x.string_value == "position" && x.children.empty();
    };
    const Expr* lit = nullptr;
    bool swapped = false;
    if (is_position(*lhs) && rhs->kind == ExprKind::kIntLit) {
      lit = rhs;
    } else if (is_position(*rhs) && lhs->kind == ExprKind::kIntLit) {
      lit = lhs;
      swapped = true;
    }
    if (lit != nullptr) {
      Sequence out;
      for (size_t i = 0; i < base.size(); ++i) {
        int64_t posn = static_cast<int64_t>(i) + 1;
        int64_t a = swapped ? lit->int_value : posn;
        int64_t b = swapped ? posn : lit->int_value;
        bool keep = false;
        switch (p.op) {
          case BinOp::kEq:
            keep = a == b;
            break;
          case BinOp::kNe:
            keep = a != b;
            break;
          case BinOp::kLt:
            keep = a < b;
            break;
          case BinOp::kLe:
            keep = a <= b;
            break;
          case BinOp::kGt:
            keep = a > b;
            break;
          case BinOp::kGe:
            keep = a >= b;
            break;
          default:
            break;
        }
        if (keep) out.push_back(base[i]);
      }
      return out;
    }
  }

  // General boolean predicate with the context item bound.
  Sequence out;
  Sequence saved;
  bool had = env.count(".") != 0;
  if (had) saved = env["."];
  for (const Value& v : base) {
    env["."] = {v};
    Result<Sequence> r = EvalExpr(p, env);
    if (!r.ok()) {
      if (had) env["."] = saved; else env.erase(".");
      return r.status();
    }
    Result<bool> b = Ebv(*r);
    if (!b.ok()) {
      if (had) env["."] = saved; else env.erase(".");
      return b.status();
    }
    if (*b) out.push_back(v);
  }
  if (had) env["."] = saved; else env.erase(".");
  return out;
}

Result<RefInterpreter::Sequence> RefInterpreter::EvalComparison(const Expr& e,
                                                                Env& env) {
  EXRQUY_ASSIGN_OR_RETURN(Sequence l, EvalExpr(*e.children[0], env));
  EXRQUY_ASSIGN_OR_RETURN(Sequence r, EvalExpr(*e.children[1], env));
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
    case BinOp::kAfter:
    case BinOp::kIs: {
      bool found = false;
      for (const Value& a : l) {
        for (const Value& b : r) {
          if (a.kind != ValueKind::kNode || b.kind != ValueKind::kNode) {
            return TypeError("node comparison on non-node operands");
          }
          bool v = e.op == BinOp::kBefore  ? a.node < b.node
                   : e.op == BinOp::kAfter ? a.node > b.node
                                           : a.node == b.node;
          if (v) found = true;
        }
      }
      return Sequence{Value::Bool(found)};
    }
    default:
      return Internal("bad comparison op");
  }
  bool found = false;
  for (const Value& a : l) {
    for (const Value& b : r) {
      EXRQUY_ASSIGN_OR_RETURN(
          Value v, ops_.Compare(fk, ops_.Atomize(a), ops_.Atomize(b)));
      if (v.b) found = true;
    }
  }
  return Sequence{Value::Bool(found)};
}

Result<RefInterpreter::Sequence> RefInterpreter::EvalArith(const Expr& e,
                                                           Env& env) {
  if (e.op == BinOp::kNeg) {
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, EvalExpr(*e.children[0], env));
    Sequence out;
    for (const Value& v : s) {
      Value a = ops_.Atomize(v);
      if (a.kind == ValueKind::kInt) {
        if (a.i == INT64_MIN) {
          return TypeError("err:FOAR0002: integer overflow in negation");
        }
        out.push_back(Value::Int(-a.i));
      } else {
        EXRQUY_ASSIGN_OR_RETURN(Value d, ops_.ToDouble(a));
        out.push_back(Value::Double(-d.d));
      }
    }
    return out;
  }
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
    default:
      return Internal("bad arithmetic op");
  }
  EXRQUY_ASSIGN_OR_RETURN(Sequence l, EvalExpr(*e.children[0], env));
  EXRQUY_ASSIGN_OR_RETURN(Sequence r, EvalExpr(*e.children[1], env));
  if (l.empty() || r.empty()) return Sequence{};
  // Mirrors the compiled per-iteration pairing (cross pairs when the
  // operands are erroneously plural).
  Sequence out;
  for (const Value& a : l) {
    for (const Value& b : r) {
      EXRQUY_ASSIGN_OR_RETURN(
          Value v, ops_.Arith(fk, ops_.Atomize(a), ops_.Atomize(b)));
      out.push_back(v);
    }
  }
  return out;
}

Result<std::string> RefInterpreter::EvalAvt(
    const std::vector<CtorPart>& parts, Env& env) {
  std::string out;
  for (const CtorPart& p : parts) {
    if (p.expr == nullptr) {
      out += p.text;
      continue;
    }
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, EvalExpr(*p.expr, env));
    for (size_t i = 0; i < s.size(); ++i) {
      if (i) out += ' ';
      EXRQUY_ASSIGN_OR_RETURN(Value sv, ops_.ToString(ops_.Atomize(s[i])));
      out += strings_->Get(sv.str);
    }
  }
  return out;
}

Result<RefInterpreter::Sequence> RefInterpreter::EvalCtor(const Expr& e,
                                                          Env& env) {
  // Attributes, then content (literal parts become text nodes).
  std::vector<std::pair<StrId, StrId>> attrs;
  for (const ExprPtr& a : e.children) {
    EXRQUY_ASSIGN_OR_RETURN(std::string value, EvalAvt(a->parts, env));
    attrs.emplace_back(strings_->Intern(a->string_value),
                       strings_->Intern(value));
  }
  Sequence content;
  for (const CtorPart& p : e.parts) {
    if (p.expr == nullptr) {
      content.push_back(
          Value::Node(store_->MakeText(strings_->Intern(p.text))));
      continue;
    }
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, EvalExpr(*p.expr, env));
    content.insert(content.end(), s.begin(), s.end());
  }

  NodeBuilder builder(store_);
  builder.BeginElement(strings_->Intern(e.string_value));
  for (const auto& [n, v] : attrs) builder.Attribute(n, v);
  for (const Value& v : content) {
    if (v.kind == ValueKind::kNode &&
        store_->kind(v.node) == NodeKind::kAttribute) {
      builder.Attribute(store_->name(v.node), store_->value(v.node));
    }
  }
  std::string pending;
  bool have_pending = false;
  auto flush = [&] {
    if (have_pending) builder.Text(pending);
    pending.clear();
    have_pending = false;
  };
  for (const Value& v : content) {
    if (v.kind == ValueKind::kNode) {
      NodeKind k = store_->kind(v.node);
      if (k == NodeKind::kAttribute) continue;
      flush();
      if (k == NodeKind::kDocument) {
        NodeIdx end = v.node + store_->size(v.node);
        NodeIdx c = v.node + 1;
        while (c <= end) {
          builder.CopySubtree(c);
          c += store_->size(c) + 1;
        }
      } else {
        builder.CopySubtree(v.node);
      }
    } else {
      if (have_pending) pending += ' ';
      pending += ops_.Render(v);
      have_pending = true;
    }
  }
  flush();
  builder.EndElement();
  return Sequence{Value::Node(builder.Finish())};
}

Result<RefInterpreter::Sequence> RefInterpreter::EvalCall(const Expr& e,
                                                          Env& env) {
  const std::string& name = e.string_value;
  // A builtin with a signature row takes exactly its arity (or, when
  // variadic, at least it), as the compiler's lowering does.
  EXRQUY_RETURN_IF_ERROR(FindCallee(name, e.children.size()).status());
  auto arg = [&](size_t i) -> Result<Sequence> {
    if (i >= e.children.size()) {
      return TypeError("fn:" + name + ": wrong number of arguments");
    }
    return EvalExpr(*e.children[i], env);
  };
  // F&O's function conversion: an argument of occurrence `?` holds at
  // most one item and one of occurrence exactly-one one item (else
  // XPTY0004, a cardinality error here); an xs:string? argument is
  // atomized and cast, "" when empty; an xs:double one is atomized.
  auto card_error = [&](size_t n) {
    return CardinalityError("fn:" + name + ": argument has " +
                            std::to_string(n) + " item(s)");
  };
  auto opt_arg = [&](size_t i) -> Result<Sequence> {
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, arg(i));
    if (s.size() > 1) return card_error(s.size());
    return s;
  };
  auto string_arg = [&](size_t i) -> Result<std::string> {
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, opt_arg(i));
    if (s.empty()) return std::string();
    EXRQUY_ASSIGN_OR_RETURN(Value sv, ops_.ToString(ops_.Atomize(s[0])));
    return strings_->Get(sv.str);
  };
  auto double_arg = [&](size_t i) -> Result<double> {
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, arg(i));
    if (s.size() != 1) return card_error(s.size());
    EXRQUY_ASSIGN_OR_RETURN(Value d, ops_.ToDouble(ops_.Atomize(s[0])));
    return d.d;
  };

  if (name == "true") return Sequence{Value::Bool(true)};
  if (name == "false") return Sequence{Value::Bool(false)};
  if (name == "doc") {
    if (e.children.size() != 1 ||
        e.children[0]->kind != ExprKind::kStringLit) {
      return Unimplemented("fn:doc requires a string literal argument");
    }
    auto it = documents_.find(strings_->Intern(e.children[0]->string_value));
    if (it == documents_.end()) {
      return NotFound("document not loaded: " + e.children[0]->string_value);
    }
    return Sequence{Value::Node(it->second)};
  }
  if (name == "unordered") return arg(0);  // ordered reference semantics

  if (name == "count" || name == "empty" || name == "exists") {
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, arg(0));
    if (name == "count") {
      return Sequence{Value::Int(static_cast<int64_t>(s.size()))};
    }
    bool is_empty = s.empty();
    return Sequence{Value::Bool(name == "empty" ? is_empty : !is_empty)};
  }
  if (name == "sum" || name == "avg" || name == "max" || name == "min") {
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, arg(0));
    if (name == "sum") {
      Value acc = Value::Int(0);
      for (const Value& v : s) {
        EXRQUY_ASSIGN_OR_RETURN(acc,
                                ops_.Arith(FunKind::kAdd, acc,
                                           ops_.Atomize(v)));
      }
      return Sequence{acc};
    }
    if (s.empty()) return Sequence{};
    if (name == "avg") {
      Value acc = Value::Int(0);
      for (const Value& v : s) {
        EXRQUY_ASSIGN_OR_RETURN(acc,
                                ops_.Arith(FunKind::kAdd, acc,
                                           ops_.Atomize(v)));
      }
      EXRQUY_ASSIGN_OR_RETURN(Value d, ops_.ToDouble(acc));
      return Sequence{Value::Double(d.d / static_cast<double>(s.size()))};
    }
    // fn:max / fn:min (F&O 3.1, 14.4.3-4): untypedAtomic values are cast
    // to xs:double — kept as strings when one of them does not parse —
    // and the result is a value V that no other value W beats, W gt V
    // (lt for min): integers compare exactly, values the gt operator
    // cannot compare raise, a NaN is the result, and a double in the
    // sequence promotes an integer result.
    bool cast_untyped = true;
    for (const Value& v : s) {
      Value a = ops_.Atomize(v);
      if (a.kind == ValueKind::kUntyped && !ops_.ToDouble(a).ok()) {
        cast_untyped = false;
      }
    }
    auto nan = [](const Value& x) {
      return x.kind == ValueKind::kDouble && std::isnan(x.d);
    };
    FunKind better = name == "max" ? FunKind::kGt : FunKind::kLt;
    bool any_double = false;
    Value best;
    for (size_t i = 0; i < s.size(); ++i) {
      Value cand = ops_.Atomize(s[i]);
      if (cand.kind == ValueKind::kUntyped && cast_untyped) {
        EXRQUY_ASSIGN_OR_RETURN(cand, ops_.ToDouble(cand));
      }
      any_double |= cand.kind == ValueKind::kDouble;
      if (i == 0) {
        best = cand;
        continue;
      }
      EXRQUY_ASSIGN_OR_RETURN(Value wins, ops_.Compare(better, cand, best));
      if (nan(best)) continue;
      if (nan(cand) || wins.b) best = cand;
    }
    if (any_double && best.kind == ValueKind::kInt) {
      best = Value::Double(static_cast<double>(best.i));
    }
    return Sequence{best};
  }

  if (name == "boolean" || name == "not") {
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, arg(0));
    EXRQUY_ASSIGN_OR_RETURN(bool b, Ebv(s));
    return Sequence{Value::Bool(name == "not" ? !b : b)};
  }

  if (name == "distinct-values") {
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, arg(0));
    Sequence atomized;
    for (const Value& v : s) atomized.push_back(ops_.Atomize(v));
    // Baseline-compiled distinct-values sorts by value.
    return SortedDistinct(std::move(atomized));
  }

  if (name == "data") {
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, arg(0));
    for (Value& v : s) v = ops_.Atomize(v);
    return s;
  }
  if (name == "string" || name == "number") {
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, opt_arg(0));
    if (s.empty()) {
      return Sequence{name == "string"
                          ? Value::Str(StrPool::kEmpty)
                          : Value::Double(
                                std::numeric_limits<double>::quiet_NaN())};
    }
    Value a = ops_.Atomize(s[0]);
    EXRQUY_ASSIGN_OR_RETURN(
        a, name == "string" ? ops_.ToString(a) : ops_.Number(a));
    return Sequence{a};
  }

  if (name == "contains" || name == "starts-with" || name == "ends-with") {
    EXRQUY_ASSIGN_OR_RETURN(std::string a, string_arg(0));
    EXRQUY_ASSIGN_OR_RETURN(std::string b, string_arg(1));
    bool v;
    if (name == "contains") {
      v = a.find(b) != std::string::npos;
    } else if (name == "starts-with") {
      v = b.size() <= a.size() && a.compare(0, b.size(), b) == 0;
    } else {
      v = b.size() <= a.size() &&
          a.compare(a.size() - b.size(), b.size(), b) == 0;
    }
    return Sequence{Value::Bool(v)};
  }

  if (name == "concat") {
    std::string out;
    for (size_t i = 0; i < e.children.size(); ++i) {
      EXRQUY_ASSIGN_OR_RETURN(std::string part, string_arg(i));
      out += part;
    }
    return Sequence{Value::Str(strings_->Intern(out))};
  }

  if (name == "string-length" || name == "upper-case" ||
      name == "lower-case" || name == "normalize-space") {
    EXRQUY_ASSIGN_OR_RETURN(std::string str, string_arg(0));
    if (name == "string-length") {
      return Sequence{Value::Int(static_cast<int64_t>(str.size()))};
    }
    if (name == "upper-case" || name == "lower-case") {
      for (char& c : str) {
        c = name == "upper-case"
                ? static_cast<char>(
                      std::toupper(static_cast<unsigned char>(c)))
                : static_cast<char>(
                      std::tolower(static_cast<unsigned char>(c)));
      }
    } else {
      std::string norm;
      bool in_space = true;
      for (char c : str) {
        if (std::isspace(static_cast<unsigned char>(c))) {
          if (!in_space) norm += ' ';
          in_space = true;
        } else {
          norm += c;
          in_space = false;
        }
      }
      while (!norm.empty() && norm.back() == ' ') norm.pop_back();
      str = norm;
    }
    return Sequence{Value::Str(strings_->Intern(str))};
  }

  if (name == "substring") {
    EXRQUY_ASSIGN_OR_RETURN(std::string s, string_arg(0));
    EXRQUY_ASSIGN_OR_RETURN(double d1, double_arg(1));
    // F&O 7.4.3: the characters at positions p (1-based) with
    // round(start) <= p < round(start) + round(length); every comparison
    // with NaN is false.
    double start = RoundHalf(d1);
    double end = std::numeric_limits<double>::infinity();
    if (e.children.size() == 3) {
      EXRQUY_ASSIGN_OR_RETURN(double d2, double_arg(2));
      end = start + RoundHalf(d2);
    }
    std::string out;
    for (size_t i = 0; i < s.size(); ++i) {
      double p = static_cast<double>(i) + 1;
      if (p >= start && p < end) out += s[i];
    }
    return Sequence{Value::Str(strings_->Intern(out))};
  }

  if (name == "abs" || name == "floor" || name == "ceiling" ||
      name == "round") {
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, opt_arg(0));
    if (s.empty()) return s;
    Value a = ops_.Atomize(s[0]);
    if (a.kind == ValueKind::kUntyped || a.kind == ValueKind::kString) {
      EXRQUY_ASSIGN_OR_RETURN(a, ops_.ToDouble(a));
    }
    if (a.kind == ValueKind::kInt) {
      if (name == "abs" && a.i == INT64_MIN) {
        return TypeError("err:FOAR0002: integer overflow in abs");
      }
      return Sequence{name == "abs" && a.i < 0 ? Value::Int(-a.i) : a};
    }
    if (a.kind != ValueKind::kDouble) {
      return TypeError("numeric function on non-numeric operand");
    }
    double d = a.d;
    if (name == "abs") {
      d = std::fabs(d);
    } else if (name == "floor") {
      d = std::floor(d);
    } else if (name == "ceiling") {
      d = std::ceil(d);
    } else {
      d = RoundHalf(d);
    }
    return Sequence{Value::Double(d)};
  }

  if (name == "name" || name == "local-name") {
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, opt_arg(0));
    if (s.empty()) return Sequence{Value::Str(StrPool::kEmpty)};
    if (s[0].kind != ValueKind::kNode) {
      return TypeError("fn:name on a non-node item");
    }
    return Sequence{Value::Str(store_->name(s[0].node))};
  }

  if (name == "string-join") {
    if (e.children.size() != 2 ||
        e.children[1]->kind != ExprKind::kStringLit) {
      return Unimplemented(
          "fn:string-join requires a string literal separator");
    }
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, arg(0));
    std::string sep = e.children[1]->string_value;
    std::string out;
    for (size_t i = 0; i < s.size(); ++i) {
      if (i) out += sep;
      EXRQUY_ASSIGN_OR_RETURN(Value sv, ops_.ToString(ops_.Atomize(s[i])));
      out += strings_->Get(sv.str);
    }
    return Sequence{Value::Str(strings_->Intern(out))};
  }

  if (name == "reverse") {
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, arg(0));
    std::reverse(s.begin(), s.end());
    return s;
  }

  if (name == "subsequence") {
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, arg(0));
    EXRQUY_ASSIGN_OR_RETURN(Sequence s1, arg(1));
    if (s1.empty()) return Sequence{};
    EXRQUY_ASSIGN_OR_RETURN(Value v1, Singleton(s1, "subsequence"));
    EXRQUY_ASSIGN_OR_RETURN(Value d1, ops_.ToDouble(ops_.Atomize(v1)));
    // F&O 15.1.10: the same position rule as fn:substring.
    double start = RoundHalf(d1.d);
    double end = std::numeric_limits<double>::infinity();
    if (e.children.size() == 3) {
      EXRQUY_ASSIGN_OR_RETURN(Sequence s2, arg(2));
      if (s2.empty()) return Sequence{};
      EXRQUY_ASSIGN_OR_RETURN(Value v2, Singleton(s2, "subsequence"));
      EXRQUY_ASSIGN_OR_RETURN(Value d2, ops_.ToDouble(ops_.Atomize(v2)));
      end = start + RoundHalf(d2.d);
    }
    Sequence out;
    for (size_t i = 0; i < s.size(); ++i) {
      double rank = static_cast<double>(i) + 1;
      if (rank >= start && rank < end) out.push_back(s[i]);
    }
    return out;
  }

  if (name == "zero-or-one" || name == "exactly-one" ||
      name == "one-or-more") {
    EXRQUY_ASSIGN_OR_RETURN(Sequence s, arg(0));
    size_t n = s.size();
    bool ok = name == "zero-or-one"   ? n <= 1
              : name == "exactly-one" ? n == 1
                                      : n >= 1;
    if (!ok) {
      return CardinalityError("fn:" + name + ": argument has " +
                              std::to_string(n) + " item(s)");
    }
    return s;
  }

  if (name == "last" || name == "position") {
    return Unimplemented("fn:" + name +
                         " is supported only inside predicates");
  }
  return NotFound("unknown function: " + name);
}

}  // namespace exrquy
