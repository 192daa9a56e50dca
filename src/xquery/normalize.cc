#include "xquery/normalize.h"

#include <map>
#include <set>
#include <string>

#include "common/check.h"

namespace exrquy {
namespace {

// Names whose single argument is order indifferent (Rule FN:COUNT and the
// analogous rules for further aggregates and built-ins, Section 2.2).
bool IsOrderIndifferentBuiltin(const std::string& name) {
  return name == "count" || name == "sum" || name == "max" ||
         name == "min" || name == "avg" || name == "empty" ||
         name == "exists" || name == "boolean" || name == "not" ||
         name == "distinct-values";
}

ExprPtr WrapUnordered(ExprPtr e) {
  if (e->kind == ExprKind::kFunctionCall && e->string_value == "unordered") {
    return e;  // already wrapped
  }
  ExprPtr call = MakeExpr(ExprKind::kFunctionCall);
  call->string_value = "unordered";
  call->children.push_back(std::move(e));
  return call;
}

ExprPtr WrapNot(ExprPtr e) {
  ExprPtr call = MakeExpr(ExprKind::kFunctionCall);
  call->string_value = "not";
  call->children.push_back(std::move(e));
  return call;
}

class Normalizer {
 public:
  Normalizer(Query* query, const NormalizeOptions& options)
      : query_(*query), options_(options) {
    for (const FunctionDecl& f : query_.functions) {
      functions_[f.name] = &f;
    }
  }

  Status Rewrite(ExprPtr* e) {
    // Bottom-up: children first.
    Expr& expr = **e;
    for (ExprPtr& c : expr.children) EXRQUY_RETURN_IF_ERROR(Rewrite(&c));
    for (FlworClause& c : expr.clauses) EXRQUY_RETURN_IF_ERROR(Rewrite(&c.expr));
    if (expr.where) EXRQUY_RETURN_IF_ERROR(Rewrite(&expr.where));
    for (OrderSpec& s : expr.order_by) EXRQUY_RETURN_IF_ERROR(Rewrite(&s.key));
    if (expr.ret) EXRQUY_RETURN_IF_ERROR(Rewrite(&expr.ret));
    for (CtorPart& p : expr.parts) {
      if (p.expr) EXRQUY_RETURN_IF_ERROR(Rewrite(&p.expr));
    }

    switch (expr.kind) {
      case ExprKind::kQuantified: {
        // every -> not(some(not)).
        if (expr.op == BinOp::kAnd) {
          ExprPtr some = MakeExpr(ExprKind::kQuantified);
          some->op = BinOp::kOr;
          some->string_value = expr.string_value;
          some->children.push_back(std::move(expr.children[0]));
          some->children.push_back(WrapNot(std::move(expr.children[1])));
          *e = WrapNot(std::move(some));
          // The inner `some` domain still needs the QUANT treatment.
          Expr* inner = (*e)->children[0].get();
          if (options_.insert_unordered) {
            inner->children[0] = WrapUnordered(std::move(inner->children[0]));
          }
          return Status::Ok();
        }
        // Rule QUANT: the quantifier is indifferent to the order of its
        // domain (either ordering mode).
        if (options_.insert_unordered) {
          expr.children[0] = WrapUnordered(std::move(expr.children[0]));
        }
        return Status::Ok();
      }
      case ExprKind::kGeneralComp: {
        // General comparisons have existential semantics; their
        // normalization is based on `some` with unordered domains.
        if (options_.insert_unordered) {
          expr.children[0] = WrapUnordered(std::move(expr.children[0]));
          expr.children[1] = WrapUnordered(std::move(expr.children[1]));
        }
        return Status::Ok();
      }
      case ExprKind::kFunctionCall: {
        const std::string& name = expr.string_value;
        if (options_.insert_unordered && expr.children.size() == 1 &&
            IsOrderIndifferentBuiltin(name)) {
          expr.children[0] = WrapUnordered(std::move(expr.children[0]));
          return Status::Ok();
        }
        if (functions_.count(name) != 0) {
          return InlineCall(e);
        }
        return Status::Ok();
      }
      default:
        return Status::Ok();
    }
  }

 private:
  // Replaces a call to a declared function with
  //   let $fresh1 := arg1 ... return body[params := fresh]
  Status InlineCall(ExprPtr* e) {
    Expr& call = **e;
    const FunctionDecl& decl = *functions_.at(call.string_value);
    if (inlining_.count(decl.name) != 0) {
      return Unimplemented("recursive function: " + decl.name);
    }
    if (call.children.size() != decl.params.size()) {
      return TypeError("wrong number of arguments to " + decl.name);
    }

    // Check the body is closed over its parameters.
    std::set<std::string> bound(decl.params.begin(), decl.params.end());
    EXRQUY_RETURN_IF_ERROR(CheckClosed(*decl.body, decl.name, bound));

    // Fresh names prevent capturing the caller's variables.
    std::map<std::string, std::string> renames;
    ExprPtr flwor = MakeExpr(ExprKind::kFlwor);
    for (size_t i = 0; i < decl.params.size(); ++i) {
      std::string fresh =
          decl.params[i] + '$' + std::to_string(++query_.fresh_names);
      renames[decl.params[i]] = fresh;
      FlworClause clause;
      clause.kind = FlworClause::Kind::kLet;
      clause.var = fresh;
      clause.expr = std::move(call.children[i]);
      flwor->clauses.push_back(std::move(clause));
    }
    ExprPtr body = CloneExpr(*decl.body);
    RenameVars(body.get(), renames);

    // The inlined body may itself call declared functions.
    inlining_.insert(decl.name);
    EXRQUY_RETURN_IF_ERROR(Rewrite(&body));
    inlining_.erase(decl.name);

    if (flwor->clauses.empty()) {
      *e = std::move(body);
    } else {
      flwor->ret = std::move(body);
      *e = std::move(flwor);
    }
    return Status::Ok();
  }

  Status CheckClosed(const Expr& e, const std::string& fn_name,
                     std::set<std::string> bound) const {
    if (e.kind == ExprKind::kVarRef && bound.count(e.string_value) == 0) {
      return TypeError("function " + fn_name + " references free variable $" +
                       e.string_value);
    }
    if (e.kind == ExprKind::kQuantified) {
      EXRQUY_RETURN_IF_ERROR(CheckClosed(*e.children[0], fn_name, bound));
      std::set<std::string> inner = bound;
      inner.insert(e.string_value);
      return CheckClosed(*e.children[1], fn_name, inner);
    }
    if (e.kind == ExprKind::kFlwor) {
      std::set<std::string> scope = bound;
      for (const FlworClause& c : e.clauses) {
        EXRQUY_RETURN_IF_ERROR(CheckClosed(*c.expr, fn_name, scope));
        scope.insert(c.var);
        if (!c.pos_var.empty()) scope.insert(c.pos_var);
      }
      if (e.where) EXRQUY_RETURN_IF_ERROR(CheckClosed(*e.where, fn_name, scope));
      for (const OrderSpec& s : e.order_by) {
        EXRQUY_RETURN_IF_ERROR(CheckClosed(*s.key, fn_name, scope));
      }
      return CheckClosed(*e.ret, fn_name, scope);
    }
    for (const ExprPtr& c : e.children) {
      EXRQUY_RETURN_IF_ERROR(CheckClosed(*c, fn_name, bound));
    }
    for (const CtorPart& p : e.parts) {
      if (p.expr) EXRQUY_RETURN_IF_ERROR(CheckClosed(*p.expr, fn_name, bound));
    }
    return Status::Ok();
  }

  static void RenameVars(Expr* e,
                         const std::map<std::string, std::string>& renames) {
    if (e->kind == ExprKind::kVarRef) {
      auto it = renames.find(e->string_value);
      if (it != renames.end()) e->string_value = it->second;
    }
    // Shadowing binders stop the rename for the shadowed name.
    if (e->kind == ExprKind::kQuantified) {
      RenameVars(e->children[0].get(), renames);
      std::map<std::string, std::string> inner = renames;
      inner.erase(e->string_value);
      RenameVars(e->children[1].get(), inner);
      return;
    }
    if (e->kind == ExprKind::kFlwor) {
      std::map<std::string, std::string> scope = renames;
      for (FlworClause& c : e->clauses) {
        RenameVars(c.expr.get(), scope);
        scope.erase(c.var);
        if (!c.pos_var.empty()) scope.erase(c.pos_var);
      }
      if (e->where) RenameVars(e->where.get(), scope);
      for (OrderSpec& s : e->order_by) RenameVars(s.key.get(), scope);
      RenameVars(e->ret.get(), scope);
      return;
    }
    for (ExprPtr& c : e->children) RenameVars(c.get(), renames);
    for (CtorPart& p : e->parts) {
      if (p.expr) RenameVars(p.expr.get(), renames);
    }
  }

  Query& query_;
  const NormalizeOptions& options_;
  std::map<std::string, const FunctionDecl*> functions_;
  std::set<std::string> inlining_;
};

}  // namespace

Status Normalize(Query* query, const NormalizeOptions& options) {
  Normalizer normalizer(query, options);
  return normalizer.Rewrite(&query->body);
}

}  // namespace exrquy
