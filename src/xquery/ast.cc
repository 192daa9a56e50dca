#include "xquery/ast.h"

#include <sstream>

#include "common/check.h"

namespace exrquy {

ExprPtr MakeExpr(ExprKind kind) { return std::make_unique<Expr>(kind); }

ExprPtr CloneExpr(const Expr& e) {
  ExprPtr out = MakeExpr(e.kind);
  for (const ExprPtr& c : e.children) {
    out->children.push_back(CloneExpr(*c));
  }
  out->int_value = e.int_value;
  out->double_value = e.double_value;
  out->string_value = e.string_value;
  out->op = e.op;
  out->axis = e.axis;
  out->test_kind = e.test_kind;
  out->test_name = e.test_name;
  for (const FlworClause& c : e.clauses) {
    FlworClause copy;
    copy.kind = c.kind;
    copy.var = c.var;
    copy.pos_var = c.pos_var;
    copy.expr = CloneExpr(*c.expr);
    out->clauses.push_back(std::move(copy));
  }
  if (e.where) out->where = CloneExpr(*e.where);
  for (const OrderSpec& s : e.order_by) {
    OrderSpec copy;
    copy.key = CloneExpr(*s.key);
    copy.descending = s.descending;
    copy.empty_greatest = s.empty_greatest;
    out->order_by.push_back(std::move(copy));
  }
  if (e.ret) out->ret = CloneExpr(*e.ret);
  out->mode = e.mode;
  for (const CtorPart& p : e.parts) {
    CtorPart copy;
    copy.text = p.text;
    if (p.expr) copy.expr = CloneExpr(*p.expr);
    out->parts.push_back(std::move(copy));
  }
  return out;
}

namespace {

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kEq:
      return "=";
    case BinOp::kNe:
      return "!=";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    case BinOp::kGe:
      return ">=";
    case BinOp::kBefore:
      return "<<";
    case BinOp::kAfter:
      return ">>";
    case BinOp::kIs:
      return "is";
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "div";
    case BinOp::kIDiv:
      return "idiv";
    case BinOp::kMod:
      return "mod";
    case BinOp::kNeg:
      return "-";
    case BinOp::kAnd:
      return "and";
    case BinOp::kOr:
      return "or";
    case BinOp::kUnion:
      return "|";
    case BinOp::kIntersect:
      return "intersect";
    case BinOp::kExcept:
      return "except";
  }
  return "?";
}

void Render(const Expr& e, std::ostringstream& out) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      out << e.int_value;
      break;
    case ExprKind::kDoubleLit:
      out << e.double_value;
      break;
    case ExprKind::kStringLit:
      out << '"' << e.string_value << '"';
      break;
    case ExprKind::kEmptySeq:
      out << "()";
      break;
    case ExprKind::kVarRef:
      out << '$' << e.string_value;
      break;
    case ExprKind::kContextItem:
      out << '.';
      break;
    case ExprKind::kSequence:
      out << '(';
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i) out << ", ";
        Render(*e.children[i], out);
      }
      out << ')';
      break;
    case ExprKind::kFlwor: {
      for (const FlworClause& c : e.clauses) {
        out << (c.kind == FlworClause::Kind::kFor ? "for $" : "let $")
            << c.var;
        if (!c.pos_var.empty()) out << " at $" << c.pos_var;
        out << (c.kind == FlworClause::Kind::kFor ? " in " : " := ");
        Render(*c.expr, out);
        out << ' ';
      }
      if (e.where) {
        out << "where ";
        Render(*e.where, out);
        out << ' ';
      }
      if (!e.order_by.empty()) {
        out << "order by ";
        for (size_t i = 0; i < e.order_by.size(); ++i) {
          if (i) out << ", ";
          Render(*e.order_by[i].key, out);
          if (e.order_by[i].descending) out << " descending";
          if (e.order_by[i].empty_greatest) out << " empty greatest";
        }
        out << ' ';
      }
      out << "return ";
      Render(*e.ret, out);
      break;
    }
    case ExprKind::kIf:
      out << "if (";
      Render(*e.children[0], out);
      out << ") then ";
      Render(*e.children[1], out);
      out << " else ";
      Render(*e.children[2], out);
      break;
    case ExprKind::kQuantified:
      out << "some $" << e.string_value << " in ";
      Render(*e.children[0], out);
      out << " satisfies ";
      Render(*e.children[1], out);
      break;
    case ExprKind::kPathStep: {
      Render(*e.children[0], out);
      out << '/' << AxisName(e.axis) << "::";
      switch (e.test_kind) {
        case NodeTest::Kind::kAnyKind:
          out << "node()";
          break;
        case NodeTest::Kind::kText:
          out << "text()";
          break;
        case NodeTest::Kind::kComment:
          out << "comment()";
          break;
        case NodeTest::Kind::kWildcard:
          out << '*';
          break;
        case NodeTest::Kind::kName:
          out << e.test_name;
          break;
      }
      break;
    }
    case ExprKind::kPathFilter:
      Render(*e.children[0], out);
      out << "/(";
      Render(*e.children[1], out);
      out << ')';
      break;
    case ExprKind::kPredicate:
      Render(*e.children[0], out);
      out << '[';
      Render(*e.children[1], out);
      out << ']';
      break;
    case ExprKind::kValueComp: {
      const char* name = "?";
      switch (e.op) {
        case BinOp::kEq:
          name = "eq";
          break;
        case BinOp::kNe:
          name = "ne";
          break;
        case BinOp::kLt:
          name = "lt";
          break;
        case BinOp::kLe:
          name = "le";
          break;
        case BinOp::kGt:
          name = "gt";
          break;
        case BinOp::kGe:
          name = "ge";
          break;
        default:
          break;
      }
      out << '(';
      Render(*e.children[0], out);
      out << ' ' << name << ' ';
      Render(*e.children[1], out);
      out << ')';
      break;
    }
    case ExprKind::kRange:
      out << '(';
      Render(*e.children[0], out);
      out << " to ";
      Render(*e.children[1], out);
      out << ')';
      break;
    case ExprKind::kSetOp:
    case ExprKind::kGeneralComp:
    case ExprKind::kNodeComp:
    case ExprKind::kLogical:
      out << '(';
      Render(*e.children[0], out);
      out << ' ' << BinOpName(e.op) << ' ';
      Render(*e.children[1], out);
      out << ')';
      break;
    case ExprKind::kArith:
      if (e.op == BinOp::kNeg) {
        out << "-(";
        Render(*e.children[0], out);
        out << ')';
      } else {
        out << '(';
        Render(*e.children[0], out);
        out << ' ' << BinOpName(e.op) << ' ';
        Render(*e.children[1], out);
        out << ')';
      }
      break;
    case ExprKind::kFunctionCall:
      out << e.string_value << '(';
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i) out << ", ";
        Render(*e.children[i], out);
      }
      out << ')';
      break;
    case ExprKind::kOrderedExpr:
      out << (e.mode == OrderingMode::kOrdered ? "ordered { "
                                               : "unordered { ");
      Render(*e.children[0], out);
      out << " }";
      break;
    case ExprKind::kElementCtor: {
      out << '<' << e.string_value;
      for (const ExprPtr& a : e.children) {
        out << ' ' << a->string_value << "=\"...\"";
      }
      out << '>';
      for (const CtorPart& p : e.parts) {
        if (p.expr) {
          out << '{';
          Render(*p.expr, out);
          out << '}';
        } else {
          out << p.text;
        }
      }
      out << "</" << e.string_value << '>';
      break;
    }
    case ExprKind::kAttributeCtor: {
      out << '@' << e.string_value << "=\"";
      for (const CtorPart& p : e.parts) {
        if (p.expr) {
          out << '{';
          Render(*p.expr, out);
          out << '}';
        } else {
          out << p.text;
        }
      }
      out << '"';
      break;
    }
    case ExprKind::kTextCtor:
      out << "text { ";
      Render(*e.children[0], out);
      out << " }";
      break;
  }
}

}  // namespace

std::string ExprToString(const Expr& e) {
  std::ostringstream out;
  Render(e, out);
  return out.str();
}

}  // namespace exrquy
