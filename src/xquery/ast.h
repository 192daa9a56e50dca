// Abstract syntax for the supported XQuery subset (see DESIGN.md). The
// parser produces this AST; the normalizer (normalize.h) performs the
// XQuery -> Core mapping J.K of Section 2.2 on it; the compiler
// (compiler/compile.h) maps it to relational algebra.
#ifndef EXRQUY_XQUERY_AST_H_
#define EXRQUY_XQUERY_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "xml/step.h"

namespace exrquy {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind : uint8_t {
  kIntLit,
  kDoubleLit,
  kStringLit,
  kEmptySeq,     // ()
  kVarRef,
  kContextItem,  // '.' (inside predicates)
  kSequence,     // n-ary ','
  kFlwor,
  kIf,
  kQuantified,   // some / every
  kPathStep,     // children[0]/axis::test
  kPathFilter,   // children[0]/(children[1]) — expr step with context item
  kPredicate,    // children[0] [ children[1] ]
  kSetOp,        // union / intersect / except
  kGeneralComp,  // = != < <= > >=
  kValueComp,    // eq ne lt le gt ge
  kNodeComp,     // << >> is
  kArith,        // + - * div idiv mod, unary -
  kRange,        // e1 to e2
  kLogical,      // and / or
  kFunctionCall,
  kOrderedExpr,  // ordered { e } / unordered { e }
  kElementCtor,
  kAttributeCtor,  // only as child of kElementCtor
  kTextCtor,       // text { e }
};

enum class BinOp : uint8_t {
  // kGeneralComp / kValueComp
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  // kNodeComp
  kBefore,
  kAfter,
  kIs,
  // kArith
  kAdd,
  kSub,
  kMul,
  kDiv,
  kIDiv,
  kMod,
  kNeg,  // unary
  // kLogical
  kAnd,
  kOr,
  // kSetOp
  kUnion,
  kIntersect,
  kExcept,
};

enum class OrderingMode : uint8_t { kOrdered, kUnordered };

struct FlworClause {
  enum class Kind : uint8_t { kFor, kLet } kind = Kind::kFor;
  std::string var;      // without '$'
  std::string pos_var;  // 'at $p' (for clauses; empty if absent)
  ExprPtr expr;
};

struct OrderSpec {
  ExprPtr key;
  bool descending = false;
  bool empty_greatest = false;  // `empty greatest`; `empty least` otherwise
};

// Attribute-value-template / element-content part: literal text or an
// enclosed expression.
struct CtorPart {
  std::string text;  // used when expr == nullptr
  ExprPtr expr;
};

struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}

  ExprKind kind;

  // Generic children; meaning depends on kind:
  //   kSequence: the items
  //   kIf: [condition, then, else]
  //   kQuantified: [domain, satisfies]
  //   kPathStep / kPredicate / kSetOp / comparisons / arith / logical:
  //     operands
  //   kFunctionCall: arguments
  //   kOrderedExpr / kTextCtor: [body]
  //   kElementCtor: attribute ctors (kAttributeCtor) first, then content
  //     is in `parts`
  std::vector<ExprPtr> children;

  // Literals.
  int64_t int_value = 0;
  double double_value = 0;
  std::string string_value;  // also: variable name, function name

  BinOp op = BinOp::kEq;

  // kPathStep:
  Axis axis = Axis::kChild;
  NodeTest::Kind test_kind = NodeTest::Kind::kAnyKind;
  std::string test_name;

  // kFlwor:
  std::vector<FlworClause> clauses;
  ExprPtr where;
  std::vector<OrderSpec> order_by;
  ExprPtr ret;

  // kOrderedExpr:
  OrderingMode mode = OrderingMode::kOrdered;

  // kElementCtor / kAttributeCtor: name in string_value, content parts:
  std::vector<CtorPart> parts;
};

ExprPtr MakeExpr(ExprKind kind);
ExprPtr CloneExpr(const Expr& e);

// Compact single-line rendering (tests, debugging).
std::string ExprToString(const Expr& e);

// A user-declared function: declare function local:name($p1, ...) { body }.
struct FunctionDecl {
  std::string name;  // "local:name"
  std::vector<std::string> params;
  ExprPtr body;
};

// A parsed query module: prolog + body.
struct Query {
  OrderingMode default_ordering = OrderingMode::kOrdered;
  bool has_ordering_decl = false;
  std::vector<FunctionDecl> functions;
  ExprPtr body;
  // Normalize renames the parameters of inlined function calls to
  // `name$1`, `name$2`, ...: this is the last number it used. The
  // compiler numbers its fresh columns after it, so no two names in one
  // plan text share a number.
  uint32_t fresh_names = 0;
};

}  // namespace exrquy

#endif  // EXRQUY_XQUERY_AST_H_
