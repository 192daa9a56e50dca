#include "xquery/parser.h"

#include <cctype>

#include "common/check.h"
#include "xml/xml_parser.h"
#include "xquery/lexer.h"

namespace exrquy {
namespace {

bool IsAllWhitespace(std::string_view s) {
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) {}

  Result<Query> ParseModule() {
    EXRQUY_RETURN_IF_ERROR(lexer_.Advance());
    Query query;
    EXRQUY_RETURN_IF_ERROR(ParseProlog(&query));
    EXRQUY_ASSIGN_OR_RETURN(query.body, ParseExprSeq());
    if (Tok().kind != TokKind::kEof) {
      return Error("unexpected trailing input");
    }
    return query;
  }

  Result<ExprPtr> ParseSingleExpression() {
    EXRQUY_RETURN_IF_ERROR(lexer_.Advance());
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr e, ParseExprSeq());
    if (Tok().kind != TokKind::kEof) {
      return Error("unexpected trailing input");
    }
    return e;
  }

 private:
  const Token& Tok() const { return lexer_.Cur(); }

  Status Error(std::string message) const {
    message += " (offset ";
    message += std::to_string(Tok().offset);
    message += ", at '";
    message += Tok().text;
    message += "')";
    return InvalidArgument(std::move(message));
  }

  Status Advance() { return lexer_.Advance(); }

  bool IsName(std::string_view kw) const {
    return Tok().kind == TokKind::kName && Tok().text == kw;
  }

  Status Expect(TokKind kind, const char* what) {
    if (Tok().kind != kind) return Error(std::string("expected ") + what);
    return Advance();
  }

  Status ExpectName(std::string_view kw) {
    if (!IsName(kw)) return Error("expected '" + std::string(kw) + "'");
    return Advance();
  }

  // -- Prolog ---------------------------------------------------------------

  Status ParseProlog(Query* query) {
    while (IsName("declare")) {
      size_t rollback = Tok().offset;
      EXRQUY_RETURN_IF_ERROR(Advance());
      if (IsName("ordering")) {
        EXRQUY_RETURN_IF_ERROR(Advance());
        if (IsName("ordered")) {
          query->default_ordering = OrderingMode::kOrdered;
        } else if (IsName("unordered")) {
          query->default_ordering = OrderingMode::kUnordered;
        } else {
          return Error("expected 'ordered' or 'unordered'");
        }
        query->has_ordering_decl = true;
        EXRQUY_RETURN_IF_ERROR(Advance());
        EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kSemicolon, "';'"));
      } else if (IsName("function")) {
        EXRQUY_RETURN_IF_ERROR(Advance());
        FunctionDecl decl;
        if (Tok().kind != TokKind::kName) return Error("expected name");
        decl.name = Tok().text;
        EXRQUY_RETURN_IF_ERROR(Advance());
        EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
        while (Tok().kind == TokKind::kVar) {
          decl.params.push_back(Tok().text);
          EXRQUY_RETURN_IF_ERROR(Advance());
          // Optional 'as' type annotation: skip tokens up to ',' or ')'.
          if (IsName("as")) {
            EXRQUY_RETURN_IF_ERROR(Advance());
            while (Tok().kind != TokKind::kComma &&
                   Tok().kind != TokKind::kRParen &&
                   Tok().kind != TokKind::kEof) {
              EXRQUY_RETURN_IF_ERROR(Advance());
            }
          }
          if (Tok().kind == TokKind::kComma) {
            EXRQUY_RETURN_IF_ERROR(Advance());
          } else {
            break;
          }
        }
        EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
        if (IsName("as")) {  // return type: skip up to '{'
          while (Tok().kind != TokKind::kLBrace &&
                 Tok().kind != TokKind::kEof) {
            EXRQUY_RETURN_IF_ERROR(Advance());
          }
        }
        EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kLBrace, "'{'"));
        EXRQUY_ASSIGN_OR_RETURN(decl.body, ParseExprSeq());
        EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kRBrace, "'}'"));
        EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kSemicolon, "';'"));
        query->functions.push_back(std::move(decl));
      } else {
        // Not a prolog declaration we know: 'declare' may actually be an
        // element name in the body. Rewind and stop prolog parsing.
        lexer_.ResetTo(rollback);
        EXRQUY_RETURN_IF_ERROR(Advance());
        break;
      }
    }
    return Status::Ok();
  }

  // -- Expressions ------------------------------------------------------

  // Expr ::= ExprSingle ("," ExprSingle)*
  Result<ExprPtr> ParseExprSeq() {
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr first, ParseExprSingle());
    if (Tok().kind != TokKind::kComma) return first;
    ExprPtr seq = MakeExpr(ExprKind::kSequence);
    seq->children.push_back(std::move(first));
    while (Tok().kind == TokKind::kComma) {
      EXRQUY_RETURN_IF_ERROR(Advance());
      EXRQUY_ASSIGN_OR_RETURN(ExprPtr next, ParseExprSingle());
      seq->children.push_back(std::move(next));
    }
    return seq;
  }

  // Every unbounded recursion cycle in this grammar passes through
  // ParseExprSingle (parenthesized expressions, predicates, function
  // arguments, FLWOR/quantifier/if bodies) or ParseCtorAt (nested direct
  // constructors); the +/- unary chain is iterative. Bounding these two
  // therefore bounds the C++ call stack: adversarially nested input
  // returns an InvalidArgument Status instead of overflowing it.
  static constexpr size_t kMaxDepth = 256;

  Result<ExprPtr> ParseExprSingle() {
    if (depth_ >= kMaxDepth) {
      return Error("expression nesting deeper than " +
                   std::to_string(kMaxDepth));
    }
    ++depth_;
    Result<ExprPtr> r = ParseExprSingleInner();
    --depth_;
    return r;
  }

  Result<ExprPtr> ParseExprSingleInner() {
    if (IsName("for") || IsName("let")) return ParseFlwor();
    if (IsName("some") || IsName("every")) return ParseQuantified();
    if (IsName("if")) return ParseIf();
    return ParseOrExpr();
  }

  Result<ExprPtr> ParseFlwor() {
    ExprPtr flwor = MakeExpr(ExprKind::kFlwor);
    while (IsName("for") || IsName("let")) {
      bool is_for = IsName("for");
      EXRQUY_RETURN_IF_ERROR(Advance());
      for (;;) {
        FlworClause clause;
        clause.kind =
            is_for ? FlworClause::Kind::kFor : FlworClause::Kind::kLet;
        if (Tok().kind != TokKind::kVar) return Error("expected variable");
        clause.var = Tok().text;
        EXRQUY_RETURN_IF_ERROR(Advance());
        if (is_for && IsName("at")) {
          EXRQUY_RETURN_IF_ERROR(Advance());
          if (Tok().kind != TokKind::kVar) {
            return Error("expected positional variable");
          }
          clause.pos_var = Tok().text;
          EXRQUY_RETURN_IF_ERROR(Advance());
        }
        if (is_for) {
          EXRQUY_RETURN_IF_ERROR(ExpectName("in"));
        } else {
          EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kAssign, "':='"));
        }
        EXRQUY_ASSIGN_OR_RETURN(clause.expr, ParseExprSingle());
        flwor->clauses.push_back(std::move(clause));
        // A comma continues the binding list only when followed by '$';
        // otherwise it belongs to an enclosing sequence expression.
        if (Tok().kind == TokKind::kComma && PeekIsVar()) {
          EXRQUY_RETURN_IF_ERROR(Advance());
          continue;
        }
        break;
      }
    }
    if (IsName("where")) {
      EXRQUY_RETURN_IF_ERROR(Advance());
      EXRQUY_ASSIGN_OR_RETURN(flwor->where, ParseExprSingle());
    }
    if (IsName("stable")) EXRQUY_RETURN_IF_ERROR(Advance());
    if (IsName("order")) {
      EXRQUY_RETURN_IF_ERROR(Advance());
      EXRQUY_RETURN_IF_ERROR(ExpectName("by"));
      for (;;) {
        OrderSpec spec;
        EXRQUY_ASSIGN_OR_RETURN(spec.key, ParseExprSingle());
        if (IsName("ascending")) {
          EXRQUY_RETURN_IF_ERROR(Advance());
        } else if (IsName("descending")) {
          spec.descending = true;
          EXRQUY_RETURN_IF_ERROR(Advance());
        }
        if (IsName("empty")) {
          EXRQUY_RETURN_IF_ERROR(Advance());
          spec.empty_greatest = IsName("greatest");
          if (!spec.empty_greatest && !IsName("least")) {
            return Error("expected 'greatest' or 'least' after 'empty'");
          }
          EXRQUY_RETURN_IF_ERROR(Advance());
        }
        flwor->order_by.push_back(std::move(spec));
        if (Tok().kind == TokKind::kComma) {
          EXRQUY_RETURN_IF_ERROR(Advance());
          continue;
        }
        break;
      }
    }
    EXRQUY_RETURN_IF_ERROR(ExpectName("return"));
    EXRQUY_ASSIGN_OR_RETURN(flwor->ret, ParseExprSingle());
    return flwor;
  }

  Result<ExprPtr> ParseQuantified() {
    bool is_every = IsName("every");
    EXRQUY_RETURN_IF_ERROR(Advance());
    // Multiple binders desugar to nested quantifiers.
    std::vector<std::pair<std::string, ExprPtr>> binders;
    for (;;) {
      if (Tok().kind != TokKind::kVar) return Error("expected variable");
      std::string var = Tok().text;
      EXRQUY_RETURN_IF_ERROR(Advance());
      EXRQUY_RETURN_IF_ERROR(ExpectName("in"));
      EXRQUY_ASSIGN_OR_RETURN(ExprPtr domain, ParseExprSingle());
      binders.emplace_back(std::move(var), std::move(domain));
      if (Tok().kind == TokKind::kComma && PeekIsVar()) {
        EXRQUY_RETURN_IF_ERROR(Advance());
        continue;
      }
      break;
    }
    EXRQUY_RETURN_IF_ERROR(ExpectName("satisfies"));
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr body, ParseExprSingle());
    for (auto it = binders.rbegin(); it != binders.rend(); ++it) {
      ExprPtr q = MakeExpr(ExprKind::kQuantified);
      // `every` is recorded via op kAnd; `some` via kOr (the normalizer
      // rewrites every -> not(some(not)) per Section 2.2).
      q->op = is_every ? BinOp::kAnd : BinOp::kOr;
      q->string_value = it->first;
      q->children.push_back(std::move(it->second));
      q->children.push_back(std::move(body));
      body = std::move(q);
    }
    return body;
  }

  Result<ExprPtr> ParseIf() {
    EXRQUY_RETURN_IF_ERROR(Advance());
    EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr cond, ParseExprSeq());
    EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    EXRQUY_RETURN_IF_ERROR(ExpectName("then"));
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr then_e, ParseExprSingle());
    EXRQUY_RETURN_IF_ERROR(ExpectName("else"));
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr else_e, ParseExprSingle());
    ExprPtr e = MakeExpr(ExprKind::kIf);
    e->children.push_back(std::move(cond));
    e->children.push_back(std::move(then_e));
    e->children.push_back(std::move(else_e));
    return e;
  }

  Result<ExprPtr> ParseOrExpr() {
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAndExpr());
    while (IsName("or")) {
      EXRQUY_RETURN_IF_ERROR(Advance());
      EXRQUY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAndExpr());
      ExprPtr e = MakeExpr(ExprKind::kLogical);
      e->op = BinOp::kOr;
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseAndExpr() {
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseComparisonExpr());
    while (IsName("and")) {
      EXRQUY_RETURN_IF_ERROR(Advance());
      EXRQUY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseComparisonExpr());
      ExprPtr e = MakeExpr(ExprKind::kLogical);
      e->op = BinOp::kAnd;
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseComparisonExpr() {
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseRangeExpr());
    ExprKind kind;
    BinOp op;
    switch (Tok().kind) {
      case TokKind::kEq:
        kind = ExprKind::kGeneralComp;
        op = BinOp::kEq;
        break;
      case TokKind::kNe:
        kind = ExprKind::kGeneralComp;
        op = BinOp::kNe;
        break;
      case TokKind::kLt:
        kind = ExprKind::kGeneralComp;
        op = BinOp::kLt;
        break;
      case TokKind::kLe:
        kind = ExprKind::kGeneralComp;
        op = BinOp::kLe;
        break;
      case TokKind::kGt:
        kind = ExprKind::kGeneralComp;
        op = BinOp::kGt;
        break;
      case TokKind::kGe:
        kind = ExprKind::kGeneralComp;
        op = BinOp::kGe;
        break;
      case TokKind::kLtLt:
        kind = ExprKind::kNodeComp;
        op = BinOp::kBefore;
        break;
      case TokKind::kGtGt:
        kind = ExprKind::kNodeComp;
        op = BinOp::kAfter;
        break;
      case TokKind::kName:
        if (Tok().text == "eq") {
          kind = ExprKind::kValueComp;
          op = BinOp::kEq;
        } else if (Tok().text == "ne") {
          kind = ExprKind::kValueComp;
          op = BinOp::kNe;
        } else if (Tok().text == "lt") {
          kind = ExprKind::kValueComp;
          op = BinOp::kLt;
        } else if (Tok().text == "le") {
          kind = ExprKind::kValueComp;
          op = BinOp::kLe;
        } else if (Tok().text == "gt") {
          kind = ExprKind::kValueComp;
          op = BinOp::kGt;
        } else if (Tok().text == "ge") {
          kind = ExprKind::kValueComp;
          op = BinOp::kGe;
        } else if (Tok().text == "is") {
          kind = ExprKind::kNodeComp;
          op = BinOp::kIs;
        } else {
          return lhs;
        }
        break;
      default:
        return lhs;
    }
    EXRQUY_RETURN_IF_ERROR(Advance());
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseRangeExpr());
    ExprPtr e = MakeExpr(kind);
    e->op = op;
    e->children.push_back(std::move(lhs));
    e->children.push_back(std::move(rhs));
    return e;
  }

  Result<ExprPtr> ParseRangeExpr() {
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditiveExpr());
    if (!IsName("to")) return lhs;
    EXRQUY_RETURN_IF_ERROR(Advance());
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditiveExpr());
    ExprPtr e = MakeExpr(ExprKind::kRange);
    e->children.push_back(std::move(lhs));
    e->children.push_back(std::move(rhs));
    return e;
  }

  Result<ExprPtr> ParseAdditiveExpr() {
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicativeExpr());
    for (;;) {
      BinOp op;
      if (Tok().kind == TokKind::kPlus) {
        op = BinOp::kAdd;
      } else if (Tok().kind == TokKind::kMinus) {
        op = BinOp::kSub;
      } else {
        return lhs;
      }
      EXRQUY_RETURN_IF_ERROR(Advance());
      EXRQUY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicativeExpr());
      ExprPtr e = MakeExpr(ExprKind::kArith);
      e->op = op;
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
  }

  Result<ExprPtr> ParseMultiplicativeExpr() {
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnionExpr());
    for (;;) {
      BinOp op;
      if (Tok().kind == TokKind::kStar) {
        op = BinOp::kMul;
      } else if (IsName("div")) {
        op = BinOp::kDiv;
      } else if (IsName("idiv")) {
        op = BinOp::kIDiv;
      } else if (IsName("mod")) {
        op = BinOp::kMod;
      } else {
        return lhs;
      }
      EXRQUY_RETURN_IF_ERROR(Advance());
      EXRQUY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnionExpr());
      ExprPtr e = MakeExpr(ExprKind::kArith);
      e->op = op;
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
  }

  Result<ExprPtr> ParseUnionExpr() {
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseIntersectExceptExpr());
    while (Tok().kind == TokKind::kPipe || IsName("union")) {
      EXRQUY_RETURN_IF_ERROR(Advance());
      EXRQUY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseIntersectExceptExpr());
      ExprPtr e = MakeExpr(ExprKind::kSetOp);
      e->op = BinOp::kUnion;
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseIntersectExceptExpr() {
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnaryExpr());
    while (IsName("intersect") || IsName("except")) {
      BinOp op = IsName("intersect") ? BinOp::kIntersect : BinOp::kExcept;
      EXRQUY_RETURN_IF_ERROR(Advance());
      EXRQUY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnaryExpr());
      ExprPtr e = MakeExpr(ExprKind::kSetOp);
      e->op = op;
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnaryExpr() {
    bool negate = false;
    while (Tok().kind == TokKind::kMinus || Tok().kind == TokKind::kPlus) {
      if (Tok().kind == TokKind::kMinus) negate = !negate;
      EXRQUY_RETURN_IF_ERROR(Advance());
    }
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr e, ParsePathExpr());
    if (negate) {
      ExprPtr neg = MakeExpr(ExprKind::kArith);
      neg->op = BinOp::kNeg;
      neg->children.push_back(std::move(e));
      return neg;
    }
    return e;
  }

  // -- Paths --------------------------------------------------------------

  Result<ExprPtr> ParsePathExpr() {
    if (Tok().kind == TokKind::kSlash || Tok().kind == TokKind::kSlashSlash) {
      return Error(
          "absolute paths ('/e') are not supported; start from fn:doc()");
    }
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr e, ParseStepExpr(nullptr));
    while (Tok().kind == TokKind::kSlash ||
           Tok().kind == TokKind::kSlashSlash) {
      bool abbrev = Tok().kind == TokKind::kSlashSlash;
      EXRQUY_RETURN_IF_ERROR(Advance());
      if (abbrev) {
        // e1//e2 is sugar for e1/descendant-or-self::node()/e2 (fn. 1 of
        // the paper).
        ExprPtr dos = MakeExpr(ExprKind::kPathStep);
        dos->axis = Axis::kDescendantOrSelf;
        dos->test_kind = NodeTest::Kind::kAnyKind;
        dos->children.push_back(std::move(e));
        e = std::move(dos);
      }
      EXRQUY_ASSIGN_OR_RETURN(e, ParseStepExpr(std::move(e)));
    }
    return e;
  }

  // Parses one step. `input` is the expression the step applies to, or
  // nullptr at the start of a relative path (where an axis step applies
  // to the context item '.').
  Result<ExprPtr> ParseStepExpr(ExprPtr input) {
    ExprPtr step;

    auto make_axis_step = [&](Axis axis) {
      step = MakeExpr(ExprKind::kPathStep);
      step->axis = axis;
      if (input) {
        step->children.push_back(std::move(input));
      } else {
        step->children.push_back(MakeExpr(ExprKind::kContextItem));
      }
    };

    if (Tok().kind == TokKind::kAt) {
      EXRQUY_RETURN_IF_ERROR(Advance());
      make_axis_step(Axis::kAttribute);
      EXRQUY_RETURN_IF_ERROR(ParseNodeTest(step.get()));
    } else if (Tok().kind == TokKind::kDotDot) {
      EXRQUY_RETURN_IF_ERROR(Advance());
      make_axis_step(Axis::kParent);
      step->test_kind = NodeTest::Kind::kAnyKind;
    } else if (Tok().kind == TokKind::kStar) {
      EXRQUY_RETURN_IF_ERROR(Advance());
      make_axis_step(Axis::kChild);
      step->test_kind = NodeTest::Kind::kWildcard;
    } else if (Tok().kind == TokKind::kName) {
      // Either axis::test, a kind test, a function call, or a name test.
      Axis axis;
      if (LooksLikeAxis(&axis)) {
        EXRQUY_RETURN_IF_ERROR(Advance());  // axis name
        EXRQUY_RETURN_IF_ERROR(Advance());  // '::'
        make_axis_step(axis);
        EXRQUY_RETURN_IF_ERROR(ParseNodeTest(step.get()));
      } else if ((IsKindTestName(Tok().text) || Tok().text == "text") &&
                 PeekIsLParen()) {
        // node()/text()/comment() kind tests on the child axis. ('text'
        // followed by '{' is the text constructor, handled as a primary.)
        make_axis_step(Axis::kChild);
        EXRQUY_RETURN_IF_ERROR(ParseNodeTest(step.get()));
      } else if (PeekIsLParen()) {
        // Function call (or keyword-introduced primary handled below).
        EXRQUY_ASSIGN_OR_RETURN(ExprPtr prim, ParsePrimary());
        step = WrapFilterStep(std::move(input), std::move(prim));
      } else if ((IsName("ordered") || IsName("unordered") ||
                  IsName("text")) &&
                 PeekIsLBrace()) {
        // ordered { } / unordered { } / text { } constructors; a bare
        // 'text' (etc.) name is an ordinary element name test.
        EXRQUY_ASSIGN_OR_RETURN(ExprPtr prim, ParsePrimary());
        step = WrapFilterStep(std::move(input), std::move(prim));
      } else {
        make_axis_step(Axis::kChild);
        EXRQUY_RETURN_IF_ERROR(ParseNodeTest(step.get()));
      }
    } else {
      EXRQUY_ASSIGN_OR_RETURN(ExprPtr prim, ParsePrimary());
      step = WrapFilterStep(std::move(input), std::move(prim));
    }

    // Predicates.
    while (Tok().kind == TokKind::kLBracket) {
      EXRQUY_RETURN_IF_ERROR(Advance());
      EXRQUY_ASSIGN_OR_RETURN(ExprPtr pred, ParseExprSeq());
      EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kRBracket, "']'"));
      ExprPtr e = MakeExpr(ExprKind::kPredicate);
      e->children.push_back(std::move(step));
      e->children.push_back(std::move(pred));
      step = std::move(e);
    }
    return step;
  }

  // e1/(expr): a non-axis step evaluates `expr` once per context node of
  // e1 (context item bound); without an input it is just the primary.
  static ExprPtr WrapFilterStep(ExprPtr input, ExprPtr prim) {
    if (input == nullptr) return prim;
    ExprPtr e = MakeExpr(ExprKind::kPathFilter);
    e->children.push_back(std::move(input));
    e->children.push_back(std::move(prim));
    return e;
  }

  bool PeekIsLParen() {
    // One-character lookahead past the current name token: skip spaces.
    std::string_view text = lexer_.text();
    size_t p = lexer_.pos();
    while (p < text.size() &&
           std::isspace(static_cast<unsigned char>(text[p]))) {
      ++p;
    }
    return p < text.size() && text[p] == '(';
  }

  bool LooksLikeAxis(Axis* axis) {
    static constexpr struct {
      const char* name;
      Axis axis;
    } kAxes[] = {
        {"child", Axis::kChild},
        {"descendant", Axis::kDescendant},
        {"descendant-or-self", Axis::kDescendantOrSelf},
        {"self", Axis::kSelf},
        {"attribute", Axis::kAttribute},
        {"parent", Axis::kParent},
        {"ancestor", Axis::kAncestor},
        {"ancestor-or-self", Axis::kAncestorOrSelf},
        {"following-sibling", Axis::kFollowingSibling},
        {"preceding-sibling", Axis::kPrecedingSibling},
        {"following", Axis::kFollowing},
        {"preceding", Axis::kPreceding},
    };
    if (Tok().kind != TokKind::kName) return false;
    for (const auto& a : kAxes) {
      if (Tok().text == a.name) {
        // Must be followed by '::'.
        std::string_view text = lexer_.text();
        size_t p = lexer_.pos();
        if (p + 1 < text.size() && text[p] == ':' && text[p + 1] == ':') {
          *axis = a.axis;
          return true;
        }
        return false;
      }
    }
    return false;
  }

  static bool IsKindTestName(const std::string& name) {
    return name == "node" || name == "comment";
    // 'text' is handled separately: 'text {' is a constructor, 'text()' a
    // kind test.
  }

  Status ParseNodeTest(Expr* step) {
    if (Tok().kind == TokKind::kStar) {
      step->test_kind = NodeTest::Kind::kWildcard;
      return Advance();
    }
    if (Tok().kind != TokKind::kName) return Error("expected node test");
    std::string name = Tok().text;
    if ((name == "node" || name == "text" || name == "comment") &&
        PeekIsLParen()) {
      EXRQUY_RETURN_IF_ERROR(Advance());
      EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
      EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      step->test_kind = name == "node"   ? NodeTest::Kind::kAnyKind
                        : name == "text" ? NodeTest::Kind::kText
                                         : NodeTest::Kind::kComment;
      return Status::Ok();
    }
    step->test_kind = NodeTest::Kind::kName;
    step->test_name = name;
    return Advance();
  }

  // -- Primaries ------------------------------------------------------------

  Result<ExprPtr> ParsePrimary() {
    switch (Tok().kind) {
      case TokKind::kInt: {
        ExprPtr e = MakeExpr(ExprKind::kIntLit);
        e->int_value = Tok().int_value;
        EXRQUY_RETURN_IF_ERROR(Advance());
        return e;
      }
      case TokKind::kDouble: {
        ExprPtr e = MakeExpr(ExprKind::kDoubleLit);
        e->double_value = Tok().double_value;
        EXRQUY_RETURN_IF_ERROR(Advance());
        return e;
      }
      case TokKind::kString: {
        ExprPtr e = MakeExpr(ExprKind::kStringLit);
        e->string_value = Tok().text;
        EXRQUY_RETURN_IF_ERROR(Advance());
        return e;
      }
      case TokKind::kVar: {
        ExprPtr e = MakeExpr(ExprKind::kVarRef);
        e->string_value = Tok().text;
        EXRQUY_RETURN_IF_ERROR(Advance());
        return e;
      }
      case TokKind::kDot: {
        EXRQUY_RETURN_IF_ERROR(Advance());
        return MakeExpr(ExprKind::kContextItem);
      }
      case TokKind::kLParen: {
        EXRQUY_RETURN_IF_ERROR(Advance());
        if (Tok().kind == TokKind::kRParen) {
          EXRQUY_RETURN_IF_ERROR(Advance());
          return MakeExpr(ExprKind::kEmptySeq);
        }
        EXRQUY_ASSIGN_OR_RETURN(ExprPtr e, ParseExprSeq());
        EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
        return e;
      }
      case TokKind::kLt:
        return ParseElementCtor();
      case TokKind::kName: {
        if ((IsName("ordered") || IsName("unordered")) && PeekIsLBrace()) {
          OrderingMode mode = IsName("ordered") ? OrderingMode::kOrdered
                                                : OrderingMode::kUnordered;
          EXRQUY_RETURN_IF_ERROR(Advance());
          EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kLBrace, "'{'"));
          EXRQUY_ASSIGN_OR_RETURN(ExprPtr body, ParseExprSeq());
          EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kRBrace, "'}'"));
          ExprPtr e = MakeExpr(ExprKind::kOrderedExpr);
          e->mode = mode;
          e->children.push_back(std::move(body));
          return e;
        }
        if (IsName("text") && PeekIsLBrace()) {
          EXRQUY_RETURN_IF_ERROR(Advance());
          EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kLBrace, "'{'"));
          EXRQUY_ASSIGN_OR_RETURN(ExprPtr body, ParseExprSeq());
          EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kRBrace, "'}'"));
          ExprPtr e = MakeExpr(ExprKind::kTextCtor);
          e->children.push_back(std::move(body));
          return e;
        }
        // Function call.
        std::string name = Tok().text;
        EXRQUY_RETURN_IF_ERROR(Advance());
        if (Tok().kind != TokKind::kLParen) {
          return Error("expected '(' after function name '" + name + "'");
        }
        EXRQUY_RETURN_IF_ERROR(Advance());
        ExprPtr call = MakeExpr(ExprKind::kFunctionCall);
        // Canonicalize the fn: prefix away.
        if (name.rfind("fn:", 0) == 0) name = name.substr(3);
        call->string_value = std::move(name);
        if (Tok().kind != TokKind::kRParen) {
          for (;;) {
            EXRQUY_ASSIGN_OR_RETURN(ExprPtr arg, ParseExprSingle());
            call->children.push_back(std::move(arg));
            if (Tok().kind == TokKind::kComma) {
              EXRQUY_RETURN_IF_ERROR(Advance());
              continue;
            }
            break;
          }
        }
        EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
        return call;
      }
      default:
        return Error("expected an expression");
    }
  }

  bool PeekIsVar() {
    std::string_view text = lexer_.text();
    size_t p = lexer_.pos();
    while (p < text.size() &&
           std::isspace(static_cast<unsigned char>(text[p]))) {
      ++p;
    }
    return p < text.size() && text[p] == '$';
  }

  bool PeekIsLBrace() {
    std::string_view text = lexer_.text();
    size_t p = lexer_.pos();
    while (p < text.size() &&
           std::isspace(static_cast<unsigned char>(text[p]))) {
      ++p;
    }
    return p < text.size() && text[p] == '{';
  }

  // -- Direct element constructors (character-level parsing) ---------------

  Result<ExprPtr> ParseElementCtor() {
    EXRQUY_DCHECK(Tok().kind == TokKind::kLt);
    size_t start = Tok().offset;  // points at '<'
    EXRQUY_ASSIGN_OR_RETURN(CtorResult r, ParseCtorAt(start));
    lexer_.ResetTo(r.end);
    EXRQUY_RETURN_IF_ERROR(Advance());
    return std::move(r.expr);
  }

  struct CtorResult {
    ExprPtr expr;
    size_t end;  // offset just past the constructor
  };

  Status CtorError(size_t at, std::string message) const {
    message += " (offset ";
    message += std::to_string(at);
    message += ")";
    return InvalidArgument(std::move(message));
  }

  // Parses '<name attrs> content </name>' starting at offset p ('<').
  Result<CtorResult> ParseCtorAt(size_t p) {
    if (depth_ >= kMaxDepth) {
      return CtorError(p, "constructor nesting deeper than " +
                              std::to_string(kMaxDepth));
    }
    ++depth_;
    Result<CtorResult> r = ParseCtorAtInner(p);
    --depth_;
    return r;
  }

  Result<CtorResult> ParseCtorAtInner(size_t p) {
    std::string_view text = lexer_.text();
    auto at_end = [&] { return p >= text.size(); };
    auto skip_ws = [&] {
      while (!at_end() && std::isspace(static_cast<unsigned char>(text[p]))) {
        ++p;
      }
    };
    auto scan_name = [&]() -> std::string {
      size_t s = p;
      while (!at_end() && (IsNcNameChar(text[p]) ||
                           (text[p] == ':' && p + 1 < text.size() &&
                            IsNcNameStart(text[p + 1])))) {
        ++p;
      }
      return std::string(text.substr(s, p - s));
    };

    EXRQUY_CHECK(text[p] == '<');
    ++p;
    if (at_end() || !IsNcNameStart(text[p])) {
      return CtorError(p, "expected element name");
    }
    ExprPtr elem = MakeExpr(ExprKind::kElementCtor);
    elem->string_value = scan_name();

    // Attributes.
    for (;;) {
      skip_ws();
      if (at_end()) return CtorError(p, "unterminated start tag");
      if (text[p] == '>' || (text[p] == '/' && p + 1 < text.size() &&
                             text[p + 1] == '>')) {
        break;
      }
      if (!IsNcNameStart(text[p])) {
        return CtorError(p, "expected attribute name");
      }
      ExprPtr attr = MakeExpr(ExprKind::kAttributeCtor);
      attr->string_value = scan_name();
      skip_ws();
      if (at_end() || text[p] != '=') return CtorError(p, "expected '='");
      ++p;
      skip_ws();
      if (at_end() || (text[p] != '"' && text[p] != '\'')) {
        return CtorError(p, "expected quoted attribute value");
      }
      char quote = text[p];
      ++p;
      EXRQUY_ASSIGN_OR_RETURN(
          p, ParseCtorParts(p, quote, /*element_content=*/false,
                            &attr->parts));
      ++p;  // closing quote
      elem->children.push_back(std::move(attr));
    }

    if (text[p] == '/') {
      p += 2;  // '/>'
      return CtorResult{std::move(elem), p};
    }
    ++p;  // '>'

    // Content.
    EXRQUY_ASSIGN_OR_RETURN(
        p, ParseCtorContent(p, elem->string_value, &elem->parts));
    return CtorResult{std::move(elem), p};
  }

  // Parses AVT text (until `quote`). Returns the offset of the closing
  // quote. '{expr}' parts invoke the token-level parser.
  Result<size_t> ParseCtorParts(size_t p, char quote, bool element_content,
                                std::vector<CtorPart>* parts) {
    (void)element_content;
    std::string_view text = lexer_.text();
    std::string pending;
    auto flush = [&]() -> Status {
      if (!pending.empty()) {
        CtorPart part;
        EXRQUY_ASSIGN_OR_RETURN(part.text,
                                DecodeText(pending, p - pending.size()));
        parts->push_back(std::move(part));
        pending.clear();
      }
      return Status::Ok();
    };
    for (;;) {
      if (p >= text.size()) {
        return CtorError(p, "unterminated attribute value");
      }
      char c = text[p];
      if (c == quote) {
        EXRQUY_RETURN_IF_ERROR(flush());
        return p;
      }
      if (c == '{') {
        if (p + 1 < text.size() && text[p + 1] == '{') {
          pending += '{';
          p += 2;
          continue;
        }
        EXRQUY_RETURN_IF_ERROR(flush());
        EXRQUY_ASSIGN_OR_RETURN(p, ParseEnclosedExpr(p, parts));
        continue;
      }
      if (c == '}') {
        if (p + 1 < text.size() && text[p + 1] == '}') {
          pending += '}';
          p += 2;
          continue;
        }
        return CtorError(p, "unescaped '}' in attribute value");
      }
      pending += c;
      ++p;
    }
  }

  // Parses element content until the matching end tag. Returns the offset
  // just past '</name>'.
  Result<size_t> ParseCtorContent(size_t p, const std::string& name,
                                  std::vector<CtorPart>* parts) {
    std::string_view text = lexer_.text();
    std::string pending;
    auto flush = [&]() -> Status {
      // Boundary whitespace is stripped (XQuery's default boundary-space
      // policy); interior text is preserved.
      if (!pending.empty() && !IsAllWhitespace(pending)) {
        CtorPart part;
        EXRQUY_ASSIGN_OR_RETURN(part.text,
                                DecodeText(pending, p - pending.size()));
        parts->push_back(std::move(part));
      }
      pending.clear();
      return Status::Ok();
    };
    for (;;) {
      if (p >= text.size()) {
        return CtorError(p, "unterminated element content");
      }
      char c = text[p];
      if (c == '<') {
        if (p + 1 < text.size() && text[p + 1] == '/') {
          EXRQUY_RETURN_IF_ERROR(flush());
          p += 2;
          size_t s = p;
          while (p < text.size() &&
                 (IsNcNameChar(text[p]) ||
                  (text[p] == ':' && p + 1 < text.size() &&
                   IsNcNameStart(text[p + 1])))) {
            ++p;
          }
          std::string end_name(text.substr(s, p - s));
          if (end_name != name) {
            return CtorError(s, "mismatched end tag </" + end_name + ">");
          }
          while (p < text.size() &&
                 std::isspace(static_cast<unsigned char>(text[p]))) {
            ++p;
          }
          if (p >= text.size() || text[p] != '>') {
            return CtorError(p, "expected '>'");
          }
          return p + 1;
        }
        if (text.substr(p, 4) == "<!--") {
          size_t end = text.find("-->", p);
          if (end == std::string_view::npos) {
            return CtorError(p, "unterminated comment");
          }
          p = end + 3;
          continue;
        }
        EXRQUY_RETURN_IF_ERROR(flush());
        EXRQUY_ASSIGN_OR_RETURN(CtorResult nested, ParseCtorAt(p));
        CtorPart part;
        part.expr = std::move(nested.expr);
        parts->push_back(std::move(part));
        p = nested.end;
        continue;
      }
      if (c == '{') {
        if (p + 1 < text.size() && text[p + 1] == '{') {
          pending += '{';
          p += 2;
          continue;
        }
        EXRQUY_RETURN_IF_ERROR(flush());
        EXRQUY_ASSIGN_OR_RETURN(p, ParseEnclosedExpr(p, parts));
        continue;
      }
      if (c == '}') {
        if (p + 1 < text.size() && text[p + 1] == '}') {
          pending += '}';
          p += 2;
          continue;
        }
        return CtorError(p, "unescaped '}' in element content");
      }
      pending += c;
      ++p;
    }
  }

  // Parses '{ Expr }' starting at offset p ('{') using the token-level
  // parser; appends an expression part; returns the offset past '}'.
  Result<size_t> ParseEnclosedExpr(size_t p, std::vector<CtorPart>* parts) {
    lexer_.ResetTo(p);
    EXRQUY_RETURN_IF_ERROR(Advance());  // '{'
    EXRQUY_RETURN_IF_ERROR(Expect(TokKind::kLBrace, "'{'"));
    EXRQUY_ASSIGN_OR_RETURN(ExprPtr e, ParseExprSeq());
    if (Tok().kind != TokKind::kRBrace) {
      return Error("expected '}' after enclosed expression");
    }
    size_t end = lexer_.pos();
    CtorPart part;
    part.expr = std::move(e);
    parts->push_back(std::move(part));
    return end;
  }

  Lexer lexer_;
  size_t depth_ = 0;  // ParseExprSingle + ParseCtorAt recursion depth
};

}  // namespace

Result<Query> ParseQuery(std::string_view text) {
  return Parser(text).ParseModule();
}

Result<ExprPtr> ParseExpression(std::string_view text) {
  return Parser(text).ParseSingleExpression();
}

}  // namespace exrquy
