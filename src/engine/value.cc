#include "engine/value.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "common/check.h"

namespace exrquy {

namespace {

bool IsNumeric(const Value& v) {
  return v.kind == ValueKind::kInt || v.kind == ValueKind::kDouble;
}

double AsDouble(const Value& v) {
  return v.kind == ValueKind::kInt ? static_cast<double>(v.i) : v.d;
}

bool IsXmlSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// The xs:double cast of a string: the XSD 1.1 lexical space (an
// optionally signed decimal with an optional exponent, or INF, +INF,
// -INF, NaN) between the whitespace the type's collapse facet strips.
// strtod's extras (hex floats, "inf", "infinity", "nan") fail the cast.
Result<double> ParseDouble(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsXmlSpace(s[b])) ++b;
  while (e > b && IsXmlSpace(s[e - 1])) --e;
  const std::string_view t(s.data() + b, e - b);
  if (t == "NaN") return std::numeric_limits<double>::quiet_NaN();
  if (t == "INF" || t == "+INF") return std::numeric_limits<double>::infinity();
  if (t == "-INF") return -std::numeric_limits<double>::infinity();
  size_t i = 0;
  if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
  size_t digits = 0;
  for (; i < t.size() && IsDigit(t[i]); ++i) ++digits;
  if (i < t.size() && t[i] == '.') {
    for (++i; i < t.size() && IsDigit(t[i]); ++i) ++digits;
  }
  bool valid = digits > 0;
  if (valid && i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
    ++i;
    if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
    size_t exp_digits = 0;
    for (; i < t.size() && IsDigit(t[i]); ++i) ++exp_digits;
    valid = exp_digits > 0;
  }
  if (!valid || i != t.size()) {
    return TypeError("err:FORG0001: cannot cast \"" + s + "\" to xs:double");
  }
  // strtod reads exactly the validated decimal, up to the trailing
  // whitespace or the string's end.
  return std::strtod(s.c_str() + b, nullptr);
}

// -1, 0 or 1 for two doubles that are not NaN.
int CompareDoubles(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }

Result<Value> ApplyRelation(FunKind op, int cmp) {
  switch (op) {
    case FunKind::kEq:
      return Value::Bool(cmp == 0);
    case FunKind::kNe:
      return Value::Bool(cmp != 0);
    case FunKind::kLt:
      return Value::Bool(cmp < 0);
    case FunKind::kLe:
      return Value::Bool(cmp <= 0);
    case FunKind::kGt:
      return Value::Bool(cmp > 0);
    case FunKind::kGe:
      return Value::Bool(cmp >= 0);
    default:
      return Internal("bad relation");
  }
}

// A deferred constructor's record (ValueKind::kRecord) that reached an
// operator inspecting its value: the identity-indifference mark was
// unsound. Fails the query instead of computing with it.
Status RecordLeak() {
  return Internal(
      "deferred construction record reached an operator that inspects "
      "its value");
}

// The same leak where no Status can carry it: an invariant violation.
[[noreturn]] void AbortOnRecord(int line) {
  internal_check::CheckFailed("deferred construction record inspected",
                              __FILE__, line);
}

}  // namespace

std::string FormatDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "INF" : "-INF";
  if (v == 0 && std::signbit(v)) return "-0";
  if (v == static_cast<int64_t>(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

Value ValueOps::Atomize(Value v) const {
  if (v.kind == ValueKind::kRecord) AbortOnRecord(__LINE__);
  if (v.kind != ValueKind::kNode) return v;
  NodeKind k = store_->kind(v.node);
  if (k == NodeKind::kAttribute || k == NodeKind::kText ||
      k == NodeKind::kComment) {
    return Value::Untyped(store_->value(v.node));
  }
  // An element or document with at most one text descendant has that
  // node's (already interned) value as its string value, or "" without
  // one: the id Intern would return, without building and hashing it.
  NodeIdx end = v.node + store_->size(v.node);
  NodeIdx text = kInvalidNode;
  for (NodeIdx i = v.node + 1; i <= end; ++i) {
    if (store_->kind(i) != NodeKind::kText) continue;
    if (text != kInvalidNode) {
      return Value::Untyped(strings_->Intern(store_->StringValue(v.node)));
    }
    text = i;
  }
  return Value::Untyped(text == kInvalidNode ? StrPool::kEmpty
                                             : store_->value(text));
}

Result<Value> ValueOps::ToDouble(Value v) const {
  switch (v.kind) {
    case ValueKind::kInt:
      return Value::Double(static_cast<double>(v.i));
    case ValueKind::kDouble:
      return v;
    case ValueKind::kString:
    case ValueKind::kUntyped: {
      EXRQUY_ASSIGN_OR_RETURN(double d, ParseDouble(strings_->Get(v.str)));
      return Value::Double(d);
    }
    case ValueKind::kBool:
      return Value::Double(v.b ? 1.0 : 0.0);
    case ValueKind::kNode:
      return TypeError("cannot cast a node to xs:double (atomize first)");
    case ValueKind::kRecord:
      return RecordLeak();
  }
  return Internal("bad value kind");
}

Result<Value> ValueOps::Number(Value v) const {
  if (v.kind == ValueKind::kString || v.kind == ValueKind::kUntyped) {
    Result<double> d = ParseDouble(strings_->Get(v.str));
    return Value::Double(
        d.ok() ? *d : std::numeric_limits<double>::quiet_NaN());
  }
  return ToDouble(v);
}

Result<Value> ValueOps::ToString(Value v) const {
  if (v.kind == ValueKind::kNode) {
    return TypeError("cannot cast a node to xs:string (atomize first)");
  }
  if (v.kind == ValueKind::kRecord) return RecordLeak();
  if (v.kind == ValueKind::kString) return v;
  // An untyped value's string is already interned under its own id.
  if (v.kind == ValueKind::kUntyped) return Value::Str(v.str);
  return Value::Str(strings_->Intern(Render(v)));
}

Result<Value> ValueOps::Arith(FunKind op, Value a, Value b) const {
  if (a.kind == ValueKind::kRecord || b.kind == ValueKind::kRecord) {
    return RecordLeak();
  }
  // Untyped operands cast to xs:double for arithmetic.
  if (a.kind == ValueKind::kUntyped || a.kind == ValueKind::kString) {
    EXRQUY_ASSIGN_OR_RETURN(a, ToDouble(a));
  }
  if (b.kind == ValueKind::kUntyped || b.kind == ValueKind::kString) {
    EXRQUY_ASSIGN_OR_RETURN(b, ToDouble(b));
  }
  if (!IsNumeric(a) || !IsNumeric(b)) {
    return TypeError("arithmetic on non-numeric operands");
  }
  bool both_int = a.kind == ValueKind::kInt && b.kind == ValueKind::kInt;
  switch (op) {
    case FunKind::kAdd:
      if (both_int) {
        int64_t r;
        if (__builtin_add_overflow(a.i, b.i, &r)) {
          return TypeError("err:FOAR0002: integer overflow in addition");
        }
        return Value::Int(r);
      }
      return Value::Double(AsDouble(a) + AsDouble(b));
    case FunKind::kSub:
      if (both_int) {
        int64_t r;
        if (__builtin_sub_overflow(a.i, b.i, &r)) {
          return TypeError("err:FOAR0002: integer overflow in subtraction");
        }
        return Value::Int(r);
      }
      return Value::Double(AsDouble(a) - AsDouble(b));
    case FunKind::kMul:
      if (both_int) {
        int64_t r;
        if (__builtin_mul_overflow(a.i, b.i, &r)) {
          return TypeError("err:FOAR0002: integer overflow in multiplication");
        }
        return Value::Int(r);
      }
      return Value::Double(AsDouble(a) * AsDouble(b));
    case FunKind::kDiv: {
      // div on two integers is xs:decimal division (double stands in);
      // a zero divisor is an error there, while double division by zero
      // yields ±INF/NaN per IEEE — exactly the F&O split.
      if (both_int && b.i == 0) {
        return TypeError("err:FOAR0001: integer division by zero");
      }
      return Value::Double(AsDouble(a) / AsDouble(b));
    }
    case FunKind::kIDiv: {
      if (both_int) {
        // Exact 64-bit path: C++ integer division truncates toward zero,
        // which is precisely op:numeric-integer-divide. Routing through
        // doubles here would lose precision above 2^53.
        if (b.i == 0) {
          return TypeError("err:FOAR0001: integer division by zero");
        }
        if (a.i == INT64_MIN && b.i == -1) {
          return TypeError("err:FOAR0002: integer overflow in idiv");
        }
        return Value::Int(a.i / b.i);
      }
      double da = AsDouble(a);
      double db = AsDouble(b);
      if (db == 0) return TypeError("err:FOAR0001: integer division by zero");
      if (std::isnan(da) || std::isnan(db) || std::isinf(da)) {
        return TypeError("err:FOAR0002: idiv of NaN or infinite dividend");
      }
      double q = std::trunc(da / db);
      // 2^63 is exactly representable; anything in [-2^63, 2^63) fits.
      if (!(q >= -9223372036854775808.0 && q < 9223372036854775808.0)) {
        return TypeError("err:FOAR0002: integer overflow in idiv");
      }
      return Value::Int(static_cast<int64_t>(q));
    }
    case FunKind::kMod: {
      if (both_int) {
        if (b.i == 0) return TypeError("err:FOAR0001: integer modulo by zero");
        // INT64_MIN % -1 is UB in C++ even though the result is 0.
        if (b.i == -1) return Value::Int(0);
        return Value::Int(a.i % b.i);
      }
      // Double mod follows fmod: a zero divisor yields NaN, not an error
      // (op:numeric-mod on xs:double).
      return Value::Double(std::fmod(AsDouble(a), AsDouble(b)));
    }
    default:
      return Internal("bad arithmetic op");
  }
}

Result<Value> ValueOps::Compare(FunKind op, Value a, Value b) const {
  if (a.kind == ValueKind::kRecord || b.kind == ValueKind::kRecord) {
    return RecordLeak();
  }
  if (a.kind == ValueKind::kNode || b.kind == ValueKind::kNode) {
    return TypeError("comparison on unatomized nodes");
  }
  // General-comparison casting for untyped operands.
  if (a.kind == ValueKind::kUntyped && IsNumeric(b)) {
    EXRQUY_ASSIGN_OR_RETURN(a, ToDouble(a));
  } else if (b.kind == ValueKind::kUntyped && IsNumeric(a)) {
    EXRQUY_ASSIGN_OR_RETURN(b, ToDouble(b));
  }
  if (IsNumeric(a) && IsNumeric(b)) {
    if (a.kind == ValueKind::kInt && b.kind == ValueKind::kInt) {
      return ApplyRelation(op, a.i < b.i ? -1 : (a.i > b.i ? 1 : 0));
    }
    double da = AsDouble(a);
    double db = AsDouble(b);
    // NaN is unordered: every relation but `ne` is false.
    if (std::isnan(da) || std::isnan(db)) {
      return Value::Bool(op == FunKind::kNe);
    }
    return ApplyRelation(op, CompareDoubles(da, db));
  }
  bool a_str = a.kind == ValueKind::kString || a.kind == ValueKind::kUntyped;
  bool b_str = b.kind == ValueKind::kString || b.kind == ValueKind::kUntyped;
  if (a_str && b_str) {
    return ApplyRelation(op, strings_->Get(a.str).compare(strings_->Get(b.str)));
  }
  if (a.kind == ValueKind::kBool && b.kind == ValueKind::kBool) {
    return ApplyRelation(op, static_cast<int>(a.b) - static_cast<int>(b.b));
  }
  return TypeError("incomparable operand types");
}

bool ValueOps::EbvSingle(Value v) const {
  switch (v.kind) {
    case ValueKind::kBool:
      return v.b;
    case ValueKind::kInt:
      return v.i != 0;
    case ValueKind::kDouble:
      return v.d != 0 && !std::isnan(v.d);
    case ValueKind::kString:
    case ValueKind::kUntyped:
      return !strings_->Get(v.str).empty();
    case ValueKind::kNode:
      return true;
    case ValueKind::kRecord:
      AbortOnRecord(__LINE__);
  }
  return false;
}

namespace {

// OrderCompare's type classes, in their rank order.
int OrderClass(const Value& v) {
  switch (v.kind) {
    case ValueKind::kInt:
    case ValueKind::kDouble:
      return 0;
    case ValueKind::kString:
    case ValueKind::kUntyped:
      return 1;
    case ValueKind::kBool:
      return 2;
    case ValueKind::kNode:
      return 3;
    case ValueKind::kRecord:
      AbortOnRecord(__LINE__);
  }
  return 4;
}

}  // namespace

bool ValueOps::SameOrderClass(const Value& a, const Value& b) const {
  return OrderClass(a) == OrderClass(b);
}

int ValueOps::OrderCompare(const Value& a, const Value& b) const {
  int ca = OrderClass(a);
  int cb = OrderClass(b);
  if (ca != cb) return ca - cb;
  switch (ca) {
    case 0: {
      if (a.kind == ValueKind::kInt && b.kind == ValueKind::kInt) {
        return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
      }
      // XQuery `order by`: NaN equals NaN and sorts below every other
      // number.
      double da = AsDouble(a);
      double db = AsDouble(b);
      bool nan_a = std::isnan(da);
      bool nan_b = std::isnan(db);
      if (nan_a || nan_b) {
        return static_cast<int>(nan_b) - static_cast<int>(nan_a);
      }
      return CompareDoubles(da, db);
    }
    case 1:
      return strings_->Get(a.str).compare(strings_->Get(b.str));
    case 2:
      return static_cast<int>(a.b) - static_cast<int>(b.b);
    default:
      return a.node < b.node ? -1 : (a.node > b.node ? 1 : 0);
  }
}

std::string ValueOps::Render(Value v) const {
  switch (v.kind) {
    case ValueKind::kInt:
      return std::to_string(v.i);
    case ValueKind::kDouble:
      return FormatDouble(v.d);
    case ValueKind::kString:
    case ValueKind::kUntyped:
      return strings_->Get(v.str);
    case ValueKind::kBool:
      return v.b ? "true" : "false";
    case ValueKind::kNode:
      return store_->StringValue(v.node);
    case ValueKind::kRecord:
      AbortOnRecord(__LINE__);
  }
  return "";
}

}  // namespace exrquy
