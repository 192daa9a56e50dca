// The fixed-width value type that flows through the columnar engine and
// appears in algebra literal tables. Strings are interned StrIds; nodes
// are preorder ranks (NodeIdx). `kUntyped` is xs:untypedAtomic — the type
// of atomized schema-less XML content — which general comparisons cast
// by the XQuery rules.
#ifndef EXRQUY_COMMON_VALUE_H_
#define EXRQUY_COMMON_VALUE_H_

#include <cstdint>
#include <functional>

#include "common/str_pool.h"

namespace exrquy {

enum class ValueKind : uint8_t {
  kInt = 0,     // xs:integer
  kDouble = 1,  // xs:double (also stands in for xs:decimal)
  kString = 2,  // xs:string
  kUntyped = 3, // xs:untypedAtomic
  kBool = 4,    // xs:boolean
  kNode = 5,    // node reference (preorder rank)
  // Engine-internal: the construction record of a deferred element
  // constructor (Op::deferred) — an element not yet written to the node
  // store, expanded by the enclosing constructor. Never a query value:
  // every operator that inspects a value rejects it.
  kRecord = 6,
};

struct Value {
  ValueKind kind = ValueKind::kInt;
  union {
    int64_t i;
    double d;
    uint64_t node;
    StrId str;
    bool b;
  };

  Value() : i(0) {}

  static Value Int(int64_t v) {
    Value x;
    x.kind = ValueKind::kInt;
    x.i = v;
    return x;
  }
  static Value Double(double v) {
    Value x;
    x.kind = ValueKind::kDouble;
    x.d = v;
    return x;
  }
  static Value Str(StrId v) {
    Value x;
    x.kind = ValueKind::kString;
    x.str = v;
    return x;
  }
  static Value Untyped(StrId v) {
    Value x;
    x.kind = ValueKind::kUntyped;
    x.str = v;
    return x;
  }
  static Value Bool(bool v) {
    Value x;
    x.kind = ValueKind::kBool;
    x.b = v;
    return x;
  }
  static Value Node(uint64_t v) {
    Value x;
    x.kind = ValueKind::kNode;
    x.node = v;
    return x;
  }
  static Value Record(uint64_t v) {
    Value x;
    x.kind = ValueKind::kRecord;
    x.node = v;
    return x;
  }

  // Bit-exact identity (used for hashing plans and grouping), not XQuery
  // value equality — that lives in engine/value.h.
  bool operator==(const Value& other) const {
    if (kind != other.kind) return false;
    switch (kind) {
      case ValueKind::kInt:
        return i == other.i;
      case ValueKind::kDouble:
        return d == other.d;
      case ValueKind::kString:
      case ValueKind::kUntyped:
        return str == other.str;
      case ValueKind::kBool:
        return b == other.b;
      case ValueKind::kNode:
      case ValueKind::kRecord:
        return node == other.node;
    }
    return false;
  }

  uint64_t Hash() const {
    uint64_t h = static_cast<uint64_t>(kind) * 0x9e3779b97f4a7c15ull;
    uint64_t payload;
    switch (kind) {
      case ValueKind::kDouble:
        payload = std::hash<double>{}(d);
        break;
      case ValueKind::kBool:
        payload = b ? 1 : 0;
        break;
      case ValueKind::kString:
      case ValueKind::kUntyped:
        payload = str;
        break;
      default:
        payload = static_cast<uint64_t>(i);
    }
    h ^= payload + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  }
};

}  // namespace exrquy

#endif  // EXRQUY_COMMON_VALUE_H_
