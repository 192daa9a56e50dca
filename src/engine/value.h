// XQuery value semantics over the fixed-width Value type: atomization,
// casts, arithmetic, general-comparison dynamics, effective boolean value
// of single items, the total sort order used by the % primitive, and the
// string rendering used by serialization.
#ifndef EXRQUY_ENGINE_VALUE_H_
#define EXRQUY_ENGINE_VALUE_H_

#include <string>

#include "algebra/algebra.h"
#include "common/status.h"
#include "common/value.h"
#include "xml/node_store.h"

namespace exrquy {

class ValueOps {
 public:
  ValueOps(StrPool* strings, NodeStore* store)
      : strings_(strings), store_(store) {}

  // Node -> xs:untypedAtomic (string-value); atomics unchanged.
  Value Atomize(Value v) const;

  // fn:number / xs:double cast. Errors on non-numeric strings.
  Result<Value> ToDouble(Value v) const;

  // xs:string cast of an atomic (nodes must be atomized first).
  Result<Value> ToString(Value v) const;

  // Arithmetic (operands are atomics; untyped casts to double).
  Result<Value> Arith(FunKind op, Value a, Value b) const;

  // Comparison with the general-comparison casting rules: untyped casts
  // to double against numbers and compares as string otherwise. NaN is
  // unordered: every relation but `ne` is false.
  Result<Value> Compare(FunKind op, Value a, Value b) const;

  // Effective boolean value of a single item.
  bool EbvSingle(Value v) const;

  // Total order used by RowNum sort criteria: numeric < string < boolean
  // < node; numerics by value (NaN equals NaN and sorts below every other
  // number, as XQuery `order by` specifies), strings lexicographically,
  // nodes by preorder rank (document order). Returns <0, 0, >0.
  int OrderCompare(const Value& a, const Value& b) const;

  // The string a value serializes as.
  std::string Render(Value v) const;

  StrPool& strings() const { return *strings_; }
  NodeStore& store() const { return *store_; }

 private:
  StrPool* strings_;
  NodeStore* store_;
};

// Formats a double the way XQuery serializes xs:double values that have
// integral magnitude (no trailing ".000000").
std::string FormatDouble(double v);

}  // namespace exrquy

#endif  // EXRQUY_ENGINE_VALUE_H_
