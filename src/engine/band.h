// Kernels for value comparisons between two key columns: the ThetaJoin
// pair loop and the count() fused through it (ThetaCount).
//
// ValueOps::Compare decides each pair by the operands' kinds: int/int
// exactly, other numeric pairs through doubles (an untypedAtomic operand
// cast to xs:double), string-class pairs (xs:string, xs:untypedAtomic)
// by code points, bool/bool; every other pair raises. Each key is cast
// once into these classes (BandKey), so deciding a pair (ComparePair)
// takes no Compare call and no per-pair untyped cast. Within each class
// the relations are a total order once NaN is unordered (it satisfies
// only `ne`), which is what lets ThetaCount count by extremes.
#ifndef EXRQUY_ENGINE_BAND_H_
#define EXRQUY_ENGINE_BAND_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "algebra/algebra.h"
#include "common/status.h"
#include "common/value.h"
#include "engine/key_groups.h"
#include "engine/table.h"
#include "engine/value.h"

namespace exrquy {

// One comparison key, cast once.
struct BandKey {
  ValueKind kind = ValueKind::kInt;
  bool castable = false;  // kUntyped: the xs:double cast succeeded
  int64_t i = 0;          // kInt
  double d = 0;           // kInt (converted), kDouble, castable kUntyped
  bool b = false;         // kBool
  std::string_view s;     // kString, kUntyped
};

BandKey ClassifyKey(const ValueOps& ops, const Value& v);

enum class PairOutcome : uint8_t { kFalse, kTrue, kRaises };

// `l cmp r` exactly as ValueOps::Compare decides it on the uncast values;
// kRaises where Compare returns an error. Whether a pair raises depends
// only on the two keys' kinds and untyped castability.
PairOutcome ComparePair(FunKind cmp, const BandKey& l, const BandKey& r);

// A key column cast once, shared read-only by every morsel of a
// ThetaJoin, with the first row of each kind of key so that the first
// row raising against a given key is found without a scan.
class BandKeys {
 public:
  BandKeys(const ValueOps& ops, const Column& keys, size_t rows);

  size_t size() const { return keys_.size(); }
  const BandKey& operator[](size_t r) const { return keys_[r]; }
  const std::vector<BandKey>& keys() const { return keys_; }

  // The first row r whose `l cmp r` raises, or size() when none does.
  size_t FirstFailure(FunKind cmp, const BandKey& l) const;

 private:
  std::vector<BandKey> keys_;
  // First row per ValueKind, plus uncastable kUntyped last (size() when
  // absent); the castable kUntyped slot holds castable rows only.
  std::array<size_t, 7> first_;
};

// The ThetaCount kernel: for `left_keys[i] cmp right_keys[j]` (cmp in
// kLt..kGe), counts per group of `groups` (a column of the left side
// when `group_left`, else of the right) the distinct `counted` values of
// the other side with a matching pair. Emits one (group, count) row per
// group with a match, in the order the groups first appear in the
// left-major pair stream — exactly Aggr count|g (Distinct (π g,g2
// (ThetaJoin))), whose Distinct and Aggr group by the same KeyGroups.
// A comparison error is the one that ThetaJoin raises. Every pair must
// compare in one class (the rewrite's static gate, OneComparisonClass);
// other inputs are an Internal error. A side of more than `max_rows`
// rows fails with kResourceExhausted.
Status ThetaCountKernel(const ValueOps& ops, FunKind cmp,
                        const Column& left_keys, size_t left_rows,
                        const Column& right_keys, size_t right_rows,
                        const Column& groups, const Column& counted,
                        bool group_left, Column* out_groups,
                        Column* out_counts, size_t max_rows = kMaxRows);

}  // namespace exrquy

#endif  // EXRQUY_ENGINE_BAND_H_
