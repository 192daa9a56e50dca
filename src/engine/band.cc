#include "engine/band.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

namespace exrquy {
namespace {

PairOutcome Holds(FunKind cmp, int c) {
  bool holds = false;
  switch (cmp) {
    case FunKind::kEq:
      holds = c == 0;
      break;
    case FunKind::kNe:
      holds = c != 0;
      break;
    case FunKind::kLt:
      holds = c < 0;
      break;
    case FunKind::kLe:
      holds = c <= 0;
      break;
    case FunKind::kGt:
      holds = c > 0;
      break;
    case FunKind::kGe:
      holds = c >= 0;
      break;
    default:
      break;
  }
  return holds ? PairOutcome::kTrue : PairOutcome::kFalse;
}

template <typename T>
int ThreeWay(const T& a, const T& b) {
  return a < b ? -1 : (b < a ? 1 : 0);
}

bool IsNumericKind(ValueKind k) {
  return k == ValueKind::kInt || k == ValueKind::kDouble;
}

bool IsStringKind(ValueKind k) {
  return k == ValueKind::kString || k == ValueKind::kUntyped;
}

// BandKeys::first_ slot of a key.
size_t Category(const BandKey& k) {
  return k.kind == ValueKind::kUntyped && !k.castable
             ? 6
             : static_cast<size_t>(k.kind);
}

}  // namespace

BandKey ClassifyKey(const ValueOps& ops, const Value& v) {
  BandKey k;
  k.kind = v.kind;
  switch (v.kind) {
    case ValueKind::kInt:
      k.i = v.i;
      k.d = static_cast<double>(v.i);
      break;
    case ValueKind::kDouble:
      k.d = v.d;
      break;
    case ValueKind::kString:
      k.s = ops.strings().Get(v.str);
      break;
    case ValueKind::kUntyped: {
      k.s = ops.strings().Get(v.str);
      Result<Value> d = ops.ToDouble(v);
      if (d.ok()) {
        k.castable = true;
        k.d = d.value().d;
      }
      break;
    }
    case ValueKind::kBool:
      k.b = v.b;
      break;
    case ValueKind::kNode:
    case ValueKind::kRecord:
      break;
  }
  return k;
}

PairOutcome ComparePair(FunKind cmp, const BandKey& l, const BandKey& r) {
  if (l.kind == ValueKind::kInt && r.kind == ValueKind::kInt) {
    return Holds(cmp, ThreeWay(l.i, r.i));
  }
  // General-comparison casting: an untyped operand beside a number
  // compares as its xs:double.
  const bool ln = IsNumericKind(l.kind) ||
                  (l.kind == ValueKind::kUntyped && IsNumericKind(r.kind));
  const bool rn = IsNumericKind(r.kind) ||
                  (r.kind == ValueKind::kUntyped && IsNumericKind(l.kind));
  if (ln && rn) {
    if ((l.kind == ValueKind::kUntyped && !l.castable) ||
        (r.kind == ValueKind::kUntyped && !r.castable)) {
      return PairOutcome::kRaises;
    }
    if (std::isnan(l.d) || std::isnan(r.d)) {
      return cmp == FunKind::kNe ? PairOutcome::kTrue : PairOutcome::kFalse;
    }
    return Holds(cmp, ThreeWay(l.d, r.d));
  }
  if (IsStringKind(l.kind) && IsStringKind(r.kind)) {
    return Holds(cmp, ThreeWay(l.s, r.s));
  }
  if (l.kind == ValueKind::kBool && r.kind == ValueKind::kBool) {
    return Holds(cmp, ThreeWay(l.b, r.b));
  }
  return PairOutcome::kRaises;  // nodes and incomparable kinds
}

BandKeys::BandKeys(const ValueOps& ops, const Column& keys, size_t rows) {
  first_.fill(rows);
  keys_.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    keys_.push_back(ClassifyKey(ops, keys[r]));
    size_t& first = first_[Category(keys_.back())];
    if (first == rows) first = r;
  }
}

size_t BandKeys::FirstFailure(FunKind cmp, const BandKey& l) const {
  size_t failure = size();
  for (size_t r : first_) {
    if (r < failure && ComparePair(cmp, l, keys_[r]) == PairOutcome::kRaises) {
      failure = r;
    }
  }
  return failure;
}

namespace {

// One ThetaCount input side: keys cast once, rows grouped by a column
// into dense ids in first-appearance order.
struct CountSide {
  CountSide(const ValueOps& ops, const Column& key_col, size_t rows,
            size_t max_rows)
      : keys(ops, key_col, rows), groups(max_rows) {}

  BandKeys keys;
  KeyGroups groups;
};

// Which totally ordered class a pair of (comparable) kinds compares in.
enum : uint8_t {
  kIntClass = 1,
  kDoubleClass = 2,
  kStringClass = 4,
  kBoolClass = 8,
};

uint8_t PairClass(ValueKind a, ValueKind b) {
  if (a == ValueKind::kInt && b == ValueKind::kInt) return kIntClass;
  if ((IsNumericKind(a) && (IsNumericKind(b) || b == ValueKind::kUntyped)) ||
      (a == ValueKind::kUntyped && IsNumericKind(b))) {
    return kDoubleClass;
  }
  if (IsStringKind(a) && IsStringKind(b)) return kStringClass;
  return kBoolClass;  // every other comparable pair is bool/bool
}

// Counting by extremes, for inputs whose every pair compares in one
// totally ordered class. Let X be the side that must compare below
// (left for lt/le, right for gt/ge) and Y the other: a pair matches iff
// key(x) < key(y) (<= for le/ge), so a group A of X and a group B of Y
// have a matching pair iff min A < max B — no pair is ever built.
// `key` extracts a key; it returns nullopt for NaN, which matches no
// order relation.
template <typename K, typename KeyOf>
void CountByExtremes(FunKind cmp, const CountSide& left,
                     const CountSide& right, bool group_left, KeyOf key,
                     std::vector<uint32_t>* order,
                     std::vector<int64_t>* counts) {
  const bool x_left = cmp == FunKind::kLt || cmp == FunKind::kLe;
  const bool strict = cmp == FunKind::kLt || cmp == FunKind::kGt;
  const CountSide& xs = x_left ? left : right;
  const CountSide& ys = x_left ? right : left;
  // "a below b" in the relation's sense.
  auto below = [strict](const K& a, const K& b) {
    return strict ? a < b : a <= b;
  };

  std::vector<std::optional<K>> xmin(xs.groups.size());
  std::vector<std::optional<K>> ymax(ys.groups.size());
  for (size_t r = 0; r < xs.keys.size(); ++r) {
    std::optional<K> k = key(xs.keys[r]);
    std::optional<K>& m = xmin[xs.groups.group_of(r)];
    if (k && (!m || *k < *m)) m = k;
  }
  for (size_t r = 0; r < ys.keys.size(); ++r) {
    std::optional<K> k = key(ys.keys[r]);
    std::optional<K>& m = ymax[ys.groups.group_of(r)];
    if (k && (!m || *m < *k)) m = k;
  }

  // Per group of the grouped side: how many far-side groups it matches,
  // by one binary search in the far side's sorted extremes.
  const bool group_x = group_left == x_left;
  std::vector<K> far;
  for (const std::optional<K>& e : group_x ? ymax : xmin) {
    if (e) far.push_back(*e);
  }
  std::sort(far.begin(), far.end());
  const std::vector<std::optional<K>>& near = group_x ? xmin : ymax;
  counts->assign(near.size(), 0);
  for (size_t g = 0; g < near.size(); ++g) {
    if (!near[g]) continue;
    const K& v = *near[g];
    if (group_x) {  // far maxima above v
      auto it = strict ? std::upper_bound(far.begin(), far.end(), v)
                       : std::lower_bound(far.begin(), far.end(), v);
      (*counts)[g] = far.end() - it;
    } else {  // far minima below v
      auto it = strict ? std::lower_bound(far.begin(), far.end(), v)
                       : std::upper_bound(far.begin(), far.end(), v);
      (*counts)[g] = it - far.begin();
    }
  }

  // First-appearance order in the left-major pair stream: a group first
  // appears with its earliest pair (left row, right row).
  constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();
  std::vector<uint64_t> first(near.size(), kNever);
  if (group_left) {
    // A left row takes part in some pair iff it lies below the largest
    // Y key (x_left) or above the smallest X key.
    std::optional<K> bound;
    for (const std::optional<K>& e : x_left ? ymax : xmin) {
      if (e && (!bound || (x_left ? *bound < *e : *e < *bound))) bound = e;
    }
    for (size_t i = 0; bound && i < left.keys.size(); ++i) {
      std::optional<K> k = key(left.keys[i]);
      if (!k || !(x_left ? below(*k, *bound) : below(*bound, *k))) continue;
      uint64_t& f = first[left.groups.group_of(i)];
      f = std::min<uint64_t>(f, i);
    }
  } else {
    // Right row j's earliest partner is the smallest left row id among
    // the left keys below (x_left) or above key(j): a prefix or suffix
    // of the left keys in sorted order, so prefix/suffix minima of the
    // row ids answer it with one binary search.
    std::vector<std::pair<K, uint32_t>> ls;
    for (size_t i = 0; i < left.keys.size(); ++i) {
      if (std::optional<K> k = key(left.keys[i])) {
        ls.emplace_back(*k, static_cast<uint32_t>(i));
      }
    }
    std::sort(ls.begin(), ls.end());
    const size_t n = ls.size();
    constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
    // best[p]: the smallest row id among ls[0, p) (x_left) or ls[p, n).
    std::vector<uint32_t> best(n + 1, kNone);
    if (x_left) {
      for (size_t p = 0; p < n; ++p) {
        best[p + 1] = std::min(best[p], ls[p].second);
      }
    } else {
      for (size_t p = n; p-- > 0;) best[p] = std::min(best[p + 1], ls[p].second);
    }
    auto key_less = [](const std::pair<K, uint32_t>& e, const K& v) {
      return e.first < v;
    };
    auto less_key = [](const K& v, const std::pair<K, uint32_t>& e) {
      return v < e.first;
    };
    for (size_t j = 0; j < right.keys.size(); ++j) {
      std::optional<K> k = key(right.keys[j]);
      if (!k) continue;
      auto lo = std::lower_bound(ls.begin(), ls.end(), *k, key_less);
      auto hi = std::upper_bound(ls.begin(), ls.end(), *k, less_key);
      // Left keys below k end at lo (strict) or hi; those above start at
      // hi (strict) or lo.
      size_t p = static_cast<size_t>(
          ((x_left == strict) ? lo : hi) - ls.begin());
      uint32_t i = best[p];
      if (i == kNone) continue;
      uint64_t pos = (static_cast<uint64_t>(i) << 32) | j;
      uint64_t& f = first[right.groups.group_of(j)];
      f = std::min(f, pos);
    }
  }
  for (size_t g = 0; g < near.size(); ++g) {
    if ((*counts)[g] > 0) order->push_back(static_cast<uint32_t>(g));
  }
  std::sort(order->begin(), order->end(),
            [&](uint32_t a, uint32_t b) { return first[a] < first[b]; });
}

}  // namespace

Status ThetaCountKernel(const ValueOps& ops, FunKind cmp,
                        const Column& left_keys, size_t left_rows,
                        const Column& right_keys, size_t right_rows,
                        const Column& groups, const Column& counted,
                        bool group_left, Column* out_groups,
                        Column* out_counts, size_t max_rows) {
  if (left_rows == 0 || right_rows == 0) return Status::Ok();  // no pairs
  CountSide left(ops, left_keys, left_rows, max_rows);
  CountSide right(ops, right_keys, right_rows, max_rows);
  EXRQUY_RETURN_IF_ERROR(
      left.groups.Build({group_left ? &groups : &counted}, left_rows));
  EXRQUY_RETURN_IF_ERROR(
      right.groups.Build({group_left ? &counted : &groups}, right_rows));
  // The ThetaJoin's error: its first failing pair in left-major order.
  for (size_t i = 0; i < left_rows; ++i) {
    size_t j = right.keys.FirstFailure(cmp, left.keys[i]);
    if (j < right_rows) {
      Result<Value> v = ops.Compare(cmp, left_keys[i], right_keys[j]);
      if (v.ok()) return Internal("ThetaCount: failing pair compared");
      return v.status();
    }
  }

  // The comparison classes the pairs fall in.
  auto kinds = [](const CountSide& s) {
    uint32_t mask = 0;
    for (const BandKey& k : s.keys.keys()) mask |= 1u << static_cast<int>(k.kind);
    return mask;
  };
  const uint32_t lmask = kinds(left);
  const uint32_t rmask = kinds(right);
  uint8_t classes = 0;
  for (int a = 0; a < 8; ++a) {
    if ((lmask & (1u << a)) == 0) continue;
    for (int b = 0; b < 8; ++b) {
      if ((rmask & (1u << b)) == 0) continue;
      classes |= PairClass(static_cast<ValueKind>(a), static_cast<ValueKind>(b));
    }
  }

  const KeyGroups& gside = group_left ? left.groups : right.groups;
  std::vector<uint32_t> order;
  std::vector<int64_t> counts;
  switch (classes) {
    case kIntClass:
      CountByExtremes<int64_t>(
          cmp, left, right, group_left,
          [](const BandKey& k) { return std::optional<int64_t>(k.i); },
          &order, &counts);
      break;
    case kDoubleClass:
      CountByExtremes<double>(
          cmp, left, right, group_left,
          [](const BandKey& k) {
            return std::isnan(k.d) ? std::nullopt : std::optional<double>(k.d);
          },
          &order, &counts);
      break;
    case kStringClass:
      CountByExtremes<std::string_view>(
          cmp, left, right, group_left,
          [](const BandKey& k) { return std::optional<std::string_view>(k.s); },
          &order, &counts);
      break;
    case kBoolClass:
      CountByExtremes<bool>(
          cmp, left, right, group_left,
          [](const BandKey& k) { return std::optional<bool>(k.b); }, &order,
          &counts);
      break;
    default:
      // Pairs in several classes (an untypedAtomic key compares as a
      // string with one partner and as a double with another) have no
      // single order to take extremes in.
      return Internal("ThetaCount: pairs compare in several classes");
  }
  for (uint32_t g : order) {
    out_groups->push_back(groups[gside.reps()[g]]);
    out_counts->push_back(Value::Int(counts[g]));
  }
  return Status::Ok();
}

}  // namespace exrquy
