#include "algebra/algebra.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"

namespace exrquy {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kLit:
      return "Lit";
    case OpKind::kProject:
      return "Project";
    case OpKind::kSelect:
      return "Select";
    case OpKind::kEquiJoin:
      return "EquiJoin";
    case OpKind::kThetaJoin:
      return "ThetaJoin";
    case OpKind::kThetaCount:
      return "ThetaCount";
    case OpKind::kCross:
      return "Cross";
    case OpKind::kUnion:
      return "Union";
    case OpKind::kDifference:
      return "Difference";
    case OpKind::kSemiJoin:
      return "SemiJoin";
    case OpKind::kDistinct:
      return "Distinct";
    case OpKind::kRowNum:
      return "RowNum";
    case OpKind::kRowId:
      return "RowId";
    case OpKind::kFun:
      return "Fun";
    case OpKind::kAggr:
      return "Aggr";
    case OpKind::kStep:
      return "Step";
    case OpKind::kDoc:
      return "Doc";
    case OpKind::kElem:
      return "Elem";
    case OpKind::kAttr:
      return "Attr";
    case OpKind::kTextNode:
      return "TextNode";
    case OpKind::kRange:
      return "Range";
    case OpKind::kCardCheck:
      return "CardCheck";
  }
  return "?";
}

const char* ItemKindName(ItemKind kind) {
  switch (kind) {
    case ItemKind::kInt:
      return "int";
    case ItemKind::kNumeric:
      return "numeric";
    case ItemKind::kString:
      return "string";
    case ItemKind::kBool:
      return "bool";
    case ItemKind::kNode:
      return "node";
    case ItemKind::kAny:
      return "any";
  }
  return "?";
}

bool KindLe(ItemKind a, ItemKind b) {
  if (a == b || b == ItemKind::kAny) return true;
  return a == ItemKind::kInt && b == ItemKind::kNumeric;
}

ItemKind KindJoin(ItemKind a, ItemKind b) {
  if (KindLe(a, b)) return b;
  if (KindLe(b, a)) return a;
  return ItemKind::kAny;
}

bool OneComparisonClass(ItemKind a, ItemKind b) {
  if (a == b) {
    return a == ItemKind::kInt || a == ItemKind::kString ||
           a == ItemKind::kBool;
  }
  return (KindIsNumeric(a) && b == ItemKind::kString) ||
         (a == ItemKind::kString && KindIsNumeric(b));
}

ItemKind KindOfValue(const Value& v) {
  switch (v.kind) {
    case ValueKind::kInt:
      return ItemKind::kInt;
    case ValueKind::kDouble:
      return ItemKind::kNumeric;
    case ValueKind::kString:
    case ValueKind::kUntyped:  // compares in OrderCompare's string class
      return ItemKind::kString;
    case ValueKind::kBool:
      return ItemKind::kBool;
    case ValueKind::kNode:
      return ItemKind::kNode;
    default:
      break;  // no other kind is a query value
  }
  return ItemKind::kAny;
}

namespace {

using K = ItemKind;
using M = OrderMap;

constexpr ByKind<ItemKind> Always(ItemKind k) { return {k, k, k, k, k, k}; }

// An order map over numeric arguments only: OrderCompare is
// type-class-major, so no map is monotone across classes.
constexpr ByKind<OrderMap> OnNumbers(OrderMap on_int, OrderMap on_numeric) {
  return {on_int, on_numeric, M::kNone, M::kNone, M::kNone, M::kNone};
}

// XQuery parameters: item()*, xs:anyAtomicType* (atomized), numeric?
// and xs:double (atomized), xs:string? (atomized and cast, "" if empty).
constexpr Param kItems{Occurs::kMany};
constexpr Param kAtoms{Occurs::kMany, Convert::kAtomize};
constexpr Param kNum{Occurs::kOpt, Convert::kAtomize};
constexpr Param kDbl{Occurs::kOne, Convert::kAtomize};
constexpr Param kStr{Occurs::kOpt, Convert::kString, OnEmpty::kArgEmptyString};

// Indexed by FunKind. Arithmetic yields an integer for integer operands
// and a double otherwise (untypedAtomic casts to xs:double), so only
// idiv is always integral. number() merges integers beyond 2^53; unary
// minus is exact on integers but keeps NaN lowest, so it reverses the
// order of integers only. floor, ceiling and round return integers
// unchanged and merge doubles.
constexpr FunSig kFunSigs[] = {
    {"add", 2, Always(K::kNumeric)},
    {"sub", 2, Always(K::kNumeric)},
    {"mul", 2, Always(K::kNumeric)},
    {"div", 2, Always(K::kNumeric)},
    {"idiv", 2, Always(K::kInt)},
    {"mod", 2, Always(K::kNumeric)},
    {"neg", 1, Always(K::kNumeric), OnNumbers(M::kAnti, M::kNone)},
    {"eq", 2, Always(K::kBool)},
    {"ne", 2, Always(K::kBool)},
    {"lt", 2, Always(K::kBool)},
    {"le", 2, Always(K::kBool)},
    {"gt", 2, Always(K::kBool)},
    {"ge", 2, Always(K::kBool)},
    {"node<<", 2, Always(K::kBool)},
    {"node>>", 2, Always(K::kBool)},
    {"is", 2, Always(K::kBool)},
    {"and", 2, Always(K::kBool)},
    {"or", 2, Always(K::kBool)},
    {"not", 1, Always(K::kBool)},
    // Atomics pass through; a node atomizes to untypedAtomic.
    {"atomize", 1, {K::kInt, K::kNumeric, K::kString, K::kBool, K::kString,
                    K::kAny}, {}, {{"data"}, {kItems}}},
    {"number", 1, Always(K::kNumeric), OnNumbers(M::kMono, M::kMono),
     {{"number"}, {{Occurs::kOpt, Convert::kAtomize, OnEmpty::kArgNaN}}}},
    {"string", 1, Always(K::kString), {},
     {{"string"},
      {{Occurs::kOpt, Convert::kAtomize, OnEmpty::kArgEmptyString}}}},
    {"contains", 2, Always(K::kBool), {}, {{"contains"}, {kStr, kStr}}},
    {"concat", 2, Always(K::kString), {}, {{"concat"}, {kStr, kStr}, true}},
    {"string-length", 1, Always(K::kInt), {}, {{"string-length"}, {kStr}}},
    {"starts-with", 2, Always(K::kBool), {}, {{"starts-with"}, {kStr, kStr}}},
    {"ends-with", 2, Always(K::kBool), {}, {{"ends-with"}, {kStr, kStr}}},
    {"upper-case", 1, Always(K::kString), {}, {{"upper-case"}, {kStr}}},
    {"lower-case", 1, Always(K::kString), {}, {{"lower-case"}, {kStr}}},
    {"normalize-space", 1, Always(K::kString), {},
     {{"normalize-space"}, {kStr}}},
    {"substring", 2, Always(K::kString), {}, {{"substring"}, {kStr, kDbl}}},
    {"substring", 3, Always(K::kString), {},
     {{"substring"}, {kStr, kDbl, kDbl}}},
    {"abs", 1, Always(K::kNumeric), {}, {{"abs"}, {kNum}}},
    {"floor", 1, Always(K::kNumeric), OnNumbers(M::kIso, M::kMono),
     {{"floor"}, {kNum}}},
    {"ceiling", 1, Always(K::kNumeric), OnNumbers(M::kIso, M::kMono),
     {{"ceiling"}, {kNum}}},
    {"round", 1, Always(K::kNumeric), OnNumbers(M::kIso, M::kMono),
     {{"round"}, {kNum}}},
    {"name", 1, Always(K::kString), {},
     {{"name", "local-name"},
      {{Occurs::kOpt, Convert::kNone, OnEmpty::kResultEmptyString}}}},
};
static_assert(std::size(kFunSigs) ==
              static_cast<size_t>(FunKind::kNodeName) + 1);

// Indexed by AggrKind. max and min return a value of the group (an
// integer for integers), except that untypedAtomic values are cast to
// xs:double: a string-class or node input may yield a number.
constexpr AggrSig kAggrSigs[] = {
    {"count", Always(K::kInt),
     {{"count"}, {{Occurs::kMany, Convert::kNone, OnEmpty::kResultZero}}}},
    {"sum", Always(K::kNumeric),
     {{"sum"}, {{Occurs::kMany, Convert::kAtomize, OnEmpty::kResultZero}}}},
    {"max", {K::kInt, K::kNumeric, K::kAny, K::kBool, K::kAny, K::kAny},
     {{"max"}, {kAtoms}}},
    {"min", {K::kInt, K::kNumeric, K::kAny, K::kBool, K::kAny, K::kAny},
     {{"min"}, {kAtoms}}},
    {"avg", Always(K::kNumeric), {{"avg"}, {kAtoms}}},
    {"ebv", Always(K::kBool)},
    {"str-join", Always(K::kString)},
};
static_assert(std::size(kAggrSigs) ==
              static_cast<size_t>(AggrKind::kStrJoin) + 1);

}  // namespace

const FunSig& Signature(FunKind kind) {
  return kFunSigs[static_cast<size_t>(kind)];
}

const AggrSig& Signature(AggrKind kind) {
  return kAggrSigs[static_cast<size_t>(kind)];
}

bool Op::HasCol(ColId c) const {
  return std::find(schema.begin(), schema.end(), c) != schema.end();
}

namespace {

void HashMix(uint64_t* h, uint64_t v) {
  *h ^= v + 0x9e3779b97f4a7c15ull + (*h << 6) + (*h >> 2);
}

bool SameColSet(const std::vector<ColId>& a, const std::vector<ColId>& b) {
  if (a.size() != b.size()) return false;
  std::vector<ColId> sa = a;
  std::vector<ColId> sb = b;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  return sa == sb;
}

}  // namespace

uint64_t Dag::HashOp(const Op& op) const {
  uint64_t h = 1469598103934665603ull;
  HashMix(&h, static_cast<uint64_t>(op.kind));
  for (OpId c : op.children) HashMix(&h, c);
  for (const auto& [n, o] : op.proj) {
    HashMix(&h, n);
    HashMix(&h, o);
  }
  HashMix(&h, op.col);
  HashMix(&h, op.col2);
  for (const SortKey& k : op.order) {
    HashMix(&h, k.col);
    HashMix(&h, k.descending ? 1 : 0);
  }
  HashMix(&h, op.part);
  for (ColId c : op.keys) HashMix(&h, c);
  HashMix(&h, op.positional ? 1 : 0);
  HashMix(&h, op.presorted ? 1 : 0);
  HashMix(&h, op.value_join ? 1 : 0);
  HashMix(&h, op.deferred ? 1 : 0);
  HashMix(&h, static_cast<uint64_t>(op.fun));
  for (ColId c : op.args) HashMix(&h, c);
  HashMix(&h, static_cast<uint64_t>(op.aggr));
  HashMix(&h, static_cast<uint64_t>(op.axis));
  HashMix(&h, static_cast<uint64_t>(op.test.kind));
  HashMix(&h, op.test.name);
  HashMix(&h, op.name);
  HashMix(&h, op.constructor_id);
  HashMix(&h, static_cast<uint64_t>(op.min_card));
  HashMix(&h, static_cast<uint64_t>(op.max_card));
  for (ColId c : op.lit.cols) HashMix(&h, c);
  for (const auto& row : op.lit.rows) {
    for (const Value& v : row) HashMix(&h, v.Hash());
  }
  return h;
}

bool Dag::OpEquals(const Op& a, const Op& b) const {
  return a.children == b.children && SamePayload(a, b);
}

bool SamePayload(const Op& a, const Op& b) {
  if (a.min_card != b.min_card || a.max_card != b.max_card) return false;
  return a.kind == b.kind && a.proj == b.proj &&
         a.col == b.col && a.col2 == b.col2 && a.order == b.order &&
         a.part == b.part && a.keys == b.keys &&
         a.positional == b.positional && a.presorted == b.presorted &&
         a.value_join == b.value_join &&
         a.deferred == b.deferred &&
         a.fun == b.fun &&
         a.args == b.args && a.aggr == b.aggr && a.axis == b.axis &&
         a.test == b.test && a.name == b.name &&
         a.constructor_id == b.constructor_id && a.lit == b.lit;
}

std::vector<ColId> Dag::ComputeSchema(const Op& op) const {
  auto child_schema = [&](size_t i) -> const std::vector<ColId>& {
    EXRQUY_CHECK(i < op.children.size());
    return ops_[op.children[i]]->schema;
  };
  auto require_col = [&](size_t child, ColId c) {
    EXRQUY_CHECK(ops_[op.children[child]]->HasCol(c));
  };

  switch (op.kind) {
    case OpKind::kLit:
      return op.lit.cols;
    case OpKind::kProject: {
      std::vector<ColId> out;
      for (const auto& [n, o] : op.proj) {
        require_col(0, o);
        EXRQUY_CHECK(std::find(out.begin(), out.end(), n) == out.end());
        out.push_back(n);
      }
      return out;
    }
    case OpKind::kSelect:
      require_col(0, op.col);
      return child_schema(0);
    case OpKind::kEquiJoin:
    case OpKind::kThetaJoin: {
      require_col(0, op.col);
      require_col(1, op.col2);
      std::vector<ColId> out = child_schema(0);
      for (ColId c : child_schema(1)) {
        EXRQUY_CHECK(std::find(out.begin(), out.end(), c) == out.end());
        out.push_back(c);
      }
      return out;
    }
    case OpKind::kThetaCount: {
      EXRQUY_CHECK(op.keys.size() == 2);
      require_col(0, op.keys[0]);
      require_col(1, op.keys[1]);
      // The group and the counted column sit on opposite sides.
      size_t g = ops_[op.children[0]]->HasCol(op.part) ? 0 : 1;
      require_col(g, op.part);
      require_col(1 - g, op.col2);
      EXRQUY_CHECK(op.col != op.part);
      return {op.part, op.col};
    }
    case OpKind::kCross: {
      std::vector<ColId> out = child_schema(0);
      for (ColId c : child_schema(1)) {
        EXRQUY_CHECK(std::find(out.begin(), out.end(), c) == out.end());
        out.push_back(c);
      }
      return out;
    }
    case OpKind::kUnion:
      EXRQUY_CHECK(SameColSet(child_schema(0), child_schema(1)));
      return child_schema(0);
    case OpKind::kDifference:
    case OpKind::kSemiJoin:
      for (ColId c : op.keys) {
        require_col(0, c);
        require_col(1, c);
      }
      return child_schema(0);
    case OpKind::kDistinct:
      return child_schema(0);
    case OpKind::kRowNum: {
      for (const SortKey& k : op.order) require_col(0, k.col);
      if (op.part != kNoCol) require_col(0, op.part);
      std::vector<ColId> out = child_schema(0);
      EXRQUY_CHECK(std::find(out.begin(), out.end(), op.col) == out.end());
      out.push_back(op.col);
      return out;
    }
    case OpKind::kRowId: {
      std::vector<ColId> out = child_schema(0);
      EXRQUY_CHECK(std::find(out.begin(), out.end(), op.col) == out.end());
      out.push_back(op.col);
      return out;
    }
    case OpKind::kFun: {
      for (ColId c : op.args) require_col(0, c);
      std::vector<ColId> out = child_schema(0);
      EXRQUY_CHECK(std::find(out.begin(), out.end(), op.col) == out.end());
      out.push_back(op.col);
      return out;
    }
    case OpKind::kAggr: {
      if (op.aggr != AggrKind::kCount) require_col(0, op.col2);
      for (ColId c : op.keys) require_col(0, c);  // intra-group order
      std::vector<ColId> out;
      if (op.part != kNoCol) {
        require_col(0, op.part);
        out.push_back(op.part);
      }
      out.push_back(op.col);
      return out;
    }
    case OpKind::kStep:
      require_col(0, col::iter());
      require_col(0, col::item());
      return {col::iter(), col::item()};
    case OpKind::kDoc:
      return {col::item()};
    case OpKind::kElem:
    case OpKind::kAttr:
    case OpKind::kTextNode:
      // children: [content, loop]; content has (iter, pos, item), loop
      // has iter.
      require_col(0, col::iter());
      require_col(0, col::pos());
      require_col(0, col::item());
      require_col(1, col::iter());
      return {col::iter(), col::item()};
    case OpKind::kRange:
      require_col(0, col::iter());
      require_col(0, op.col);
      require_col(0, op.col2);
      return {col::iter(), col::item()};
    case OpKind::kCardCheck:
      require_col(0, col::iter());
      require_col(1, col::iter());
      return child_schema(0);
  }
  EXRQUY_CHECK(false);
  return {};
}

OpId Dag::Add(Op op) {
  uint64_t h = HashOp(op);
  auto [lo, hi] = index_.equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    if (OpEquals(*ops_[it->second], op)) return it->second;
  }
  op.schema = ComputeSchema(op);
  OpId id = static_cast<OpId>(ops_.size());
  ops_.push_back(std::make_unique<Op>(std::move(op)));
  index_.emplace(h, id);
  return id;
}

OpId Dag::AddUnchecked(Op op, std::vector<ColId> schema) {
  op.schema = std::move(schema);
  OpId id = static_cast<OpId>(ops_.size());
  // Deliberately not entered into the hash-cons index: malformed ops must
  // never be returned by the builders.
  ops_.push_back(std::make_unique<Op>(std::move(op)));
  return id;
}

OpId Dag::Lit(LitTable table) {
  Op op;
  op.kind = OpKind::kLit;
#ifndef NDEBUG
  for (const auto& row : table.rows) EXRQUY_CHECK(row.size() == table.cols.size());
#endif
  op.lit = std::move(table);
  return Add(std::move(op));
}

OpId Dag::Empty(std::vector<ColId> cols) {
  LitTable t;
  t.cols = std::move(cols);
  return Lit(std::move(t));
}

OpId Dag::Project(OpId child, std::vector<std::pair<ColId, ColId>> proj) {
  Op op;
  op.kind = OpKind::kProject;
  op.children = {child};
  op.proj = std::move(proj);
  return Add(std::move(op));
}

OpId Dag::Select(OpId child, ColId col) {
  Op op;
  op.kind = OpKind::kSelect;
  op.children = {child};
  op.col = col;
  return Add(std::move(op));
}

OpId Dag::EquiJoin(OpId left, OpId right, ColId left_col, ColId right_col) {
  Op op;
  op.kind = OpKind::kEquiJoin;
  op.children = {left, right};
  op.col = left_col;
  op.col2 = right_col;
  return Add(std::move(op));
}

OpId Dag::ValueJoin(OpId left, OpId right, ColId left_col, ColId right_col) {
  Op op;
  op.kind = OpKind::kEquiJoin;
  op.children = {left, right};
  op.col = left_col;
  op.col2 = right_col;
  op.value_join = true;
  return Add(std::move(op));
}

OpId Dag::ThetaJoin(OpId left, OpId right, ColId left_col, FunKind cmp,
                    ColId right_col) {
  EXRQUY_CHECK(cmp == FunKind::kEq || cmp == FunKind::kNe ||
               cmp == FunKind::kLt || cmp == FunKind::kLe ||
               cmp == FunKind::kGt || cmp == FunKind::kGe);
  Op op;
  op.kind = OpKind::kThetaJoin;
  op.children = {left, right};
  op.col = left_col;
  op.col2 = right_col;
  op.fun = cmp;
  op.value_join = true;
  return Add(std::move(op));
}

OpId Dag::ThetaCount(OpId left, OpId right, ColId left_key, FunKind cmp,
                     ColId right_key, ColId group, ColId counted,
                     ColId result) {
  EXRQUY_CHECK(cmp == FunKind::kLt || cmp == FunKind::kLe ||
               cmp == FunKind::kGt || cmp == FunKind::kGe);
  Op op;
  op.kind = OpKind::kThetaCount;
  op.children = {left, right};
  op.keys = {left_key, right_key};
  op.fun = cmp;
  op.part = group;
  op.col2 = counted;
  op.col = result;
  return Add(std::move(op));
}

OpId Dag::Cross(OpId left, OpId right) {
  Op op;
  op.kind = OpKind::kCross;
  op.children = {left, right};
  return Add(std::move(op));
}

OpId Dag::AttachConst(OpId child, ColId col, Value value) {
  LitTable t;
  t.cols = {col};
  t.rows = {{value}};
  return Cross(child, Lit(std::move(t)));
}

OpId Dag::Union(OpId left, OpId right) {
  Op op;
  op.kind = OpKind::kUnion;
  op.children = {left, right};
  return Add(std::move(op));
}

OpId Dag::Difference(OpId left, OpId right, std::vector<ColId> keys) {
  Op op;
  op.kind = OpKind::kDifference;
  op.children = {left, right};
  op.keys = std::move(keys);
  return Add(std::move(op));
}

OpId Dag::SemiJoin(OpId left, OpId right, std::vector<ColId> keys) {
  Op op;
  op.kind = OpKind::kSemiJoin;
  op.children = {left, right};
  op.keys = std::move(keys);
  return Add(std::move(op));
}

OpId Dag::Distinct(OpId child) {
  Op op;
  op.kind = OpKind::kDistinct;
  op.children = {child};
  return Add(std::move(op));
}

Result<Callee> FindCallee(std::string_view name, size_t nargs) {
  Callee out;
  bool named = false;
  auto consider = [&](const CallSig& call, Callee c) {
    for (const char* s : call.names) {
      if (s == nullptr || name != s) continue;
      named = true;
      if (nargs == c.arity || (call.variadic && nargs > c.arity)) {
        out = c;
        out.call = &call;
      }
    }
  };
  for (size_t f = 0; f <= static_cast<size_t>(FunKind::kNodeName); ++f) {
    const FunSig& sig = Signature(static_cast<FunKind>(f));
    consider(sig.call, {nullptr, sig.arity, false, static_cast<FunKind>(f)});
  }
  for (size_t a = 0; a <= static_cast<size_t>(AggrKind::kStrJoin); ++a) {
    consider(Signature(static_cast<AggrKind>(a)).call,
             {nullptr, 1, true, FunKind::kAdd, static_cast<AggrKind>(a)});
  }
  if (named && out.call == nullptr) {
    return TypeError("fn:" + std::string(name) +
                     ": wrong number of arguments");
  }
  return out;
}

std::vector<SortKey> RowNumSortKeys(const Op& op) {
  std::vector<SortKey> keys;
  if (op.part != kNoCol) keys.push_back({op.part, false});
  keys.insert(keys.end(), op.order.begin(), op.order.end());
  return keys;
}

OpId Dag::RowNum(OpId child, ColId result, std::vector<SortKey> order,
                 ColId part, bool presorted) {
  Op op;
  op.kind = OpKind::kRowNum;
  op.children = {child};
  op.col = result;
  op.order = std::move(order);
  op.part = part;
  op.presorted = presorted;
  return Add(std::move(op));
}

OpId Dag::RowId(OpId child, ColId result, bool positional) {
  Op op;
  op.kind = OpKind::kRowId;
  op.children = {child};
  op.col = result;
  op.positional = positional;
  return Add(std::move(op));
}

OpId Dag::Fun(OpId child, FunKind fun, ColId result,
              std::vector<ColId> args) {
  Op op;
  op.kind = OpKind::kFun;
  op.children = {child};
  op.fun = fun;
  op.col = result;
  op.args = std::move(args);
  return Add(std::move(op));
}

OpId Dag::Aggr(OpId child, AggrKind aggr, ColId result, ColId arg,
               ColId part, ColId order_col) {
  Op op;
  op.kind = OpKind::kAggr;
  op.children = {child};
  op.aggr = aggr;
  op.col = result;
  op.col2 = arg;
  op.part = part;
  if (order_col != kNoCol) op.keys = {order_col};
  return Add(std::move(op));
}

OpId Dag::AggrStrJoin(OpId child, ColId result, ColId arg, ColId part,
                      ColId order_col, StrId separator) {
  Op op;
  op.kind = OpKind::kAggr;
  op.children = {child};
  op.aggr = AggrKind::kStrJoin;
  op.col = result;
  op.col2 = arg;
  op.part = part;
  if (order_col != kNoCol) op.keys = {order_col};
  op.name = separator;
  return Add(std::move(op));
}

OpId Dag::Range(OpId child, ColId lo, ColId hi) {
  Op op;
  op.kind = OpKind::kRange;
  op.children = {child};
  op.col = lo;
  op.col2 = hi;
  return Add(std::move(op));
}

OpId Dag::CardCheck(OpId child, OpId loop, int64_t min_card,
                    int64_t max_card, StrId fn_name) {
  Op op;
  op.kind = OpKind::kCardCheck;
  op.children = {child, loop};
  op.min_card = min_card;
  op.max_card = max_card;
  op.name = fn_name;
  return Add(std::move(op));
}

OpId Dag::Step(OpId child, Axis axis, NodeTest test) {
  Op op;
  op.kind = OpKind::kStep;
  op.children = {child};
  op.axis = axis;
  op.test = test;
  return Add(std::move(op));
}

OpId Dag::Doc(StrId name) {
  Op op;
  op.kind = OpKind::kDoc;
  op.name = name;
  return Add(std::move(op));
}

OpId Dag::Elem(StrId name, OpId content, OpId loop) {
  Op op;
  op.kind = OpKind::kElem;
  op.children = {content, loop};
  op.name = name;
  op.constructor_id = next_constructor_id_++;
  return Add(std::move(op));
}

OpId Dag::Attr(StrId name, OpId value, OpId loop) {
  Op op;
  op.kind = OpKind::kAttr;
  op.children = {value, loop};
  op.name = name;
  op.constructor_id = next_constructor_id_++;
  return Add(std::move(op));
}

OpId Dag::Text(OpId content, OpId loop) {
  Op op;
  op.kind = OpKind::kTextNode;
  op.children = {content, loop};
  op.constructor_id = next_constructor_id_++;
  return Add(std::move(op));
}

ColId Dag::FreshCol(std::string_view base) {
  std::string name(base);
  name += '$';
  name += std::to_string(++fresh_cols_);
  return ColSym(name);
}

void Dag::SetProv(OpId id, std::string prov) {
  if (ops_[id]->prov.empty()) ops_[id]->prov = std::move(prov);
}

std::vector<OpId> Dag::ReachableFrom(OpId root) const {
  std::vector<bool> seen(ops_.size(), false);
  std::vector<OpId> stack = {root};
  seen[root] = true;
  while (!stack.empty()) {
    OpId id = stack.back();
    stack.pop_back();
    for (OpId c : ops_[id]->children) {
      if (!seen[c]) {
        seen[c] = true;
        stack.push_back(c);
      }
    }
  }
  std::vector<OpId> out;
  for (OpId id = 0; id < ops_.size(); ++id) {
    if (seen[id]) out.push_back(id);  // ids are topologically ordered
  }
  return out;
}

}  // namespace exrquy
