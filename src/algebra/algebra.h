// The compilation target: the restricted relational algebra of Table 1.
//
//   π   Project          — column projection/renaming, keeps duplicates
//   σ   Select           — rows whose boolean column is true
//   ⋈   EquiJoin         — equi-join on one column pair
//       ThetaCount       — count() fused through a value ThetaJoin: per
//                          group, the number of distinct far-side groups
//                          with a matching pair; no pair is built
//   ×   Cross            — Cartesian product (mostly × with 1-row literals)
//   ∪̇   Union            — disjoint union (append)
//   \   Difference       — anti-join on a key column list
//   ⋉   SemiJoin         — rows of the left whose key appears in the right
//       Distinct         — duplicate elimination over the full row
//   %   RowNum           — grouped, ordered dense row numbering
//       (ROW_NUMBER() OVER (PARTITION BY c ORDER BY b)); a blocking sort
//   #   RowId            — arbitrary unique row numbering; (nearly) free
//   ⊕   Fun              — per-row n-ary function (arith/compare/cast/...)
//       Aggr             — grouped aggregation (count, sum, max, ..., EBV)
//   ⊙   Step             — XPath location step (axis::nodetest)
//       Doc              — document access (fn:doc)
//       Elem/Attr/Text   — node constructors (runtime fragment building)
//       Lit              — literal table
//
// Plans are hash-consed into a Dag so that equal sub-plans are shared —
// Pathfinder-emitted code "contains significant sharing opportunities"
// (Section 3). Node constructors are exempt from sharing because each
// syntactic constructor creates distinct node identities.
#ifndef EXRQUY_ALGEBRA_ALGEBRA_H_
#define EXRQUY_ALGEBRA_ALGEBRA_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/symbols.h"
#include "common/value.h"
#include "xml/step.h"

namespace exrquy {

using OpId = uint32_t;
inline constexpr OpId kNoOp = ~OpId{0};
inline constexpr ColId kNoCol = 0;  // the empty-string symbol

enum class OpKind : uint8_t {
  kLit,
  kProject,
  kSelect,
  kEquiJoin,
  kThetaJoin,  // join on an arbitrary value comparison (col θ col2)
  kThetaCount, // Aggr count|g (Distinct (π g,g2 (ThetaJoin))), fused
  kCross,
  kUnion,
  kDifference,
  kSemiJoin,
  kDistinct,
  kRowNum,
  kRowId,
  kFun,
  kAggr,
  kStep,
  kDoc,
  kElem,
  kAttr,
  kTextNode,
  kRange,      // integer range expansion (e1 to e2)
  kCardCheck,  // per-iteration cardinality assertion (fn:exactly-one, ...)
};

const char* OpKindName(OpKind kind);

enum class FunKind : uint8_t {
  // Arithmetic over numbers (untyped casts to double).
  kAdd,
  kSub,
  kMul,
  kDiv,
  kIDiv,
  kMod,
  kNeg,
  // Value comparisons (typed; untyped compares as string against string,
  // as double against numbers — general-comparison casting is applied by
  // the compiler via kCastGeneral before these).
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  // Node order / identity.
  kNodeBefore,
  kNodeAfter,
  kNodeIs,
  // Boolean connectives.
  kAnd,
  kOr,
  kNot,
  // Atomization and casts.
  kAtomize,     // node -> untypedAtomic(string-value); atomics unchanged
  kToDouble,    // fn:number: xs:double cast, NaN where the cast fails
  kToString,    // xs:string cast of one atomic/node
  // String functions.
  kContains,
  kConcat,
  kStringLength,
  kStartsWith,
  kEndsWith,
  kUpperCase,
  kLowerCase,
  kNormalizeSpace,
  kSubstring2,  // substring(s, start)
  kSubstring3,  // substring(s, start, length)
  // Numeric functions.
  kAbs,
  kFloor,
  kCeiling,
  kRound,
  // Node accessors.
  kNodeName,  // fn:name / fn:local-name (no namespace prefixes here)
};

enum class AggrKind : uint8_t {
  kCount,
  kSum,
  kMax,
  kMin,
  kAvg,
  kEbv,       // effective boolean value of the group's item sequence
  kStrJoin,   // space-separated string join (attribute value construction)
};

// ---------------------------------------------------------------------------
// Item kinds and function signatures.
// ---------------------------------------------------------------------------

// Per-column item-kind lattice (semantic type-checking in the style of
// Van den Bussche/Van Gucht/Vansummeren, specialized to the algebra's
// value model):
//
//              kAny
//          .---/ | \---.
//   kNumeric kString kBool kNode
//       |
//     kInt
//
// An absent column is kAny. The kinds gate order reasoning: a ⊕ edge is
// order-preserving only when its argument is statically numeric, because
// OrderCompare ranks values type-class-major (all numbers before all
// strings before all booleans before all nodes), which breaks
// monotonicity on mixed inputs ("10" < "9" as strings). kUntyped values
// compare in the string class and so carry kString here.
enum class ItemKind : uint8_t { kInt, kNumeric, kString, kBool, kNode, kAny };
inline constexpr size_t kItemKinds = 6;

const char* ItemKindName(ItemKind kind);
// Least upper bound in the kind lattice.
ItemKind KindJoin(ItemKind a, ItemKind b);
// Every value of kind `a` is also of kind `b`.
bool KindLe(ItemKind a, ItemKind b);
inline bool KindIsNumeric(ItemKind k) {
  return k == ItemKind::kInt || k == ItemKind::kNumeric;
}
// Whether every pair of values of kinds `a` and `b` that compares without
// an error compares in one totally ordered class: int/int (exact),
// numeric/string-class (the string-class side can only be untypedAtomic,
// cast to double — a genuine string raises), string-class/string-class,
// bool/bool. Mixed int/double pairs do not qualify: int/int compares
// exactly but int/double through doubles, which is not transitive beyond
// 2^53.
bool OneComparisonClass(ItemKind a, ItemKind b);
// The kind of one query value.
ItemKind KindOfValue(const Value& v);

// How a one-argument function maps the engine's OrderCompare order:
// kIso keeps it exactly (a < b iff f(a) < f(b), ties stay ties), kMono
// keeps it weakly (a <= b implies f(a) <= f(b), distinct values may
// merge), kAnti reverses it exactly.
enum class OrderMap : uint8_t { kNone, kIso, kMono, kAnti };

template <typename T>
using ByKind = std::array<T, kItemKinds>;  // indexed by ItemKind

// One parameter of an XQuery call, after F&O's function conversion: the
// items an argument holds per iteration (exactly one, `?`, `*`; a bounded
// count is checked), their conversion (atomized, or also cast to
// xs:string), and what an empty argument gives: nothing (the call yields
// ()), a value it stands for ("", or the "NaN" that number() casts: a NaN
// literal would not hash-cons), or the call's result (one-parameter rows).
enum class Occurs : uint8_t { kOne, kOpt, kMany };
enum class Convert : uint8_t { kNone, kAtomize, kString };
enum class OnEmpty : uint8_t {
  kNothing,
  kArgEmptyString,
  kArgNaN,
  kResultEmptyString,
  kResultZero,
};
inline bool IsResult(OnEmpty e) { return e >= OnEmpty::kResultEmptyString; }
struct Param {
  Occurs occurs = Occurs::kOne;
  Convert convert = Convert::kNone;
  OnEmpty on_empty = OnEmpty::kNothing;
};

// The XQuery functions a row implements (fn: prefix optional; none when
// the row is not callable) and their parameters. A variadic row folds
// any number of arguments from its arity up, left to right.
struct CallSig {
  std::array<const char*, 2> names = {};
  std::array<Param, 3> params = {};
  bool variadic = false;
};

// What the analyses may assume about one ⊕ function, written once for the
// optimizer's analyses, the plan verifier (its audit and arity check),
// the plan printers and the compiler's lowering of calls, and checked row
// by row against the engine on edge values (tests/test_signatures.cc).
struct FunSig {
  const char* name;
  uint8_t arity;
  // The kind of every result, by the kind of the first argument's column.
  ByKind<ItemKind> result;
  // The order map, by the kind of the (only) argument's column.
  ByKind<OrderMap> order = {};
  CallSig call = {};

  ItemKind ResultFor(ItemKind arg0) const {
    return result[static_cast<size_t>(arg0)];
  }
  OrderMap OrderFor(ItemKind arg) const {
    return order[static_cast<size_t>(arg)];
  }
};

// The same for an aggregate, by the kind of the aggregated column.
struct AggrSig {
  const char* name;
  ByKind<ItemKind> result;
  CallSig call = {};  // one parameter

  ItemKind ResultFor(ItemKind arg) const {
    return result[static_cast<size_t>(arg)];
  }
};

const FunSig& Signature(FunKind kind);
const AggrSig& Signature(AggrKind kind);
inline const char* FunKindName(FunKind kind) {
  return Signature(kind).name;
}
inline const char* AggrKindName(AggrKind kind) {
  return Signature(kind).name;
}

// The signature row a call lowers to.
struct Callee {
  const CallSig* call = nullptr;
  size_t arity = 0;
  bool aggregate = false;
  FunKind fun = FunKind::kAdd;
  AggrKind aggr = AggrKind::kCount;
};

// The row named `name` (fn: prefix stripped) that takes `nargs`
// arguments: no row (call == nullptr) when none is named so, a TypeError
// when none takes that many. The compiler lowers calls through it and
// the reference interpreter checks their arity with it.
Result<Callee> FindCallee(std::string_view name, size_t nargs);

// A literal table: fixed schema and constant rows.
struct LitTable {
  std::vector<ColId> cols;
  std::vector<std::vector<Value>> rows;  // each row has cols.size() values

  bool operator==(const LitTable& other) const = default;
};

struct SortKey {
  ColId col = kNoCol;
  bool descending = false;

  bool operator==(const SortKey& other) const = default;
};

// One algebra operator. A deliberately "fat" plain struct: only the
// fields relevant to `kind` are meaningful (see the builder functions on
// Dag for which those are).
struct Op {
  OpKind kind = OpKind::kLit;
  std::vector<OpId> children;

  // kProject: (new, old) pairs.
  std::vector<std::pair<ColId, ColId>> proj;
  // kSelect: col. kRowNum/kRowId: result col. kFun/kAggr: result col.
  ColId col = kNoCol;
  // kEquiJoin/kThetaJoin: left col / right col (col / col2). kAggr:
  // argument (col2).
  ColId col2 = kNoCol;
  // kEquiJoin only: `value_join` marks a join emitted by the join-
  // recognition rewrite whose key columns carry *item values*, never
  // iteration/order scaffolding (iter, pos, % results). The plan verifier
  // audits the claim ([join-isolation-claim]); kThetaJoin carries the
  // same obligation implicitly. Part of operator identity so a marked
  // join never hash-cons-merges with an unmarked one.
  bool value_join = false;
  // kRowNum: sort criteria. (Empty criteria = arbitrary order, which makes
  // the operator equivalent to # — see Section 7 of the paper.)
  std::vector<SortKey> order;
  // kRowNum only: the input provably arrives sorted by RowNumSortKeys, so
  // the engine ranks it in physical order without sorting. Set by
  // MarkPlan, audited as [presorted-claim]. Part of operator identity.
  bool presorted = false;
  // kRowNum / kAggr / kThetaCount: partition column (kNoCol = whole table
  // is one group; ThetaCount always has one, on either join side).
  ColId part = kNoCol;
  // kDifference / kSemiJoin: key columns. kThetaCount: the left and the
  // right join key.
  std::vector<ColId> keys;
  // kRowId: the ids are proven row positions (1..n in physical row
  // order), not merely arbitrary unique numbers. Set when an order-
  // dependency rewrite degraded a % whose requested order the input
  // already realizes — downstream analyses may rely on the column being
  // physically ascending, so it is NOT an arbitrary-order column.
  bool positional = false;
  // kCardCheck: per-iteration cardinality bounds.
  int64_t min_card = 0;
  int64_t max_card = 0;
  // kFun: function and argument columns. kThetaJoin: the comparison
  // (kEq..kGe) applied as `col θ col2`. kThetaCount: the order relation
  // (kLt..kGe) applied as `keys[0] θ keys[1]`.
  FunKind fun = FunKind::kAdd;
  std::vector<ColId> args;
  // kAggr:
  AggrKind aggr = AggrKind::kCount;
  // kStep:
  Axis axis = Axis::kChild;
  NodeTest test;
  // kDoc: document name. kElem/kAttr: constructed node name.
  StrId name = StrPool::kEmpty;
  // kElem/kAttr/kTextNode: unique id preventing hash-cons sharing of
  // distinct syntactic constructors (node identity!).
  uint32_t constructor_id = 0;
  // kElem only: the constructed elements' identities are never observed
  // — their item column only ever reaches the content of enclosing
  // element constructors — so the engine emits construction records
  // instead of nodes and the enclosing constructor writes each element
  // once, in place. Set by the deferred-construction pass after the
  // rewrite fixpoint; the plan verifier audits the claim
  // ([deferred-constructor-claim]). Part of operator identity.
  bool deferred = false;
  // kLit:
  LitTable lit;

  // Provenance label for the Table 2-style profile (which source
  // sub-expression this operator implements). Not part of operator
  // identity.
  std::string prov;

  // Output schema (computed on insertion).
  std::vector<ColId> schema;

  bool HasCol(ColId c) const;
};

// The keys a % (kRowNum) sorts its input by: the partition column
// ascending (when there is one), then the criteria.
std::vector<SortKey> RowNumSortKeys(const Op& op);

// Whether two operators are the same operation — identical in every
// field that makes up operator identity except their children.
bool SamePayload(const Op& a, const Op& b);

// A hash-consed DAG of algebra operators. OpIds are dense and stable;
// children always have smaller ids than parents (plans are built bottom
// up), which gives a free topological order. The DAG only grows, and a
// `const Op&` from op() stays valid across later insertions.
class Dag {
 public:
  Dag() = default;
  // Fresh columns number from `names_taken` + 1 (Query::fresh_names).
  explicit Dag(uint32_t names_taken) : fresh_cols_(names_taken) {}
  Dag(const Dag&) = delete;
  Dag& operator=(const Dag&) = delete;

  const Op& op(OpId id) const { return *ops_[id]; }
  size_t size() const { return ops_.size(); }

  // Generic insertion with hash-consing; validates and computes schema.
  OpId Add(Op op);

  // Raw insertion without validation, schema computation, or
  // hash-consing: the stored schema is taken as given. Exists so tests
  // and fuzzers can build deliberately malformed plans for the verifier
  // (opt/verify.h); never used by the compiler or the rewrites.
  OpId AddUnchecked(Op op, std::vector<ColId> schema);

  // -- Builders ------------------------------------------------------------
  OpId Lit(LitTable table);
  // Empty table with the given schema.
  OpId Empty(std::vector<ColId> cols);
  OpId Project(OpId child, std::vector<std::pair<ColId, ColId>> proj);
  OpId Select(OpId child, ColId col);
  OpId EquiJoin(OpId left, OpId right, ColId left_col, ColId right_col);
  // EquiJoin carrying the verifier-audited value-join mark (see
  // Op::value_join).
  OpId ValueJoin(OpId left, OpId right, ColId left_col, ColId right_col);
  // Join on `left.left_col cmp right.right_col` for a value comparison
  // cmp in kEq..kGe; output schema is the concatenation, rows emitted in
  // deterministic left-major order.
  OpId ThetaJoin(OpId left, OpId right, ColId left_col, FunKind cmp,
                 ColId right_col);
  // count() fused through a ThetaJoin: exactly
  //   Aggr count|group (Distinct (π group,counted (ThetaJoin(left, right,
  //                                  left_key cmp right_key))))
  // for an order relation cmp in kLt..kGe, where `group` and `counted`
  // are columns of opposite sides. Output schema (group, result); one
  // row per group with a nonzero count, in the Aggr's first-appearance
  // order.
  OpId ThetaCount(OpId left, OpId right, ColId left_key, FunKind cmp,
                  ColId right_key, ColId group, ColId counted, ColId result);
  OpId Cross(OpId left, OpId right);
  // Convenience: × with a one-row literal table [col = value] (the idiom
  // the paper writes as q × (pos 1), nearly free on table descriptors).
  OpId AttachConst(OpId child, ColId col, Value value);
  OpId Union(OpId left, OpId right);
  OpId Difference(OpId left, OpId right, std::vector<ColId> keys);
  OpId SemiJoin(OpId left, OpId right, std::vector<ColId> keys);
  OpId Distinct(OpId child);
  OpId RowNum(OpId child, ColId result, std::vector<SortKey> order,
              ColId part, bool presorted = false);
  // `positional` marks the ids as proven row positions (see Op::positional).
  OpId RowId(OpId child, ColId result, bool positional = false);
  OpId Fun(OpId child, FunKind fun, ColId result, std::vector<ColId> args);
  // `order_col` (optional) names a column that orders rows within each
  // group before aggregation; only kStrJoin is order sensitive.
  OpId Aggr(OpId child, AggrKind aggr, ColId result, ColId arg, ColId part,
            ColId order_col = kNoCol);
  // Grouped string join with an explicit separator (fn:string-join and
  // attribute value construction).
  OpId AggrStrJoin(OpId child, ColId result, ColId arg, ColId part,
                   ColId order_col, StrId separator);
  // Expands each input row's [lo, hi] integer range into (iter, item)
  // rows; empty when lo > hi (the XQuery `to` operator).
  OpId Range(OpId child, ColId lo, ColId hi);
  // Passes `child` through unchanged but raises a cardinality error when
  // any iteration of `loop` has fewer than `min_card` or more than
  // `max_card` rows in `child` (fn:zero-or-one / exactly-one /
  // one-or-more, and a bounded parameter; `label`, such as
  // "fn:exactly-one", names the check in the error message).
  OpId CardCheck(OpId child, OpId loop, int64_t min_card, int64_t max_card,
                 StrId label);
  OpId Step(OpId child, Axis axis, NodeTest test);
  OpId Doc(StrId name);
  // Node constructors build one node per row of `loop` (an iter-column
  // plan); `content`/`value` rows are matched by iter and ordered by pos
  // (the seq -> doc order interaction of Section 2).
  OpId Elem(StrId name, OpId content, OpId loop);
  OpId Attr(StrId name, OpId value, OpId loop);
  OpId Text(OpId content, OpId loop);

  // Attaches a provenance label to an operator (overwrites empty only, so
  // shared sub-plans keep their first label).
  void SetProv(OpId id, std::string prov);

  // Operators reachable from `root`, in topological (bottom-up) order.
  std::vector<OpId> ReachableFrom(OpId root) const;

  // Derives a column named `base$n` (e.g. "pos" -> "pos$17") for the
  // compiler's and the rewrites' intermediate columns. `n` counts per
  // plan, so the name is unique within this DAG, and planning the same
  // query again derives the same names: the process-wide column registry
  // grows with the plans' shapes, not with how many were planned.
  ColId FreshCol(std::string_view base);

 private:
  uint64_t HashOp(const Op& op) const;
  bool OpEquals(const Op& a, const Op& b) const;
  std::vector<ColId> ComputeSchema(const Op& op) const;

  // One allocation per operator: growth never moves an Op.
  std::vector<std::unique_ptr<Op>> ops_;
  std::unordered_multimap<uint64_t, OpId> index_;
  uint32_t next_constructor_id_ = 1;
  uint32_t fresh_cols_ = 0;
};

// kThetaCount: the child (0 = left, 1 = right) that carries the group
// column; the counted column sits on the other one.
inline size_t ThetaCountGroupSide(const Dag& dag, const Op& op) {
  return dag.op(op.children[0]).HasCol(op.part) ? 0 : 1;
}

}  // namespace exrquy

#endif  // EXRQUY_ALGEBRA_ALGEBRA_H_
