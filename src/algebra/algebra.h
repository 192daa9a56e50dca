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

#include <cstdint>
#include <string>
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
  kToDouble,    // fn:number semantics (errors on non-numeric strings)
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

const char* FunKindName(FunKind kind);

enum class AggrKind : uint8_t {
  kCount,
  kSum,
  kMax,
  kMin,
  kAvg,
  kEbv,       // effective boolean value of the group's item sequence
  kStrJoin,   // space-separated string join (attribute value construction)
};

const char* AggrKindName(AggrKind kind);

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

// Whether two operators are the same operation — identical in every
// field that makes up operator identity except their children.
bool SamePayload(const Op& a, const Op& b);

// A hash-consed DAG of algebra operators. OpIds are dense and stable;
// children always have smaller ids than parents (plans are built bottom
// up), which gives a free topological order.
class Dag {
 public:
  Dag() = default;
  Dag(const Dag&) = delete;
  Dag& operator=(const Dag&) = delete;

  const Op& op(OpId id) const { return ops_[id]; }
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
              ColId part);
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
  // one-or-more; `fn_name` labels the error message).
  OpId CardCheck(OpId child, OpId loop, int64_t min_card, int64_t max_card,
                 StrId fn_name);
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

 private:
  uint64_t HashOp(const Op& op) const;
  bool OpEquals(const Op& a, const Op& b) const;
  std::vector<ColId> ComputeSchema(const Op& op) const;

  std::vector<Op> ops_;
  std::unordered_multimap<uint64_t, OpId> index_;
  uint32_t next_constructor_id_ = 1;
};

// kThetaCount: the child (0 = left, 1 = right) that carries the group
// column; the counted column sits on the other one.
inline size_t ThetaCountGroupSide(const Dag& dag, const Op& op) {
  return dag.op(op.children[0]).HasCol(op.part) ? 0 : 1;
}

}  // namespace exrquy

#endif  // EXRQUY_ALGEBRA_ALGEBRA_H_
