#include "opt/verify.h"

#include "opt/facts_audit.h"

#include <algorithm>
#include <string>
#include <vector>


namespace exrquy {
namespace {

std::string OpLabel(const Dag& dag, OpId id) {
  return "op " + std::to_string(id) + " (" +
         OpKindName(dag.op(id).kind) + ")";
}

Status Fail(const Dag& dag, OpId id, const char* invariant,
            const std::string& detail) {
  return Internal("plan verifier: [" + std::string(invariant) + "] " +
                  OpLabel(dag, id) + ": " + detail);
}

// ---------------------------------------------------------------------------
// (1) Structure: edge sanity, acyclicity, arity, constructor sharing.
// ---------------------------------------------------------------------------

size_t ExpectedChildren(OpKind kind) {
  switch (kind) {
    case OpKind::kLit:
    case OpKind::kDoc:
      return 0;
    case OpKind::kProject:
    case OpKind::kSelect:
    case OpKind::kDistinct:
    case OpKind::kRowNum:
    case OpKind::kRowId:
    case OpKind::kFun:
    case OpKind::kAggr:
    case OpKind::kStep:
    case OpKind::kRange:
      return 1;
    case OpKind::kEquiJoin:
    case OpKind::kThetaJoin:
    case OpKind::kThetaCount:
    case OpKind::kCross:
    case OpKind::kUnion:
    case OpKind::kDifference:
    case OpKind::kSemiJoin:
    case OpKind::kCardCheck:
    case OpKind::kElem:
    case OpKind::kAttr:
    case OpKind::kTextNode:
      return 2;
  }
  return 0;
}

bool IsConstructor(OpKind kind) {
  return kind == OpKind::kElem || kind == OpKind::kAttr ||
         kind == OpKind::kTextNode;
}

// Collects the reachable sub-DAG into *order (ascending ids, which is
// bottom-up once the downward-edge invariant holds). Never follows an
// edge that is out of range or would close a cycle, so this terminates
// on arbitrarily malformed input.
Status CheckStructure(const Dag& dag, OpId root, std::vector<OpId>* order) {
  if (root == kNoOp || root >= dag.size()) {
    return Internal("plan verifier: [op-out-of-range] root id " +
                    std::to_string(root) + " does not name an operator (" +
                    std::to_string(dag.size()) + " ops in the DAG)");
  }
  std::vector<bool> seen(dag.size(), false);
  std::vector<OpId> stack = {root};
  seen[root] = true;
  while (!stack.empty()) {
    OpId id = stack.back();
    stack.pop_back();
    const Op& op = dag.op(id);
    if (op.children.size() != ExpectedChildren(op.kind)) {
      return Fail(dag, id, "child-arity",
                  "expected " + std::to_string(ExpectedChildren(op.kind)) +
                      " input(s), found " +
                      std::to_string(op.children.size()));
    }
    for (OpId c : op.children) {
      if (c == kNoOp) {
        return Fail(dag, id, "op-out-of-range", "child is kNoOp");
      }
      if (c >= dag.size()) {
        return Fail(dag, id, "op-out-of-range",
                    "child id " + std::to_string(c) + " exceeds DAG size " +
                        std::to_string(dag.size()));
      }
      if (c >= id) {
        // Ids are assigned bottom-up, so any non-downward edge is a
        // (potential) cycle.
        return Fail(dag, id, "acyclicity",
                    "edge to op " + std::to_string(c) +
                        " does not point to an earlier operator");
      }
      if (!seen[c]) {
        seen[c] = true;
        stack.push_back(c);
      }
    }
  }
  for (OpId id = 0; id < dag.size(); ++id) {
    if (seen[id]) order->push_back(id);
  }
  // Constructor sharing exemption: hash-consing must never have merged
  // two syntactic node constructors (distinct node identities).
  std::unordered_map<uint32_t, OpId> ctor_ids;
  for (OpId id : *order) {
    const Op& op = dag.op(id);
    if (IsConstructor(op.kind)) {
      if (op.constructor_id == 0) {
        return Fail(dag, id, "constructor-sharing",
                    "node constructor without a constructor id");
      }
      auto [it, inserted] = ctor_ids.emplace(op.constructor_id, id);
      if (!inserted) {
        return Fail(dag, id, "constructor-sharing",
                    "shares constructor id " +
                        std::to_string(op.constructor_id) + " with op " +
                        std::to_string(it->second));
      }
    } else if (op.constructor_id != 0) {
      return Fail(dag, id, "constructor-sharing",
                  "non-constructor carries constructor id " +
                      std::to_string(op.constructor_id));
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// (2) Schema: column references, duplicates, arities, re-derivation.
// ---------------------------------------------------------------------------

size_t FunArity(FunKind fun) {
  switch (fun) {
    case FunKind::kNeg:
    case FunKind::kNot:
    case FunKind::kAtomize:
    case FunKind::kToDouble:
    case FunKind::kToString:
    case FunKind::kStringLength:
    case FunKind::kUpperCase:
    case FunKind::kLowerCase:
    case FunKind::kNormalizeSpace:
    case FunKind::kAbs:
    case FunKind::kFloor:
    case FunKind::kCeiling:
    case FunKind::kRound:
    case FunKind::kNodeName:
      return 1;
    case FunKind::kSubstring3:
      return 3;
    default:
      return 2;  // arithmetic, comparisons, connectives, binary strings
  }
}

class SchemaChecker {
 public:
  explicit SchemaChecker(const Dag& dag) : dag_(dag) {}

  Status Check(OpId id) {
    id_ = id;
    const Op& op = dag_.op(id);
    std::vector<ColId> expected;
    EXRQUY_RETURN_IF_ERROR(Derive(op, &expected));
    // No duplicates, no kNoCol in the produced schema.
    for (size_t i = 0; i < expected.size(); ++i) {
      if (expected[i] == kNoCol) {
        return Fail(dag_, id, "no-col", "schema contains kNoCol");
      }
      for (size_t j = i + 1; j < expected.size(); ++j) {
        if (expected[i] == expected[j]) {
          return Fail(dag_, id, "duplicate-column",
                      "output column '" + ColName(expected[i]) +
                          "' produced twice");
        }
      }
    }
    if (expected != op.schema) {
      return Fail(dag_, id, "schema-mismatch",
                  "stored schema disagrees with re-derivation (" +
                      Cols(op.schema) + " vs " + Cols(expected) + ")");
    }
    return Status::Ok();
  }

 private:
  static std::string Cols(const std::vector<ColId>& cols) {
    std::string out = "[";
    for (size_t i = 0; i < cols.size(); ++i) {
      if (i != 0) out += ",";
      out += cols[i] == kNoCol ? "<none>" : ColName(cols[i]);
    }
    return out + "]";
  }

  const Op& Child(const Op& op, size_t i) const {
    return dag_.op(op.children[i]);
  }

  // A column reference into child `i` of the current operator: must not
  // be kNoCol and must be produced by that child.
  Status Ref(const Op& op, size_t i, ColId c, const char* what) {
    if (c == kNoCol) {
      return Fail(dag_, id_, "no-col",
                  std::string(what) + " column is kNoCol");
    }
    if (!Child(op, i).HasCol(c)) {
      return Fail(dag_, id_, "dangling-column",
                  std::string(what) + " column '" + ColName(c) +
                      "' is not produced by input op " +
                      std::to_string(op.children[i]));
    }
    return Status::Ok();
  }

  Status Produced(ColId c, const char* what) {
    if (c == kNoCol) {
      return Fail(dag_, id_, "no-col",
                  std::string(what) + " column is kNoCol");
    }
    return Status::Ok();
  }

  Status Derive(const Op& op, std::vector<ColId>* out) {
    switch (op.kind) {
      case OpKind::kLit: {
        for (const auto& row : op.lit.rows) {
          if (row.size() != op.lit.cols.size()) {
            return Fail(dag_, id_, "lit-shape",
                        "row with " + std::to_string(row.size()) +
                            " value(s) in a " +
                            std::to_string(op.lit.cols.size()) +
                            "-column literal");
          }
        }
        *out = op.lit.cols;
        return Status::Ok();
      }
      case OpKind::kProject: {
        for (const auto& [n, o] : op.proj) {
          EXRQUY_RETURN_IF_ERROR(Produced(n, "projected"));
          EXRQUY_RETURN_IF_ERROR(Ref(op, 0, o, "projection source"));
          out->push_back(n);
        }
        return Status::Ok();
      }
      case OpKind::kSelect:
        EXRQUY_RETURN_IF_ERROR(Ref(op, 0, op.col, "selection"));
        *out = Child(op, 0).schema;
        return Status::Ok();
      case OpKind::kThetaJoin:
        if (op.fun != FunKind::kEq && op.fun != FunKind::kNe &&
            op.fun != FunKind::kLt && op.fun != FunKind::kLe &&
            op.fun != FunKind::kGt && op.fun != FunKind::kGe) {
          return Fail(dag_, id_, "theta-comparison",
                      std::string("'") + FunKindName(op.fun) +
                          "' is not a value comparison");
        }
        [[fallthrough]];
      case OpKind::kEquiJoin:
        EXRQUY_RETURN_IF_ERROR(Ref(op, 0, op.col, "left join"));
        EXRQUY_RETURN_IF_ERROR(Ref(op, 1, op.col2, "right join"));
        [[fallthrough]];
      case OpKind::kCross: {
        *out = Child(op, 0).schema;
        for (ColId c : Child(op, 1).schema) out->push_back(c);
        return Status::Ok();  // duplicate check above reports overlap
      }
      case OpKind::kThetaCount: {
        if (op.fun != FunKind::kLt && op.fun != FunKind::kLe &&
            op.fun != FunKind::kGt && op.fun != FunKind::kGe) {
          return Fail(dag_, id_, "theta-comparison",
                      std::string("'") + FunKindName(op.fun) +
                          "' is not an order relation");
        }
        if (op.keys.size() != 2) {
          return Fail(dag_, id_, "theta-count-keys",
                      "expected a left and a right join key, found " +
                          std::to_string(op.keys.size()) + " column(s)");
        }
        EXRQUY_RETURN_IF_ERROR(Ref(op, 0, op.keys[0], "left join"));
        EXRQUY_RETURN_IF_ERROR(Ref(op, 1, op.keys[1], "right join"));
        size_t g = Child(op, 0).HasCol(op.part) ? 0 : 1;
        EXRQUY_RETURN_IF_ERROR(Ref(op, g, op.part, "group"));
        EXRQUY_RETURN_IF_ERROR(Ref(op, 1 - g, op.col2, "counted"));
        EXRQUY_RETURN_IF_ERROR(Produced(op.col, "result"));
        *out = {op.part, op.col};
        return Status::Ok();
      }
      case OpKind::kUnion: {
        const std::vector<ColId>& l = Child(op, 0).schema;
        std::vector<ColId> ls = l;
        std::vector<ColId> rs = Child(op, 1).schema;
        std::sort(ls.begin(), ls.end());
        std::sort(rs.begin(), rs.end());
        if (ls != rs) {
          return Fail(dag_, id_, "union-schema",
                      "branch schemas differ (" + Cols(Child(op, 0).schema) +
                          " vs " + Cols(Child(op, 1).schema) + ")");
        }
        *out = l;
        return Status::Ok();
      }
      case OpKind::kDifference:
      case OpKind::kSemiJoin: {
        for (ColId c : op.keys) {
          EXRQUY_RETURN_IF_ERROR(Ref(op, 0, c, "key"));
          EXRQUY_RETURN_IF_ERROR(Ref(op, 1, c, "key"));
        }
        *out = Child(op, 0).schema;
        return Status::Ok();
      }
      case OpKind::kDistinct:
        *out = Child(op, 0).schema;
        return Status::Ok();
      case OpKind::kRowNum: {
        for (const SortKey& k : op.order) {
          EXRQUY_RETURN_IF_ERROR(Ref(op, 0, k.col, "order"));
        }
        if (op.part != kNoCol) {
          EXRQUY_RETURN_IF_ERROR(Ref(op, 0, op.part, "partition"));
        }
        EXRQUY_RETURN_IF_ERROR(Produced(op.col, "rank"));
        *out = Child(op, 0).schema;
        out->push_back(op.col);
        return Status::Ok();
      }
      case OpKind::kRowId:
        EXRQUY_RETURN_IF_ERROR(Produced(op.col, "row id"));
        *out = Child(op, 0).schema;
        out->push_back(op.col);
        return Status::Ok();
      case OpKind::kFun: {
        if (op.args.size() != FunArity(op.fun)) {
          return Fail(dag_, id_, "fun-arity",
                      std::string(FunKindName(op.fun)) + " takes " +
                          std::to_string(FunArity(op.fun)) +
                          " argument(s), found " +
                          std::to_string(op.args.size()));
        }
        for (ColId a : op.args) {
          EXRQUY_RETURN_IF_ERROR(Ref(op, 0, a, "argument"));
        }
        EXRQUY_RETURN_IF_ERROR(Produced(op.col, "result"));
        *out = Child(op, 0).schema;
        out->push_back(op.col);
        return Status::Ok();
      }
      case OpKind::kAggr: {
        if (op.aggr == AggrKind::kCount) {
          // fn:count needs no argument column; a stray one must still be
          // a real column (the dependency analysis will demand it).
          if (op.col2 != kNoCol) {
            EXRQUY_RETURN_IF_ERROR(Ref(op, 0, op.col2, "aggregate"));
          }
        } else {
          EXRQUY_RETURN_IF_ERROR(Ref(op, 0, op.col2, "aggregate"));
        }
        if (op.keys.size() > 1) {
          return Fail(dag_, id_, "aggr-order",
                      "at most one intra-group order column, found " +
                          std::to_string(op.keys.size()));
        }
        for (ColId c : op.keys) {
          EXRQUY_RETURN_IF_ERROR(Ref(op, 0, c, "group order"));
        }
        EXRQUY_RETURN_IF_ERROR(Produced(op.col, "result"));
        if (op.part != kNoCol) {
          EXRQUY_RETURN_IF_ERROR(Ref(op, 0, op.part, "partition"));
          out->push_back(op.part);
        }
        out->push_back(op.col);
        return Status::Ok();
      }
      case OpKind::kStep:
        EXRQUY_RETURN_IF_ERROR(Ref(op, 0, col::iter(), "context iter"));
        EXRQUY_RETURN_IF_ERROR(Ref(op, 0, col::item(), "context item"));
        *out = {col::iter(), col::item()};
        return Status::Ok();
      case OpKind::kDoc:
        *out = {col::item()};
        return Status::Ok();
      case OpKind::kElem:
      case OpKind::kAttr:
      case OpKind::kTextNode:
        EXRQUY_RETURN_IF_ERROR(Ref(op, 0, col::iter(), "content iter"));
        EXRQUY_RETURN_IF_ERROR(Ref(op, 0, col::pos(), "content pos"));
        EXRQUY_RETURN_IF_ERROR(Ref(op, 0, col::item(), "content item"));
        EXRQUY_RETURN_IF_ERROR(Ref(op, 1, col::iter(), "loop iter"));
        *out = {col::iter(), col::item()};
        return Status::Ok();
      case OpKind::kRange:
        EXRQUY_RETURN_IF_ERROR(Ref(op, 0, col::iter(), "context iter"));
        EXRQUY_RETURN_IF_ERROR(Ref(op, 0, op.col, "range lower"));
        EXRQUY_RETURN_IF_ERROR(Ref(op, 0, op.col2, "range upper"));
        *out = {col::iter(), col::item()};
        return Status::Ok();
      case OpKind::kCardCheck:
        if (op.min_card < 0 || op.max_card < op.min_card) {
          return Fail(dag_, id_, "card-bounds",
                      "bounds [" + std::to_string(op.min_card) + "," +
                          std::to_string(op.max_card) + "] are not a valid "
                          "cardinality interval");
        }
        EXRQUY_RETURN_IF_ERROR(Ref(op, 0, col::iter(), "checked iter"));
        EXRQUY_RETURN_IF_ERROR(Ref(op, 1, col::iter(), "loop iter"));
        *out = Child(op, 0).schema;
        return Status::Ok();
    }
    return Fail(dag_, id_, "child-arity", "unknown operator kind");
  }

  const Dag& dag_;
  OpId id_ = kNoOp;
};

// ---------------------------------------------------------------------------
// (3) Properties: independent fact derivation + claim auditing. The
// fact base itself (OpFacts, DeriveFacts, DeriveScaffolding,
// DeriveLiveColumns) lives in opt/facts_audit.cc, shared with the
// rewrite-certificate checker.
// ---------------------------------------------------------------------------

// A fused count() through a ThetaJoin (kThetaCount) is a value join too:
// its keys must carry item values, and its kernel reduces each group to
// its extreme keys, which needs both keys statically in one totally
// ordered comparison class (OneComparisonClass), and iteration-id (int)
// group and counted columns.
Status CheckThetaCountClaim(const Dag& dag, OpId id,
                            const std::unordered_map<OpId, OpFacts>& facts,
                            const std::unordered_map<OpId, ColSet>& scaff) {
  const Op& op = dag.op(id);
  for (size_t side = 0; side < 2; ++side) {
    if (scaff.at(op.children[side]).count(op.keys[side]) != 0) {
      return Fail(dag, id, "theta-count-claim",
                  "join predicate touches scaffolding column '" +
                      ColName(op.keys[side]) + "'");
    }
  }
  ItemKind lk = KindAt(facts.at(op.children[0]), op.keys[0]);
  ItemKind rk = KindAt(facts.at(op.children[1]), op.keys[1]);
  if (!OneComparisonClass(lk, rk)) {
    return Fail(dag, id, "theta-count-claim",
                "keys of kinds '" + std::string(ItemKindName(lk)) + "'/'" +
                    ItemKindName(rk) +
                    "' do not share one totally ordered comparison class");
  }
  size_t g = ThetaCountGroupSide(dag, op);
  if (KindAt(facts.at(op.children[g]), op.part) != ItemKind::kInt ||
      KindAt(facts.at(op.children[1 - g]), op.col2) != ItemKind::kInt) {
    return Fail(dag, id, "theta-count-claim",
                "group column '" + ColName(op.part) + "' or counted column '" +
                    ColName(op.col2) + "' is not statically an integer");
  }
  return Status::Ok();
}

}  // namespace

Status CheckClaims(const Dag& dag, OpId id, const OpFacts& claimed,
                   const OpFacts& derived) {
  const Op& op = dag.op(id);
  struct Aspect {
    const char* what;
    const ColSet& claim;
    const ColSet& fact;
  };
  const Aspect aspects[] = {
      {"constant", claimed.constant, derived.constant},
      {"arbitrary-order", claimed.arbitrary, derived.arbitrary},
      {"key", claimed.keys, derived.keys},
  };
  for (const Aspect& a : aspects) {
    for (ColId c : a.claim) {
      if (!op.HasCol(c)) {
        return Fail(dag, id, "property-claim",
                    std::string(a.what) + " claim for column '" +
                        ColName(c) + "' which is not in the schema");
      }
      if (a.fact.count(c) == 0) {
        return Fail(dag, id, "property-claim",
                    std::string(a.what) + " claim for column '" +
                        ColName(c) + "' is not independently derivable");
      }
    }
  }
  return Status::Ok();
}

Status CheckCardClaim(const Dag& dag, OpId id, const CardRange& claimed,
                      const OpFacts& derived) {
  // Sound iff the derived interval is contained in the claimed one: a
  // claim tighter than what is independently derivable could exclude a
  // row count the plan can actually produce.
  if (claimed.min > derived.min_rows || claimed.max < derived.max_rows) {
    CardRange d;
    d.min = derived.min_rows;
    d.max = derived.max_rows;
    return Fail(dag, id, "cardinality-claim",
                "claimed row bounds " + claimed.ToString() +
                    " do not contain the derivable bounds " + d.ToString());
  }
  return Status::Ok();
}

Status CheckSemTypeClaims(const Dag& dag, OpId id, const SemType& claimed,
                          const OpFacts& derived) {
  const Op& op = dag.op(id);
  for (const auto& [c, k] : claimed.kinds) {
    if (!op.HasCol(c)) {
      return Fail(dag, id, "semantic-type-claim",
                  "kind claim for column '" + ColName(c) +
                      "' which is not in the schema");
    }
    // A claim is sound only if it is at least as wide as (contains) the
    // independently derivable kind.
    if (!KindLe(KindAt(derived, c), k)) {
      return Fail(dag, id, "semantic-type-claim",
                  "kind claim '" + std::string(ItemKindName(k)) +
                      "' for column '" + ColName(c) +
                      "' is not independently derivable (derived '" +
                      ItemKindName(KindAt(derived, c)) + "')");
    }
  }
  // A unit-group column means groups of at most one row, i.e. the column
  // is duplicate-free — auditable against the independently derived
  // row-identifying columns.
  for (ColId c : claimed.unit_groups) {
    if (!op.HasCol(c)) {
      return Fail(dag, id, "semantic-type-claim",
                  "unit-group claim for column '" + ColName(c) +
                      "' which is not in the schema");
    }
    if (derived.keys.count(c) == 0) {
      return Fail(dag, id, "semantic-type-claim",
                  "unit-group claim for column '" + ColName(c) +
                      "' is not independently derivable as duplicate-free");
    }
  }
  return Status::Ok();
}

Status CheckOrderClaims(const Dag& dag, OpId id, const OrderFacts& claimed,
                        const OpFacts& derived) {
  const Op& op = dag.op(id);
  for (const OrderFact& f : claimed.facts) {
    for (const SortKey& k : f.keys) {
      if (!op.HasCol(k.col)) {
        return Fail(dag, id, "order-dependency-claim",
                    "sorted claim " + f.ToString() + " names column '" +
                        ColName(k.col) + "' which is not in the schema");
      }
    }
    if (derived.at_most_one_row) continue;  // one row is sorted every way
    bool implied = false;
    for (const OrderFact& g : derived.sorted) {
      if (SortedImplies(g, f)) {
        implied = true;
        break;
      }
    }
    if (!implied) {
      return Fail(dag, id, "order-dependency-claim",
                  "sorted claim " + f.ToString() +
                      " is not implied by any independently derived fact");
    }
  }
  return Status::Ok();
}

Status VerifyPlan(const Dag& dag, OpId root, const VerifyOptions& options) {
  std::vector<OpId> order;
  // Structure must hold before anything else may walk the DAG.
  EXRQUY_RETURN_IF_ERROR(CheckStructure(dag, root, &order));
  if (options.check_schema || options.check_properties) {
    SchemaChecker schemas(dag);
    for (OpId id : order) {
      EXRQUY_RETURN_IF_ERROR(schemas.Check(id));
    }
  }
  if (options.check_properties) {
    // Audit every claim the optimizer's analyses make — constant /
    // arbitrary-order columns (license % weakening), key columns
    // (license Distinct elimination and keyed % collapse) and row-count
    // bounds (license the empty-plan short-circuit) — against an
    // independent derivation.
    std::unordered_map<OpId, OpFacts> facts = DeriveFacts(dag, root);
    PropertyTracker tracker(&dag);
    CardTracker cards(&dag);
    KeyTracker keys(&dag, &cards);
    SemTypeTracker sem(&dag, &cards);
    OrderTracker od(&dag, &tracker, &cards, &keys, &sem);
    for (OpId id : order) {
      const ColProps& claimed = tracker.Get(id);
      OpFacts claim;
      claim.constant = claimed.constant;
      claim.arbitrary = claimed.arbitrary;
      claim.keys = keys.Get(id);
      EXRQUY_RETURN_IF_ERROR(CheckClaims(dag, id, claim, facts.at(id)));
      EXRQUY_RETURN_IF_ERROR(
          CheckCardClaim(dag, id, cards.Get(id), facts.at(id)));
      // The semantic-type and order-dependency domains (which license
      // the %→const and %→# trades) are audited the same way, against
      // the independent re-derivations in DeriveOpFacts.
      EXRQUY_RETURN_IF_ERROR(
          CheckSemTypeClaims(dag, id, sem.Get(id), facts.at(id)));
      EXRQUY_RETURN_IF_ERROR(
          CheckOrderClaims(dag, id, od.Get(id), facts.at(id)));
    }
    // Join-graph isolation: a recognized value join (ThetaJoin, or an
    // EquiJoin carrying the value-join mark) must keep the iteration/
    // order scaffolding out of its predicate — its key columns must
    // carry item values. Hash-equality joins must additionally sit in a
    // kind class where exact value equality coincides with the `eq`
    // comparison (int/int, string-class/string-class, bool/bool);
    // anything wider needs the ThetaJoin kernel.
    std::unordered_map<OpId, ColSet> scaff = DeriveScaffolding(dag, order);
    for (OpId id : order) {
      const Op& op = dag.op(id);
      if (op.kind == OpKind::kThetaCount) {
        EXRQUY_RETURN_IF_ERROR(CheckThetaCountClaim(dag, id, facts, scaff));
        continue;
      }
      bool theta = op.kind == OpKind::kThetaJoin;
      bool value_equi = op.kind == OpKind::kEquiJoin && op.value_join;
      if (!theta && !value_equi) continue;
      if (scaff.at(op.children[0]).count(op.col) != 0) {
        return Fail(dag, id, "join-isolation-claim",
                    "join predicate touches scaffolding column '" +
                        ColName(op.col) + "'");
      }
      if (scaff.at(op.children[1]).count(op.col2) != 0) {
        return Fail(dag, id, "join-isolation-claim",
                    "join predicate touches scaffolding column '" +
                        ColName(op.col2) + "'");
      }
      if (value_equi) {
        ItemKind lk = KindAt(facts.at(op.children[0]), op.col);
        ItemKind rk = KindAt(facts.at(op.children[1]), op.col2);
        bool safe = lk == rk && (lk == ItemKind::kInt ||
                                 lk == ItemKind::kString ||
                                 lk == ItemKind::kBool);
        if (!safe) {
          return Fail(dag, id, "join-isolation-claim",
                      "hash equality over kinds '" +
                          std::string(ItemKindName(lk)) + "'/'" +
                          ItemKindName(rk) +
                          "' does not coincide with the eq comparison");
        }
      }
    }
    // The column dependency analysis must only ever demand columns the
    // operator produces — otherwise CDA pruning has deleted (or could
    // delete) a live column.
    ColSet seed;
    for (ColId c : {col::iter(), col::pos(), col::item()}) {
      if (dag.op(root).HasCol(c)) seed.insert(c);
    }
    std::unordered_map<OpId, ColSet> icols = ComputeICols(dag, root, seed);
    for (OpId id : order) {
      auto it = icols.find(id);
      if (it == icols.end()) continue;
      for (ColId c : it->second) {
        if (!dag.op(id).HasCol(c)) {
          return Fail(dag, id, "live-column",
                      "dependency analysis requires column '" + ColName(c) +
                          "' which the operator cannot produce");
        }
      }
    }
    // The framework liveness must agree exactly with the preserved
    // one-shot walk it replaced.
    std::unordered_map<OpId, ColSet> reference =
        DeriveLiveColumns(dag, root, seed);
    for (OpId id : order) {
      const ColSet& got = icols[id];
      const ColSet& want = reference[id];
      if (got != want) {
        return Fail(dag, id, "liveness-equivalence",
                    "framework liveness " + ColSetToString(got) +
                        " differs from the reference walk " +
                        ColSetToString(want));
      }
    }
    // Order provenance is liveness with attribution: it must demand
    // exactly the live columns, and every demanded column must carry at
    // least one in-range reason.
    OrderProvenance prov =
        ComputeOrderProvenance(dag, root, seed, /*strings=*/nullptr);
    for (OpId id : order) {
      const ColSet& live = icols[id];
      auto dit = prov.demand.find(id);
      ColSet domain;
      if (dit != prov.demand.end()) {
        for (const auto& [c, reasons] : dit->second) {
          domain.insert(c);
          if (reasons.empty()) {
            return Fail(dag, id, "order-provenance",
                        "demanded column '" + ColName(c) +
                            "' carries no attributed reason");
          }
          for (uint32_t rid : reasons) {
            if (rid >= prov.reasons.size()) {
              return Fail(dag, id, "order-provenance",
                          "reason id " + std::to_string(rid) +
                              " out of range for column '" + ColName(c) +
                              "'");
            }
          }
        }
      }
      if (domain != live) {
        return Fail(dag, id, "order-provenance",
                    "provenance demand " + ColSetToString(domain) +
                        " differs from live columns " +
                        ColSetToString(live));
      }
    }
  }
  return Status::Ok();
}

}  // namespace exrquy
