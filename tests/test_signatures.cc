// Ground truth for the definitions the optimizer's analyses and the plan
// verifier's audit share instead of writing each twice:
//
//  * every row of the function and aggregate signature tables
//    (algebra/algebra.h) against the engine, on edge values — integers
//    at ±2^53±1 and the INT64 limits, doubles at ±0, ±inf and NaN,
//    xs:string, untypedAtomic, booleans and nodes: each result's kind
//    must lie within the row's result kind for every argument kind that
//    admits the arguments, and each order map must hold under the
//    engine's OrderCompare;
//  * every callable row's call signature (the parameters the compiler
//    lowers calls by) against Session::Execute: the result of a call with
//    an empty argument, and the error for a plural one;
//  * the order-fact algebra (FactImplies, AddOrderFact, OrderImplied in
//    opt/analyses.h) against brute force over every relation of up to
//    four rows over three {0, 1} columns.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "api/session.h"
#include "common/check.h"
#include "engine/eval.h"
#include "engine/value.h"
#include "opt/analyses.h"
#include "xml/xml_parser.h"

namespace exrquy {
namespace {

constexpr ItemKind kKinds[] = {ItemKind::kInt,  ItemKind::kNumeric,
                               ItemKind::kString, ItemKind::kBool,
                               ItemKind::kNode, ItemKind::kAny};

// ---------------------------------------------------------------------------
// Signature rows against the engine.
// ---------------------------------------------------------------------------

class SignatureTest : public ::testing::Test {
 protected:
  SignatureTest() : store_(&strings_), ops_(&strings_, &store_) {
    ctx_.store = &store_;
    ctx_.strings = &strings_;
    ctx_.num_threads = 1;
    Result<NodeIdx> doc = ParseXml(
        &store_, R"(<r><e a="10">9007199254740993</e><e>abc</e><e/></r>)");
    EXRQUY_CHECK(doc.ok());
    for (NodeIdx n = *doc; n <= *doc + store_.size(*doc); ++n) {
      values_.push_back(Value::Node(n));  // document, elements, attr, text
    }
    const int64_t p53 = int64_t{1} << 53;
    for (int64_t i : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{2},
                      p53 - 1, p53, p53 + 1, -p53 + 1, -p53, -p53 - 1,
                      std::numeric_limits<int64_t>::max(),
                      std::numeric_limits<int64_t>::min(),
                      std::numeric_limits<int64_t>::min() + 1}) {
      values_.push_back(Value::Int(i));
    }
    const double inf = std::numeric_limits<double>::infinity();
    for (double d : {0.0, -0.0, inf, -inf,
                     std::numeric_limits<double>::quiet_NaN(), 0.5, -0.5,
                     -0.3, 2.5, -2.5, 9007199254740992.0, 1e300, -1e300}) {
      values_.push_back(Value::Double(d));
    }
    for (const char* s : {"", "abc", "9", "10", "-0", "NaN", "INF"}) {
      values_.push_back(Value::Str(strings_.Intern(s)));
    }
    for (const char* s : {"", "abc", "9", "10", " 12 ", "-0", "NaN",
                          "9007199254740993", "-INF"}) {
      values_.push_back(Value::Untyped(strings_.Intern(s)));
    }
    values_.push_back(Value::Bool(false));
    values_.push_back(Value::Bool(true));
    // Further arguments range over a sample of each kind.
    for (size_t i = 0; i < values_.size(); i += 3) {
      sample_.push_back(values_[i]);
    }
  }

  std::string Show(const Value& v) const {
    std::string kind = ItemKindName(KindOfValue(v));
    if (v.kind == ValueKind::kNode) return kind + " node " +
                                           std::to_string(v.node);
    if (v.kind == ValueKind::kUntyped) kind = "untyped";
    return kind + " " + ops_.Render(v);
  }

  // The engine's value of `root`'s single result row, column `c`; false
  // when evaluation raises.
  bool EvalOne(OpId root, ColId c, Value* out) {
    Evaluator ev(dag_, &ctx_);
    Result<TablePtr> t = ev.Eval(root);
    if (!t.ok()) return false;
    EXPECT_EQ((*t)->rows(), 1u);
    *out = (*t)->at(c, 0);
    return true;
  }

  // fun(args...) through a Fun over a one-row literal.
  bool ApplyFun(FunKind fun, const std::vector<Value>& args, Value* out) {
    LitTable t;
    std::vector<ColId> cols;
    for (size_t i = 0; i < args.size(); ++i) {
      t.cols.push_back(kArgs[i]);
      cols.push_back(kArgs[i]);
    }
    t.rows.push_back(args);
    OpId f = dag_.Fun(dag_.Lit(std::move(t)), fun, res_, cols);
    return EvalOne(f, res_, out);
  }

  // aggr over one group holding `group`.
  bool ApplyAggr(AggrKind aggr, const std::vector<Value>& group, Value* out) {
    LitTable t;
    t.cols = {kArgs[0]};
    for (const Value& v : group) t.rows.push_back({v});
    OpId lit = dag_.Lit(std::move(t));
    OpId a = aggr == AggrKind::kStrJoin
                 ? dag_.AggrStrJoin(lit, res_, kArgs[0], kNoCol, kNoCol,
                                    strings_.Intern(" "))
                 : dag_.Aggr(lit, aggr, res_, kArgs[0], kNoCol);
    return EvalOne(a, res_, out);
  }

  // Every kind at or above `k` must cover the result kind its row gives.
  template <typename Sig>
  void ExpectCovered(const Sig& sig, ItemKind k, const Value& result,
                     const std::string& what) {
    for (ItemKind col : kKinds) {
      if (!KindLe(k, col)) continue;
      EXPECT_TRUE(KindLe(KindOfValue(result), sig.ResultFor(col)))
          << what << " = " << Show(result) << ", but the row gives kind '"
          << ItemKindName(sig.ResultFor(col)) << "' for a '"
          << ItemKindName(col) << "' column";
    }
  }

  // Whether f's images of a and b stand as `map` promises, given how a and
  // b compare.
  bool MapHolds(OrderMap map, int before, int after) const {
    auto sign = [](int c) { return (c > 0) - (c < 0); };
    switch (map) {
      case OrderMap::kIso:
        return sign(after) == sign(before);
      case OrderMap::kAnti:
        return sign(after) == -sign(before);
      case OrderMap::kMono:
        return before > 0 || after <= 0;  // a <= b implies f(a) <= f(b)
      case OrderMap::kNone:
        break;
    }
    return true;
  }

  const ColId kArgs[3] = {ColSym("sig_a0"), ColSym("sig_a1"),
                          ColSym("sig_a2")};
  const ColId res_ = ColSym("sig_res");
  StrPool strings_;
  NodeStore store_;
  ValueOps ops_;
  Dag dag_;
  EvalContext ctx_;
  std::vector<Value> values_;
  std::vector<Value> sample_;
};

TEST_F(SignatureTest, FunctionResultKindsHoldOnTheEngine) {
  for (size_t f = 0; f <= static_cast<size_t>(FunKind::kNodeName); ++f) {
    const FunKind fun = static_cast<FunKind>(f);
    const FunSig& sig = Signature(fun);
    size_t evaluated = 0;
    std::vector<Value> args(sig.arity);
    // The first argument over every edge value, the others over a sample.
    auto visit = [&](auto&& self, size_t i) -> void {
      if (i == args.size()) {
        Value r;
        if (!ApplyFun(fun, args, &r)) return;
        ++evaluated;
        std::string what = std::string(sig.name) + "(" + Show(args[0]);
        for (size_t j = 1; j < args.size(); ++j) what += ", " + Show(args[j]);
        ExpectCovered(sig, KindOfValue(args[0]), r, what + ")");
        return;
      }
      for (const Value& v : i == 0 ? values_ : sample_) {
        args[i] = v;
        self(self, i + 1);
      }
    };
    visit(visit, 0);
    EXPECT_GT(evaluated, 0u) << sig.name << " never evaluated";
  }
}

TEST_F(SignatureTest, FunctionOrderMapsHoldOnTheEngine) {
  size_t checked = 0;
  for (size_t f = 0; f <= static_cast<size_t>(FunKind::kNodeName); ++f) {
    const FunKind fun = static_cast<FunKind>(f);
    const FunSig& sig = Signature(fun);
    for (ItemKind k : kKinds) {
      OrderMap map = sig.OrderFor(k);
      if (map == OrderMap::kNone) continue;
      ASSERT_EQ(sig.arity, 1) << sig.name << ": maps are for one argument";
      // Every pair of arguments a column of kind k can hold.
      std::vector<std::pair<Value, Value>> images;
      for (const Value& v : values_) {
        Value r;
        if (KindLe(KindOfValue(v), k) && ApplyFun(fun, {v}, &r)) {
          images.emplace_back(v, r);
        }
      }
      for (const auto& [a, fa] : images) {
        for (const auto& [b, fb] : images) {
          ++checked;
          EXPECT_TRUE(MapHolds(map, ops_.OrderCompare(a, b),
                               ops_.OrderCompare(fa, fb)))
              << sig.name << " on a '" << ItemKindName(k) << "' column: "
              << Show(a) << " -> " << Show(fa) << ", " << Show(b) << " -> "
              << Show(fb);
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(SignatureTest, AggregateResultKindsHoldOnTheEngine) {
  for (size_t a = 0; a <= static_cast<size_t>(AggrKind::kStrJoin); ++a) {
    const AggrKind aggr = static_cast<AggrKind>(a);
    const AggrSig& sig = Signature(aggr);
    size_t evaluated = 0;
    auto check = [&](const std::vector<Value>& group) {
      Value r;
      if (!ApplyAggr(aggr, group, &r)) return;
      ++evaluated;
      ItemKind k = KindOfValue(group[0]);
      std::string what = std::string(sig.name) + "(" + Show(group[0]);
      for (size_t j = 1; j < group.size(); ++j) {
        k = KindJoin(k, KindOfValue(group[j]));
        what += ", " + Show(group[j]);
      }
      ExpectCovered(sig, k, r, what + ")");
    };
    for (const Value& x : values_) {
      check({x});
      for (const Value& y : values_) check({x, y});
    }
    EXPECT_GT(evaluated, 0u) << sig.name << " never evaluated";
  }
}

// ---------------------------------------------------------------------------
// Call signatures against the engine.
// ---------------------------------------------------------------------------

// Every callable row through Session::Execute, with order indifference
// off and on: a call with () for one parameter gives what the row says an
// empty argument gives (the call with the value the argument stands for,
// the row's result, nothing, or for an exactly-one parameter an error),
// and a two-item argument for an exactly-one or `?` parameter raises.
TEST(CallSignatureTest, EmptyAndPluralArgumentsFollowTheRow) {
  Session session;
  // A non-empty argument by the parameter's conversion.
  auto sample = [](const Param& p) -> std::string {
    if (p.convert == Convert::kString) return R"("ab")";
    return p.convert == Convert::kAtomize ? "2.5" : "<e>7</e>";
  };
  size_t checked = 0;
  auto check = [&](const CallSig& call, size_t arity) {
    for (const char* name : call.names) {
      if (name == nullptr) continue;
      for (size_t i = 0; i < arity; ++i) {
        const Param& p = call.params[i];
        auto with = [&](const std::string& arg) {
          std::string q = std::string(name) + "(";
          for (size_t j = 0; j < arity; ++j) {
            q += (j ? ", " : "") + (j == i ? arg : sample(call.params[j]));
          }
          return q + ")";
        };
        for (bool exploit : {false, true}) {
          QueryOptions options;
          options.enable_order_indifference = exploit;
          auto run = [&](const std::string& q) {
            return session.Execute(q, options);
          };
          const std::string empty = with("()");
          Result<QueryResult> got = run(empty);
          ++checked;
          if (p.occurs == Occurs::kOne) {
            EXPECT_EQ(got.status().code(), StatusCode::kCardinalityError)
                << empty << " -> " << got.status().ToString();
          } else {
            ASSERT_TRUE(got.ok()) << empty << " -> " << got.status().ToString();
            std::vector<std::string> want;
            switch (p.on_empty) {
              case OnEmpty::kNothing:
                break;
              case OnEmpty::kArgEmptyString:
              case OnEmpty::kArgNaN: {
                const char* value =
                    p.on_empty == OnEmpty::kArgNaN ? R"("NaN")" : R"("")";
                Result<QueryResult> stand_in = run(with(value));
                ASSERT_TRUE(stand_in.ok()) << stand_in.status().ToString();
                want = stand_in->items;
                break;
              }
              case OnEmpty::kResultEmptyString:
                want = {""};
                break;
              case OnEmpty::kResultZero:
                want = {"0"};
                break;
            }
            EXPECT_EQ(got->items, want) << empty;
          }
          if (p.occurs == Occurs::kMany) continue;
          const std::string two =
              with("(" + sample(p) + ", " + sample(p) + ")");
          EXPECT_EQ(run(two).status().code(), StatusCode::kCardinalityError)
              << two;
        }
      }
    }
  };
  for (size_t f = 0; f <= static_cast<size_t>(FunKind::kNodeName); ++f) {
    const FunSig& sig = Signature(static_cast<FunKind>(f));
    check(sig.call, sig.arity);
  }
  for (size_t a = 0; a <= static_cast<size_t>(AggrKind::kStrJoin); ++a) {
    check(Signature(static_cast<AggrKind>(a)).call, 1);
  }
  EXPECT_GT(checked, 50u);
}

// ---------------------------------------------------------------------------
// The order-fact algebra against brute force.
// ---------------------------------------------------------------------------

// Every relation of up to four rows over three {0, 1} columns, and for
// any property of a relation the set of relations that have it (a
// bitset over the enumeration).
class OrderFactAlgebraTest : public ::testing::Test {
 protected:
  using Row = std::array<int, 3>;
  using Rel = std::vector<Row>;
  using Bits = std::vector<uint64_t>;

  OrderFactAlgebraTest() {
    std::vector<Rel> frontier = {{}};
    rels_.push_back({});
    for (int len = 1; len <= 4; ++len) {
      std::vector<Rel> next;
      for (const Rel& r : frontier) {
        for (int v = 0; v < 8; ++v) {
          Rel e = r;
          e.push_back({v & 1, (v >> 1) & 1, (v >> 2) & 1});
          next.push_back(e);
        }
      }
      rels_.insert(rels_.end(), next.begin(), next.end());
      frontier = std::move(next);
    }
    // Every fact over distinct columns, with each direction, both
    // strictnesses.
    auto extend = [&](auto&& self, OrderFact f) -> void {
      if (!f.keys.empty()) {
        facts_.push_back(f);
        f.strict = true;
        facts_.push_back(f);
        f.strict = false;
      }
      if (f.keys.size() == 3) return;
      for (int c = 0; c < 3; ++c) {
        bool used = false;
        for (const SortKey& k : f.keys) used |= k.col == cols_[c];
        if (used) continue;
        for (bool desc : {false, true}) {
          OrderFact g = f;
          g.keys.push_back({cols_[c], desc});
          self(self, g);
        }
      }
    };
    extend(extend, OrderFact{});
  }

  int ColIndex(ColId c) const {
    for (int i = 0; i < 3; ++i) {
      if (cols_[i] == c) return i;
    }
    ADD_FAILURE() << "unknown column";
    return 0;
  }

  // Whether `rel` is sorted by `keys` (and, when strict, has no two rows
  // tying on all of them).
  bool Sorted(const Rel& rel, const std::vector<SortKey>& keys,
              bool strict) const {
    for (size_t r = 1; r < rel.size(); ++r) {
      int cmp = 0;
      for (const SortKey& k : keys) {
        int a = rel[r - 1][ColIndex(k.col)];
        int b = rel[r][ColIndex(k.col)];
        if (a != b) {
          cmp = (a < b) == k.descending ? 1 : -1;
          break;
        }
      }
      if (cmp > 0 || (strict && cmp == 0)) return false;
    }
    return true;
  }

  template <typename Pred>
  Bits Where(Pred pred) const {
    Bits out((rels_.size() + 63) / 64, 0);
    for (size_t i = 0; i < rels_.size(); ++i) {
      if (pred(rels_[i])) out[i / 64] |= uint64_t{1} << (i % 64);
    }
    return out;
  }

  // Memoized: the random tests below draw the same facts many times.
  const Bits& Holds(const OrderFact& f) {
    auto [it, fresh] = holds_.try_emplace(f.ToString());
    if (fresh) {
      it->second =
          Where([&](const Rel& r) { return Sorted(r, f.keys, f.strict); });
    }
    return it->second;
  }

  Bits All() const {
    return Where([](const Rel&) { return true; });
  }

  static void And(Bits* a, const Bits& b) {
    for (size_t i = 0; i < a->size(); ++i) (*a)[i] &= b[i];
  }

  static bool Subset(const Bits& a, const Bits& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      if ((a[i] & ~b[i]) != 0) return false;
    }
    return true;
  }

  const ColId cols_[3] = {ColSym("od_a"), ColSym("od_b"), ColSym("od_c")};
  std::vector<Rel> rels_;
  std::vector<OrderFact> facts_;
  std::map<std::string, Bits> holds_;  // by OrderFact::ToString
};

// Over facts of distinct columns, FactImplies is exactly implication.
TEST_F(OrderFactAlgebraTest, FactImpliesIsExactlyImplication) {
  ASSERT_EQ(rels_.size(), 4681u);
  ASSERT_EQ(facts_.size(), 156u);
  std::vector<Bits> holds;
  for (const OrderFact& f : facts_) holds.push_back(Holds(f));
  size_t implied = 0;
  for (size_t i = 0; i < facts_.size(); ++i) {
    for (size_t j = 0; j < facts_.size(); ++j) {
      bool claimed = FactImplies(facts_[i], facts_[j]);
      implied += claimed;
      EXPECT_EQ(claimed, Subset(holds[i], holds[j]))
          << facts_[i].ToString() << " => " << facts_[j].ToString();
    }
  }
  EXPECT_GT(implied, facts_.size());
}

// AddOrderFact keeps only facts the inserted ones imply and, while the
// caps do not bind, loses none of them.
TEST_F(OrderFactAlgebraTest, AddOrderFactKeepsExactlyTheInsertedFacts) {
  std::mt19937 rng(24);
  struct Caps {
    size_t facts;
    size_t keys;
  };
  for (Caps caps : {Caps{kMaxOrderFacts, kMaxOrderKeys}, Caps{12, 6},
                    Caps{2, 2}, Caps{3, 1}}) {
    for (int trial = 0; trial < 2000; ++trial) {
      std::vector<OrderFact> set;
      Bits inserted = All();
      size_t n = 1 + rng() % 6;
      bool may_bind = n > caps.facts;
      for (size_t i = 0; i < n; ++i) {
        // Keys may repeat a column: sorting again by it is a no-op.
        OrderFact f;
        size_t len = 1 + rng() % 4;
        for (size_t k = 0; k < len; ++k) {
          f.keys.push_back({cols_[rng() % 3], rng() % 2 == 1});
        }
        f.strict = rng() % 2 == 1;
        may_bind |= len > caps.keys;
        And(&inserted, Holds(f));
        AddOrderFact(&set, f, caps.facts, caps.keys);
      }
      ASSERT_LE(set.size(), caps.facts);
      Bits kept = All();
      for (const OrderFact& g : set) {
        ASSERT_LE(g.keys.size(), caps.keys);
        Bits h = Holds(g);
        EXPECT_TRUE(Subset(inserted, h)) << g.ToString() << " not implied";
        And(&kept, h);
      }
      if (!may_bind) {
        EXPECT_EQ(kept, inserted) << "a fact was lost";
      }
    }
  }
}

// Whenever OrderImplied licenses dropping a sort, every relation meeting
// its premises is already in the requested order.
TEST_F(OrderFactAlgebraTest, OrderImpliedIsSound) {
  std::vector<Bits> holds;
  for (const OrderFact& f : facts_) holds.push_back(Holds(f));
  Bits at_most_one = Where([](const Rel& r) { return r.size() <= 1; });
  std::vector<Bits> constant;
  std::vector<Bits> key;
  for (int c = 0; c < 3; ++c) {
    constant.push_back(Where([&](const Rel& r) {
      for (const Row& row : r) {
        if (row[c] != r[0][c]) return false;
      }
      return true;
    }));
    key.push_back(Where([&](const Rel& r) {
      for (size_t i = 0; i < r.size(); ++i) {
        for (size_t j = i + 1; j < r.size(); ++j) {
          if (r[i][c] == r[j][c]) return false;
        }
      }
      return true;
    }));
  }
  std::mt19937 rng(7);
  size_t licensed = 0;
  for (int trial = 0; trial < 100000; ++trial) {
    std::vector<OrderFact> facts;
    Bits premise = All();
    for (size_t i = rng() % 4; i > 0; --i) {
      size_t f = rng() % facts_.size();
      facts.push_back(facts_[f]);
      And(&premise, holds[f]);
    }
    ColSet constants;
    ColSet keys;
    for (int c = 0; c < 3; ++c) {
      if (rng() % 5 == 0) {
        constants.insert(cols_[c]);
        And(&premise, constant[c]);
      }
      if (rng() % 5 == 0) {
        keys.insert(cols_[c]);
        And(&premise, key[c]);
      }
    }
    bool one = rng() % 10 == 0;
    if (one) And(&premise, at_most_one);
    std::vector<SortKey> requested;
    for (size_t k = 1 + rng() % 3; k > 0; --k) {
      requested.push_back({cols_[rng() % 3], rng() % 2 == 1});
    }
    if (!OrderImplied(facts, constants, keys, one, requested)) continue;
    ++licensed;
    EXPECT_TRUE(Subset(premise, Holds({requested, false})))
        << "licensed a sort that is not the identity: facts "
        << OrderFacts{facts}.ToString() << ", requested "
        << OrderFact{requested, false}.ToString();
  }
  EXPECT_GT(licensed, 1000u);
}

// Conjunction: rows sorted by a prefix of one fact, and globally by
// another fact's keys, are sorted by the prefix followed by those keys —
// the ties on the prefix are contiguous runs, each sorted by the rest.
// OrderImplied licenses every such request, and each soundly.
TEST_F(OrderFactAlgebraTest, OrderImpliedJoinsAPrefixAndAnotherFact) {
  size_t pairs = 0;
  for (const OrderFact& f : facts_) {
    for (const OrderFact& g : facts_) {
      Bits premise = Holds(f);
      And(&premise, Holds(g));
      for (size_t p = 1; p <= f.keys.size(); ++p) {
        std::vector<SortKey> requested(f.keys.begin(), f.keys.begin() + p);
        requested.insert(requested.end(), g.keys.begin(), g.keys.end());
        ++pairs;
        EXPECT_TRUE(OrderImplied({f, g}, {}, {}, false, requested))
            << OrderFact{requested, false}.ToString() << " from "
            << f.ToString() << " " << g.ToString();
        EXPECT_TRUE(Subset(premise, Holds({requested, false})))
            << "licensed a sort that is not the identity: facts "
            << f.ToString() << " " << g.ToString() << ", requested "
            << OrderFact{requested, false}.ToString();
      }
    }
  }
  EXPECT_EQ(pairs, 396u * facts_.size());  // the facts hold 396 keys
}

}  // namespace
}  // namespace exrquy
