// Unit tests for XQuery value semantics: atomization, casts, arithmetic
// promotion, general-comparison casting rules, effective boolean values,
// the total sort order behind %, and double formatting.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <tuple>

#include "engine/value.h"
#include "xml/xml_parser.h"

namespace exrquy {
namespace {

class ValueOpsTest : public ::testing::Test {
 protected:
  ValueOpsTest() : store_(&strings_), ops_(&strings_, &store_) {}

  Value U(const char* s) { return Value::Untyped(strings_.Intern(s)); }
  Value S(const char* s) { return Value::Str(strings_.Intern(s)); }

  bool CompareBool(FunKind op, Value a, Value b) {
    Result<Value> r = ops_.Compare(op, a, b);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r->b;
  }

  StrPool strings_;
  NodeStore store_;
  ValueOps ops_;
};

TEST_F(ValueOpsTest, AtomizeAtomicsUnchanged) {
  EXPECT_TRUE(ops_.Atomize(Value::Int(5)) == Value::Int(5));
  EXPECT_TRUE(ops_.Atomize(Value::Bool(true)) == Value::Bool(true));
}

TEST_F(ValueOpsTest, AtomizeElementYieldsUntypedStringValue) {
  Result<NodeIdx> doc = ParseXml(&store_, "<a>12<b>3</b></a>");
  ASSERT_TRUE(doc.ok());
  Value v = ops_.Atomize(Value::Node(*doc + 1));
  EXPECT_EQ(v.kind, ValueKind::kUntyped);
  EXPECT_EQ(strings_.Get(v.str), "123");
}

TEST_F(ValueOpsTest, AtomizeAttribute) {
  Result<NodeIdx> doc = ParseXml(&store_, "<a k=\"42\"/>");
  ASSERT_TRUE(doc.ok());
  Value v = ops_.Atomize(Value::Node(*doc + 2));
  EXPECT_EQ(v.kind, ValueKind::kUntyped);
  EXPECT_EQ(strings_.Get(v.str), "42");
}

// Atomize answers elements and documents with at most one text
// descendant, and text and comment nodes, from ids the pool already
// holds. Every node's id must still be the one Intern(StringValue)
// gives, and a string value interned for the first time must still be
// interned by Atomize itself (the pool does not grow afterwards).
TEST_F(ValueOpsTest, AtomizeEqualsInternOfStringValue) {
  NodeBuilder b(&store_);
  b.BeginDocument();
  b.BeginElement("r");
  b.Attribute("k", "v");
  b.BeginElement("none");         // 0 text descendants
  b.BeginElement("empty");
  b.EndElement();
  b.EndElement();
  b.BeginElement("one");          // 1 text descendant, nested
  b.BeginElement("in");
  b.Text("alpha");
  b.EndElement();
  b.Comment("not text");
  b.EndElement();
  b.BeginElement("two");          // 2 text descendants
  b.Text("be");
  b.BeginElement("in");
  b.Text("ta");
  b.EndElement();
  b.EndElement();
  b.BeginElement("three");        // 3, one of them empty
  b.Text("x");
  b.Text("");
  b.Text("y");
  b.EndElement();
  b.EndElement();
  b.EndDocument();
  NodeIdx doc = b.Finish();
  NodeBuilder one_text(&store_);  // a document with one text descendant
  one_text.BeginDocument();
  one_text.Text("solo");
  one_text.EndDocument();
  NodeIdx solo = one_text.Finish();
  NodeBuilder no_text(&store_);   // a document with none
  no_text.BeginDocument();
  no_text.Comment("c");
  no_text.EndDocument();
  NodeIdx bare = no_text.Finish();
  EXPECT_EQ(strings_.Get(ops_.Atomize(Value::Node(solo)).str), "solo");
  EXPECT_EQ(ops_.Atomize(Value::Node(bare)).str, StrPool::kEmpty);

  for (NodeIdx n = doc; n < store_.node_count(); ++n) {
    Value v = ops_.Atomize(Value::Node(n));
    size_t pool = strings_.size();
    EXPECT_EQ(v.kind, ValueKind::kUntyped) << n;
    EXPECT_EQ(v.str, strings_.Intern(store_.StringValue(n))) << n;
    EXPECT_EQ(strings_.size(), pool) << n;
  }
}

TEST_F(ValueOpsTest, ToDoubleParsing) {
  EXPECT_DOUBLE_EQ(ops_.ToDouble(U("3.5"))->d, 3.5);
  EXPECT_DOUBLE_EQ(ops_.ToDouble(U("  42 "))->d, 42.0);
  EXPECT_DOUBLE_EQ(ops_.ToDouble(Value::Int(7))->d, 7.0);
  EXPECT_FALSE(ops_.ToDouble(U("abc")).ok());
  EXPECT_FALSE(ops_.ToDouble(U("12x")).ok());
  EXPECT_FALSE(ops_.ToDouble(Value::Node(0)).ok());
}

TEST_F(ValueOpsTest, ToStringRendering) {
  EXPECT_EQ(strings_.Get(ops_.ToString(Value::Int(12))->str), "12");
  EXPECT_EQ(strings_.Get(ops_.ToString(Value::Bool(false))->str), "false");
  EXPECT_EQ(strings_.Get(ops_.ToString(U("raw"))->str), "raw");
  EXPECT_FALSE(ops_.ToString(Value::Node(0)).ok());
}

TEST_F(ValueOpsTest, ArithmeticPromotion) {
  Result<Value> ii = ops_.Arith(FunKind::kAdd, Value::Int(2), Value::Int(3));
  EXPECT_EQ(ii->kind, ValueKind::kInt);
  EXPECT_EQ(ii->i, 5);
  Result<Value> id =
      ops_.Arith(FunKind::kMul, Value::Int(2), Value::Double(1.5));
  EXPECT_EQ(id->kind, ValueKind::kDouble);
  EXPECT_DOUBLE_EQ(id->d, 3.0);
  // Untyped casts to double (the 5000 * $i case of Q11).
  Result<Value> ud = ops_.Arith(FunKind::kMul, Value::Int(5000), U("2.5"));
  EXPECT_DOUBLE_EQ(ud->d, 12500.0);
}

TEST_F(ValueOpsTest, DivisionSemantics) {
  // div on integers yields a double (xs:decimal stand-in)...
  Result<Value> d = ops_.Arith(FunKind::kDiv, Value::Int(7), Value::Int(2));
  EXPECT_DOUBLE_EQ(d->d, 3.5);
  // ... idiv truncates, mod keeps sign of the dividend.
  EXPECT_EQ(ops_.Arith(FunKind::kIDiv, Value::Int(7), Value::Int(2))->i, 3);
  EXPECT_EQ(ops_.Arith(FunKind::kMod, Value::Int(7), Value::Int(2))->i, 1);
  EXPECT_FALSE(ops_.Arith(FunKind::kDiv, Value::Int(1), Value::Int(0)).ok());
  EXPECT_FALSE(
      ops_.Arith(FunKind::kAdd, S("nope"), Value::Int(1)).ok());
}

// F&O sign rules: idiv truncates toward zero, mod keeps the dividend's
// sign, for every sign combination.
TEST_F(ValueOpsTest, IDivAndModSigns) {
  auto idiv = [&](int64_t a, int64_t b) {
    return ops_.Arith(FunKind::kIDiv, Value::Int(a), Value::Int(b))->i;
  };
  auto mod = [&](int64_t a, int64_t b) {
    return ops_.Arith(FunKind::kMod, Value::Int(a), Value::Int(b))->i;
  };
  EXPECT_EQ(idiv(7, -2), -3);
  EXPECT_EQ(idiv(-7, 2), -3);
  EXPECT_EQ(idiv(-7, -2), 3);
  EXPECT_EQ(mod(7, -2), 1);
  EXPECT_EQ(mod(-7, 2), -1);
  EXPECT_EQ(mod(-7, -2), -1);
}

// Pre-fix, integer idiv went through double division and silently lost
// precision past 2^53.
TEST_F(ValueOpsTest, IntegerIDivIsExact) {
  const int64_t big = 9007199254740993;  // 2^53 + 1
  Result<Value> r = ops_.Arith(FunKind::kIDiv, Value::Int(big), Value::Int(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kind, ValueKind::kInt);
  EXPECT_EQ(r->i, big);
}

TEST_F(ValueOpsTest, DivideByZeroIsFoar0001) {
  for (FunKind op : {FunKind::kDiv, FunKind::kIDiv, FunKind::kMod}) {
    Result<Value> r = ops_.Arith(op, Value::Int(1), Value::Int(0));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
    EXPECT_NE(r.status().message().find("FOAR0001"), std::string::npos)
        << r.status().ToString();
  }
}

// INT64_MIN edge cases: idiv -1 overflows (FOAR0002); mod -1 is exactly
// 0 — pre-fix both were undefined behavior (hardware trap under UBSan).
TEST_F(ValueOpsTest, Int64MinEdgeCases) {
  const int64_t min = std::numeric_limits<int64_t>::min();
  Result<Value> overflow =
      ops_.Arith(FunKind::kIDiv, Value::Int(min), Value::Int(-1));
  ASSERT_FALSE(overflow.ok());
  EXPECT_NE(overflow.status().message().find("FOAR0002"), std::string::npos);
  Result<Value> zero =
      ops_.Arith(FunKind::kMod, Value::Int(min), Value::Int(-1));
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->i, 0);
}

// Integer +, -, * detect overflow instead of wrapping (pre-fix: UB).
TEST_F(ValueOpsTest, AddSubMulOverflowIsFoar0002) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  for (auto [op, a, b] :
       {std::tuple{FunKind::kAdd, max, int64_t{1}},
        std::tuple{FunKind::kSub, min, int64_t{1}},
        std::tuple{FunKind::kMul, max, int64_t{2}}}) {
    Result<Value> r = ops_.Arith(op, Value::Int(a), Value::Int(b));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
    EXPECT_NE(r.status().message().find("FOAR0002"), std::string::npos)
        << r.status().ToString();
  }
  // In-range results stay exact.
  EXPECT_EQ(ops_.Arith(FunKind::kAdd, Value::Int(max - 1), Value::Int(1))->i,
            max);
}

// Double-path idiv: NaN / infinite dividends and zero divisors error;
// finite quotients truncate toward zero.
TEST_F(ValueOpsTest, DoubleIDivEdgeCases) {
  EXPECT_EQ(
      ops_.Arith(FunKind::kIDiv, Value::Double(7.5), Value::Int(2))->i, 3);
  EXPECT_EQ(
      ops_.Arith(FunKind::kIDiv, Value::Int(-7), Value::Double(2.0))->i, -3);
  EXPECT_FALSE(
      ops_.Arith(FunKind::kIDiv, Value::Double(1.0), Value::Double(0.0)).ok());
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(
      ops_.Arith(FunKind::kIDiv, Value::Double(inf), Value::Int(2)).ok());
  EXPECT_FALSE(
      ops_.Arith(FunKind::kIDiv, Value::Double(nan), Value::Int(2)).ok());
  // Quotients beyond int64 range overflow cleanly.
  EXPECT_FALSE(
      ops_.Arith(FunKind::kIDiv, Value::Double(1e300), Value::Double(1.0))
          .ok());
}

TEST_F(ValueOpsTest, GeneralComparisonCasting) {
  // untyped vs number: numeric comparison.
  EXPECT_TRUE(CompareBool(FunKind::kGt, U("40"), Value::Int(5)));
  EXPECT_TRUE(CompareBool(FunKind::kLt, Value::Int(5), U("40")));
  // untyped vs untyped: string comparison ("40" < "5").
  EXPECT_TRUE(CompareBool(FunKind::kLt, U("40"), U("5")));
  // untyped vs string: string comparison.
  EXPECT_TRUE(CompareBool(FunKind::kEq, U("abc"), S("abc")));
  // int vs double.
  EXPECT_TRUE(CompareBool(FunKind::kEq, Value::Int(2), Value::Double(2.0)));
  // booleans.
  EXPECT_TRUE(
      CompareBool(FunKind::kNe, Value::Bool(true), Value::Bool(false)));
}

TEST_F(ValueOpsTest, ComparisonErrors) {
  EXPECT_FALSE(ops_.Compare(FunKind::kEq, S("a"), Value::Int(1)).ok());
  EXPECT_FALSE(
      ops_.Compare(FunKind::kEq, Value::Node(0), Value::Int(1)).ok());
  EXPECT_FALSE(ops_.Compare(FunKind::kGt, U("xyz"), Value::Int(1)).ok());
}

TEST_F(ValueOpsTest, EffectiveBooleanValues) {
  EXPECT_FALSE(ops_.EbvSingle(Value::Int(0)));
  EXPECT_TRUE(ops_.EbvSingle(Value::Int(-3)));
  EXPECT_FALSE(ops_.EbvSingle(Value::Double(0.0)));
  EXPECT_FALSE(ops_.EbvSingle(U("")));
  EXPECT_TRUE(ops_.EbvSingle(U("x")));
  EXPECT_TRUE(ops_.EbvSingle(Value::Bool(true)));
  EXPECT_TRUE(ops_.EbvSingle(Value::Node(0)));
}

TEST_F(ValueOpsTest, OrderCompareTotalOrder) {
  // Class order: numerics < strings < bools < nodes.
  EXPECT_LT(ops_.OrderCompare(Value::Int(999), S("a")), 0);
  EXPECT_LT(ops_.OrderCompare(S("zzz"), Value::Bool(false)), 0);
  EXPECT_LT(ops_.OrderCompare(Value::Bool(true), Value::Node(0)), 0);
  // Within classes.
  EXPECT_LT(ops_.OrderCompare(Value::Int(1), Value::Double(1.5)), 0);
  EXPECT_EQ(ops_.OrderCompare(Value::Int(2), Value::Double(2.0)), 0);
  EXPECT_LT(ops_.OrderCompare(S("abc"), S("abd")), 0);
  EXPECT_LT(ops_.OrderCompare(Value::Node(3), Value::Node(9)), 0);
  EXPECT_GT(ops_.OrderCompare(Value::Node(9), Value::Node(3)), 0);
}

TEST_F(ValueOpsTest, FormatDoubleIntegralAndSpecial) {
  EXPECT_EQ(FormatDouble(5500.0), "5500");
  EXPECT_EQ(FormatDouble(-3.0), "-3");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
  EXPECT_EQ(FormatDouble(1.0 / 0.0), "INF");
  EXPECT_EQ(FormatDouble(-1.0 / 0.0), "-INF");
  EXPECT_EQ(FormatDouble(0.0 / 0.0), "NaN");
}

TEST_F(ValueOpsTest, RenderPerKind) {
  EXPECT_EQ(ops_.Render(Value::Int(7)), "7");
  EXPECT_EQ(ops_.Render(Value::Double(2.25)), "2.25");
  EXPECT_EQ(ops_.Render(Value::Bool(true)), "true");
  EXPECT_EQ(ops_.Render(S("s")), "s");
}

}  // namespace
}  // namespace exrquy
