// Unit tests for the common layer: Status/Result, string interning,
// column symbols, Value identity/hashing.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algebra/algebra.h"
#include "common/governor.h"
#include "common/status.h"
#include "common/str_pool.h"
#include "common/symbols.h"
#include "common/value.h"

namespace exrquy {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = TypeError("bad operand");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
  EXPECT_EQ(st.message(), "bad operand");
  EXPECT_EQ(st.ToString(), "TypeError: bad operand");
}

TEST(StatusTest, FactoryCodes) {
  EXPECT_EQ(InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(CardinalityError("x").code(), StatusCode::kCardinalityError);
  EXPECT_EQ(Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EveryCodeHasAName) {
  // Exhaustive: every StatusCode in [0, kStatusCodeCount) maps to a
  // distinct printable name, and the first out-of-range value does not —
  // adding a code without extending the name table (or the count) fails
  // here.
  std::set<std::string> names;
  for (int i = 0; i < kStatusCodeCount; ++i) {
    std::string name = StatusCodeName(static_cast<StatusCode>(i));
    EXPECT_NE(name, "Unknown") << "code " << i << " missing from the table";
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate name \"" << name << "\" for code " << i;
  }
  EXPECT_EQ(StatusCodeName(static_cast<StatusCode>(kStatusCodeCount)),
            std::string("Unknown"));
}

TEST(StatusTest, UnavailableCode) {
  Status st = Unavailable("shed");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(st.ToString(), "Unavailable: shed");
  EXPECT_EQ(StatusCodeName(StatusCode::kUnavailable),
            std::string("Unavailable"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, ConvertibleValue) {
  // shared_ptr<X> converts into Result<shared_ptr<const X>>.
  auto p = std::make_shared<int>(7);
  Result<std::shared_ptr<const int>> r = p;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, 7);
}

TEST(ResultTest, MoveOut) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(StrPoolTest, EmptyStringIsIdZero) {
  StrPool pool;
  EXPECT_EQ(pool.Intern(""), StrPool::kEmpty);
  EXPECT_EQ(pool.Get(StrPool::kEmpty), "");
}

TEST(StrPoolTest, InternDeduplicates) {
  StrPool pool;
  StrId a = pool.Intern("hello");
  StrId b = pool.Intern("hello");
  StrId c = pool.Intern("world");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(pool.Get(a), "hello");
  EXPECT_EQ(pool.Get(c), "world");
}

TEST(StrPoolTest, ReferencesStableUnderGrowth) {
  StrPool pool;
  StrId first = pool.Intern("stable");
  const std::string* addr = &pool.Get(first);
  for (int i = 0; i < 10000; ++i) {
    pool.Intern("filler" + std::to_string(i));
  }
  EXPECT_EQ(&pool.Get(first), addr);
  EXPECT_EQ(pool.Get(first), "stable");
  // Dedup still works after heavy growth.
  EXPECT_EQ(pool.Intern("filler5000"), pool.Intern("filler5000"));
}

TEST(StrPoolTest, ConcurrentInternsAgreeWhileTheIndexGrows) {
  // 4 threads intern overlapping halves of 8000 strings, each in its own
  // order; the index starts at 64 slots, so it doubles many times while
  // lookups run beside the inserts.
  constexpr int kThreads = 4;
  constexpr int kStrings = 8000;
  StrPool pool;
  std::vector<std::vector<StrId>> ids(kThreads,
                                      std::vector<StrId>(kStrings, 0));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &ids, t] {
      std::vector<int> order;
      for (int i = 0; i < kStrings; ++i) {
        if ((i / 1000 + t) % 4 < 2) order.push_back(i);
      }
      if (t % 2 == 1) std::reverse(order.begin(), order.end());
      for (int i : order) {
        ids[t][i] = pool.Intern("s" + std::to_string(i));
        EXPECT_EQ(pool.Intern("s" + std::to_string(i)), ids[t][i]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(pool.size(), size_t{kStrings} + 1);  // and the empty string
  std::set<StrId> distinct;
  for (int i = 0; i < kStrings; ++i) {
    std::string s = "s" + std::to_string(i);
    StrId id = pool.Intern(s);
    EXPECT_EQ(pool.Get(id), s);
    EXPECT_TRUE(distinct.insert(id).second) << s;
    for (int t = 0; t < kThreads; ++t) {
      if ((i / 1000 + t) % 4 < 2) {
        EXPECT_EQ(ids[t][i], id) << s;
      }
    }
  }
  EXPECT_EQ(pool.size(), size_t{kStrings} + 1);
}

TEST(StrPoolTest, TruncateAcrossGrowthRestoresLookup) {
  StrPool pool;
  std::vector<StrId> kept;
  for (int i = 0; i < 20; ++i) {
    kept.push_back(pool.Intern("k" + std::to_string(i)));
  }
  size_t snapshot = pool.size();
  // 2000 more strings grow the 64-slot index at least five times.
  for (int i = 0; i < 2000; ++i) pool.Intern("d" + std::to_string(i));
  pool.TruncateTo(snapshot);
  EXPECT_EQ(pool.size(), snapshot);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(pool.Intern("k" + std::to_string(i)), kept[i]);
  }
  EXPECT_EQ(pool.size(), snapshot);
  // Dropped strings are gone from the index: re-interned in another
  // order, they take the ids from the snapshot's size onward.
  for (int i = 1999; i >= 0; --i) {
    EXPECT_EQ(pool.Intern("d" + std::to_string(i)),
              static_cast<StrId>(snapshot + 1999 - i));
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(pool.Intern("k" + std::to_string(i)), kept[i]);
  }
  // Per-query rollback, many times over: a truncation that left its
  // slots behind would fill the index without ever growing it.
  for (int round = 0; round < 64; ++round) {
    pool.TruncateTo(snapshot);
    for (int i = 0; i < 1000; ++i) {
      std::string s = "r" + std::to_string(round) + "-" + std::to_string(i);
      EXPECT_EQ(pool.Intern(s), static_cast<StrId>(snapshot + i));
    }
  }
  EXPECT_EQ(pool.Intern("k0"), kept[0]);
}

TEST(StrPoolTest, BudgetChargesEqualInternedBytes) {
  StrPool pool;
  MemoryBudget budget;
  pool.set_budget(&budget);
  size_t expected = 0;
  for (int i = 0; i < 500; ++i) {
    std::string s(static_cast<size_t>(i % 37), 'x');
    s += std::to_string(i);
    expected += StrPool::InternedBytes(s.size());
    pool.Intern(s);
    pool.Intern(s);  // a hit charges nothing
  }
  EXPECT_EQ(budget.charged(), expected);
  size_t keep = 200;
  size_t dropped = 0;
  for (size_t id = keep; id < pool.size(); ++id) {
    dropped += StrPool::InternedBytes(pool.Get(static_cast<StrId>(id)).size());
  }
  pool.TruncateTo(keep);
  EXPECT_EQ(budget.charged(), expected - dropped);
  pool.set_budget(nullptr);
  pool.Intern("not charged");
  EXPECT_EQ(budget.charged(), expected - dropped);
}

TEST(SymbolsTest, WellKnownColumnsAreStable) {
  EXPECT_EQ(col::iter(), ColSym("iter"));
  EXPECT_EQ(col::pos(), ColSym("pos"));
  EXPECT_EQ(col::item(), ColSym("item"));
  EXPECT_EQ(ColName(col::bind()), "bind");
}

TEST(SymbolsTest, FreshColsAreUnique) {
  Dag dag;
  ColId a = dag.FreshCol("pos");
  ColId b = dag.FreshCol("pos");
  EXPECT_NE(a, b);
  EXPECT_NE(a, col::pos());
  EXPECT_EQ(ColName(a).substr(0, 4), "pos$");
  // Numbering is per DAG: a second plan derives the same names again and
  // interns nothing new.
  size_t registered = ColCount();
  Dag again;
  EXPECT_EQ(again.FreshCol("pos"), a);
  EXPECT_EQ(again.FreshCol("pos"), b);
  EXPECT_EQ(ColCount(), registered);
  // Numbers continue after the names a normalizer already took.
  EXPECT_EQ(ColName(Dag(7).FreshCol("pos")), "pos$8");
}

TEST(ValueTest, IdentityPerKind) {
  EXPECT_TRUE(Value::Int(3) == Value::Int(3));
  EXPECT_FALSE(Value::Int(3) == Value::Int(4));
  EXPECT_FALSE(Value::Int(1) == Value::Double(1.0));  // bit identity
  EXPECT_TRUE(Value::Bool(true) == Value::Bool(true));
  EXPECT_TRUE(Value::Node(9) == Value::Node(9));
  EXPECT_FALSE(Value::Str(1) == Value::Untyped(1));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(123).Hash(), Value::Int(123).Hash());
  EXPECT_EQ(Value::Str(5).Hash(), Value::Str(5).Hash());
  EXPECT_NE(Value::Int(1).Hash(), Value::Node(1).Hash());
}

}  // namespace
}  // namespace exrquy
