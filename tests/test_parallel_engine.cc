// Determinism contract of the parallel execution engine: for every
// query, every thread count and every morsel size, the result — the
// serialized string, the item list, and even the error on failing
// queries — is byte-identical to num_threads = 1, which is the exact
// serial evaluation order. The suite drives the contract three ways:
//
//   * all twenty XMark queries, serial vs 4 threads with a tiny morsel
//     size (so every kernel actually splits);
//   * a fuzz corpus in the style of test_fuzz_equivalence, where the
//     random plans exercise operator mixes the XMark set does not;
//   * queries that fail mid-flight, where the scheduler must cancel
//     in-flight work, drain the DAG without hanging, and still report
//     the same first error the serial order would;
//
// plus the memory half of the engine: refcounted release of
// intermediate tables must strictly lower the peak live footprint on
// XMark Q11 (the join-heavy profile query of Table 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/session.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace exrquy {
namespace {

QueryOptions Serial() {
  QueryOptions o;
  o.num_threads = 1;
  return o;
}

QueryOptions Parallel(size_t morsel_rows = 7) {
  QueryOptions o;
  o.num_threads = 4;
  o.morsel_rows = morsel_rows;  // tiny: splits every kernel into morsels
  return o;
}

class ParallelEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    session_ = new Session();
    XMarkOptions options;
    options.scale = 0.004;
    ASSERT_TRUE(
        session_->LoadDocument("auction.xml", GenerateXMark(options)).ok());
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }

  static Session* session_;
};

Session* ParallelEngineTest::session_ = nullptr;

TEST_F(ParallelEngineTest, XMarkByteIdenticalAtFourThreads) {
  for (const XMarkQuery& q : XMarkQueries()) {
    Result<QueryResult> serial = session_->Execute(q.text, Serial());
    Result<QueryResult> parallel = session_->Execute(q.text, Parallel());
    ASSERT_TRUE(serial.ok()) << q.name << ": " << serial.status().ToString();
    ASSERT_TRUE(parallel.ok())
        << q.name << ": " << parallel.status().ToString();
    EXPECT_EQ(serial->serialized, parallel->serialized) << q.name;
    EXPECT_EQ(serial->items, parallel->items) << q.name;
  }
}

TEST_F(ParallelEngineTest, XMarkByteIdenticalUnorderedMode) {
  // Order indifference rewrites change the plans; the engine contract
  // holds for whatever plan it is handed.
  for (const XMarkQuery& q : XMarkQueries()) {
    QueryOptions serial_opts = Serial();
    QueryOptions parallel_opts = Parallel();
    serial_opts.default_ordering = OrderingMode::kUnordered;
    parallel_opts.default_ordering = OrderingMode::kUnordered;
    Result<QueryResult> serial = session_->Execute(q.text, serial_opts);
    Result<QueryResult> parallel = session_->Execute(q.text, parallel_opts);
    ASSERT_TRUE(serial.ok()) << q.name << ": " << serial.status().ToString();
    ASSERT_TRUE(parallel.ok())
        << q.name << ": " << parallel.status().ToString();
    EXPECT_EQ(serial->serialized, parallel->serialized) << q.name;
    EXPECT_EQ(serial->items, parallel->items) << q.name;
  }
}

TEST_F(ParallelEngineTest, ChunkSizeNeverObservable) {
  // Morsel boundaries are a pure function of input size; none of them
  // may leak into the result.
  const std::string& q10 = XMarkQueryText("Q10");
  Result<QueryResult> reference = session_->Execute(q10, Serial());
  ASSERT_TRUE(reference.ok());
  for (size_t morsel_rows : {size_t{1}, size_t{3}, size_t{64}, size_t{65536}}) {
    Result<QueryResult> r = session_->Execute(q10, Parallel(morsel_rows));
    ASSERT_TRUE(r.ok()) << "morsel_rows=" << morsel_rows;
    EXPECT_EQ(reference->serialized, r->serialized)
        << "morsel_rows=" << morsel_rows;
    EXPECT_EQ(reference->items, r->items) << "morsel_rows=" << morsel_rows;
  }
}

// ---------------------------------------------------------------------
// Fuzz corpus (generator in the style of test_fuzz_equivalence, biased
// toward joins, unions and constructors — the multi-morsel kernels).

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  int Below(int n) { return static_cast<int>(Next() % n); }

 private:
  uint64_t state_;
};

std::string RandomDoc(Rng* rng) {
  std::string xml = "<top>";
  int groups = 3 + rng->Below(4);
  for (int g = 0; g < groups; ++g) {
    xml += "<g k=\"" + std::to_string(rng->Below(6)) + "\">";
    int leaves = rng->Below(5);
    for (int l = 0; l < leaves; ++l) {
      int v = rng->Below(30);
      xml += (rng->Below(2) != 0)
                 ? "<n>" + std::to_string(v) + "</n>"
                 : "<m v=\"" + std::to_string(v) + "\"/>";
    }
    xml += "</g>";
  }
  xml += "</top>";
  return xml;
}

std::string NodeExpr(Rng* rng, int depth) {
  if (depth <= 0) return R"(doc("f.xml")/top/g)";
  switch (rng->Below(5)) {
    case 0:
      return NodeExpr(rng, depth - 1) + "/n";
    case 1:
      return NodeExpr(rng, depth - 1) + "//m";
    case 2:
      return "(" + NodeExpr(rng, depth - 1) + " | " +
             NodeExpr(rng, depth - 1) + ")";
    case 3:
      return NodeExpr(rng, depth - 1) + "[" +
             std::to_string(1 + rng->Below(3)) + "]";
    default:
      return R"(doc("f.xml")//g)";
  }
}

std::string RandomQuery(Rng* rng) {
  switch (rng->Below(6)) {
    case 0:
      // Value join: EquiJoin build + chunked probe.
      return "for $a in doc(\"f.xml\")//g, $b in doc(\"f.xml\")//g "
             "where $a/@k = $b/@k return count($b/n)";
    case 1:
      return "for $x in " + NodeExpr(rng, 2) +
             " where count($x/n) > " + std::to_string(rng->Below(3)) +
             " return <r>{ $x/@k }</r>";
    case 2:
      return "for $x in " + NodeExpr(rng, 1) +
             " order by number($x/@k), count($x/n) return name($x)";
    case 3:
      return "sum(for $x in " + NodeExpr(rng, 2) + " return count($x))";
    case 4:
      return "for $x in " + NodeExpr(rng, 2) +
             " return ($x/@k, count($x//m))";
    default:
      return "count(" + NodeExpr(rng, 2) + ")";
  }
}

TEST(ParallelEngineFuzzTest, CorpusByteIdentical) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed + 4242);
    Session session;
    ASSERT_TRUE(session.LoadDocument("f.xml", RandomDoc(&rng)).ok());
    int executed = 0;
    for (int i = 0; i < 25; ++i) {
      std::string query = RandomQuery(&rng);
      Result<QueryResult> serial = session.Execute(query, Serial());
      Result<QueryResult> parallel = session.Execute(query, Parallel(3));
      ASSERT_EQ(serial.ok(), parallel.ok())
          << query << "\nserial:   " << serial.status().ToString()
          << "\nparallel: " << parallel.status().ToString();
      if (!serial.ok()) {
        // Even failures must be deterministic: the scheduler reports
        // the first error of the serial evaluation order.
        EXPECT_EQ(serial.status().ToString(), parallel.status().ToString())
            << query;
        continue;
      }
      ++executed;
      EXPECT_EQ(serial->serialized, parallel->serialized) << query;
      EXPECT_EQ(serial->items, parallel->items) << query;
    }
    EXPECT_GT(executed, 15) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// Cancellation: a query that fails at runtime, executed with all the
// parallel machinery engaged. The scheduler must cancel outstanding
// work, drain the DAG (the test completing at all proves no hang), leak
// nothing (the ASan job covers that), and report the serial error.

TEST_F(ParallelEngineTest, RuntimeErrorCancelsCleanly) {
  // Arithmetic requires a singleton; //person is plural, so the plan's
  // cardinality check fails mid-flight while sibling subtrees are still
  // being evaluated.
  const std::string query = R"(1 + doc("auction.xml")//person)";
  Result<QueryResult> serial = session_->Execute(query, Serial());
  ASSERT_FALSE(serial.ok());
  for (int i = 0; i < 20; ++i) {
    Result<QueryResult> parallel = session_->Execute(query, Parallel(2));
    ASSERT_FALSE(parallel.ok());
    EXPECT_EQ(serial.status().ToString(), parallel.status().ToString());
  }
}

TEST_F(ParallelEngineTest, ErrorsInFuzzNeverHang) {
  // Malformed-at-runtime variants over the auction document.
  const std::vector<std::string> failing = {
      R"(sum(doc("auction.xml")//person/name))",  // non-numeric text
      R"(1 + doc("auction.xml")//item)",
      R"((doc("auction.xml")//person)[1] * 2)",
  };
  for (const std::string& query : failing) {
    Result<QueryResult> serial = session_->Execute(query, Serial());
    Result<QueryResult> parallel = session_->Execute(query, Parallel(2));
    ASSERT_EQ(serial.ok(), parallel.ok()) << query;
    if (!serial.ok()) {
      EXPECT_EQ(serial.status().ToString(), parallel.status().ToString())
          << query;
    } else {
      EXPECT_EQ(serial->items, parallel->items) << query;
    }
  }
}

// ---------------------------------------------------------------------
// Memory: refcounted intermediate release (the scheduler's per-slot consumer counts).

TEST_F(ParallelEngineTest, Q11PeakMemoryStrictlyLowerWithRelease) {
  const std::string& q11 = XMarkQueryText("Q11");
  QueryOptions keep = Serial();
  keep.profile = true;
  keep.release_intermediates = false;
  QueryOptions release = Serial();
  release.profile = true;
  release.release_intermediates = true;

  Result<QueryResult> kept = session_->Execute(q11, keep);
  Result<QueryResult> released = session_->Execute(q11, release);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  ASSERT_TRUE(released.ok()) << released.status().ToString();

  // Same answer either way...
  EXPECT_EQ(kept->serialized, released->serialized);
  // ...but the live frontier is strictly smaller than the whole plan.
  EXPECT_GT(released->profile.released_tables(), 0u);
  EXPECT_LT(released->profile.peak_live_bytes(),
            kept->profile.peak_live_bytes());
  // And release is on by default in the parallel path too.
  QueryOptions par = Parallel();
  par.profile = true;
  Result<QueryResult> parallel = session_->Execute(q11, par);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(kept->serialized, parallel->serialized);
  EXPECT_LT(parallel->profile.peak_live_bytes(),
            kept->profile.peak_live_bytes());
}

TEST_F(ParallelEngineTest, ProfileRecordsSchedulerFacts) {
  QueryOptions par = Parallel();
  par.profile = true;
  Result<QueryResult> r = session_->Execute(XMarkQueryText("Q8"), par);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->profile.threads(), 4u);
  EXPECT_FALSE(r->profile.ops().empty());
  size_t chunked = 0;
  for (const Profile::OpMetrics& m : r->profile.ops()) {
    if (m.chunks > 1) ++chunked;
  }
  EXPECT_GT(chunked, 0u) << "tiny morsel_rows must split at least one kernel";
  // The JSON dump serializes without blowing up and carries the facts.
  std::string json = r->profile.ToJson();
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"peak_live_bytes\""), std::string::npos);
}

}  // namespace
}  // namespace exrquy
