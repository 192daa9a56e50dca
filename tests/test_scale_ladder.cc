// Differential scale ladder, first rung: every XMark query in both
// ordering modes at scale 0.1 — 31x the toy document, where Q10's
// product space reached 255,000 rows — must render the same bytes
// serially at the default morsel size and on 4 threads over 4096-row
// morsels, and Q10 the same bytes as its product-space plan
// (join_recognition = false). Labelled `slow`: `ctest -L slow` runs it
// alone, `ctest -LE slow` skips it.
#include <gtest/gtest.h>

#include <string>

#include "api/session.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace exrquy {
namespace {

class ScaleLadderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    session_ = new Session();
    XMarkOptions options;
    options.scale = 0.1;
    ASSERT_TRUE(
        session_->LoadDocument("auction.xml", GenerateXMark(options)).ok());
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }

  static std::string Run(const std::string& q, QueryOptions o,
                         OrderingMode mode) {
    o.default_ordering = mode;
    Result<QueryResult> r = session_->Execute(q, o);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->serialized : std::string();
  }

  static Session* session_;
};

Session* ScaleLadderTest::session_ = nullptr;

const OrderingMode kModes[] = {OrderingMode::kOrdered,
                               OrderingMode::kUnordered};

TEST_F(ScaleLadderTest, SerialAndParallelMorselsAgree) {
  QueryOptions serial;
  serial.num_threads = 1;
  QueryOptions parallel;
  parallel.num_threads = 4;
  parallel.morsel_rows = 4096;
  for (const XMarkQuery& q : XMarkQueries()) {
    for (OrderingMode mode : kModes) {
      EXPECT_EQ(Run(q.text, parallel, mode), Run(q.text, serial, mode))
          << q.name
          << (mode == OrderingMode::kUnordered ? " unordered" : " ordered");
    }
  }
}

TEST_F(ScaleLadderTest, Q10JoinPlanMatchesProductPlan) {
  QueryOptions join;
  join.num_threads = 1;
  QueryOptions product = join;
  product.join_recognition = false;
  for (OrderingMode mode : kModes) {
    EXPECT_EQ(Run(XMarkQueryText("Q10"), join, mode),
              Run(XMarkQueryText("Q10"), product, mode))
        << (mode == OrderingMode::kUnordered ? "unordered" : "ordered");
  }
}

}  // namespace
}  // namespace exrquy
