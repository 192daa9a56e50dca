// Session::ExplainOrder (the --explain-order surface): every sort that
// survives optimization must carry a non-empty order-provenance
// attribution — a % the analysis cannot justify would either be dead
// (and pruned) or mark a gap in the attribution rules — and the
// annotated DOT rendering must carry the same reasons.
#include <gtest/gtest.h>

#include <string>

#include "algebra/dot.h"
#include "algebra/stats.h"
#include "api/session.h"
#include "opt/analyses.h"
#include "provenance_check.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace exrquy {
namespace {

class ExplainOrderTest : public ::testing::Test {
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

Session* ExplainOrderTest::session_ = nullptr;

// Acceptance bar for the provenance domain: across all 20 XMark queries
// in both ordering modes, every surviving % has at least one reason, and
// the reason count matches the plan's % population.
TEST_F(ExplainOrderTest, EverySurvivingSortIsAttributed) {
  for (const XMarkQuery& q : XMarkQueries()) {
    for (bool unordered : {false, true}) {
      QueryOptions options;
      if (unordered) options.default_ordering = OrderingMode::kUnordered;
      Result<OrderExplanation> ex = session_->ExplainOrder(q.text, options);
      ASSERT_TRUE(ex.ok()) << q.name << ": " << ex.status().ToString();
      Result<QueryPlans> p = session_->Plan(q.text, options);
      ASSERT_TRUE(p.ok());
      PlanStats stats = CollectPlanStats(*p->dag, p->optimized);
      EXPECT_EQ(ex->sorts.size(), stats.rownum_ops)
          << q.name << (unordered ? " unordered" : " ordered");
      for (const auto& sort : ex->sorts) {
        EXPECT_FALSE(sort.label.empty());
        EXPECT_FALSE(sort.reasons.empty())
            << q.name << (unordered ? " unordered" : " ordered") << " op "
            << sort.op << " (" << sort.label
            << "): surviving sort with no attributed order demand";
      }
    }
  }
}

// The provenance payload over every XMark pair, on the compiled and the
// optimized root: each demanded column is attributed, and the demanded
// columns are exactly the live ones.
TEST_F(ExplainOrderTest, ProvenanceIsAttributedLiveness) {
  for (const XMarkQuery& q : XMarkQueries()) {
    for (bool unordered : {false, true}) {
      QueryOptions options;
      if (unordered) options.default_ordering = OrderingMode::kUnordered;
      Result<QueryPlans> p = session_->Plan(q.text, options);
      ASSERT_TRUE(p.ok()) << q.name << ": " << p.status().ToString();
      ExpectAttributedLiveness(*p, q.name + (unordered ? " unordered"
                                                       : " ordered"));
    }
  }
}

// The reasons name the consuming construct, carrying the consumer's
// source label where the compiler recorded one.
TEST_F(ExplainOrderTest, ReasonsNameTheConsumingConstruct) {
  // The result of an ordered query is serialized in sequence order: the
  // back-map % must be attributed to result serialization.
  Result<OrderExplanation> ex = session_->ExplainOrder(
      R"(for $i in doc("auction.xml")//item return $i/name)", {});
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  ASSERT_FALSE(ex->sorts.empty());
  bool saw_serialization = false;
  for (const auto& sort : ex->sorts) {
    for (const std::string& reason : sort.reasons) {
      if (reason.find("result serialization") != std::string::npos) {
        saw_serialization = true;
      }
    }
  }
  EXPECT_TRUE(saw_serialization);
}

// Fully order-indifferent plans explain to an empty sort list.
TEST_F(ExplainOrderTest, OrderFreePlanHasNoSorts) {
  QueryOptions unordered;
  unordered.default_ordering = OrderingMode::kUnordered;
  Result<OrderExplanation> ex = session_->ExplainOrder(
      R"(count(doc("auction.xml")//item))", unordered);
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_TRUE(ex->sorts.empty());
}

// The annotated DOT rendering carries the same attribution inline.
TEST_F(ExplainOrderTest, DotRenderingCarriesAnnotations) {
  Result<OrderExplanation> ex = session_->ExplainOrder(
      R"(for $i in doc("auction.xml")//item return $i/name)", {});
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  ASSERT_FALSE(ex->sorts.empty());
  EXPECT_NE(ex->dot.find("digraph plan"), std::string::npos);
  EXPECT_NE(ex->dot.find("ordered because:"), std::string::npos);
}

}  // namespace
}  // namespace exrquy
