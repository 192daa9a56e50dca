// API-level tests for exrquy::Session: document management, plan-only
// compilation, profiling, error paths, store hygiene across executions,
// and plan rendering.
#include <gtest/gtest.h>

#include <fstream>

#include "algebra/dot.h"
#include "api/session.h"

namespace exrquy {
namespace {

TEST(SessionTest, LoadAndQueryMultipleDocuments) {
  Session session;
  ASSERT_TRUE(session.LoadDocument("a.xml", "<a><x/></a>").ok());
  ASSERT_TRUE(session.LoadDocument("b.xml", "<b><x/><x/></b>").ok());
  Result<QueryResult> r = session.Execute(
      R"((count(doc("a.xml")//x), count(doc("b.xml")//x)))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->serialized, "1 2");
}

TEST(SessionTest, LoadRejectsMalformedXml) {
  Session session;
  Status st = session.LoadDocument("bad.xml", "<a><b></a>");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, LoadDocumentFile) {
  std::string path = ::testing::TempDir() + "/exrquy_session_test.xml";
  {
    std::ofstream out(path);
    out << "<f><g/></f>";
  }
  Session session;
  ASSERT_TRUE(session.LoadDocumentFile("f.xml", path).ok());
  Result<QueryResult> r = session.Execute(R"(count(doc("f.xml")/f/g))");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->serialized, "1");
  EXPECT_FALSE(session.LoadDocumentFile("g.xml", path + ".missing").ok());
}

TEST(SessionTest, ReloadedNameShadowsOldDocument) {
  Session session;
  ASSERT_TRUE(session.LoadDocument("d.xml", "<v>1</v>").ok());
  ASSERT_TRUE(session.LoadDocument("d.xml", "<v>2</v>").ok());
  Result<QueryResult> r = session.Execute(R"(doc("d.xml")/v/text())");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->serialized, "2");
}

TEST(SessionTest, ExecuteReportsQueryErrors) {
  Session session;
  EXPECT_EQ(session.Execute("for $x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Execute("$nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session.Execute(R"(doc("nope.xml"))").status().code(),
            StatusCode::kNotFound);
}

TEST(SessionTest, StoreDoesNotGrowAcrossExecutions) {
  Session session;
  ASSERT_TRUE(session.LoadDocument("d.xml", "<r><x/><x/></r>").ok());
  // Warm up, then check the constructed fragments are reclaimed.
  ASSERT_TRUE(
      session.Execute(R"(for $x in doc("d.xml")//x return <e>{ $x }</e>)")
          .ok());
  size_t nodes = session.store().node_count();
  size_t frags = session.store().fragment_count();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        session.Execute(R"(for $x in doc("d.xml")//x return <e>{ $x }</e>)")
            .ok());
  }
  EXPECT_EQ(session.store().node_count(), nodes);
  EXPECT_EQ(session.store().fragment_count(), frags);
}

TEST(SessionTest, PlanReturnsBothRoots) {
  Session session;
  ASSERT_TRUE(session.LoadDocument("d.xml", "<r><x/></r>").ok());
  Result<QueryPlans> p = session.Plan(R"(count(doc("d.xml")//x))");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_NE(p->initial, kNoOp);
  EXPECT_NE(p->optimized, kNoOp);
  EXPECT_LE(p->dag->ReachableFrom(p->optimized).size(),
            p->dag->ReachableFrom(p->initial).size());
}

TEST(SessionTest, PlanToTextRendersTree) {
  Session session;
  ASSERT_TRUE(session.LoadDocument("d.xml", "<r><x/></r>").ok());
  Result<QueryPlans> p = session.Plan(R"(doc("d.xml")/r/x)");
  ASSERT_TRUE(p.ok());
  std::string text = PlanToText(*p->dag, p->optimized, session.strings());
  EXPECT_NE(text.find("Step child::r"), std::string::npos);
  EXPECT_NE(text.find("Step child::x"), std::string::npos);
  EXPECT_NE(text.find("Doc \"d.xml\""), std::string::npos);
}

TEST(SessionTest, ProfileRecordsWhenRequested) {
  Session session;
  ASSERT_TRUE(session.LoadDocument("d.xml", "<r><x/><x/></r>").ok());
  QueryOptions with;
  with.profile = true;
  Result<QueryResult> r =
      session.Execute(R"(count(doc("d.xml")//x))", with);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->profile.by_kind().size(), 0u);
  EXPECT_GT(r->profile.by_prov().size(), 0u);
  EXPECT_FALSE(r->profile.ToString().empty());

  Result<QueryResult> without =
      session.Execute(R"(count(doc("d.xml")//x))", {});
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(without->profile.by_kind().size(), 0u);
}

TEST(SessionTest, ResultCarriesItemsAndStats) {
  Session session;
  ASSERT_TRUE(session.LoadDocument("d.xml", "<r><x>1</x><x>2</x></r>").ok());
  Result<QueryResult> r = session.Execute(R"(doc("d.xml")//x)");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->items.size(), 2u);
  EXPECT_EQ(r->items[0], "<x>1</x>");
  EXPECT_GT(r->plan_initial.total_ops, 0u);
  EXPECT_GT(r->plan_optimized.total_ops, 0u);
  EXPECT_GE(r->compile_ms, 0.0);
  EXPECT_GE(r->execute_ms, 0.0);
}

// The plan alone decides which % sorts: a path query's per-step %
// input arrives in document order, so the default plan ranks it without
// sorting — a presorted % or a positional # — and every plan gives the
// baseline configuration's items.
TEST(SessionTest, PathStepRanksWithoutSorting) {
  Session session;
  ASSERT_TRUE(
      session.LoadDocument("d.xml", "<r><x>3</x><x>1</x><x>2</x></r>").ok());
  const char* queries[] = {
      R"(doc("d.xml")/r/x)",
      R"(doc("d.xml")//x)",
      R"(for $x in doc("d.xml")//x order by number($x) return $x/text())",
      R"(for $a in doc("d.xml")//x for $b in doc("d.xml")//x
         where number($a) < number($b) return concat($a, $b))",
  };
  QueryOptions baseline;
  baseline.enable_order_indifference = false;
  for (const char* q : queries) {
    Result<QueryResult> a = session.Execute(q, baseline);
    Result<QueryResult> b = session.Execute(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->items, b->items) << q;
  }
  Result<QueryPlans> plans = session.Plan(R"(doc("d.xml")/r/x)");
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  size_t unsorted = 0;
  for (OpId id : plans->dag->ReachableFrom(plans->optimized)) {
    const Op& op = plans->dag->op(id);
    unsorted += (op.kind == OpKind::kRowNum && op.presorted) ||
                (op.kind == OpKind::kRowId && op.positional);
  }
  EXPECT_GT(unsorted, 0u) << PlanToText(*plans->dag, plans->optimized,
                                        session.strings());
}

TEST(SessionTest, PrologOrderingDeclarationRespected) {
  Session session;
  ASSERT_TRUE(session.LoadDocument("d.xml", "<r><x/><y/></r>").ok());
  // declare ordering unordered switches the mode even when the options
  // default to ordered.
  Result<QueryPlans> p = session.Plan(
      R"(declare ordering unordered; doc("d.xml")/r/x)");
  ASSERT_TRUE(p.ok());
  PlanStats stats = CollectPlanStats(*p->dag, p->initial);
  EXPECT_GT(stats.rowid_ops, 0u);
  EXPECT_EQ(stats.rownum_ops, 0u);
}

TEST(SessionTest, RepeatedPlanningInternsNoNewColumns) {
  // Fresh columns are numbered per plan, so planning a query again
  // derives the same names: the process-wide column registry stops
  // growing after the first plan. The query inlines a function (renamed
  // parameters) and has a value join for the join planner to rewrite.
  const std::string query =
      "declare function local:twice($v) { 2 * $v };\n"
      "for $p in doc(\"d.xml\")/r/p\n"
      "let $a := for $q in doc(\"d.xml\")/r/q\n"
      "          where $q/@ref = $p/@id return $q\n"
      "return <m>{local:twice(count($a))}</m>";
  Session session;
  for (bool unordered : {false, true}) {
    QueryOptions options;
    if (unordered) options.default_ordering = OrderingMode::kUnordered;
    ASSERT_TRUE(session.Plan(query, options).ok());
    size_t registered = ColCount();
    std::string text;
    for (int i = 0; i < 1000; ++i) {
      Result<QueryPlans> p = session.Plan(query, options);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      if (i == 0) {
        text = PlanToText(*p->dag, p->optimized, session.strings());
      }
    }
    EXPECT_EQ(ColCount(), registered);
    EXPECT_NE(text.find(" (value)"), std::string::npos) << text;
  }
}

}  // namespace
}  // namespace exrquy
