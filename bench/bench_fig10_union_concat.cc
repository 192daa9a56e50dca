// Figure 10 / Section 4.2: trading '|' for ','.
//
// unordered { $t//(c|d) } compiles to a plan with per-step order
// derivations, a document-order-aware union and duplicate elimination;
// after FN:UNORDERED and column dependency analysis, the disjointness of
// child::c and child::d lets the optimizer drop the Distinct — the node
// set union has become a bare disjoint union (sequence concatenation).
#include <cstdio>

#include "algebra/dot.h"
#include "algebra/stats.h"
#include "bench/bench_util.h"
#include "opt/analyses.h"

namespace exrquy {
namespace {

void Run() {
  Session session;
  // The XML fragment of Figure 1.
  Status st = session.LoadDocument("t.xml", "<a><b><c/><d/></b><c/></a>");
  if (!st.ok()) {
    std::printf("load failed: %s\n", st.ToString().c_str());
    return;
  }

  std::printf("Figure 10 — '|' traded for ','\n\n");
  const std::string query =
      R"(unordered { for $t in doc("t.xml")/a return $t//(c|d) })";

  QueryOptions base = bench::Baseline();
  Result<QueryPlans> pb = session.Plan(query, base);
  if (pb.ok()) {
    std::printf("baseline (order-aware union):       %s\n",
                CollectPlanStats(*pb->dag, pb->initial).ToString().c_str());
  }

  QueryOptions enabled;  // keep mode ordered; unordered {} is lexical here
  Result<QueryPlans> pe = session.Plan(query, enabled);
  if (pe.ok()) {
    std::printf("enabled, as emitted (Fig. 10 left): %s\n",
                CollectPlanStats(*pe->dag, pe->initial).ToString().c_str());
    std::printf("enabled, rewritten (Fig. 10 right): %s\n",
                CollectPlanStats(*pe->dag, pe->optimized).ToString().c_str());
    FILE* f = std::fopen("fig10_after.dot", "w");
    if (f != nullptr) {
      OrderProvenance prov = ComputeOrderProvenance(
          *pe->dag, pe->optimized, RootSeed(*pe->dag, pe->optimized),
          &session.strings());
      std::fputs(
          PlanToDot(*pe->dag, pe->optimized, session.strings(),
                    ProvenanceAnnotations(*pe->dag, pe->optimized, prov))
              .c_str(),
          f);
      std::fclose(f);
      std::printf("DOT of the rewritten plan written to fig10_after.dot\n");
    }
  }

  QueryOptions no_disjoint;
  no_disjoint.distinct_elimination = false;
  Result<QueryPlans> pn = session.Plan(query, no_disjoint);
  if (pn.ok()) {
    std::printf("enabled, without disjointness:      %s\n",
                CollectPlanStats(*pn->dag, pn->optimized).ToString().c_str());
  }

  std::printf(
      "\nExpected: the rewritten plan keeps the disjoint union of the two\n"
      "steps but loses every %% and the Distinct — the algebraic\n"
      "equivalent of  unordered { $t//c }, unordered { $t//d }.\n\n");

  // Execution sanity: same multiset of nodes in either configuration.
  Result<QueryResult> rb = session.Execute(query, base);
  Result<QueryResult> re = session.Execute(query, enabled);
  if (rb.ok() && re.ok()) {
    std::printf("baseline result: %s\n", rb->serialized.c_str());
    std::printf("enabled  result: %s (any permutation is admissible)\n",
                re->serialized.c_str());
  }
}

}  // namespace
}  // namespace exrquy

int main() {
  exrquy::Run();
  return 0;
}
