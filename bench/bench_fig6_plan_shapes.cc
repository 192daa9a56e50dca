// Figure 6: the plan DAG emitted for XMark Q6 under ordering mode ordered
// vs unordered.
//
// The paper's ordered plan has 19 operators, 5 of them % (blocking
// sorts); under ordering mode unordered, all % but one are traded for #
// (Figure 6(b)). Our operator inventory differs slightly (explicit
// projections, atomization), but the tallies must show the same shape:
// several % under ordered, exactly one semantically required % (the
// iter->seq back-map) under unordered before further rewriting.
#include <cstdio>

#include "algebra/dot.h"
#include "algebra/stats.h"
#include "bench/bench_util.h"
#include "opt/analyses.h"

namespace exrquy {
namespace {

void Show(Session* session, const char* title, const std::string& query,
          const QueryOptions& options, bool optimized) {
  Result<QueryPlans> plans = session->Plan(query, options);
  if (!plans.ok()) {
    std::printf("%s: error %s\n", title, plans.status().ToString().c_str());
    return;
  }
  OpId root = optimized ? plans->optimized : plans->initial;
  PlanStats stats = CollectPlanStats(*plans->dag, root);
  std::printf("%-46s %s\n", title, stats.ToString().c_str());
}

void Run() {
  auto session = bench::MakeXMarkSession(0.004, nullptr);
  const std::string& q6 = XMarkQueryText("Q6");

  std::printf("Figure 6 — Q6 plan shapes under varying ordering mode\n\n");
  QueryOptions ordered = bench::Baseline();
  Show(session.get(), "(a) ordering mode ordered (as emitted)", q6, ordered,
       /*optimized=*/false);

  QueryOptions unordered = bench::Enabled();
  // Plan as emitted by the # rules, before column dependency analysis.
  Show(session.get(), "(b) ordering mode unordered (as emitted)", q6,
       unordered, /*optimized=*/false);

  std::printf(
      "\nPaper: (a) has 5 %% among 19 operators; (b) trades all %% but one\n"
      "for # — the residual %% implements iter->seq, which mode unordered\n"
      "does not disable.\n");

  // Emit DOT renderings for inspection: the fully optimized plans, with
  // every surviving % annotated by its order-provenance reasons and
  // every traded % annotated — on its surviving replacement — by the
  // rule (keyed-partition, order-dependency, arbitrary-order) and
  // justification that eliminated it.
  Result<OrderExplanation> ea = session->ExplainOrder(q6, ordered);
  Result<OrderExplanation> eb = session->ExplainOrder(q6, unordered);
  if (ea.ok() && eb.ok()) {
    FILE* fa = std::fopen("q6_ordered.dot", "w");
    if (fa != nullptr) {
      std::fputs(ea->dot.c_str(), fa);
      std::fclose(fa);
    }
    FILE* fb = std::fopen("q6_unordered.dot", "w");
    if (fb != nullptr) {
      std::fputs(eb->dot.c_str(), fb);
      std::fclose(fb);
    }
    std::printf("DOT plans written to q6_ordered.dot / q6_unordered.dot\n");
  }
}

}  // namespace
}  // namespace exrquy

int main() {
  exrquy::Run();
  return 0;
}
