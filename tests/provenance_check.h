// Shared by the order-provenance tests: the provenance payload of a
// planned query is attributed liveness.
#ifndef EXRQUY_TESTS_PROVENANCE_CHECK_H_
#define EXRQUY_TESTS_PROVENANCE_CHECK_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/session.h"
#include "opt/analyses.h"
#include "opt/facts_audit.h"

namespace exrquy {

// For the compiled and the optimized root of `plans`: every demanded
// column carries at least one in-range reason, and every operator's
// demanded columns equal its live columns as the audit's independent
// one-shot walk derives them (DeriveLiveColumns).
inline void ExpectAttributedLiveness(const QueryPlans& plans,
                                     const std::string& what) {
  const Dag& dag = *plans.dag;
  for (OpId root : {plans.initial, plans.optimized}) {
    ColSet seed = RootSeed(dag, root);
    OrderProvenance prov = ComputeOrderProvenance(dag, root, seed, nullptr);
    std::vector<ColSet> live = DeriveLiveColumns(dag, root, seed);
    for (OpId id : dag.ReachableFrom(root)) {
      ColSet domain;
      for (const auto& [c, reasons] : prov.demand[id]) {
        domain.insert(c);
        EXPECT_FALSE(reasons.empty())
            << what << ": root " << root << " op " << id << " column '"
            << ColName(c) << "' carries no reason";
        for (uint32_t r : reasons) {
          EXPECT_LT(r, prov.reasons.size())
              << what << ": root " << root << " op " << id;
        }
      }
      EXPECT_TRUE(domain == live[id])
          << what << ": root " << root << " op " << id << " demands "
          << ColSetToString(domain) << ", live columns are "
          << ColSetToString(live[id]);
    }
  }
}

}  // namespace exrquy

#endif  // EXRQUY_TESTS_PROVENANCE_CHECK_H_
