#include "api/opcounts.h"

#include <iomanip>
#include <sstream>

#include "algebra/stats.h"
#include "xmark/queries.h"

namespace exrquy {

Result<std::string> OpCountReport(Session* session) {
  std::ostringstream out;
  out << "XMark per-query operator counts (initial -> optimized plan)\n"
      << "%  = RowNum (blocking sort)   # = RowId (free numbering)\n"
      << "#^ = positional RowId (ids proven row positions)\n"
      << "vj = equi-joins on recognized value predicates"
      << "   tj = ThetaJoin or ThetaCount\n\n"
      << "query  mode       initial  final    %    #   #^   vj   tj\n";
  size_t surviving_ordered = 0;
  size_t surviving_unordered = 0;
  for (const XMarkQuery& q : XMarkQueries()) {
    for (bool unordered : {false, true}) {
      QueryOptions options;
      if (unordered) options.default_ordering = OrderingMode::kUnordered;
      EXRQUY_ASSIGN_OR_RETURN(QueryPlans p,
                              session->Plan(q.text, options));
      PlanStats initial = CollectPlanStats(*p.dag, p.initial);
      PlanStats optimized = CollectPlanStats(*p.dag, p.optimized);
      (unordered ? surviving_unordered : surviving_ordered) +=
          optimized.rownum_ops;
      out << std::left << std::setw(7) << q.name << std::setw(9)
          << (unordered ? "unordered" : "ordered") << std::right
          << std::setw(9) << initial.total_ops << std::setw(7)
          << optimized.total_ops << std::setw(5) << optimized.rownum_ops
          << std::setw(5) << optimized.rowid_ops << std::setw(5)
          << optimized.positional_rowid_ops << std::setw(5)
          << optimized.value_join_ops << std::setw(5)
          << optimized.theta_join_ops + optimized.theta_count_ops << "\n";
    }
  }
  out << "\nsurviving %: ordered " << surviving_ordered << ", unordered "
      << surviving_unordered << "\n";
  return out.str();
}

}  // namespace exrquy
