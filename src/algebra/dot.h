// Graphviz DOT rendering of plan DAGs (for documentation and debugging;
// the paper's Figures 6, 9 and 10 are plan DAGs of this shape).
#ifndef EXRQUY_ALGEBRA_DOT_H_
#define EXRQUY_ALGEBRA_DOT_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/algebra.h"

namespace exrquy {

// One-line human-readable description of an operator, e.g.
// "RowNum pos:<item>|iter" or "Step child::site".
std::string OpToString(const Dag& dag, OpId id, const StrPool& strings);

// The sub-DAG rooted at `root` as a DOT digraph.
std::string PlanToDot(const Dag& dag, OpId root, const StrPool& strings);

// Same, with extra per-operator label lines (e.g. the order-provenance
// reasons of opt/analyses.h ProvenanceAnnotations). Keeping the
// parameter a plain map keeps this layer independent of the analyses.
std::string PlanToDot(const Dag& dag, OpId root, const StrPool& strings,
                      const std::map<OpId, std::vector<std::string>>& annotations);

// Indented textual plan tree (EXPLAIN-style). Shared sub-plans are
// printed once and referenced as "^<id>" afterwards.
std::string PlanToText(const Dag& dag, OpId root, const StrPool& strings);

// A plan text with its fresh names (`pos1$369`, numbered by
// Dag::FreshCol) renumbered in order of first appearance: `pos1$369` and
// `pos1$713` become the same name when they are the same column of the
// same plan, wherever its numbering started (plans dumped before fresh
// columns were numbered per plan carry process-wide numbers).
std::string CanonicalPlanText(std::string_view text);

// A 64-bit FNV-1a digest of CanonicalPlanText(text) as 16 hex digits:
// the default-configuration plan golden
// (tests/corpus/plans/defaults.digests) keeps one per XMark query and
// ordering mode.
std::string PlanDigest(std::string_view text);

}  // namespace exrquy

#endif  // EXRQUY_ALGEBRA_DOT_H_
