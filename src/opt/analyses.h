// The concrete plan analyses, expressed as instances of the monotone
// dataflow framework (opt/dataflow.h):
//
//  * column liveness (CDA, Section 4.1, Figure 8) — backward: the set of
//    produced columns that are consumed upstream, seeded at the root
//    with the serialization columns {iter, pos, item}. Its demand edges
//    are written once (DemandEdges in analyses.cc) and also serve
//    identity observation and order provenance, which differ from it
//    only in the payload they carry along the edges;
//  * constant / arbitrary-order columns (Section 7) — forward: all rows
//    hold the same value / the relative order carries no semantic
//    information because the column descends from a # numbering;
//  * key columns — forward: columns that are duplicate-free
//    (row-identifying), seeded by #, ungrouped %, distinct literal
//    columns, document-order step outputs and per-iteration cardinality
//    assertions (fn:zero-or-one / fn:exactly-one make iter a key);
//  * cardinality intervals — forward: sound [min, max] row-count bounds
//    ([1,1] for Doc, products through joins, sums through unions, ...);
//  * semantic types — forward: per-column item kinds (int / numeric /
//    string / bool / node);
//  * order dependencies — forward: physical-sortedness facts `<X>`
//    (rows are already sorted by X, `!` = duplicate-free), derived from
//    document order out of ⊙, # numberings, keys and monotone ⊕ maps —
//    when a %'s requested order is implied by a fact the input already
//    carries, the sort is provably the identity (rewrites.h);
//  * error capability — forward: whether evaluating the sub-plan can
//    raise a dynamic error (fn:doc resolution, cardinality checks,
//    per-row casts with a non-empty input), which gates the empty-plan
//    short-circuit rewrite;
//  * order provenance — backward: for every demanded column, the set of
//    source-syntax constructs whose order demand reaches it; this is
//    what answers "why does this % survive?" (--explain-order).
#ifndef EXRQUY_OPT_ANALYSES_H_
#define EXRQUY_OPT_ANALYSES_H_

#include <map>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "opt/col_set.h"
#include "opt/dataflow.h"

namespace exrquy {

// ---------------------------------------------------------------------------
// Column liveness (backward).
// ---------------------------------------------------------------------------

// Required (produced) columns per reachable operator. A column outside
// this set is never consumed upstream; operators producing only such
// columns may be simplified or pruned (rewrites.h).
// Indexed by OpId, empty for operators `root` does not reach.
std::vector<ColSet> ComputeICols(const Dag& dag, OpId root,
                                 const ColSet& seed);

// ---------------------------------------------------------------------------
// Identity observation (backward).
// ---------------------------------------------------------------------------

// The node-identity analogue of liveness: per reachable operator, the
// produced columns whose values some consumer inspects — compares,
// hashes, sorts on, navigates from, atomizes or returns (seeded at the
// root with the serialization columns). Pass-through columns of π, σ,
// ×, ∪, the joins, %, # and ⊕ stay unobserved unless they are keys,
// predicates, sort keys or arguments; the content item of an element
// constructor is copied, never inspected. An element constructor whose
// own item column is unobserved builds nodes nobody can tell apart from
// their copies: construction can be deferred to the enclosing
// constructor (Op::deferred). Always a subset of ComputeICols.
// Indexed by OpId, empty for operators `root` does not reach.
std::vector<ColSet> ComputeObservedCols(const Dag& dag, OpId root,
                                        const ColSet& seed);

// ---------------------------------------------------------------------------
// Constant / arbitrary-order columns (forward).
// ---------------------------------------------------------------------------

struct ColProps {
  ColSet constant;   // all rows equal
  ColSet arbitrary;  // order-meaningless (generated by #)
};

struct ConstArbAnalysis {
  using Fact = ColProps;
  Fact Transfer(const Dag& dag, OpId id,
                const std::vector<const Fact*>& in) const;
};

// Lazily computes column properties over a (possibly growing) DAG.
using PropertyTracker = ForwardDataflow<ConstArbAnalysis>;

// ---------------------------------------------------------------------------
// Cardinality intervals (forward).
// ---------------------------------------------------------------------------

inline constexpr uint64_t kUnboundedRows = ~uint64_t{0};

// Sound row-count bounds: the operator's result always has between `min`
// and `max` rows (kUnboundedRows = no upper bound). The lattice bottom
// is the empty interval; Join widens.
struct CardRange {
  uint64_t min = kUnboundedRows;
  uint64_t max = 0;

  bool operator==(const CardRange& other) const = default;
  std::string ToString() const;
};

struct CardAnalysis {
  using Fact = CardRange;
  Fact Transfer(const Dag& dag, OpId id,
                const std::vector<const Fact*>& in) const;
};

using CardTracker = ForwardDataflow<CardAnalysis>;

// Row-count arithmetic saturating at kUnboundedRows.
uint64_t SatAdd(uint64_t a, uint64_t b);
uint64_t SatMul(uint64_t a, uint64_t b);

// ---------------------------------------------------------------------------
// Key (duplicate-free) columns (forward).
// ---------------------------------------------------------------------------

struct KeyAnalysis {
  using Fact = ColSet;
  CardTracker* cards = nullptr;  // for single-row saturation and joins

  Fact Transfer(const Dag& dag, OpId id,
                const std::vector<const Fact*>& in) const;
};

using KeyTracker = ForwardDataflow<KeyAnalysis>;

// ---------------------------------------------------------------------------
// Semantic types (forward).
// ---------------------------------------------------------------------------

// The semantic-type fact: statically known per-column item kinds (the
// ItemKind lattice of algebra/algebra.h; ⊕ and aggregate results follow
// the functions' signature rows). Duplicate-freeness is the key domain's
// (KeyAnalysis above).
struct SemType {
  ColMap<ItemKind> kinds;  // absent = kAny

  ItemKind KindOf(ColId c) const;
  bool operator==(const SemType& other) const = default;
};

struct SemTypeAnalysis {
  using Fact = SemType;
  CardTracker* cards = nullptr;  // statically empty union branches

  Fact Transfer(const Dag& dag, OpId id,
                const std::vector<const Fact*>& in) const;
};

using SemTypeTracker = ForwardDataflow<SemTypeAnalysis>;

// ---------------------------------------------------------------------------
// Order dependencies (forward).
// ---------------------------------------------------------------------------

// One physical-sortedness fact about an operator's output: the rows, in
// their physical (table) order, are sorted lexicographically by `keys`
// under the engine's OrderCompare. `strict` additionally asserts that no
// two rows tie on all the keys — the physical order is then the unique
// order the keys induce. The facts play the role of order dependencies
// in the Szlichta/Godfrey/Gryz sense: an operator carrying the fact
// <X>! satisfies X ↦ Y for every order Y extending X, which is exactly
// what OrderImplied() below exploits.
struct OrderFact {
  std::vector<SortKey> keys;
  bool strict = false;

  bool operator==(const OrderFact& other) const = default;
  std::string ToString() const;  // "<a,b desc>", with a "!" when strict
};

// A conjunction of sortedness facts (all hold simultaneously), capped
// and de-duplicated by implication (AddOrderFact below).
struct OrderFacts {
  std::vector<OrderFact> facts;

  bool operator==(const OrderFacts& other) const = default;
  std::string ToString() const;
};

struct OrderAnalysis {
  using Fact = OrderFacts;
  PropertyTracker* props = nullptr;  // constant criteria are skippable
  CardTracker* cards = nullptr;      // one-row sides in joins/unions
  KeyTracker* keys = nullptr;        // duplicate-free prefixes
  SemTypeTracker* sem = nullptr;     // numeric gates for monotone ⊕ edges

  Fact Transfer(const Dag& dag, OpId id,
                const std::vector<const Fact*>& in) const;
};

// F logically implies G: rows sorted (and possibly duplicate-free) the
// way F says are necessarily sorted the way G says.
bool FactImplies(const OrderFact& f, const OrderFact& g);

// The analysis keeps at most this many facts per operator, each of at
// most this many sort keys.
inline constexpr size_t kMaxOrderFacts = 6;
inline constexpr size_t kMaxOrderKeys = 4;

// Normalizes `f` (dropping repeated columns, truncating it to `max_keys`
// keys) and inserts it unless a fact of `facts` already implies it;
// drops the facts the new one implies. Past `max_facts` facts the new
// one is dropped: deterministic first-come eviction keeps the set
// bounded.
void AddOrderFact(std::vector<OrderFact>* facts, OrderFact f,
                  size_t max_facts, size_t max_keys);

// True when rows carrying the given sortedness facts (with `constants`
// tied on every row, `keys` duplicate-free, and `at_most_one` = the
// relation never exceeds one row) are necessarily already in the order
// `requested` asks for — i.e. a stable sort by `requested` is the
// identity permutation.
bool OrderImplied(const std::vector<OrderFact>& facts, const ColSet& constants,
                  const ColSet& keys, bool at_most_one,
                  const std::vector<SortKey>& requested);

using OrderTracker = ForwardDataflow<OrderAnalysis>;

// ---------------------------------------------------------------------------
// Error capability (forward).
// ---------------------------------------------------------------------------

struct RaiseAnalysis {
  using Fact = bool;  // true = evaluating the sub-plan may raise
  CardTracker* cards = nullptr;  // per-row errors need rows

  Fact Transfer(const Dag& dag, OpId id,
                const std::vector<const Fact*>& in) const;
};

// Conservative: Get(id) == false proves the sub-plan under `id` is
// error-free, which licenses replacing a statically empty plan with an
// empty literal without masking a dynamic error.
using RaiseTracker = ForwardDataflow<RaiseAnalysis>;

// ---------------------------------------------------------------------------
// All forward analyses of one Dag.
// ---------------------------------------------------------------------------

// The forward trackers of one append-only Dag, wired to each other. Their
// facts depend only on the sub-DAG below an operator, so one instance
// serves every rewrite pass and every verification over the Dag's
// lifetime (PlanFacts in opt/facts_audit.h).
struct ForwardAnalyses {
  explicit ForwardAnalyses(const Dag* dag)
      : props(dag),
        cards(dag),
        keys(dag, {&cards}),
        sem(dag, {&cards}),
        od(dag, {&props, &cards, &keys, &sem}),
        raise(dag, {&cards}) {}
  ForwardAnalyses(const ForwardAnalyses&) = delete;
  ForwardAnalyses& operator=(const ForwardAnalyses&) = delete;

  // The physical row order of `id` provably realizes `requested`.
  bool OrderCovers(OpId id, const std::vector<SortKey>& requested);

  PropertyTracker props;
  CardTracker cards;
  KeyTracker keys;     // depends on cards
  SemTypeTracker sem;  // depends on cards
  OrderTracker od;     // depends on props, cards, keys, sem
  RaiseTracker raise;  // depends on cards
};

// ---------------------------------------------------------------------------
// Order provenance (backward).
// ---------------------------------------------------------------------------

// One syntactic source of an order demand: the operator that consumes
// the column internally (kNoOp for the root's result serialization) and
// a human-readable classification carrying the consumer's source
// expression (its prov label).
struct OrderReason {
  OpId consumer = kNoOp;
  std::string label;
};

// Per-operator, per-demanded-column reason sets. Provenance is liveness
// with the "why" attached: both solve the same demand-edge table
// (analyses.cc), so the demanded column sets (the fact domains) coincide
// with ComputeICols for the same seed, and every demanded column carries
// at least one reason. Session::ExplainOrder checks both properties on
// the plan it explains; the verifier does not solve provenance.
struct OrderProvenance {
  // Ids into `reasons`.
  using ReasonIds = IdSet<uint32_t, 4>;
  using Demand = ColMap<ReasonIds>;

  std::vector<OrderReason> reasons;  // interned; ids index this vector
  // Indexed by OpId, empty for operators the root does not reach.
  std::vector<Demand> demand;

  // Sorted, de-duplicated reason labels for one demanded column of one
  // operator (empty when the column is not demanded). For a RowNum,
  // ReasonsFor(id, op.col) answers why the rank — and hence the sort —
  // is needed.
  std::vector<std::string> ReasonsFor(OpId id, ColId col) const;
};

// `strings` may be null; labels then omit interned names.
OrderProvenance ComputeOrderProvenance(const Dag& dag, OpId root,
                                       const ColSet& seed,
                                       const StrPool* strings);

// Per-operator annotation lines for PlanToDot: every RowNum reachable
// from `root` is annotated with the reasons its rank is demanded.
std::map<OpId, std::vector<std::string>> ProvenanceAnnotations(
    const Dag& dag, OpId root, const OrderProvenance& prov);

}  // namespace exrquy

#endif  // EXRQUY_OPT_ANALYSES_H_
