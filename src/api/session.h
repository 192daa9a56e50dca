// Public entry point. A Session owns the XML store and string pool,
// loads documents, and runs queries through the full pipeline:
//
//   parse -> normalize (J.K) -> compile (·⇒·) -> optimize -> evaluate
//
// QueryOptions mirrors the paper's experimental configurations: with
// enable_order_indifference = false the compiler behaves like the
// baseline of Section 5 (ordered rules everywhere, fn:unordered() as the
// identity, no rewriting); with it on, the normalization rules, the #
// rules (LOC#/BIND#/FN:UNORDERED), column dependency analysis and the
// property-based rewrites are all active. The fine-grained flags ablate
// individual pieces.
#ifndef EXRQUY_API_SESSION_H_
#define EXRQUY_API_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/algebra.h"
#include "algebra/stats.h"
#include "common/governor.h"
#include "common/status.h"
#include "engine/eval.h"
#include "engine/faults.h"
#include "engine/profile.h"
#include "opt/rewrites.h"
#include "xml/node_store.h"
#include "xquery/ast.h"

namespace exrquy {

struct QueryOptions {
  // Ordering mode used when the query prolog has no declare ordering.
  OrderingMode default_ordering = OrderingMode::kOrdered;

  // Master switch for exploiting order indifference.
  bool enable_order_indifference = true;

  // Fine-grained ablation flags (effective only when the master switch is
  // on).
  bool insert_unordered = true;      // normalization FN:COUNT/QUANT/...
  bool mode_rules = true;            // LOC# / BIND# / FN:UNORDERED
  bool column_pruning = true;        // CDA (Section 4.1)
  bool weaken_rownum = true;         // constant/arbitrary cols (Section 7)
  bool distinct_elimination = true;  // '|' -> ',' (Section 4.2)
  bool step_merging = true;          // Q6/Q7 step fusion
  bool distinct_by_keys = true;      // key columns elide Distinct
  bool empty_short_circuit = true;   // statically empty sub-plans collapse
  bool rownum_by_keys = true;        // keyed partitions make % rank 1
  bool rownum_by_od = true;          // order-dependency/semantic-type trades
  bool join_recognition = true;      // product-space predicates become joins
  bool theta_join = true;            // non-equality predicates -> ThetaJoin

  // Re-verifies the plan after every optimizer pass (opt/verify.h) and
  // names the first offending rewrite on failure. Every compiled and
  // optimized plan is verified once regardless of this flag before it
  // reaches the engine; this turns on the per-pass hook, for debugging
  // rewrites and for the fuzz/equivalence suites.
  bool verify_each_pass = false;

  // Rewrite certification (opt/certify.h): every rewrite instance emits
  // a certificate an independent checker validates. kDefault resolves
  // against EXRQUY_CERTIFY (unset -> check); kStrict fail-closes by
  // keeping the old sub-plan for any unprovable certificate; spot_check
  // additionally evaluates before/after sub-plans during Execute and
  // compares the witnessed columns byte-for-byte.
  CertifySettings certify;

  // Physical-plan order detection (orthogonal to the logical rewrites;
  // Section 6's pointer to combined order/grouping frameworks): % skips
  // its blocking sort when the input already arrives in the requested
  // order. Off by default — the paper's configurations do not assume it.
  bool physical_sort_detection = false;

  // Record a per-operator execution profile (Table 2).
  bool profile = false;

  // Execution-engine knobs (engine/eval.h EvalContext). num_threads = 1
  // forces the exact serial evaluation order; 0 defers to EXRQUY_THREADS
  // or the hardware. Results are byte-identical for every setting.
  int num_threads = 0;
  bool release_intermediates = true;
  // Morsel size of the pipelined engine (engine/eval.h), which every
  // breaker kernel also splits its input by: 0 defers to
  // EXRQUY_MORSEL_ROWS, then 65536. Scheduled units with at most
  // `inline_rows` materialized input rows run inline on the readying
  // thread instead of a pool task. Both change scheduling and footprint
  // only — results are byte-identical for every setting.
  size_t morsel_rows = 0;
  size_t inline_rows = 4096;
  // Off runs every fusable operator alone instead of fused into a
  // pipeline — same results, higher peak memory (see EvalContext).
  bool pipelined_execution = true;
  // Removed; any value but the old default fails Execute with
  // InvalidArgument (see EvalContext).
  size_t chunk_rows = kRemovedChunkRows;

  // -- Resource governance (common/governor.h, engine/faults.h) -----------
  // Wall-clock deadline for this execution, in milliseconds from the
  // start of Execute (compilation included). 0 defers to the
  // EXRQUY_DEADLINE_MS environment variable; unset/0 there = no deadline.
  // Exceeding it aborts within one chunk's work -> kDeadlineExceeded.
  int64_t deadline_ms = 0;

  // Per-query memory budget in bytes, covering intermediate table
  // columns, constructed nodes, and newly interned strings. 0 defers to
  // EXRQUY_MEM_BUDGET; unset/0 there = unlimited (accounting still runs
  // when `profile` is set, reported via Profile). Crossing the budget
  // aborts cleanly -> kResourceExhausted, never OOM.
  size_t memory_budget = 0;

  // Shareable cancellation token: call cancel->Cancel() from any thread
  // to abort the running query -> kCancelled. The Session never takes
  // ownership of the flag's lifecycle beyond the shared_ptr.
  CancelTokenPtr cancel;

  // Deterministic fault injection for tests and incident reproduction;
  // all-zeros (the default) defers to the EXRQUY_FAULT_* environment
  // variables (engine/faults.h).
  FaultPlan faults;
};

struct QueryResult {
  std::string serialized;
  std::vector<std::string> items;  // individually rendered, in order
  PlanStats plan_initial;          // as emitted by the compiler
  PlanStats plan_optimized;        // after the rewrite pipeline
  Profile profile;                 // filled when QueryOptions::profile
  size_t sorts_skipped = 0;        // with physical_sort_detection
  double compile_ms = 0;
  double optimize_ms = 0;
  double execute_ms = 0;
};

// Compiled + optimized plan, for plan-shape experiments (Figures 6/9/10).
struct QueryPlans {
  std::unique_ptr<Dag> dag;
  OpId initial = kNoOp;
  OpId optimized = kNoOp;
  // Every rewrite instance the passes performed, as certificates: the
  // family, before/after roots, cited facts, column witnesses, and the
  // checker's verdict (opt/rewrites.h, opt/certify.h). The legacy
  // %-elimination trade log is the order_trade subset.
  std::vector<RewriteTrade> trades;
};

// The front half of the pipeline — parse -> normalize -> compile ->
// optimize, with a static verification pass after compilation and after
// the rewrites — as a free function over an explicit string pool. Plans
// never read documents (fn:doc resolves at evaluation), so this is pure
// in the store; Session::Plan and the QueryService plan cache
// (api/service.h) both route through here. Thread-safe when `strings`
// is shared: interning is the only pool interaction.
Result<QueryPlans> PlanQuery(std::string_view query,
                             const QueryOptions& options, StrPool* strings);

// Why each sort that survived optimization is still there: for every %
// in the optimized plan, the source-syntax constructs whose order demand
// reaches its rank column (the order-provenance analysis of
// opt/analyses.h). An empty `reasons` list means the rank is dead and a
// further pruning pass would remove the operator.
struct OrderExplanation {
  struct SortPoint {
    OpId op = kNoOp;
    std::string label;   // operator rendering, e.g. "RowNum pos:<item>|iter"
    std::string source;  // originating source expression, when recorded
    std::vector<std::string> reasons;
  };
  // One % the optimizer eliminated, with the justification for the
  // trade (order dependency, semantic type, key, or arbitrary order).
  struct Trade {
    OpId op = kNoOp;     // the eliminated % (an id of the planning DAG)
    std::string label;   // its rendering at elimination time
    std::string source;  // originating source expression, when recorded
    std::string rule;    // rewrite family, e.g. "order-dependency"
    std::string detail;  // why the elimination is sound
  };
  std::vector<SortPoint> sorts;  // every surviving %, bottom-up
  std::vector<Trade> trades;     // every eliminated %, in trade order
  std::string dot;               // provenance-annotated DOT dump
};

// Every rewrite instance of one planning run, with its certificate
// verdict (xq --explain-rewrites): what fired, what it cited, whether
// the independent checker could prove the obligation, and whether the
// rewrite was committed (strict mode keeps the old sub-plan when the
// certificate fails).
struct RewriteExplanation {
  struct Entry {
    OpId from = kNoOp;
    OpId to = kNoOp;
    std::string rule;        // rewrite family, e.g. "join_recognition"
    std::string detail;      // the rewrite's own justification
    std::string label;       // rendering of the rewritten operator
    std::string source;      // originating source expression, if recorded
    std::vector<std::string> facts;  // cited facts, rendered
    bool checked = false;    // a checker ran on the certificate
    bool valid = false;      // ... and could prove the obligation
    bool committed = true;   // the rewrite made it into the plan
    std::string obligation;  // failed obligation (when checked && !valid)
    std::string diagnostic;  // "certify: [<obligation>] ..." (same case)
  };
  std::vector<Entry> entries;  // in rewrite order
  size_t emitted = 0;          // certificates emitted
  size_t validated = 0;        // proven by the independent checker
  size_t rejected = 0;         // unprovable (committed anyway unless strict)
  std::string dot;             // certificate-annotated DOT dump
};

class Session {
 public:
  Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Parses and name-indexes a document; fn:doc(name) resolves to it.
  Status LoadDocument(std::string_view name, std::string_view xml);
  Status LoadDocumentFile(std::string_view name, const std::string& path);

  // Runs the full pipeline. Constructed fragments and query-interned
  // strings are discarded on every exit path — success, compile error,
  // runtime error, or governor abort — so repeated executions (including
  // repeated failures) do not grow the store or the pool, and the
  // Session stays fully usable after any abort.
  Result<QueryResult> Execute(std::string_view query,
                              const QueryOptions& options = {});

  // Compiles and optimizes only (no evaluation).
  Result<QueryPlans> Plan(std::string_view query,
                          const QueryOptions& options = {});

  // Compiles and optimizes, then explains why each surviving % still
  // sorts (xq --explain-order).
  Result<OrderExplanation> ExplainOrder(std::string_view query,
                                        const QueryOptions& options = {});

  // Compiles and optimizes, then reports every rewrite instance with its
  // certificate verdict (xq --explain-rewrites).
  Result<RewriteExplanation> ExplainRewrites(std::string_view query,
                                             const QueryOptions& options = {});

  NodeStore& store() { return store_; }
  StrPool& strings() { return strings_; }
  // fn:doc() name -> document node, as loaded; lets callers evaluate
  // planned sub-DAGs directly with engine/eval.h (tests, benches).
  const std::map<StrId, NodeIdx>& documents() const { return documents_; }

 private:
  Result<QueryPlans> PlanInternal(std::string_view query,
                                  const QueryOptions& options);

  StrPool strings_;
  NodeStore store_;
  std::map<StrId, NodeIdx> documents_;
};

}  // namespace exrquy

#endif  // EXRQUY_API_SESSION_H_
