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

#include <chrono>
#include <map>
#include <memory>
#include <optional>
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

// The rewrite-family flags and the certification settings are inherited
// from RewriteOptions (opt/rewrites.h, one entry per family in
// kRewriteFamilies); like the front-end flags below they take effect only
// when enable_order_indifference is on.
struct QueryOptions : RewriteOptions {
  // Ordering mode used when the query prolog has no declare ordering.
  OrderingMode default_ordering = OrderingMode::kOrdered;

  // Master switch for exploiting order indifference.
  bool enable_order_indifference = true;

  // Fine-grained ablation flags of the front end.
  bool insert_unordered = true;  // normalization FN:COUNT/QUANT/...
  bool mode_rules = true;        // LOC# / BIND# / FN:UNORDERED

  // Re-verifies the plan after every optimizer pass (opt/verify.h) and
  // names the pass and its first failed certificate obligation on
  // failure (opt/pipeline.h). Every compiled and optimized plan is
  // verified once regardless of this flag before it reaches the engine;
  // this turns on the per-pass hook, for debugging rewrites and for the
  // fuzz/equivalence suites.
  bool verify_each_pass = false;

  // Record a per-operator execution profile (Table 2).
  bool profile = false;

  // Execution-engine knobs (engine/eval.h EvalContext). Units always run
  // one at a time in op-id order; num_threads sizes the pool that a
  // unit's morsels and ranges fan out to (1 = none; 0 defers to
  // EXRQUY_THREADS or the hardware). Results are byte-identical for
  // every setting.
  int num_threads = 0;
  bool release_intermediates = true;
  // Morsel size of the pipelined engine (engine/eval.h), which every
  // breaker kernel also splits its input by: 0 defers to
  // EXRQUY_MORSEL_ROWS, then 65536. It changes fan-out and footprint
  // only — results are byte-identical for every setting.
  size_t morsel_rows = 0;
  // Off runs every fusable operator alone instead of fused into a
  // pipeline — same results, higher peak memory (see EvalContext).
  bool pipelined_execution = true;
  // Removed; any value but the old defaults fails Execute with
  // InvalidArgument (see EvalContext).
  size_t chunk_rows = kRemovedChunkRows;
  size_t inline_rows = kRemovedInlineRows;
  bool physical_sort_detection = true;

  // -- Resource governance (common/governor.h, engine/faults.h) -----------
  // Wall-clock deadline for this execution, in milliseconds from the
  // start of Execute (compilation included). 0 defers to the
  // EXRQUY_DEADLINE_MS environment variable; unset/0 there = no deadline,
  // anything but a plain decimal integer fails Execute with
  // InvalidArgument. Exceeding it aborts within one chunk's work ->
  // kDeadlineExceeded.
  int64_t deadline_ms = 0;

  // Per-query memory budget in bytes, covering intermediate table
  // columns, constructed nodes, and newly interned strings. 0 defers to
  // EXRQUY_MEM_BUDGET (parsed like EXRQUY_DEADLINE_MS: bytes, no unit
  // suffix); unset/0 there = unlimited (accounting still runs
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
  double compile_ms = 0;
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
  // The certification settings the plan was optimized under, resolved
  // once against EXRQUY_CERTIFY.
  CertifySettings certify;
  // The plan's analysis cache (opt/facts_audit.h): every forward tracker
  // fact and audit fact planning derived, shared by both verifications
  // and every rewrite pass. Valid while `dag` lives.
  std::unique_ptr<PlanFacts> facts;
  // `optimized`, made ready for the engine right after its final
  // verification (engine/eval.h PreparePlan): what ExecutePlan runs.
  // Valid while `dag` lives.
  PreparedPlan prepared;
  // Wall time of the planning steps after compilation, in microseconds:
  // the post-compile verification, the rewrite pipeline (with its
  // certificates) and the post-optimize verification.
  struct StepTimes {
    double verify_compiled_us = 0;
    double optimize_us = 0;
    double verify_optimized_us = 0;
  };
  StepTimes steps;
};

// The front half of the pipeline — parse -> normalize -> compile ->
// optimize, with a static verification pass after compilation and after
// the rewrites — as a free function over an explicit string pool. Plans
// never read documents (fn:doc resolves at evaluation), so this is pure
// in the store; Session::Plan and the QueryService plan cache
// (api/service.h) both route through here. Thread-safe when `strings`
// is shared: interning is the only pool interaction. A malformed
// EXRQUY_CERTIFY fails it with an InvalidArgument naming the variable.
Result<QueryPlans> PlanQuery(std::string_view query,
                             const QueryOptions& options, StrPool* strings);

// A request's resource governor, resolved once by ResolveGovernor.
struct Governor {
  // Absolute deadline (anchored at the request's start); unset = none.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  size_t memory_budget = 0;  // bytes; 0 = unlimited
  FaultPlan faults;
  // Whether to charge memory at all: accounting costs a few atomic ops
  // per charge site, so only runs that observe the numbers (a limit, an
  // alloc fault, a profile) pay for them.
  bool account = false;
};

// Resolves deadline, memory budget and fault plan for a request started
// at `start`. Explicit options beat the environment (EXRQUY_DEADLINE_MS,
// EXRQUY_MEM_BUDGET, EXRQUY_FAULT_*), which is parsed strictly: a
// malformed value is an InvalidArgument naming the variable. Also
// rejects the removed QueryOptions::chunk_rows, ::inline_rows and
// ::physical_sort_detection. Both Session::Execute and
// QueryService::Execute resolve through here before doing any work.
Result<Governor> ResolveGovernor(const QueryOptions& options,
                                 std::chrono::steady_clock::time_point start);

// The back half of the pipeline, the one path from a plan to result
// bytes for Session::Execute and QueryService (api/execute.cc): runs the
// prepared `plan` over `store`/`strings`/`documents` under `governor`,
// without checking or pipelining it again,
// then renders the result once into `result` (serialized, items,
// execute_ms, and the profile when options.profile). Memory is charged
// to `budget` (null when !governor.account), which the caller owns and
// attaches to its stores, so that its rollback — of the
// Session or of a service worker store — runs after this returns. With
// `spot_trades` non-null and options.certify resolving to spot checking,
// every committed rewrite in it is first evaluated before and after on
// an ungoverned serial context over the same store; a divergence fails
// the run.
Status ExecutePlan(const PreparedPlan& plan,
                   const std::vector<RewriteTrade>* spot_trades,
                   const QueryOptions& options,
                   const Governor& governor, MemoryBudget* budget,
                   NodeStore* store, StrPool* strings,
                   const std::map<StrId, NodeIdx>& documents,
                   QueryResult* result);

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
    bool presorted = false;  // Op::presorted: the % does not sort
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
  StrPool strings_;
  NodeStore store_;
  std::map<StrId, NodeIdx> documents_;
};

}  // namespace exrquy

#endif  // EXRQUY_API_SESSION_H_
