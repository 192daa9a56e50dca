// Evaluation of algebra DAGs over columnar tables — the stand-in for the
// MonetDB back-end of the paper. Every reachable operator is evaluated
// exactly once (sub-plan sharing); % performs a blocking sort while #
// attaches a dense numbering at negligible cost, which is precisely the
// cost asymmetry the paper's rewrites exploit.
//
// Execution is morsel-driven and pipelined: a plan-time pass
// (opt/morsel_plan.h, audited independently like every other optimizer
// claim) fuses maximal chains of non-blocking operators — π, σ, Fun, ⊕,
// join probes, Step, # — into pipelines, and each pipeline runs as one
// scheduled unit. PreparePlan does that planning once per plan; its
// PreparedPlan is immutable and may be run any number of times, by any
// number of evaluators at once. A pipeline pulls its source in
// fixed-size morsels; each morsel flows through every stage without
// materializing interior tables, and the sink concatenates morsel
// results in morsel order (Step re-sorts, # numbers the merged output).
// Morsel boundaries depend only on the source size, never on the thread
// count, so results are byte-identical at every thread count and morsel
// size. A fusable operator that joins no chain runs as a one-stage
// pipeline, so each fusable operator has exactly one kernel, its morsel
// stage kernel.
// Blocking operators (%, Distinct, Aggr, node constructors, Cross,
// Difference/SemiJoin, ...) are pipeline breakers with
// operator-at-a-time kernels, which split large inputs into the same
// morsel-sized ranges.
//
// Units run one at a time on the calling thread, in ascending op-id
// order (a topological order), so each finds its inputs complete and the
// first failing unit is the first error. Threads exist only inside a
// unit: its morsels and ranges fan out to a worker pool when there are
// several of them.
//
// Intermediate tables are refcounted against their remaining consumers
// and released as soon as the last consumer has run; fused interior
// operators never materialize at all.
#ifndef EXRQUY_ENGINE_EVAL_H_
#define EXRQUY_ENGINE_EVAL_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "common/governor.h"
#include "common/status.h"
#include "engine/band.h"
#include "engine/faults.h"
#include "engine/key_groups.h"
#include "engine/profile.h"
#include "engine/table.h"
#include "engine/task_pool.h"
#include "engine/value.h"
#include "opt/morsel_plan.h"
#include "xml/node_store.h"

namespace exrquy {

// The only values EvalContext::chunk_rows, ::inline_rows and
// ::detect_sorted_inputs (and their QueryOptions namesakes) accept;
// CheckRemovedKnobs fails any other with InvalidArgument.
inline constexpr size_t kRemovedChunkRows = 65536;
inline constexpr size_t kRemovedInlineRows = 4096;
Status CheckRemovedKnobs(size_t chunk_rows, size_t inline_rows,
                         bool detect_sorted_inputs);

struct EvalContext {
  NodeStore* store = nullptr;
  StrPool* strings = nullptr;
  // fn:doc() name -> document node.
  std::map<StrId, NodeIdx> documents;
  Profile* profile = nullptr;  // optional

  // Threads that a unit's morsels and ranges fan out over: the calling
  // thread and num_threads - 1 pool workers. Units themselves always run
  // one at a time on the calling thread. 1 = no pool; 0 = EXRQUY_THREADS
  // if set, otherwise std::thread::hardware_concurrency(). A malformed
  // EXRQUY_THREADS fails Eval with InvalidArgument.
  int num_threads = 0;
  // Release memoized intermediates once their last consumer has run.
  // Off = keep-all memoization, retained for peak-memory comparisons.
  bool release_intermediates = true;
  // Row-count granularity of morsel pulls, and of the ranges breaker
  // kernels split large inputs into. 0 defers to the EXRQUY_MORSEL_ROWS
  // environment variable (malformed fails Eval with InvalidArgument),
  // then to 65536. Boundaries are a pure function
  // of the input size, never of the thread count, so any setting yields
  // byte-identical results.
  size_t morsel_rows = 0;
  // Fuse chains of non-blocking operators into morsel pipelines. Off
  // runs every fusable operator alone, as a one-stage pipeline that
  // materializes its table: the same kernels and byte-identical results,
  // retained (like release_intermediates) for peak-memory comparisons.
  bool pipelined_execution = true;
  // Removed: breaker kernels split by morsel_rows, a unit fans out
  // exactly when it has more than one morsel, and a % sorts exactly when
  // the plan does not mark it presorted (Op::presorted). Only the old
  // defaults are accepted, so that callers copying the fields through
  // still compile; any other value fails Eval with InvalidArgument
  // rather than being ignored.
  size_t chunk_rows = kRemovedChunkRows;
  size_t inline_rows = kRemovedInlineRows;
  bool detect_sorted_inputs = true;

  // -- Resource governance (all optional; see common/governor.h) ----------
  // Cooperative cancellation: polled at every unit dispatch and
  // range/morsel boundary, so an abort lands within one morsel's work ->
  // kCancelled.
  const CancelToken* cancel = nullptr;
  // Wall-clock deadline, same poll points -> kDeadlineExceeded. A query
  // that completes its root is allowed to return even if the deadline
  // passed during its final chunk (completion beats a late trip).
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  // Byte accountant; charged by live intermediate columns here and by
  // NodeStore/StrPool growth (Session attaches it there). A charge that
  // crosses the limit latches the budget and the next poll converts it
  // into kResourceExhausted — exhaustion always fails the query, even
  // when detected only after the root completed (the memory was used).
  MemoryBudget* budget = nullptr;
  // Deterministic fault injection (engine/faults.h); counts unit
  // dispatches and range/morsel-stage polls and turns the planned points
  // into governor trips.
  FaultInjector* faults = nullptr;
};

class PreparedPlan;

// Makes `root` of `dag` ready to run: the structure/schema guard
// (VerifyPlan without the property checks), the reachable ops in
// ascending op-id order, the morsel plan, and that plan's independent
// audit (AuditMorselPlan). A plan that fails the guard or the audit is an
// error, never a run, so a malformed hand-built plan or a planner bug
// surfaces as a Status. `verified` skips the guard: pass it only right
// after the full VerifyPlan of the same root, which covers structure and
// schema.
Result<PreparedPlan> PreparePlan(const Dag& dag, OpId root,
                                 bool verified = false);

// A plan that PreparePlan checked and pipelined. Only PreparePlan fills
// one; a default-constructed one belongs to no DAG, and no evaluator runs
// it. Valid while its DAG lives unmodified; read-only, so one instance
// may be shared by concurrent evaluators.
class PreparedPlan {
 public:
  PreparedPlan() = default;

  const Dag* dag() const { return dag_; }
  OpId root() const { return root_; }
  // Dag::ReachableFrom(root): the units' run order.
  const std::vector<OpId>& order() const { return order_; }
  // The audited pipelines, fused when EvalContext::pipelined_execution.
  const MorselPlan& morsels() const { return morsels_; }

 private:
  friend Result<PreparedPlan> PreparePlan(const Dag& dag, OpId root,
                                          bool verified);
  const Dag* dag_ = nullptr;
  OpId root_ = kNoOp;
  std::vector<OpId> order_;
  MorselPlan morsels_;
};

class Evaluator {
 public:
  // `max_rows` caps the rows of every table a kernel numbers with
  // uint32_t row ids (kResourceExhausted past it); only tests lower it.
  Evaluator(const Dag& dag, EvalContext* ctx, size_t max_rows = kMaxRows);

  // Evaluates the sub-DAG rooted at `root` and returns its table:
  // PreparePlan (with its guard), then Run.
  Result<TablePtr> Eval(OpId root);
  // Runs a plan prepared over this evaluator's DAG (Internal otherwise).
  Result<TablePtr> Run(const PreparedPlan& plan);

 private:
  // -- Governor (cancel/deadline/budget/faults) ----------------------------
  // Latches the first trip status; later trips are ignored.
  void Trip(Status st);
  Status TripStatus();
  // Checks cancel token, deadline, and budget latch; returns the trip
  // status once any of them (or a previous trip) fired. PollOp/PollChunk
  // additionally advance the fault-injection counters.
  Status PollGovernor();
  Status PollOp();     // one scheduled-unit dispatch
  Status PollChunk();  // one morsel-stage or breaker-range boundary

  Result<TablePtr> EvalOp(const Op& op, const std::vector<TablePtr>& in);

  // Runs the scheduled units in ascending op-id order: a whole pipeline
  // at its sink, a fusable operator outside every pipeline (a one-stage
  // pipeline), or a breaker; interior pipeline stages never run on their
  // own. After the first failure the remaining units only release their
  // inputs.
  Result<TablePtr> RunUnits(const std::vector<OpId>& order, OpId root);
  // Runs unit `id` over the memoized tables in memo_ and memoizes its
  // table.
  Status RunUnit(OpId id);
  // Drops one consumer edge from each input of `op`; a table whose last
  // consumer has run is released.
  void ReleaseInputs(const Op& op);

  // -- Pipelines (opt/morsel_plan.h) ---------------------------------------
  // Runs pipeline `pl` morsel by morsel (fanned out when there are
  // several) and merges the morsel results in morsel order. `pidx` is its
  // index in the morsel plan, -1 for a one-stage pipeline. On success
  // fills `stage_metrics` (one record per stage) and `pm` when non-null;
  // on a stage error returns the error serial evaluation would have hit
  // first (smallest failing stage, then earliest morsel).
  Result<TablePtr> EvalPipeline(
      const Pipeline& pl, int64_t pidx,
      const std::function<const TablePtr&(OpId)>& input,
      std::vector<Profile::OpMetrics>* stage_metrics,
      Profile::PipelineMetrics* pm);
  // Morsel stage kernels, the only kernels of the fusable operators:
  // evaluate rows [b, e) of `in` (the whole morsel for interior stages, a
  // source slice for the head) without materializing outside the morsel.
  // σ and θ return the row positions they keep (θ: into `in` and
  // `right`), Fun writes its e - b results to `out`; the caller decides
  // whether to gather per morsel or once at the merge.
  std::shared_ptr<Table> StageProjectM(const Op& op, const Table& in,
                                       size_t b, size_t e);
  Status StageSelectM(const Op& op, const Table& in, size_t b, size_t e,
                      std::vector<uint32_t>* rows);
  Status StageFunM(const Op& op, const Table& in, size_t b, size_t e,
                   Value* out);
  std::shared_ptr<Table> StageUnionM(const Table& l, const Table& r, size_t b,
                                     size_t e);
  Status StageThetaM(const Op& op, const Table& in, size_t b, size_t e,
                     const Table& right, const BandKeys& right_keys,
                     std::vector<uint32_t>* l_rows,
                     std::vector<uint32_t>* r_rows);
  Status StageStepM(const Op& op, const Table& in, size_t b, size_t e,
                    std::vector<int64_t>* out_iters,
                    std::vector<NodeIdx>* out_nodes);
  size_t NumMorsels(size_t n) const;
  // Transient morsel-intermediate accounting (parts awaiting the merge);
  // folded into peak_live_bytes_ and the memory budget.
  void ChargeMorsel(size_t bytes);
  void ReleaseMorsel(size_t bytes);

  // Runs fn(i) for every i in [0, n): on the pool when there are several
  // indices and more than one thread, inline otherwise. The pool starts
  // at the evaluation's first fan-out.
  template <typename Fn>
  void FanOut(size_t n, const Fn& fn);

  // Breaker-kernel helpers. ForMorsels splits [0, n) into morsel_rows-
  // sized ranges and runs fn(range, begin, end) for each, fanned out.
  // Returns the range count.
  size_t ForMorsels(size_t n,
                    const std::function<void(size_t, size_t, size_t)>& fn);
  // Appends the given rows of every column of `in` to `out`,
  // range-parallel per column.
  void GatherParallel(const Table& in, const std::vector<uint32_t>& rows,
                      Table* out);
  // Range-wise stable sort: sorts each range, then stably merges range
  // pairs — byte-identical to std::stable_sort over the whole input.
  template <typename Less>
  void ParallelStableSort(std::vector<uint32_t>* perm, const Less& less);

  Result<TablePtr> EvalLit(const Op& op);
  Result<TablePtr> EvalCross(const Op& op, const Table& l, const Table& r);
  Result<TablePtr> EvalDiffSemi(const Op& op, const Table& l, const Table& r);
  Result<TablePtr> EvalDistinct(const Op& op, const Table& in);
  Result<TablePtr> EvalRowNum(const Op& op, const Table& in);
  Result<TablePtr> EvalAggr(const Op& op, const Table& in);
  Result<TablePtr> EvalThetaCount(const Op& op, const Table& l,
                                  const Table& r);
  Result<TablePtr> EvalDoc(const Op& op);
  Result<TablePtr> EvalElem(const Op& op, const Table& content,
                            const Table& loop);
  Result<TablePtr> EvalAttr(const Op& op, const Table& value,
                            const Table& loop);
  Result<TablePtr> EvalText(const Op& op, const Table& content,
                            const Table& loop);
  Result<TablePtr> EvalRange(const Op& op, const Table& in);
  Result<TablePtr> EvalCardCheck(const Op& op, const Table& in,
                                 const Table& loop);

  Result<Value> ApplyFun(const Op& op, const std::vector<const Column*>& args,
                         size_t row);

  // -- Deferred construction (Op::deferred) --------------------------------
  // What one deferred Elem evaluation recorded instead of building nodes:
  // the element name, the content's item column with its rows in
  // sequence order, and per loop row the run of those rows that becomes
  // that row's element's content — kept (and charged as live) until the
  // evaluation ends. A record value (ValueKind::kRecord) carries the
  // set's index in records_ in its high 32 bits and the loop row in its
  // low 32.
  struct RecordSet {
    StrId name = StrPool::kEmpty;
    ColumnPtr items;
    std::vector<uint32_t> rows;
    std::vector<std::pair<uint32_t, uint32_t>> runs;  // (offset, length)
    size_t bytes = 0;  // charged while live
  };
  // Appends the content items[rows] to the element `b` has open:
  // attribute items become its attributes, nodes are copied (a document
  // node by its children), records are expanded in place, and adjacent
  // atomics merge into one space-separated text node (`text` is the
  // shared scratch buffer, empty between calls).
  Status EmitContent(NodeBuilder* b, const Column& items,
                     std::span<const uint32_t> rows, std::string* text);
  // Writes the element construction record `record` names as the next
  // child of `b` (or as its root, when no element is open); polls the
  // governor every 1024 records.
  Status EmitRecord(NodeBuilder* b, uint64_t record, std::string* text);
  // The root table as Eval returns it, every record written out as its
  // element. The root observes all it returns, so only a sub-plan
  // evaluated on its own (the certificate spot check, a test) can end in
  // a record.
  Result<TablePtr> SettleRoot(TablePtr t);
  // Untracks every record set's columns and index; run once per Eval.
  void ReleaseRecords();

  const Dag& dag_;
  EvalContext* ctx_;
  ValueOps ops_;
  size_t threads_ = 1;      // resolved by Run
  size_t morsel_rows_ = 0;  // resolved by Run
  size_t max_rows_;

  // Pipeline plan of the running plan: its audited morsel plan, or
  // `unfused_` without pipelined_execution.
  const MorselPlan* mplan_ = nullptr;
  const MorselPlan unfused_{};

  // Per-Eval unit state, indexed by OpId: each memoized table and the
  // consumer edges it still waits for (+1 for the root).
  std::vector<TablePtr> memo_;
  std::vector<uint32_t> consumers_;
  // Largest range count a ForMorsels call of the running breaker used.
  size_t unit_chunks_ = 1;

  std::unique_ptr<TaskPool> pool_;  // created by the first FanOut

  // Guards the morsel ledger against concurrent morsel tasks.
  std::mutex morsel_mu_;

  // Record sets of the deferred constructors evaluated so far.
  std::vector<RecordSet> records_;
  size_t expanded_records_ = 0;  // for EmitRecord's governor polls

  // Governor trip state: set once by the first observed cancel/deadline/
  // budget/fault condition, then sticky for the whole evaluation. Chunk
  // and morsel tasks that observe the trip skip their work, so the
  // owning unit's table would be torn — the unit discards any ok()
  // result produced while tripped_ is set instead of memoizing it.
  std::atomic<bool> tripped_{false};
  std::mutex trip_mu_;
  Status trip_status_;

  // Distinct live memoized columns (tables share columns by pointer, so
  // bytes are counted once per column, not once per referencing table).
  std::map<const Column*, uint32_t> live_cols_;
  size_t live_bytes_ = 0;
  size_t peak_live_bytes_ = 0;
  size_t released_tables_ = 0;
  // Live per-morsel parts of the running unit (guarded by morsel_mu_);
  // counted into peak_live_bytes_ alongside live_bytes_.
  size_t morsel_live_bytes_ = 0;
  void TrackTable(const Table& t);
  void UntrackTable(const Table& t);
};

// Renders a query result table (schema iter|pos|item, single iteration)
// in sequence order, with one sort and one rendering per row for both
// forms. `serialized` (when non-null) receives the whole result: nodes
// as XML, atomics via their escaped string value, adjacent textual items
// separated by a single space. `items` (when non-null) receives each
// item on its own, atomics unescaped — useful for the multiset
// comparisons in tests ("any permutation is admissible").
void RenderResult(const Table& t, const EvalContext& ctx,
                  std::string* serialized, std::vector<std::string>* items);

// RenderResult into one of its two forms.
Result<std::string> SerializeResult(const Table& t, const EvalContext& ctx);
Result<std::vector<std::string>> ResultItems(const Table& t,
                                             const EvalContext& ctx);

}  // namespace exrquy

#endif  // EXRQUY_ENGINE_EVAL_H_
