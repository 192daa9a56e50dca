#include "engine/eval.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <span>
#include <thread>
#include <unordered_map>

#include "common/check.h"
#include "opt/verify.h"
#include "xml/serializer.h"
#include "xml/step.h"

namespace exrquy {
namespace {

using Clock = std::chrono::steady_clock;

// Resolves EvalContext::num_threads: explicit > EXRQUY_THREADS > hardware.
// A malformed EXRQUY_THREADS fails instead of meaning "hardware".
Result<size_t> ResolveThreads(int requested) {
  uint64_t v = requested > 0 ? static_cast<uint64_t>(requested) : 0;
  if (v == 0) {
    EXRQUY_ASSIGN_OR_RETURN(v, StrictEnvU64("EXRQUY_THREADS"));
  }
  if (v == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    v = hw == 0 ? 1 : hw;
  }
  return static_cast<size_t>(std::min<uint64_t>(v, 256));
}

constexpr size_t kDefaultMorselRows = 65536;

// Resolves EvalContext::morsel_rows: explicit > EXRQUY_MORSEL_ROWS >
// kDefaultMorselRows. A pure function of configuration — never of the
// thread count — so morsel boundaries are too. A malformed
// EXRQUY_MORSEL_ROWS fails instead of meaning the default.
Result<size_t> ResolveMorselRows(size_t requested) {
  if (requested != 0) return requested;
  EXRQUY_ASSIGN_OR_RETURN(uint64_t env, StrictEnvU64("EXRQUY_MORSEL_ROWS"));
  return env != 0 ? static_cast<size_t>(env) : kDefaultMorselRows;
}

// Node constructors append to the NodeStore; NodeIdx values are allocation
// -ordered, so these operators must run in the same order as the serial
// engine (ascending op id) for results to be byte-identical.
bool IsNodeConstructor(OpKind k) {
  return k == OpKind::kElem || k == OpKind::kAttr || k == OpKind::kTextNode;
}

// Where the running breaker kernel reports its range count (set around
// EvalOp; ForMorsels runs on the same thread as its dispatch).
thread_local size_t* tls_chunks = nullptr;

void NoteChunks(size_t chunks) {
  if (tls_chunks != nullptr) *tls_chunks = std::max(*tls_chunks, chunks);
}

// Hash of one row over the given column pointers.
uint64_t RowHash(const std::vector<const Column*>& cols, size_t row) {
  uint64_t h = 1469598103934665603ull;
  for (const Column* c : cols) {
    h ^= (*c)[row].Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

bool RowEquals(const std::vector<const Column*>& a, size_t ra,
               const std::vector<const Column*>& b, size_t rb) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (!((*a[i])[ra] == (*b[i])[rb])) return false;
  }
  return true;
}

bool IsNaN(const Value& v) {
  return v.kind == ValueKind::kDouble && std::isnan(v.d);
}

// Key normalization for value joins: general comparison treats xs:string
// and xs:untypedAtomic alike (both compare by string value), so a hash
// join over value keys must not let the kind tag split equal keys into
// different buckets. The verifier's [join-isolation-claim] audit confines
// value_join keys to {int, string-class, bool}, where bit equality under
// this normalization coincides exactly with `eq`.
Value NormalizeValueKey(const Value& v) {
  return v.kind == ValueKind::kUntyped ? Value::Str(v.str) : v;
}

uint64_t RowHashNorm(const std::vector<const Column*>& cols, size_t row) {
  uint64_t h = 1469598103934665603ull;
  for (const Column* c : cols) {
    h ^= NormalizeValueKey((*c)[row]).Hash() + 0x9e3779b97f4a7c15ull +
         (h << 6) + (h >> 2);
  }
  return h;
}

bool RowEqualsNorm(const std::vector<const Column*>& a, size_t ra,
                   const std::vector<const Column*>& b, size_t rb) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(NormalizeValueKey((*a[i])[ra]) == NormalizeValueKey((*b[i])[rb]))) {
      return false;
    }
  }
  return true;
}

// Simple open hash table from row keys to row indices. Built once,
// read-only afterwards — probing from concurrent chunk tasks is safe.
// `normalize_keys` switches to the value-join key normalization above.
class RowIndex {
 public:
  RowIndex(std::vector<const Column*> key_cols, size_t rows,
           bool normalize_keys = false)
      : key_cols_(std::move(key_cols)), normalize_keys_(normalize_keys) {
    buckets_.resize(std::max<size_t>(16, rows * 2));
    for (size_t r = 0; r < rows; ++r) {
      size_t b = Hash(key_cols_, r) % buckets_.size();
      buckets_[b].push_back(static_cast<uint32_t>(r));
    }
  }

  // Invokes fn(row) for every stored row whose key equals the probe row.
  template <typename Fn>
  void ForEachMatch(const std::vector<const Column*>& probe_cols,
                    size_t probe_row, Fn fn) const {
    size_t b = Hash(probe_cols, probe_row) % buckets_.size();
    for (uint32_t r : buckets_[b]) {
      if (normalize_keys_
              ? RowEqualsNorm(key_cols_, r, probe_cols, probe_row)
              : RowEquals(key_cols_, r, probe_cols, probe_row)) {
        fn(r);
      }
    }
  }

  bool Contains(const std::vector<const Column*>& probe_cols,
                size_t probe_row) const {
    bool found = false;
    ForEachMatch(probe_cols, probe_row, [&](uint32_t) { found = true; });
    return found;
  }

 private:
  uint64_t Hash(const std::vector<const Column*>& cols, size_t row) const {
    return normalize_keys_ ? RowHashNorm(cols, row) : RowHash(cols, row);
  }

  std::vector<const Column*> key_cols_;
  bool normalize_keys_;
  std::vector<std::vector<uint32_t>> buckets_;
};

std::vector<const Column*> ColPtrs(const Table& t,
                                   const std::vector<ColId>& cols) {
  std::vector<const Column*> out;
  out.reserve(cols.size());
  for (ColId c : cols) out.push_back(&t.col(c));
  return out;
}

// Concatenates per-chunk row lists in chunk order — the order a serial
// scan would have produced them in.
std::vector<uint32_t> ConcatChunks(
    const std::vector<std::vector<uint32_t>>& parts) {
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<uint32_t> rows;
  rows.reserve(total);
  for (const auto& p : parts) rows.insert(rows.end(), p.begin(), p.end());
  return rows;
}

// Shares the column pointer when the range covers the whole table,
// slices otherwise — pipeline stages touch only their morsel's rows.
ColumnPtr SliceOrShare(const Table& t, ColId c, size_t b, size_t e) {
  if (b == 0 && e == t.rows()) return t.col_ptr(c);
  const Column& src = t.col(c);
  return std::make_shared<const Column>(
      src.begin() + static_cast<ptrdiff_t>(b),
      src.begin() + static_cast<ptrdiff_t>(e));
}

// Rows [b, e) of every column of `t`, sharing columns when whole.
std::shared_ptr<Table> SliceRows(const Table& t, size_t b, size_t e) {
  auto out = std::make_shared<Table>();
  for (ColId c : t.schema()) out->AddColumn(c, SliceOrShare(t, c, b, e));
  out->SetRows(e - b);
  return out;
}

// Row positions a row-picking stage (σ, the joins) keeps: `l` into its
// left input — the streamed one, except at an equi-join head — and `r`
// into a join's right input.
struct Picks {
  std::vector<uint32_t> l;
  std::vector<uint32_t> r;
};

// Appends the given rows of every column of `side` to `out`.
void GatherSide(const Table& side, const std::vector<uint32_t>& rows,
                Table* out) {
  for (ColId c : side.schema()) {
    const Column& src = side.col(c);
    Column col(rows.size());
    for (size_t k = 0; k < rows.size(); ++k) col[k] = src[rows[k]];
    out->AddColumn(c, std::move(col));
  }
}

// Copies rows [b, e) of the concatenation lc ++ rc (lc holds nl rows; the
// range may straddle the seam) to dst.
void UnionRange(const Column& lc, const Column& rc, size_t nl, size_t b,
                size_t e, Value* dst) {
  if (b < nl) {
    dst = std::copy(lc.begin() + static_cast<ptrdiff_t>(b),
                    lc.begin() + static_cast<ptrdiff_t>(std::min(e, nl)), dst);
  }
  if (e > nl) {
    std::copy(rc.begin() + static_cast<ptrdiff_t>(b > nl ? b - nl : 0),
              rc.begin() + static_cast<ptrdiff_t>(e - nl), dst);
  }
}

// One morsel's result, parked until the sink's ordered merge. Slots are
// disjoint across morsel tasks, so no locking.
struct MorselOut {
  std::shared_ptr<Table> table;       // non-Step sinks
  Picks picks;                        // lone σ and join stages
  std::vector<int64_t> step_iters;    // Step sinks (merged, sorted, deduped
  std::vector<NodeIdx> step_nodes;    // by the sink, like chunked EvalStep)
  int err_stage = -1;                 // first failing stage in this morsel
  Status err;
  size_t bytes = 0;                   // ledger charge for `table`/`picks`
};

constexpr size_t kNoSlot = static_cast<size_t>(-1);

}  // namespace

// Per-Eval scheduler state. Operators are addressed by their dense slot in
// the topological order; `pending` counts unfinished children (plus the
// constructor-chain edge), `consumers` counts unfinished parents (plus one
// for the root, whose table outlives the evaluation).
struct Evaluator::Sched {
  explicit Sched(size_t n)
      : ops(n, nullptr),
        memo(n),
        pending(std::make_unique<std::atomic<uint32_t>[]>(n)),
        consumers(std::make_unique<std::atomic<uint32_t>[]>(n)),
        parents(n),
        ctor_next(n, kNoSlot),
        ready_at(n),
        remaining(n) {}

  std::vector<OpId> ids;                  // slot -> op id (ascending)
  std::unordered_map<OpId, size_t> slot;  // op id -> slot
  std::vector<const Op*> ops;
  std::vector<TablePtr> memo;
  std::unique_ptr<std::atomic<uint32_t>[]> pending;
  std::unique_ptr<std::atomic<uint32_t>[]> consumers;
  std::vector<std::vector<size_t>> parents;  // per edge (duplicates kept)
  std::vector<size_t> ctor_next;  // next constructor slot in the chain
  std::vector<Clock::time_point> ready_at;
  bool release = false;
  bool track = false;

  // First error by op id — the operator the serial engine would have
  // failed on first (among those that ran before cancellation).
  std::atomic<bool> cancelled{false};
  std::mutex err_mu;
  OpId err_op = kNoOp;
  Status err;

  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t remaining;
};

Status CheckChunkRows(size_t chunk_rows) {
  if (chunk_rows == kRemovedChunkRows) return Status::Ok();
  return InvalidArgument(
      "chunk_rows was removed; breaker kernels split by morsel_rows");
}

Evaluator::Evaluator(const Dag& dag, EvalContext* ctx)
    : dag_(dag),
      ctx_(ctx),
      ops_(ctx->strings, ctx->store),
      inline_rows_(ctx->inline_rows) {}

// ---------------------------------------------------------------------------
// Governor polls. All cooperative: kernels are never interrupted, they
// observe the trip at the next operator dispatch or chunk boundary, so
// the abort latency is bounded by one chunk's work.

void Evaluator::Trip(Status st) {
  std::lock_guard<std::mutex> lock(trip_mu_);
  if (trip_status_.ok()) trip_status_ = std::move(st);
  tripped_.store(true, std::memory_order_release);
}

Status Evaluator::TripStatus() {
  std::lock_guard<std::mutex> lock(trip_mu_);
  EXRQUY_DCHECK(!trip_status_.ok());
  return trip_status_;
}

Status Evaluator::PollGovernor() {
  if (!tripped_.load(std::memory_order_acquire)) {
    if (ctx_->cancel != nullptr && ctx_->cancel->cancelled()) {
      Trip(Cancelled("query cancelled by caller"));
    } else if (ctx_->has_deadline && Clock::now() >= ctx_->deadline) {
      Trip(DeadlineExceeded("query deadline exceeded"));
    } else if (ctx_->budget != nullptr && ctx_->budget->exhausted()) {
      Trip(ResourceExhausted(
          "query memory budget exhausted (limit " +
          std::to_string(ctx_->budget->limit()) + " bytes)"));
    } else {
      return Status::Ok();
    }
  }
  return TripStatus();
}

Status Evaluator::PollOp() {
  if (ctx_->faults != nullptr && ctx_->faults->CancelAtOp()) {
    Trip(Cancelled("fault injection: cancel at operator dispatch " +
                   std::to_string(ctx_->faults->plan().cancel_at_op)));
  }
  return PollGovernor();
}

Status Evaluator::PollChunk() {
  if (ctx_->faults != nullptr && ctx_->faults->DeadlineAtChunk()) {
    Trip(DeadlineExceeded(
        "fault injection: deadline at chunk boundary " +
        std::to_string(ctx_->faults->plan().deadline_at_chunk)));
  }
  return PollGovernor();
}

Result<TablePtr> Evaluator::Eval(OpId root) {
  // A malformed plan (hand-built, or produced by a buggy rewrite that
  // slipped past the pipeline's own verification) must fail as a Status,
  // not as out-of-bounds column accesses mid-evaluation. Structure and
  // schema checks only — property auditing is the optimizer's concern.
  VerifyOptions guard;
  guard.check_properties = false;
  EXRQUY_RETURN_IF_ERROR(VerifyPlan(dag_, root, guard));

  EXRQUY_RETURN_IF_ERROR(CheckChunkRows(ctx_->chunk_rows));
  EXRQUY_ASSIGN_OR_RETURN(size_t threads, ResolveThreads(ctx_->num_threads));
  EXRQUY_ASSIGN_OR_RETURN(morsel_rows_, ResolveMorselRows(ctx_->morsel_rows));

  // A pre-cancelled token, an already-expired deadline, or a budget
  // exhausted by pre-evaluation work fails before any operator runs.
  EXRQUY_RETURN_IF_ERROR(PollGovernor());

  std::vector<OpId> order = dag_.ReachableFrom(root);
  // Plan the fusable chains, then refuse to run any plan the audit
  // cannot independently re-derive — a planner bug must fail as a
  // Status, never as a wrong (or torn) result. Without fusion the plan
  // is empty and every fusable operator runs alone.
  mplan_ = ctx_->pipelined_execution ? PlanPipelines(dag_, order, root)
                                     : MorselPlan();
  EXRQUY_RETURN_IF_ERROR(AuditMorselPlan(dag_, order, root, mplan_));
  if (ctx_->profile != nullptr) {
    ctx_->profile->SetExecution(threads, ctx_->release_intermediates);
  }
  Result<TablePtr> result = Schedule(order, root, threads);
  if (result.ok()) {
    // A trip latched during the final operator's chunks, or a budget
    // crossing charged by the last kernel, still fails the query: the
    // root table may be complete, but the contract (clean Status once a
    // governor condition fires) takes precedence. The wall-clock
    // deadline alone is exempt — a query that finished is not re-failed
    // for ending close to its deadline.
    if (tripped_.load(std::memory_order_acquire)) {
      result = TripStatus();
    } else if (ctx_->budget != nullptr && ctx_->budget->exhausted()) {
      result = ResourceExhausted(
          "query memory budget exhausted (limit " +
          std::to_string(ctx_->budget->limit()) + " bytes)");
    }
  }
  if (ctx_->profile != nullptr) {
    ctx_->profile->SetMemory(peak_live_bytes_, live_bytes_, released_tables_);
  }
  return result;
}

void Evaluator::TrackTable(const Table& t) {
  for (ColId c : t.schema()) {
    const Column* p = t.col_ptr(c).get();
    if (++live_cols_[p] == 1) {
      size_t bytes = Table::ColumnBytes(*p);
      live_bytes_ += bytes;
      if (ctx_->budget != nullptr) ctx_->budget->Charge(bytes);
    }
  }
  peak_live_bytes_ =
      std::max(peak_live_bytes_, live_bytes_ + morsel_live_bytes_);
}

void Evaluator::UntrackTable(const Table& t) {
  for (ColId c : t.schema()) {
    const Column* p = t.col_ptr(c).get();
    auto it = live_cols_.find(p);
    if (it != live_cols_.end() && --it->second == 0) {
      size_t bytes = Table::ColumnBytes(*p);
      live_bytes_ -= bytes;
      if (ctx_->budget != nullptr) ctx_->budget->Release(bytes);
      live_cols_.erase(it);
    }
  }
}

// Morsel parts awaiting their pipeline's merge are live memory like any
// memoized table: they count against the budget (the charge count is a
// pure function of the data, so fail_alloc sweeps stay replayable) and
// into the peak alongside the memo tracker's live_bytes_.
void Evaluator::ChargeMorsel(size_t bytes) {
  if (bytes == 0) return;
  if (ctx_->budget != nullptr) ctx_->budget->Charge(bytes);
  std::lock_guard<std::mutex> lock(profile_mu_);
  morsel_live_bytes_ += bytes;
  peak_live_bytes_ =
      std::max(peak_live_bytes_, live_bytes_ + morsel_live_bytes_);
}

void Evaluator::ReleaseMorsel(size_t bytes) {
  if (bytes == 0) return;
  if (ctx_->budget != nullptr) ctx_->budget->Release(bytes);
  std::lock_guard<std::mutex> lock(profile_mu_);
  morsel_live_bytes_ -= bytes;
}

Result<TablePtr> Evaluator::Schedule(const std::vector<OpId>& order,
                                     OpId root, size_t threads) {
  const size_t n = order.size();
  Sched s(n);
  s.ids = order;
  s.slot.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) s.slot.emplace(order[i], i);
  for (size_t i = 0; i < n; ++i) {
    const Op& op = dag_.op(order[i]);
    s.ops[i] = &op;
    s.pending[i].store(static_cast<uint32_t>(op.children.size()),
                       std::memory_order_relaxed);
    for (OpId c : op.children) {
      size_t cs = s.slot.at(c);
      s.parents[cs].push_back(i);
      s.consumers[cs].fetch_add(1, std::memory_order_relaxed);
    }
  }
  s.consumers[s.slot.at(root)].fetch_add(1, std::memory_order_relaxed);

  // Chain node constructors in ascending op-id order: each waits for the
  // previous one, so NodeStore allocation order matches serial execution.
  size_t prev_ctor = kNoSlot;
  for (size_t i = 0; i < n; ++i) {
    if (!IsNodeConstructor(s.ops[i]->kind)) continue;
    if (prev_ctor != kNoSlot) {
      s.ctor_next[prev_ctor] = i;
      s.pending[i].fetch_add(1, std::memory_order_relaxed);
    }
    prev_ctor = i;
  }
  s.release = ctx_->release_intermediates;
  s.track = ctx_->profile != nullptr;

  if (threads <= 1) {
    // Serial execution is this scheduler with every unit inlined: the
    // slots run in ascending op-id order, a topological order, so each
    // unit finds its inputs complete. This is the evaluation order whose
    // results and first error every other thread count reproduces.
    std::vector<size_t> unused;
    for (size_t i = 0; i < n; ++i) RunOne(&s, i, /*queued=*/false, &unused);
  } else {
    // Snapshot the initially-ready set before any task runs: once workers
    // start, they decrement pending counts concurrently, and re-reading
    // them here could observe a drop to zero and submit an op twice.
    std::vector<size_t> ready;
    for (size_t i = 0; i < n; ++i) {
      if (s.pending[i].load(std::memory_order_relaxed) == 0) {
        ready.push_back(i);
      }
    }
    pool_ = std::make_unique<TaskPool>(threads);
    Sched* sp = &s;
    Clock::time_point t0 = Clock::now();
    // Inline-eligible ready units run on this thread after the pooled ones
    // are queued; with a tiny query, nothing is ever queued and the lazy
    // pool never spawns a worker.
    std::vector<size_t> run_here;
    for (size_t i : ready) {
      s.ready_at[i] = t0;
      if (ShouldInline(sp, i)) {
        run_here.push_back(i);
      } else {
        pool_->Submit([this, sp, i] { RunTask(sp, i, /*queued=*/true); });
      }
    }
    for (size_t i : run_here) RunTask(sp, i, /*queued=*/false);
    {
      std::unique_lock<std::mutex> lock(s.done_mu);
      s.done_cv.wait(lock, [&] { return s.remaining == 0; });
    }
    pool_.reset();  // joins the workers; nothing touches `s` afterwards
  }

  // A governor trip wins over concurrent operator errors: the trip is
  // reproducible at every thread count (its counters advance the same
  // number of times), while which kernels got far enough to fail is not.
  if (tripped_.load(std::memory_order_acquire)) return TripStatus();
  if (s.err_op != kNoOp) return s.err;
  return s.memo[s.slot.at(root)];
}

void Evaluator::RunTask(Sched* s, size_t i, bool queued) {
  // Drain loop: RunOne collects units its completion made ready and
  // inline-eligible; running them here (instead of recursing out of
  // DecrementPending) bounds the stack on long inline chains. Only the
  // unit that actually sat in the pool queue charges queue wait.
  std::vector<size_t> q;
  RunOne(s, i, queued, &q);
  while (!q.empty()) {
    size_t next = q.back();
    q.pop_back();
    RunOne(s, next, /*queued=*/false, &q);
  }
}

void Evaluator::RunOne(Sched* s, size_t i, bool queued,
                       std::vector<size_t>* q) {
  const OpId id = s->ids[i];
  // Interior pipeline stages never run as units — their work happens
  // fused inside the sink's morsel loop; completing them here only
  // propagates readiness (no poll, no release, no memo entry).
  if (mplan_.interior(id) || s->cancelled.load(std::memory_order_acquire)) {
    FinishTask(s, i, q);
    return;
  }
  if (Status g = PollOp(); !g.ok()) {
    // Drain like an operator error: later tasks early-out above, pending
    // counts still reach zero, intermediates still release. The final
    // status comes from the trip latch, not from s->err.
    s->cancelled.store(true, std::memory_order_release);
    FinishTask(s, i, q);
    return;
  }
  const Op& op = *s->ops[i];
  const bool sink = mplan_.sink(id);
  const double queue_ms = queued ? MsSince(s->ready_at[i]) : 0;
  std::vector<Profile::OpMetrics> metrics;  // filled when profiling
  Profile::PipelineMetrics pm;
  Clock::time_point start = Clock::now();
  Result<TablePtr> r = [&]() -> Result<TablePtr> {
    std::vector<Profile::OpMetrics>* sm = s->track ? &metrics : nullptr;
    if (sink || Fusable(op.kind)) {
      // No fusable kernel constructs nodes, so the unit (and the morsel
      // tasks its ParallelFor fans out, which it outlives) holds the
      // store shared, like any reading operator.
      std::shared_lock<std::shared_mutex> lock(store_mu_);
      auto input = [s](OpId c) -> const TablePtr& {
        return s->memo[s->slot.at(c)];
      };
      if (!sink) {
        // A fusable operator outside every chain: a one-stage pipeline.
        return EvalPipeline(Pipeline{{PipelineStage{id, -1}}}, -1, input,
                            sm, nullptr);
      }
      uint32_t pidx = mplan_.pipeline_of.at(id);
      return EvalPipeline(mplan_.pipelines[pidx], pidx, input, sm, &pm);
    }
    std::vector<TablePtr> in;
    in.reserve(op.children.size());
    for (OpId c : op.children) in.push_back(s->memo[s->slot.at(c)]);
    size_t chunks = 1;
    tls_chunks = &chunks;
    Result<TablePtr> t = [&]() -> Result<TablePtr> {
      if (IsNodeConstructor(op.kind)) {
        std::unique_lock<std::shared_mutex> lock(store_mu_);
        return EvalOp(op, in);
      }
      std::shared_lock<std::shared_mutex> lock(store_mu_);
      return EvalOp(op, in);
    }();
    tls_chunks = nullptr;
    if (sm != nullptr && t.ok()) {
      Profile::OpMetrics m;
      m.op = id;
      for (const TablePtr& c : in) m.in_rows += c->rows();
      m.out_rows = (*t)->rows();
      m.chunks = chunks;
      sm->push_back(std::move(m));
    }
    return t;
  }();
  const double ms = MsSince(start);

  if (r.ok() && tripped_.load(std::memory_order_acquire)) {
    // A governor trip mid-unit makes morsel and range tasks skip their
    // slices; the torn table must not be memoized.
    r = TripStatus();
  }
  if (!r.ok()) {
    // Errors resolve across units by unit id — for a pipeline, its sink's
    // op id, the slot serial execution dispatches it at. EvalPipeline
    // already picked the serial-first error within the unit.
    {
      std::lock_guard<std::mutex> lock(s->err_mu);
      if (s->err_op == kNoOp || id < s->err_op) {
        s->err_op = id;
        s->err = r.status();
      }
    }
    s->cancelled.store(true, std::memory_order_release);
  } else {
    TablePtr t = std::move(r).value();
    {
      std::lock_guard<std::mutex> lock(profile_mu_);
      if (s->track) {
        if (sink) {
          pm.ms = ms;
          pm.queue_ms = queue_ms;
          ctx_->profile->RecordPipeline(pm);
        } else {
          // A standalone unit's one record carries its wall time and
          // queue wait.
          metrics[0].ms = ms;
          metrics[0].queue_ms = queue_ms;
        }
        for (Profile::OpMetrics& m : metrics) {
          ctx_->profile->Record(dag_.op(m.op), std::move(m));
        }
      }
      TrackTable(*t);
    }
    s->memo[i] = std::move(t);  // published by the pending decrements below
  }
  FinishTask(s, i, q);
}

void Evaluator::FinishTask(Sched* s, size_t i, std::vector<size_t>* q) {
  OpId id = s->ids[i];
  const bool interior = mplan_.interior(id);
  if (s->release && !interior) {
    // A sink releases every stage's inputs — the head's external tables
    // were consumed by its morsel loop, not by any standalone unit.
    // Interior completions must not release anything: their edges are
    // accounted at the sink, after the pipeline actually read them.
    if (mplan_.sink(id)) {
      const Pipeline& pl = mplan_.pipelines[mplan_.pipeline_of.at(id)];
      for (const PipelineStage& st : pl.stages) {
        ReleaseChildren(s, dag_.op(st.op));
      }
    } else {
      ReleaseChildren(s, *s->ops[i]);
    }
  }
  if (s->ctor_next[i] != kNoSlot) DecrementPending(s, s->ctor_next[i], q);
  for (size_t p : s->parents[i]) DecrementPending(s, p, q);
  {
    std::lock_guard<std::mutex> lock(s->done_mu);
    if (--s->remaining == 0) s->done_cv.notify_all();
  }
}

void Evaluator::ReleaseChildren(Sched* s, const Op& op) {
  for (OpId c : op.children) {
    size_t cs = s->slot.at(c);
    if (s->consumers[cs].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      TablePtr dead = std::move(s->memo[cs]);
      // In-pipe edges (and drained-before-running producers) have no
      // memoized table; their counter still hits zero with nothing to
      // free.
      if (dead != nullptr) {
        std::lock_guard<std::mutex> lock(profile_mu_);
        UntrackTable(*dead);
        ++released_tables_;
      }
    }
  }
}

void Evaluator::DecrementPending(Sched* s, size_t i, std::vector<size_t>* q) {
  // Serial execution dispatches the slots in order itself.
  if (s->pending[i].fetch_sub(1, std::memory_order_acq_rel) != 1 ||
      pool_ == nullptr) {
    return;
  }
  s->ready_at[i] = Clock::now();
  if (ShouldInline(s, i)) {
    q->push_back(i);
    return;
  }
  pool_->Submit([this, s, i] { RunTask(s, i, /*queued=*/true); });
}

bool Evaluator::ShouldInline(Sched* s, size_t i) {
  OpId id = s->ids[i];
  // Interior completions are pure bookkeeping — never worth a task.
  if (mplan_.interior(id)) return true;
  if (inline_rows_ == 0) return false;
  size_t rows = 0;
  auto add = [&](const Op& op) {
    for (OpId c : op.children) {
      const TablePtr& t = s->memo[s->slot.at(c)];
      if (t != nullptr) rows += t->rows();
    }
  };
  if (mplan_.sink(id)) {
    const Pipeline& pl = mplan_.pipelines[mplan_.pipeline_of.at(id)];
    for (const PipelineStage& st : pl.stages) add(dag_.op(st.op));
  } else {
    add(*s->ops[i]);
  }
  return rows <= inline_rows_;
}

// ---------------------------------------------------------------------------
// Pipelines: one scheduled unit runs a whole fused chain, or a single
// fusable operator. The head's materialized input rows are split into
// morsels — boundaries a pure function of the source size and
// morsel_rows_, never the thread count — and each morsel flows through
// every stage without materializing interior tables. The sink
// concatenates morsel results in morsel order (Step re-sorts/dedups, #
// numbers the merged stream), so the result is the same at every morsel
// size and thread count. A lone stage (a fusable operator outside every
// chain) reads only whole materialized inputs, so its morsels build no
// tables to concatenate: π and # share the input columns in a single
// morsel, Fun and ⊕ fill their rows of preallocated output columns, and
// σ and the joins keep only row positions, which the merge gathers from
// the inputs once, range-parallel.

size_t Evaluator::NumMorsels(size_t n) const {
  return n == 0 ? 1 : (n + morsel_rows_ - 1) / morsel_rows_;
}

Result<TablePtr> Evaluator::EvalPipeline(
    const Pipeline& pl, int64_t pidx,
    const std::function<const TablePtr&(OpId)>& input,
    std::vector<Profile::OpMetrics>* stage_metrics,
    Profile::PipelineMetrics* pm) {
  const size_t nstages = pl.stages.size();

  // Resolve stage operators and their materialized (non-pipe) inputs.
  // A ThetaJoin stage casts its right keys once, up front, like the
  // equi-join build below; every morsel reads them.
  std::vector<const Op*> sops(nstages);
  std::vector<std::vector<TablePtr>> ext(nstages);
  std::vector<std::unique_ptr<BandKeys>> bands(nstages);
  for (size_t si = 0; si < nstages; ++si) {
    const PipelineStage& st = pl.stages[si];
    sops[si] = &dag_.op(st.op);
    const Op& op = *sops[si];
    ext[si].resize(op.children.size());
    for (size_t ci = 0; ci < op.children.size(); ++ci) {
      if (si > 0 && static_cast<int>(ci) == st.pipe_child) continue;
      ext[si][ci] = input(op.children[ci]);
    }
    if (op.kind == OpKind::kThetaJoin) {
      const Table& right = *ext[si][1];
      bands[si] = std::make_unique<BandKeys>(ops_, right.col(op.col2),
                                             right.rows());
    }
  }

  // The head defines the morsel domain.
  const Op& hop = *sops[0];
  const Table* stream = nullptr;  // single-stream heads (and the probe side)
  const Table* lT = nullptr;      // union / equi-join heads
  const Table* rT = nullptr;
  std::unique_ptr<RowIndex> jindex;  // equi-join build, done once up front
  bool jbuild_right = false;
  ColId jprobe_col = kNoCol;
  size_t total = 0;
  switch (hop.kind) {
    case OpKind::kUnion:
      lT = ext[0][0].get();
      rT = ext[0][1].get();
      total = lT->rows() + rT->rows();
      break;
    case OpKind::kEquiJoin: {
      lT = ext[0][0].get();
      rT = ext[0][1].get();
      // Build on the smaller side, probe with the larger (ties build
      // right). The build is blocking work and happens here, before any
      // morsel. Value joins hash xs:string and xs:untypedAtomic keys
      // alike (NormalizeValueKey); scaffolding joins keep exact keys.
      jbuild_right = rT->rows() <= lT->rows();
      const Table* build = jbuild_right ? rT : lT;
      stream = jbuild_right ? lT : rT;
      ColId build_col = jbuild_right ? hop.col2 : hop.col;
      jprobe_col = jbuild_right ? hop.col : hop.col2;
      jindex = std::make_unique<RowIndex>(
          std::vector<const Column*>{&build->col(build_col)}, build->rows(),
          hop.value_join);
      total = stream->rows();
      break;
    }
    default:
      stream = ext[0][0].get();
      total = stream->rows();
  }

  const bool lone = nstages == 1;
  // This unit's morsel size. A lone π or # shares its input columns in
  // one morsel. A lone Step splits no finer than the default: every
  // EvalStep call memoizes step groups afresh (and sorts its contexts
  // unless they arrive sorted), and the merge re-sorts, so small morsels
  // only add work; parallelism needs just a few large ranges.
  size_t mrows = morsel_rows_;
  if (lone && (hop.kind == OpKind::kProject || hop.kind == OpKind::kRowId)) {
    mrows = std::max<size_t>(total, 1);
  } else if (lone && hop.kind == OpKind::kStep) {
    mrows = std::max(mrows, kDefaultMorselRows);
  }
  const size_t morsels = total == 0 ? 1 : (total + mrows - 1) / mrows;
  Column lone_fun;                 // a lone Fun's result column
  std::vector<Column> lone_union;  // a lone ⊕'s output columns
  if (lone && hop.kind == OpKind::kFun) lone_fun.resize(total);
  if (lone && hop.kind == OpKind::kUnion) {
    lone_union.assign(lT->schema().size(), Column(total));
  }
  const bool step_sink = sops[nstages - 1]->kind == OpKind::kStep;
  std::vector<MorselOut> outs(morsels);
  const bool prof = stage_metrics != nullptr;
  // Per-(morsel, stage) measurements in disjoint slots; summed below.
  std::vector<double> st_ms;
  std::vector<size_t> st_in;
  std::vector<size_t> st_out;
  if (prof) {
    st_ms.assign(morsels * nstages, 0);
    st_in.assign(morsels * nstages, 0);
    st_out.assign(morsels * nstages, 0);
  }

  auto equi_probe = [&](size_t b, size_t e, Picks* p) {
    std::vector<const Column*> probe_key = {&stream->col(jprobe_col)};
    std::vector<uint32_t>& probe_rows = jbuild_right ? p->l : p->r;
    std::vector<uint32_t>& build_rows = jbuild_right ? p->r : p->l;
    for (size_t pr = b; pr < e; ++pr) {
      jindex->ForEachMatch(probe_key, pr, [&](uint32_t br) {
        probe_rows.push_back(static_cast<uint32_t>(pr));
        build_rows.push_back(br);
      });
    }
  };
  // The tables a picking stage's positions index, given its streamed
  // input `in`: an equi-join head's two inputs, otherwise `in` and a
  // theta join's right input.
  auto pick_left = [&](const Op& op, const Table* in) -> const Table& {
    return op.kind == OpKind::kEquiJoin ? *lT : *in;
  };
  auto pick_right = [&](size_t si) -> const Table* {
    switch (sops[si]->kind) {
      case OpKind::kEquiJoin:
        return rT;
      case OpKind::kThetaJoin:
        return ext[si][1].get();
      default:
        return nullptr;
    }
  };

  auto run_morsel = [&](size_t m) {
    size_t mb = m * mrows;
    size_t me = std::min(total, mb + mrows);
    MorselOut& mo = outs[m];
    std::shared_ptr<Table> cur;
    for (size_t si = 0; si < nstages; ++si) {
      // Morsel-stage boundary = the pipelined engine's chunk boundary:
      // same poll, same fault-injection coordinate space.
      if (!PollChunk().ok()) return;  // torn morsel; the trip latch wins
      const Op& op = *sops[si];
      const Table* in = si == 0 ? stream : cur.get();
      size_t b = si == 0 ? mb : 0;
      size_t e = si == 0 ? me : cur->rows();
      Clock::time_point t0;
      if (prof) t0 = Clock::now();
      Result<std::shared_ptr<Table>> r =
          [&]() -> Result<std::shared_ptr<Table>> {
        switch (op.kind) {
          case OpKind::kProject:
            return StageProjectM(op, *in, b, e);
          case OpKind::kSelect:
          case OpKind::kEquiJoin:
          case OpKind::kThetaJoin: {
            Picks p;
            if (op.kind == OpKind::kSelect) {
              EXRQUY_RETURN_IF_ERROR(StageSelectM(op, *in, b, e, &p.l));
            } else if (op.kind == OpKind::kEquiJoin) {
              equi_probe(b, e, &p);
            } else {
              EXRQUY_RETURN_IF_ERROR(StageThetaM(op, *in, b, e, *ext[si][1],
                                                 *bands[si], &p.l, &p.r));
            }
            if (lone) {
              mo.picks = std::move(p);
              return std::shared_ptr<Table>();
            }
            auto out = std::make_shared<Table>();
            GatherSide(pick_left(op, in), p.l, out.get());
            if (const Table* right = pick_right(si)) {
              GatherSide(*right, p.r, out.get());
            }
            out->SetRows(p.l.size());
            return out;
          }
          case OpKind::kFun: {
            if (lone) {
              EXRQUY_RETURN_IF_ERROR(
                  StageFunM(op, *in, b, e, lone_fun.data() + b));
              return std::shared_ptr<Table>();
            }
            Column c(e - b);
            EXRQUY_RETURN_IF_ERROR(StageFunM(op, *in, b, e, c.data()));
            std::shared_ptr<Table> out = SliceRows(*in, b, e);
            out->AddColumn(op.col, std::move(c));
            return out;
          }
          case OpKind::kUnion:
            if (lone) {
              const std::vector<ColId>& schema = lT->schema();
              for (size_t k = 0; k < schema.size(); ++k) {
                UnionRange(lT->col(schema[k]), rT->col(schema[k]),
                           lT->rows(), b, e, lone_union[k].data() + b);
              }
              return std::shared_ptr<Table>();
            }
            return StageUnionM(*lT, *rT, b, e);
          case OpKind::kStep: {
            Status st =
                StageStepM(op, *in, b, e, &mo.step_iters, &mo.step_nodes);
            if (!st.ok()) return st;
            return std::shared_ptr<Table>();
          }
          case OpKind::kRowId:
            // Ids are positions in the merged output, assigned after the
            // merge; a head # streams its input rows through.
            if (si == 0) return SliceRows(*in, b, e);
            return cur;
          default:
            return Internal("morsel plan: unfusable stage kind survived "
                            "the audit");
        }
      }();
      if (!r.ok()) {
        if (tripped_.load(std::memory_order_acquire)) return;
        // First error within the morsel: the stage loop stops at the
        // first failing stage, and each stage kernel fails on its first
        // bad row — exactly the serial scan order.
        mo.err_stage = static_cast<int>(si);
        mo.err = r.status();
        return;
      }
      cur = std::move(r).value();
      if (prof) {
        size_t slot = m * nstages + si;
        st_ms[slot] = MsSince(t0);
        if (si > 0) st_in[slot] = e - b;
        // The sink's rows are counted on the merged result.
        if (si + 1 < nstages) st_out[slot] = cur->rows();
      }
    }
    if (!step_sink) {
      mo.table = std::move(cur);
      // A lone morsel is the unit's table as is, charged once when the
      // scheduler tracks it; parts awaiting a real merge are live here.
      if (morsels > 1) {
        mo.bytes = mo.table != nullptr
                       ? mo.table->ByteSize()
                       : (mo.picks.l.size() + mo.picks.r.size()) *
                             sizeof(uint32_t);
        ChargeMorsel(mo.bytes);
      }
    }
  };

  if (pool_ != nullptr && pool_->threads() > 0 && morsels > 1) {
    pool_->ParallelFor(morsels, run_morsel);
  } else {
    for (size_t m = 0; m < morsels; ++m) run_morsel(m);
  }
  auto release_parts = [&] {
    for (MorselOut& mo : outs) {
      ReleaseMorsel(mo.bytes);
      mo.bytes = 0;
    }
  };
  if (tripped_.load(std::memory_order_acquire)) {
    release_parts();
    return TripStatus();
  }
  // Cross-morsel error resolution: the failing stage with the smallest
  // op id, then the earliest morsel within it — the first error a serial
  // stage-at-a-time scan would have hit.
  int best_stage = -1;
  size_t best_m = 0;
  for (size_t m = 0; m < morsels; ++m) {
    if (outs[m].err_stage < 0) continue;
    if (best_stage < 0 || outs[m].err_stage < best_stage) {
      best_stage = outs[m].err_stage;
      best_m = m;
    }
  }
  if (best_stage >= 0) {
    release_parts();
    return outs[best_m].err;
  }

  // Ordered morsel merge.
  const Op& sop = *sops[nstages - 1];
  TablePtr result;
  if (step_sink) {
    // Step output is the globally sorted duplicate-free (iter, node)
    // set. One morsel's output already is that set; several morsels'
    // sets are concatenated, sorted and deduplicated, which reproduces
    // the single-call result exactly.
    std::vector<int64_t>& iters = outs[0].step_iters;
    std::vector<NodeIdx>& nodes = outs[0].step_nodes;
    if (morsels > 1) {
      std::vector<std::pair<int64_t, NodeIdx>> all;
      size_t n = 0;
      for (const MorselOut& mo : outs) n += mo.step_iters.size();
      all.reserve(n);
      for (const MorselOut& mo : outs) {
        for (size_t k = 0; k < mo.step_iters.size(); ++k) {
          all.emplace_back(mo.step_iters[k], mo.step_nodes[k]);
        }
      }
      // Morsels in context order often concatenate sorted already.
      if (!std::is_sorted(all.begin(), all.end())) {
        std::sort(all.begin(), all.end());
      }
      all.erase(std::unique(all.begin(), all.end()), all.end());
      iters.resize(all.size());
      nodes.resize(all.size());
      for (size_t k = 0; k < all.size(); ++k) {
        iters[k] = all[k].first;
        nodes[k] = all[k].second;
      }
    }
    Column ic(iters.size());
    Column nc(iters.size());
    for (size_t k = 0; k < iters.size(); ++k) {
      ic[k] = Value::Int(iters[k]);
      nc[k] = Value::Node(nodes[k]);
    }
    auto out = std::make_shared<Table>();
    out->AddColumn(col::iter(), std::move(ic));
    out->AddColumn(col::item(), std::move(nc));
    out->SetRows(iters.size());
    result = out;
  } else if (morsels == 1 && outs[0].table != nullptr) {
    result = outs[0].table;  // the single part IS the concatenation
  } else if (lone) {
    auto out = std::make_shared<Table>();
    size_t rows_total = total;
    if (hop.kind == OpKind::kFun) {
      for (ColId c : stream->schema()) out->AddColumn(c, stream->col_ptr(c));
      out->AddColumn(hop.col, std::move(lone_fun));
    } else if (hop.kind == OpKind::kUnion) {
      const std::vector<ColId>& schema = lT->schema();
      for (size_t k = 0; k < schema.size(); ++k) {
        out->AddColumn(schema[k], std::move(lone_union[k]));
      }
    } else {
      Picks all;
      for (MorselOut& mo : outs) {
        all.l.insert(all.l.end(), mo.picks.l.begin(), mo.picks.l.end());
        all.r.insert(all.r.end(), mo.picks.r.begin(), mo.picks.r.end());
        mo.picks = Picks();
      }
      GatherParallel(pick_left(hop, stream), all.l, out.get());
      if (const Table* right = pick_right(0)) {
        GatherParallel(*right, all.r, out.get());
      }
      rows_total = all.l.size();
    }
    out->SetRows(rows_total);
    result = out;
  } else {
    // Concatenate in morsel order, column by column; each part drops its
    // reference to a column as soon as it is copied, so the transient
    // peak is the merged output plus one part column — not two full
    // copies of the output.
    size_t rows_total = 0;
    for (const MorselOut& mo : outs) rows_total += mo.table->rows();
    auto out = std::make_shared<Table>();
    const std::vector<ColId> schema = outs[0].table->schema();
    for (ColId c : schema) {
      // The merge moves a lot of bytes: stay responsive to
      // cancel/deadline, but do not advance the chunk-fault coordinate —
      // merge granularity is an implementation detail, not a replayable
      // fault point.
      if (!PollGovernor().ok()) break;
      Column col(rows_total);
      size_t off = 0;
      for (const MorselOut& mo : outs) {
        const Column& src = mo.table->col(c);
        std::copy(src.begin(), src.end(), col.begin() + off);
        off += src.size();
        mo.table->ReleaseColumn(c);
      }
      out->AddColumn(c, std::move(col));
    }
    out->SetRows(rows_total);
    result = out;
  }
  release_parts();
  if (tripped_.load(std::memory_order_acquire)) return TripStatus();

  if (sop.kind == OpKind::kRowId) {
    // # over the merged stream: positions in the concatenation-in-morsel-
    // order equal positions in the standalone input, so the ids match the
    // operator-at-a-time numbering exactly.
    size_t n = result->rows();
    Column ids(n);
    for (size_t r = 0; r < n; ++r) {
      ids[r] = Value::Int(static_cast<int64_t>(r) + 1);
    }
    auto out = std::make_shared<Table>();
    for (ColId c : result->schema()) out->AddColumn(c, result->col_ptr(c));
    out->AddColumn(sop.col, std::move(ids));
    out->SetRows(n);
    result = out;
  }

  if (prof) {
    for (size_t si = 0; si < nstages; ++si) {
      Profile::OpMetrics m;
      m.op = pl.stages[si].op;
      m.pipeline = pidx;
      m.chunks = morsels;
      m.queue_ms = 0;  // queue wait belongs to the unit, counted once
      double ms = 0;
      size_t irows = 0;
      size_t orows = 0;
      for (size_t mm = 0; mm < morsels; ++mm) {
        size_t slot = mm * nstages + si;
        ms += st_ms[slot];
        irows += st_in[slot];
        orows += st_out[slot];
      }
      // Materialized (non-pipe) inputs count once, as standalone
      // evaluation would; the streamed input was summed per morsel.
      const Op& op = *sops[si];
      for (size_t ci = 0; ci < op.children.size(); ++ci) {
        if (ext[si][ci] != nullptr) irows += ext[si][ci]->rows();
      }
      m.ms = ms;
      m.in_rows = irows;
      m.out_rows = si + 1 == nstages ? result->rows() : orows;
      stage_metrics->push_back(std::move(m));
    }
  }
  if (pm != nullptr) {
    pm->id = static_cast<uint32_t>(pidx);
    pm->head = pl.head();
    pm->sink = pl.sink();
    pm->stages = nstages;
    pm->morsels = morsels;
    pm->in_rows = total;
    pm->out_rows = result->rows();
  }
  return TablePtr(result);
}

std::shared_ptr<Table> Evaluator::StageProjectM(const Op& op, const Table& in,
                                                size_t b, size_t e) {
  auto out = std::make_shared<Table>();
  for (const auto& [n, o] : op.proj) out->AddColumn(n, SliceOrShare(in, o, b, e));
  out->SetRows(e - b);
  return out;
}

Status Evaluator::StageSelectM(const Op& op, const Table& in, size_t b,
                               size_t e, std::vector<uint32_t>* rows) {
  const Column& flags = in.col(op.col);
  for (size_t r = b; r < e; ++r) {
    const Value& v = flags[r];
    if (v.kind != ValueKind::kBool) {
      return TypeError("selection column is not boolean");
    }
    if (v.b) rows->push_back(static_cast<uint32_t>(r));
  }
  return Status::Ok();
}

Status Evaluator::StageFunM(const Op& op, const Table& in, size_t b, size_t e,
                            Value* out) {
  std::vector<const Column*> args = ColPtrs(in, op.args);
  for (size_t r = b; r < e; ++r) {
    Result<Value> v = ApplyFun(op, args, r);
    if (!v.ok()) return v.status();
    out[r - b] = std::move(v).value();
  }
  return Status::Ok();
}

std::shared_ptr<Table> Evaluator::StageUnionM(const Table& l, const Table& r,
                                              size_t b, size_t e) {
  auto out = std::make_shared<Table>();
  for (ColId c : l.schema()) {
    Column col(e - b);
    UnionRange(l.col(c), r.col(c), l.rows(), b, e, col.data());
    out->AddColumn(c, std::move(col));
  }
  out->SetRows(e - b);
  return out;
}

Status Evaluator::StageThetaM(const Op& op, const Table& in, size_t b,
                              size_t e, const Table& right,
                              const BandKeys& right_keys,
                              std::vector<uint32_t>* l_rows,
                              std::vector<uint32_t>* r_rows) {
  // Nested loop over [b, e) x right, left-major with matches in
  // right-row order, over keys cast once (ComparePair); a comparison
  // error surfaces at the first failing pair in that order, with the
  // Status that Compare gives that pair.
  const Column& lk = in.col(op.col);
  const size_t m = right_keys.size();
  size_t pairs = 0;
  for (size_t i = b; i < e; ++i) {
    const BandKey key = ClassifyKey(ops_, lk[i]);
    for (size_t j = 0; j < m; ++j) {
      // Pair-volume poll (EvalRange's output-volume idiom): one morsel's
      // work is morsel_rows * m pairs, not morsel_rows.
      if ((pairs++ & 0xFFFF) == 0xFFFF) {
        EXRQUY_RETURN_IF_ERROR(PollGovernor());
      }
      switch (ComparePair(op.fun, key, right_keys[j])) {
        case PairOutcome::kFalse:
          break;
        case PairOutcome::kTrue:
          l_rows->push_back(static_cast<uint32_t>(i));
          r_rows->push_back(static_cast<uint32_t>(j));
          break;
        case PairOutcome::kRaises: {
          Result<Value> v = ops_.Compare(op.fun, lk[i], right.col(op.col2)[j]);
          if (v.ok()) return Internal("theta join: failing pair compared");
          return v.status();
        }
      }
    }
  }
  return Status::Ok();
}

Status Evaluator::StageStepM(const Op& op, const Table& in, size_t b, size_t e,
                             std::vector<int64_t>* out_iters,
                             std::vector<NodeIdx>* out_nodes) {
  const Column& iters = in.col(col::iter());
  const Column& items = in.col(col::item());
  std::vector<int64_t> ci;
  std::vector<NodeIdx> cn;
  ci.reserve(e - b);
  cn.reserve(e - b);
  for (size_t r = b; r < e; ++r) {
    if (items[r].kind != ValueKind::kNode) {
      return TypeError(std::string("path step ") + AxisName(op.axis) +
                       ":: applied to a non-node item");
    }
    EXRQUY_DCHECK(iters[r].kind == ValueKind::kInt);
    ci.push_back(iters[r].i);
    cn.push_back(items[r].node);
  }
  exrquy::EvalStep(*ctx_->store, op.axis, op.test, std::move(ci),
                   std::move(cn), out_iters, out_nodes);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Morsel-range helpers of the breaker kernels.

size_t Evaluator::ForMorsels(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn) {
  size_t chunks = NumMorsels(n);
  auto run = [&](size_t c) {
    // Range-boundary governor poll: a tripped range leaves its slice
    // unwritten, which the post-EvalOp torn-table check turns into the
    // trip Status before the table can be observed.
    if (!PollChunk().ok()) return;
    size_t begin = c * morsel_rows_;
    fn(c, begin, std::min(n, begin + morsel_rows_));
  };
  if (pool_ == nullptr || pool_->threads() == 0 || chunks == 1) {
    for (size_t c = 0; c < chunks; ++c) run(c);
  } else {
    pool_->ParallelFor(chunks, run);
  }
  NoteChunks(chunks);
  return chunks;
}

void Evaluator::GatherParallel(const Table& in,
                               const std::vector<uint32_t>& rows, Table* out) {
  size_t n = rows.size();
  for (ColId c : in.schema()) {
    const Column& src = in.col(c);
    Column col(n);
    ForMorsels(n, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) col[i] = src[rows[i]];
    });
    out->AddColumn(c, std::move(col));
  }
}

void Evaluator::ParallelStableSort(
    std::vector<uint32_t>* perm,
    const std::function<bool(uint32_t, uint32_t)>& less) {
  size_t n = perm->size();
  size_t chunks = NumMorsels(n);
  if (chunks <= 1 || pool_ == nullptr || pool_->threads() == 0) {
    std::stable_sort(perm->begin(), perm->end(), less);
    return;
  }
  // Stable-sort each chunk, then stably merge chunk pairs bottom-up.
  // std::merge prefers the left range on ties, so the result is the
  // unique stable ordering — byte-identical to one big stable_sort.
  ForMorsels(n, [&](size_t, size_t begin, size_t end) {
    std::stable_sort(perm->begin() + begin, perm->begin() + end, less);
  });
  // A trip leaves some chunks unsorted; merging unsorted ranges violates
  // std::merge's precondition, and the result is discarded anyway.
  if (tripped_.load(std::memory_order_acquire)) return;
  std::vector<uint32_t> buf(n);
  std::vector<uint32_t>* src = perm;
  std::vector<uint32_t>* dst = &buf;
  for (size_t width = morsel_rows_; width < n; width *= 2) {
    size_t pairs = (n + 2 * width - 1) / (2 * width);
    auto merge_pair = [&](size_t p) {
      size_t lo = p * 2 * width;
      size_t mid = std::min(n, lo + width);
      size_t hi = std::min(n, lo + 2 * width);
      std::merge(src->begin() + lo, src->begin() + mid, src->begin() + mid,
                 src->begin() + hi, dst->begin() + lo, less);
    };
    if (pairs > 1) {
      pool_->ParallelFor(pairs, merge_pair);
    } else {
      merge_pair(0);
    }
    std::swap(src, dst);
  }
  if (src != perm) *perm = *src;
}

// ---------------------------------------------------------------------------
// Operator kernels.

Result<TablePtr> Evaluator::EvalOp(const Op& op,
                                   const std::vector<TablePtr>& in) {
  auto child = [&](size_t i) -> const Table& { return *in[i]; };
  switch (op.kind) {
    case OpKind::kLit:
      return EvalLit(op);
    case OpKind::kCross:
      return EvalCross(op, child(0), child(1));
    case OpKind::kDifference:
    case OpKind::kSemiJoin:
      return EvalDiffSemi(op, child(0), child(1));
    case OpKind::kDistinct:
      return EvalDistinct(op, child(0));
    case OpKind::kRowNum:
      return EvalRowNum(op, child(0));
    case OpKind::kAggr:
      return EvalAggr(op, child(0));
    case OpKind::kThetaCount:
      return EvalThetaCount(op, child(0), child(1));
    case OpKind::kDoc:
      return EvalDoc(op);
    case OpKind::kElem:
      return EvalElem(op, child(0), child(1));
    case OpKind::kAttr:
      return EvalAttr(op, child(0), child(1));
    case OpKind::kTextNode:
      return EvalText(op, child(0), child(1));
    case OpKind::kRange:
      return EvalRange(op, child(0));
    case OpKind::kCardCheck:
      return EvalCardCheck(op, child(0), child(1));
    case OpKind::kProject:
    case OpKind::kSelect:
    case OpKind::kEquiJoin:
    case OpKind::kThetaJoin:
    case OpKind::kUnion:
    case OpKind::kRowId:
    case OpKind::kFun:
    case OpKind::kStep:
      break;  // fusable: morsel stage kernels only (EvalPipeline)
  }
  return Internal("unhandled operator");
}

Result<TablePtr> Evaluator::EvalCardCheck(const Op& op, const Table& in,
                                          const Table& loop) {
  std::unordered_map<int64_t, int64_t> counts;
  const Column& iters = in.col(col::iter());
  for (size_t r = 0; r < in.rows(); ++r) ++counts[iters[r].i];
  const Column& loop_iters = loop.col(col::iter());
  for (size_t r = 0; r < loop.rows(); ++r) {
    auto it = counts.find(loop_iters[r].i);
    int64_t n = it == counts.end() ? 0 : it->second;
    if (n < op.min_card || n > op.max_card) {
      return CardinalityError("fn:" + ctx_->strings->Get(op.name) +
                              ": argument has " + std::to_string(n) +
                              " item(s)");
    }
  }
  // Pass through unchanged.
  auto out = std::make_shared<Table>();
  for (ColId c : in.schema()) out->AddColumn(c, in.col_ptr(c));
  out->SetRows(in.rows());
  return out;
}

Result<TablePtr> Evaluator::EvalRange(const Op& op, const Table& in) {
  const Column& iters = in.col(col::iter());
  const Column& lo = in.col(op.col);
  const Column& hi = in.col(op.col2);
  Column out_iter;
  Column out_item;
  for (size_t r = 0; r < in.rows(); ++r) {
    // The expansion kernel can produce orders of magnitude more rows than
    // it consumes, so it polls on its own output volume (below) as well
    // as periodically on input rows — the only kernel whose "one chunk of
    // work" is not bounded by its input size.
    if ((r & 1023) == 0) EXRQUY_RETURN_IF_ERROR(PollGovernor());
    auto as_int = [&](const Value& v) -> Result<int64_t> {
      if (v.kind == ValueKind::kInt) return v.i;
      EXRQUY_ASSIGN_OR_RETURN(Value d, ops_.ToDouble(v));
      return static_cast<int64_t>(d.d);
    };
    EXRQUY_ASSIGN_OR_RETURN(int64_t a, as_int(lo[r]));
    EXRQUY_ASSIGN_OR_RETURN(int64_t b, as_int(hi[r]));
    if (b - a > 10'000'000) {
      return TypeError("range expression too large");
    }
    for (int64_t v = a; v <= b; ++v) {
      if ((out_item.size() & 0xFFFF) == 0xFFFF) {
        EXRQUY_RETURN_IF_ERROR(PollGovernor());
      }
      out_iter.push_back(iters[r]);
      out_item.push_back(Value::Int(v));
    }
  }
  size_t n = out_iter.size();
  auto out = std::make_shared<Table>();
  out->AddColumn(col::iter(), std::move(out_iter));
  out->AddColumn(col::item(), std::move(out_item));
  out->SetRows(n);
  return out;
}

Result<TablePtr> Evaluator::EvalLit(const Op& op) {
  auto out = std::make_shared<Table>();
  for (size_t i = 0; i < op.lit.cols.size(); ++i) {
    Column col;
    col.reserve(op.lit.rows.size());
    for (const auto& row : op.lit.rows) col.push_back(row[i]);
    out->AddColumn(op.lit.cols[i], std::move(col));
  }
  out->SetRows(op.lit.rows.size());
  return out;
}

Result<TablePtr> Evaluator::EvalCross(const Op& op, const Table& l,
                                      const Table& r) {
  (void)op;
  size_t nl = l.rows();
  size_t nr = r.rows();
  size_t n = nl * nr;
  // Output row c pairs left row c / nr with right row c % nr — a pure
  // function of the output position, so chunks fill disjoint slices of
  // pre-sized columns in parallel.
  auto out = std::make_shared<Table>();
  for (ColId c : l.schema()) {
    const Column& src = l.col(c);
    Column col(n);
    ForMorsels(n, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) col[i] = src[i / nr];
    });
    out->AddColumn(c, std::move(col));
  }
  for (ColId c : r.schema()) {
    const Column& src = r.col(c);
    Column col(n);
    ForMorsels(n, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) col[i] = src[i % nr];
    });
    out->AddColumn(c, std::move(col));
  }
  out->SetRows(n);
  return out;
}

Result<TablePtr> Evaluator::EvalDiffSemi(const Op& op, const Table& l,
                                         const Table& r) {
  RowIndex index(ColPtrs(r, op.keys), r.rows());
  std::vector<const Column*> probe = ColPtrs(l, op.keys);
  bool keep_matching = op.kind == OpKind::kSemiJoin;
  size_t n = l.rows();
  std::vector<std::vector<uint32_t>> parts(NumMorsels(n));
  ForMorsels(n, [&](size_t c, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (index.Contains(probe, i) == keep_matching) {
        parts[c].push_back(static_cast<uint32_t>(i));
      }
    }
  });
  std::vector<uint32_t> rows = ConcatChunks(parts);
  auto out = std::make_shared<Table>();
  GatherParallel(l, rows, out.get());
  out->SetRows(rows.size());
  return out;
}

Result<TablePtr> Evaluator::EvalDistinct(const Op& op, const Table& in) {
  (void)op;
  std::vector<const Column*> cols = ColPtrs(in, in.schema());
  std::vector<std::vector<uint32_t>> buckets(
      std::max<size_t>(16, in.rows() * 2));
  std::vector<uint32_t> rows;
  for (size_t r = 0; r < in.rows(); ++r) {
    size_t b = RowHash(cols, r) % buckets.size();
    bool dup = false;
    for (uint32_t prev : buckets[b]) {
      if (RowEquals(cols, prev, cols, r)) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      buckets[b].push_back(static_cast<uint32_t>(r));
      rows.push_back(static_cast<uint32_t>(r));
    }
  }
  auto out = std::make_shared<Table>();
  GatherParallel(in, rows, out.get());
  out->SetRows(rows.size());
  return out;
}

Result<TablePtr> Evaluator::EvalRowNum(const Op& op, const Table& in) {
  // % — the blocking sort. Rows keep their positions; the new column
  // receives the dense per-group rank.
  size_t n = in.rows();
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);

  const Column* part = op.part != kNoCol ? &in.col(op.part) : nullptr;
  std::vector<std::pair<const Column*, bool>> keys;
  for (const SortKey& k : op.order) {
    keys.emplace_back(&in.col(k.col), k.descending);
  }
  auto less = [&](uint32_t a, uint32_t b) {
    if (part != nullptr) {
      int c = ops_.OrderCompare((*part)[a], (*part)[b]);
      if (c != 0) return c < 0;
    }
    for (const auto& [col, desc] : keys) {
      int c = ops_.OrderCompare((*col)[a], (*col)[b]);
      if (c != 0) return desc ? c > 0 : c < 0;
    }
    return false;
  };
  if (ctx_->detect_sorted_inputs &&
      std::is_sorted(perm.begin(), perm.end(), less)) {
    // Physical order detection: the input already carries the requested
    // order, so the blocking sort degenerates to a scan.
    ctx_->sorts_skipped.fetch_add(1, std::memory_order_relaxed);
  } else {
    ParallelStableSort(&perm, less);
  }

  // Rank assignment carries a sequential dependency across group
  // boundaries — kept serial.
  Column ranks(n);
  int64_t rank = 0;
  for (size_t i = 0; i < n; ++i) {
    if (part != nullptr && i > 0) {
      bool new_group =
          ops_.OrderCompare((*part)[perm[i]], (*part)[perm[i - 1]]) != 0;
      if (new_group) rank = 0;
    }
    ranks[perm[i]] = Value::Int(++rank);
  }

  auto out = std::make_shared<Table>();
  for (ColId c : in.schema()) out->AddColumn(c, in.col_ptr(c));
  out->AddColumn(op.col, std::move(ranks));
  out->SetRows(n);
  return out;
}

Result<Value> Evaluator::ApplyFun(const Op& op,
                                  const std::vector<const Column*>& args,
                                  size_t row) {
  auto arg = [&](size_t i) -> const Value& { return (*args[i])[row]; };
  switch (op.fun) {
    case FunKind::kAdd:
    case FunKind::kSub:
    case FunKind::kMul:
    case FunKind::kDiv:
    case FunKind::kIDiv:
    case FunKind::kMod:
      return ops_.Arith(op.fun, arg(0), arg(1));
    case FunKind::kNeg: {
      EXRQUY_ASSIGN_OR_RETURN(Value v, ops_.ToDouble(arg(0)));
      if (arg(0).kind == ValueKind::kInt) {
        if (arg(0).i == INT64_MIN) {
          return TypeError("err:FOAR0002: integer overflow in negation");
        }
        return Value::Int(-arg(0).i);
      }
      return Value::Double(-v.d);
    }
    case FunKind::kEq:
    case FunKind::kNe:
    case FunKind::kLt:
    case FunKind::kLe:
    case FunKind::kGt:
    case FunKind::kGe:
      return ops_.Compare(op.fun, arg(0), arg(1));
    case FunKind::kNodeBefore:
    case FunKind::kNodeAfter:
    case FunKind::kNodeIs: {
      const Value& a = arg(0);
      const Value& b = arg(1);
      if (a.kind != ValueKind::kNode || b.kind != ValueKind::kNode) {
        return TypeError("node comparison on non-node operands");
      }
      if (op.fun == FunKind::kNodeBefore) return Value::Bool(a.node < b.node);
      if (op.fun == FunKind::kNodeAfter) return Value::Bool(a.node > b.node);
      return Value::Bool(a.node == b.node);
    }
    case FunKind::kAnd:
    case FunKind::kOr: {
      const Value& a = arg(0);
      const Value& b = arg(1);
      if (a.kind != ValueKind::kBool || b.kind != ValueKind::kBool) {
        return TypeError("boolean connective on non-boolean operands");
      }
      return Value::Bool(op.fun == FunKind::kAnd ? (a.b && b.b)
                                                 : (a.b || b.b));
    }
    case FunKind::kNot: {
      const Value& a = arg(0);
      if (a.kind != ValueKind::kBool) {
        return TypeError("fn:not on non-boolean operand");
      }
      return Value::Bool(!a.b);
    }
    case FunKind::kAtomize:
      return ops_.Atomize(arg(0));
    case FunKind::kToDouble:
      return ops_.ToDouble(arg(0));
    case FunKind::kToString:
      return ops_.ToString(arg(0));
    case FunKind::kContains: {
      EXRQUY_ASSIGN_OR_RETURN(Value a, ops_.ToString(arg(0)));
      EXRQUY_ASSIGN_OR_RETURN(Value b, ops_.ToString(arg(1)));
      const std::string& hay = ctx_->strings->Get(a.str);
      const std::string& needle = ctx_->strings->Get(b.str);
      return Value::Bool(hay.find(needle) != std::string::npos);
    }
    case FunKind::kConcat: {
      EXRQUY_ASSIGN_OR_RETURN(Value a, ops_.ToString(arg(0)));
      EXRQUY_ASSIGN_OR_RETURN(Value b, ops_.ToString(arg(1)));
      std::string s = ctx_->strings->Get(a.str);
      s += ctx_->strings->Get(b.str);
      return Value::Str(ctx_->strings->Intern(s));
    }
    case FunKind::kStringLength: {
      EXRQUY_ASSIGN_OR_RETURN(Value a, ops_.ToString(arg(0)));
      return Value::Int(
          static_cast<int64_t>(ctx_->strings->Get(a.str).size()));
    }
    case FunKind::kStartsWith:
    case FunKind::kEndsWith: {
      EXRQUY_ASSIGN_OR_RETURN(Value a, ops_.ToString(arg(0)));
      EXRQUY_ASSIGN_OR_RETURN(Value b, ops_.ToString(arg(1)));
      const std::string& s = ctx_->strings->Get(a.str);
      const std::string& p = ctx_->strings->Get(b.str);
      if (p.size() > s.size()) return Value::Bool(false);
      if (op.fun == FunKind::kStartsWith) {
        return Value::Bool(s.compare(0, p.size(), p) == 0);
      }
      return Value::Bool(s.compare(s.size() - p.size(), p.size(), p) == 0);
    }
    case FunKind::kUpperCase:
    case FunKind::kLowerCase: {
      EXRQUY_ASSIGN_OR_RETURN(Value a, ops_.ToString(arg(0)));
      std::string s = ctx_->strings->Get(a.str);
      for (char& c : s) {
        c = op.fun == FunKind::kUpperCase
                ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      return Value::Str(ctx_->strings->Intern(s));
    }
    case FunKind::kNormalizeSpace: {
      EXRQUY_ASSIGN_OR_RETURN(Value a, ops_.ToString(arg(0)));
      const std::string& s = ctx_->strings->Get(a.str);
      std::string out;
      bool in_space = true;  // also trims leading whitespace
      for (char c : s) {
        if (std::isspace(static_cast<unsigned char>(c))) {
          if (!in_space) out += ' ';
          in_space = true;
        } else {
          out += c;
          in_space = false;
        }
      }
      while (!out.empty() && out.back() == ' ') out.pop_back();
      return Value::Str(ctx_->strings->Intern(out));
    }
    case FunKind::kSubstring2:
    case FunKind::kSubstring3: {
      EXRQUY_ASSIGN_OR_RETURN(Value a, ops_.ToString(arg(0)));
      EXRQUY_ASSIGN_OR_RETURN(Value s1, ops_.ToDouble(arg(1)));
      const std::string& s = ctx_->strings->Get(a.str);
      // XQuery substring positions are 1-based and rounded.
      int64_t start = static_cast<int64_t>(std::llround(s1.d));
      int64_t end;  // exclusive, 1-based
      if (op.fun == FunKind::kSubstring3) {
        EXRQUY_ASSIGN_OR_RETURN(Value s2, ops_.ToDouble(arg(2)));
        end = start + static_cast<int64_t>(std::llround(s2.d));
      } else {
        end = static_cast<int64_t>(s.size()) + 1;
      }
      start = std::max<int64_t>(start, 1);
      end = std::min<int64_t>(end, static_cast<int64_t>(s.size()) + 1);
      std::string out = start < end
                            ? s.substr(static_cast<size_t>(start - 1),
                                       static_cast<size_t>(end - start))
                            : "";
      return Value::Str(ctx_->strings->Intern(out));
    }
    case FunKind::kAbs:
    case FunKind::kFloor:
    case FunKind::kCeiling:
    case FunKind::kRound: {
      Value a = arg(0);
      if (a.kind == ValueKind::kUntyped || a.kind == ValueKind::kString) {
        EXRQUY_ASSIGN_OR_RETURN(a, ops_.ToDouble(a));
      }
      if (a.kind == ValueKind::kInt) {
        return op.fun == FunKind::kAbs ? Value::Int(std::llabs(a.i)) : a;
      }
      if (a.kind != ValueKind::kDouble) {
        return TypeError("numeric function on non-numeric operand");
      }
      switch (op.fun) {
        case FunKind::kAbs:
          return Value::Double(std::fabs(a.d));
        case FunKind::kFloor:
          return Value::Double(std::floor(a.d));
        case FunKind::kCeiling:
          return Value::Double(std::ceil(a.d));
        default:
          // fn:round: round half up (toward positive infinity).
          return Value::Double(std::floor(a.d + 0.5));
      }
    }
    case FunKind::kNodeName: {
      const Value& a = arg(0);
      if (a.kind != ValueKind::kNode) {
        return TypeError("fn:name on a non-node item");
      }
      return Value::Str(ctx_->store->name(a.node));
    }
  }
  return Internal("unhandled function");
}

Result<TablePtr> Evaluator::EvalAggr(const Op& op, const Table& in) {
  // Group rows by the partition column (first-appearance order keeps the
  // output deterministic).
  std::vector<std::vector<uint32_t>> groups;
  std::vector<uint32_t> group_rep;  // representative row per group
  if (op.part == kNoCol) {
    groups.emplace_back(in.rows());
    std::iota(groups[0].begin(), groups[0].end(), 0);
    group_rep.push_back(0);
  } else {
    const Column& part = in.col(op.part);
    std::vector<const Column*> key = {&part};
    std::vector<std::vector<uint32_t>> buckets(
        std::max<size_t>(16, in.rows() * 2));
    for (size_t r = 0; r < in.rows(); ++r) {
      size_t b = RowHash(key, r) % buckets.size();
      int64_t found = -1;
      for (uint32_t g : buckets[b]) {
        if (part[group_rep[g]] == part[r]) {
          found = g;
          break;
        }
      }
      if (found < 0) {
        found = static_cast<int64_t>(groups.size());
        groups.emplace_back();
        group_rep.push_back(static_cast<uint32_t>(r));
        buckets[b].push_back(static_cast<uint32_t>(found));
      }
      groups[found].push_back(static_cast<uint32_t>(r));
    }
  }

  const Column* arg =
      op.aggr == AggrKind::kCount ? nullptr : &in.col(op.col2);
  const Column* order =
      op.keys.empty() ? nullptr : &in.col(op.keys[0]);

  Column part_out;
  Column result;
  for (size_t g = 0; g < groups.size(); ++g) {
    const std::vector<uint32_t>& rows = groups[g];
    Value v;
    switch (op.aggr) {
      case AggrKind::kCount:
        v = Value::Int(static_cast<int64_t>(rows.size()));
        break;
      case AggrKind::kSum:
      case AggrKind::kAvg: {
        Value acc = Value::Int(0);
        for (uint32_t r : rows) {
          EXRQUY_ASSIGN_OR_RETURN(acc,
                                  ops_.Arith(FunKind::kAdd, acc, (*arg)[r]));
        }
        if (op.aggr == AggrKind::kAvg) {
          EXRQUY_ASSIGN_OR_RETURN(Value d, ops_.ToDouble(acc));
          v = Value::Double(d.d / static_cast<double>(rows.size()));
        } else {
          v = acc;
        }
        break;
      }
      case AggrKind::kMax:
      case AggrKind::kMin: {
        // fn:max/fn:min cast untyped values to xs:double when every value
        // parses as a number; otherwise compare as strings.
        bool numeric = true;
        for (uint32_t r : rows) {
          Result<Value> d = ops_.ToDouble((*arg)[r]);
          if (!d.ok()) {
            numeric = false;
            break;
          }
        }
        bool want_max = op.aggr == AggrKind::kMax;
        bool first = true;
        Value best;
        for (uint32_t r : rows) {
          Value cand = (*arg)[r];
          if (numeric) {
            EXRQUY_ASSIGN_OR_RETURN(cand, ops_.ToDouble(cand));
          }
          if (first) {
            best = cand;
            first = false;
            continue;
          }
          // fn:max and fn:min return NaN when any value is NaN.
          if (IsNaN(best)) continue;
          int c = ops_.OrderCompare(cand, best);
          if (IsNaN(cand) || (want_max ? c > 0 : c < 0)) best = cand;
        }
        v = best;
        break;
      }
      case AggrKind::kEbv: {
        if (rows.size() == 1) {
          v = Value::Bool(ops_.EbvSingle((*arg)[rows[0]]));
          break;
        }
        bool any_node = false;
        for (uint32_t r : rows) {
          if ((*arg)[r].kind == ValueKind::kNode) {
            any_node = true;
            break;
          }
        }
        if (!any_node) {
          return TypeError(
              "effective boolean value of a multi-item atomic sequence");
        }
        v = Value::Bool(true);
        break;
      }
      case AggrKind::kStrJoin: {
        std::vector<uint32_t> sorted = rows;
        if (order != nullptr) {
          std::stable_sort(sorted.begin(), sorted.end(),
                           [&](uint32_t a, uint32_t b) {
                             return ops_.OrderCompare((*order)[a],
                                                      (*order)[b]) < 0;
                           });
        }
        const std::string& sep = ctx_->strings->Get(op.name);
        std::string s;
        for (size_t i = 0; i < sorted.size(); ++i) {
          if (i > 0) s += sep;
          EXRQUY_ASSIGN_OR_RETURN(Value sv, ops_.ToString((*arg)[sorted[i]]));
          s += ctx_->strings->Get(sv.str);
        }
        v = Value::Str(ctx_->strings->Intern(s));
        break;
      }
    }
    if (op.part != kNoCol) {
      part_out.push_back(in.col(op.part)[group_rep[g]]);
    }
    result.push_back(v);
  }

  auto out = std::make_shared<Table>();
  if (op.part != kNoCol) out->AddColumn(op.part, std::move(part_out));
  out->AddColumn(op.col, std::move(result));
  out->SetRows(groups.size());
  return out;
}

Result<TablePtr> Evaluator::EvalThetaCount(const Op& op, const Table& l,
                                           const Table& r) {
  const bool group_left = ThetaCountGroupSide(dag_, op) == 0;
  const Table& g = group_left ? l : r;
  const Table& g2 = group_left ? r : l;
  Column groups;
  Column counts;
  EXRQUY_RETURN_IF_ERROR(ThetaCountKernel(
      ops_, op.fun, l.col(op.keys[0]), l.rows(), r.col(op.keys[1]), r.rows(),
      g.col(op.part), g2.col(op.col2), group_left, &groups, &counts));
  auto out = std::make_shared<Table>();
  size_t n = groups.size();
  out->AddColumn(op.part, std::move(groups));
  out->AddColumn(op.col, std::move(counts));
  out->SetRows(n);
  return out;
}

Result<TablePtr> Evaluator::EvalDoc(const Op& op) {
  auto it = ctx_->documents.find(op.name);
  if (it == ctx_->documents.end()) {
    return NotFound("document not loaded: " + ctx_->strings->Get(op.name));
  }
  auto out = std::make_shared<Table>();
  out->AddColumn(col::item(), Column{Value::Node(it->second)});
  out->SetRows(1);
  return out;
}

namespace {

// The row numbers of `t` in sequence order, by (iter, pos): one stable
// sort, skipped when the rows already arrive in that order. Constructor
// content gets the new fragment's document order from it, the serializer
// the result's item order.
std::vector<uint32_t> RowsInSequenceOrder(const Table& t,
                                          const ValueOps& ops) {
  const Column& iters = t.col(col::iter());
  const Column& poss = t.col(col::pos());
  std::vector<uint32_t> rows(t.rows());
  std::iota(rows.begin(), rows.end(), 0);
  auto less = [&](uint32_t a, uint32_t b) {
    int c = ops.OrderCompare(iters[a], iters[b]);
    if (c != 0) return c < 0;
    return ops.OrderCompare(poss[a], poss[b]) < 0;
  };
  if (!std::is_sorted(rows.begin(), rows.end(), less)) {
    std::stable_sort(rows.begin(), rows.end(), less);
  }
  return rows;
}

// The content rows of each iter in sequence order, cut into one run per
// iter. Loop rows find their run by a merge while their iters ascend (the
// common case: a forward cursor, no search), by binary search otherwise.
class ContentGroups {
 public:
  ContentGroups(const Table& content, const ValueOps& ops)
      : iters_(content.col(col::iter())),
        rows_(RowsInSequenceOrder(content, ops)) {}

  std::span<const uint32_t> RowsFor(int64_t iter) {
    auto iter_less = [&](uint32_t r, int64_t v) { return iters_[r].i < v; };
    if (iter >= last_iter_) {
      while (cursor_ < rows_.size() && iters_[rows_[cursor_]].i < iter) {
        ++cursor_;
      }
    } else {
      cursor_ = static_cast<size_t>(
          std::lower_bound(rows_.begin(), rows_.end(), iter, iter_less) -
          rows_.begin());
    }
    last_iter_ = iter;
    size_t end = cursor_;
    while (end < rows_.size() && iters_[rows_[end]].i == iter) ++end;
    return std::span<const uint32_t>(rows_.data() + cursor_, end - cursor_);
  }

 private:
  const Column& iters_;
  std::vector<uint32_t> rows_;
  size_t cursor_ = 0;  // first row of the last run found
  int64_t last_iter_ = std::numeric_limits<int64_t>::min();
};

}  // namespace

Result<TablePtr> Evaluator::EvalElem(const Op& op, const Table& content,
                                     const Table& loop) {
  ContentGroups groups(content, ops_);
  const Column& items = content.col(col::item());
  const Column& loop_iters = loop.col(col::iter());
  NodeStore& store = *ctx_->store;

  Column out_iter(loop.rows());
  Column out_item(loop.rows());
  // One builder and one text buffer serve every element.
  NodeBuilder builder(&store);
  std::string pending;
  for (size_t lr = 0; lr < loop.rows(); ++lr) {
    int64_t it = loop_iters[lr].i;
    std::span<const uint32_t> rows = groups.RowsFor(it);

    if (lr > 0) builder.Restart();
    builder.BeginElement(op.name);
    // Attribute items first (XQuery requires attributes to precede other
    // content; we accept them anywhere, leniently).
    for (uint32_t r : rows) {
      const Value& v = items[r];
      if (v.kind == ValueKind::kNode &&
          store.kind(v.node) == NodeKind::kAttribute) {
        builder.Attribute(store.name(v.node), store.value(v.node));
      }
    }
    // Children: nodes are deep-copied, adjacent atomics merge into one
    // space-separated text node.
    bool have_pending = false;
    auto flush = [&] {
      if (have_pending) builder.Text(std::string_view(pending));
      pending.clear();
      have_pending = false;
    };
    for (uint32_t r : rows) {
      const Value& v = items[r];
      if (v.kind == ValueKind::kNode) {
        NodeKind k = store.kind(v.node);
        if (k == NodeKind::kAttribute) continue;  // already handled
        flush();
        if (k == NodeKind::kDocument) {
          // Copying a document node copies its children.
          NodeIdx end = v.node + store.size(v.node);
          NodeIdx c = v.node + 1;
          while (c <= end) {
            builder.CopySubtree(c);
            c += store.size(c) + 1;
          }
        } else {
          builder.CopySubtree(v.node);
        }
      } else {
        if (have_pending) pending += ' ';
        pending += ops_.Render(v);
        have_pending = true;
      }
    }
    flush();
    builder.EndElement();
    out_iter[lr] = Value::Int(it);
    out_item[lr] = Value::Node(builder.Finish());
  }

  auto out = std::make_shared<Table>();
  out->AddColumn(col::iter(), std::move(out_iter));
  out->AddColumn(col::item(), std::move(out_item));
  out->SetRows(loop.rows());
  return out;
}

Result<TablePtr> Evaluator::EvalAttr(const Op& op, const Table& value,
                                     const Table& loop) {
  ContentGroups groups(value, ops_);
  const Column& items = value.col(col::item());
  const Column& loop_iters = loop.col(col::iter());

  Column out_iter;
  Column out_item;
  for (size_t lr = 0; lr < loop.rows(); ++lr) {
    int64_t it = loop_iters[lr].i;
    std::string s;
    bool first = true;
    for (uint32_t r : groups.RowsFor(it)) {
      if (!first) s += ' ';
      first = false;
      Value v = ops_.Atomize(items[r]);
      EXRQUY_ASSIGN_OR_RETURN(Value sv, ops_.ToString(v));
      s += ctx_->strings->Get(sv.str);
    }
    NodeIdx node =
        ctx_->store->MakeAttribute(op.name, ctx_->strings->Intern(s));
    out_iter.push_back(Value::Int(it));
    out_item.push_back(Value::Node(node));
  }

  auto out = std::make_shared<Table>();
  out->AddColumn(col::iter(), std::move(out_iter));
  out->AddColumn(col::item(), std::move(out_item));
  out->SetRows(loop.rows());
  return out;
}

Result<TablePtr> Evaluator::EvalText(const Op& op, const Table& content,
                                     const Table& loop) {
  (void)op;
  ContentGroups groups(content, ops_);
  const Column& items = content.col(col::item());
  const Column& loop_iters = loop.col(col::iter());

  Column out_iter;
  Column out_item;
  for (size_t lr = 0; lr < loop.rows(); ++lr) {
    int64_t it = loop_iters[lr].i;
    std::span<const uint32_t> rows = groups.RowsFor(it);
    if (rows.empty()) continue;  // text {()} yields the empty sequence
    std::string s;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) s += ' ';
      Value v = ops_.Atomize(items[rows[i]]);
      EXRQUY_ASSIGN_OR_RETURN(Value sv, ops_.ToString(v));
      s += ctx_->strings->Get(sv.str);
    }
    NodeIdx node = ctx_->store->MakeText(ctx_->strings->Intern(s));
    out_iter.push_back(Value::Int(it));
    out_item.push_back(Value::Node(node));
  }

  size_t n = out_iter.size();
  auto out = std::make_shared<Table>();
  out->AddColumn(col::iter(), std::move(out_iter));
  out->AddColumn(col::item(), std::move(out_item));
  out->SetRows(n);
  return out;
}

// ---------------------------------------------------------------------------

void RenderResult(const Table& t, const EvalContext& ctx,
                  std::string* serialized, std::vector<std::string>* items) {
  ValueOps ops(ctx.strings, ctx.store);
  if (items != nullptr) items->reserve(t.rows());
  // Adjacent "textual" items (atomics, attribute nodes, text nodes) are
  // separated by one space so result items stay distinguishable; markup
  // items (elements) serialize back to back.
  bool prev_textual = false;
  for (uint32_t r : RowsInSequenceOrder(t, ops)) {
    Value v = t.at(col::item(), r);
    bool node = v.kind == ValueKind::kNode;
    std::string item =
        node ? SerializeNode(*ctx.store, v.node) : ops.Render(v);
    if (serialized != nullptr) {
      bool textual = !node ||
                     ctx.store->kind(v.node) == NodeKind::kAttribute ||
                     ctx.store->kind(v.node) == NodeKind::kText;
      if (prev_textual && textual) *serialized += ' ';
      if (node) {
        *serialized += item;
      } else {
        EscapeText(item, serialized);
      }
      prev_textual = textual;
    }
    if (items != nullptr) items->push_back(std::move(item));
  }
}

Result<std::string> SerializeResult(const Table& t, const EvalContext& ctx) {
  std::string out;
  RenderResult(t, ctx, &out, nullptr);
  return out;
}

Result<std::vector<std::string>> ResultItems(const Table& t,
                                             const EvalContext& ctx) {
  std::vector<std::string> items;
  RenderResult(t, ctx, nullptr, &items);
  return items;
}

}  // namespace exrquy
