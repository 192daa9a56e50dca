#include "engine/eval.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <span>
#include <thread>

#include "common/check.h"
#include "engine/key_groups.h"
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

constexpr uint64_t kSignBit = uint64_t{1} << 63;

// Whether every value of `c` is an integer: the typed sort kernels'
// precondition (OrderCompare on two integers is integer comparison).
bool AllInts(const Column& c) {
  return std::all_of(c.begin(), c.end(), [](const Value& v) {
    return v.kind == ValueKind::kInt;
  });
}

bool IsNaN(const Value& v) {
  return v.kind == ValueKind::kDouble && std::isnan(v.d);
}

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

// A two-column (iter, item) table.
std::shared_ptr<Table> IterItemTable(Column iters, Column items) {
  const size_t n = iters.size();
  auto out = std::make_shared<Table>();
  out->AddColumn(col::iter(), std::move(iters));
  out->AddColumn(col::item(), std::move(items));
  out->SetRows(n);
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

// fn:round: half up, toward positive infinity. x - floor(x) is exact, so
// no half is misjudged (floor(x + 0.5) rounds 0.49999999999999994 to 1);
// NaN and the infinities come back unchanged, and [-0.5, 0) rounds to
// negative zero.
double RoundHalfUp(double x) {
  double r = std::floor(x);
  r = x - r >= 0.5 ? r + 1 : r;
  return r == 0 ? std::copysign(0.0, x) : r;
}

}  // namespace

Status CheckRemovedKnobs(size_t chunk_rows, size_t inline_rows,
                         bool detect_sorted_inputs) {
  if (!detect_sorted_inputs) {
    return InvalidArgument(
        "physical_sort_detection was removed; the plan marks every % whose "
        "input is proven sorted, and every other % sorts");
  }
  if (chunk_rows != kRemovedChunkRows) {
    return InvalidArgument(
        "chunk_rows was removed; breaker kernels split by morsel_rows");
  }
  if (inline_rows != kRemovedInlineRows) {
    return InvalidArgument(
        "inline_rows was removed; a unit fans out exactly when it has more "
        "than one morsel");
  }
  return Status::Ok();
}

Evaluator::Evaluator(const Dag& dag, EvalContext* ctx, size_t max_rows)
    : dag_(dag),
      ctx_(ctx),
      ops_(ctx->strings, ctx->store),
      max_rows_(max_rows) {}

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

Result<PreparedPlan> PreparePlan(const Dag& dag, OpId root, bool verified) {
  // A malformed plan (hand-built, or produced by a buggy rewrite that
  // slipped past the pipeline's own verification) must fail as a Status,
  // not as out-of-bounds column accesses mid-evaluation. Structure and
  // schema checks only — property auditing is the optimizer's concern.
  if (!verified) {
    VerifyOptions guard;
    guard.check_properties = false;
    EXRQUY_RETURN_IF_ERROR(VerifyPlan(dag, root, guard));
  }
  PreparedPlan plan;
  plan.dag_ = &dag;
  plan.root_ = root;
  plan.order_ = dag.ReachableFrom(root);
  // Plan the fusable chains, then refuse any plan the audit cannot
  // independently re-derive — a planner bug must fail as a Status, never
  // as a wrong (or torn) result.
  plan.morsels_ = PlanPipelines(dag, plan.order_, root);
  EXRQUY_RETURN_IF_ERROR(
      AuditMorselPlan(dag, plan.order_, root, plan.morsels_));
  return plan;
}

Result<TablePtr> Evaluator::Eval(OpId root) {
  EXRQUY_ASSIGN_OR_RETURN(PreparedPlan plan, PreparePlan(dag_, root));
  return Run(plan);
}

Result<TablePtr> Evaluator::Run(const PreparedPlan& plan) {
  if (plan.dag() != &dag_) {
    return Internal("engine: the plan was not prepared over this DAG");
  }
  EXRQUY_RETURN_IF_ERROR(
      CheckRemovedKnobs(ctx_->chunk_rows, ctx_->inline_rows,
                        ctx_->detect_sorted_inputs));
  EXRQUY_ASSIGN_OR_RETURN(threads_, ResolveThreads(ctx_->num_threads));
  EXRQUY_ASSIGN_OR_RETURN(morsel_rows_, ResolveMorselRows(ctx_->morsel_rows));

  // A pre-cancelled token, an already-expired deadline, or a budget
  // exhausted by pre-evaluation work fails before any operator runs.
  EXRQUY_RETURN_IF_ERROR(PollGovernor());

  // Without fusion the morsel plan is empty (which trivially passes the
  // audit) and every fusable operator runs alone.
  mplan_ = ctx_->pipelined_execution ? &plan.morsels() : &unfused_;
  if (ctx_->profile != nullptr) {
    ctx_->profile->SetExecution(threads_, ctx_->release_intermediates);
  }
  Result<TablePtr> result = RunUnits(plan.order(), plan.root());
  if (result.ok()) {
    result = SettleRoot(std::move(result).value());
  }
  ReleaseRecords();
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
  std::lock_guard<std::mutex> lock(morsel_mu_);
  morsel_live_bytes_ += bytes;
  peak_live_bytes_ =
      std::max(peak_live_bytes_, live_bytes_ + morsel_live_bytes_);
}

void Evaluator::ReleaseMorsel(size_t bytes) {
  if (bytes == 0) return;
  if (ctx_->budget != nullptr) ctx_->budget->Release(bytes);
  std::lock_guard<std::mutex> lock(morsel_mu_);
  morsel_live_bytes_ -= bytes;
}

Result<TablePtr> Evaluator::RunUnits(const std::vector<OpId>& order,
                                     OpId root) {
  memo_.assign(dag_.size(), nullptr);
  consumers_.assign(dag_.size(), 0);
  for (OpId id : order) {
    for (OpId c : dag_.op(id).children) ++consumers_[c];
  }
  ++consumers_[root];  // the root's table outlives the evaluation

  Status failed;
  for (OpId id : order) {
    // Interior pipeline stages run fused inside their sink's unit, which
    // also accounts for their input edges.
    if (mplan_->interior(id)) continue;
    if (failed.ok()) failed = RunUnit(id);
    if (!ctx_->release_intermediates) continue;
    // A sink releases every stage's inputs: the head's external tables
    // were consumed by its morsel loop.
    if (mplan_->sink(id)) {
      for (const PipelineStage& st :
           mplan_->pipelines[mplan_->pipeline_of.at(id)].stages) {
        ReleaseInputs(dag_.op(st.op));
      }
    } else {
      ReleaseInputs(dag_.op(id));
    }
  }
  pool_.reset();  // joins the workers

  TablePtr result = std::move(memo_[root]);
  memo_.clear();
  // A governor trip wins over the operator error it may have caused (a
  // kernel that skipped its tripped ranges).
  if (tripped_.load(std::memory_order_acquire)) return TripStatus();
  if (!failed.ok()) return failed;
  return result;
}

Status Evaluator::RunUnit(OpId id) {
  EXRQUY_RETURN_IF_ERROR(PollOp());
  const Op& op = dag_.op(id);
  const bool sink = mplan_->sink(id);
  const bool track = ctx_->profile != nullptr;
  std::vector<Profile::OpMetrics> metrics;  // filled when profiling
  Profile::PipelineMetrics pm;
  Clock::time_point start = Clock::now();
  Result<TablePtr> r = [&]() -> Result<TablePtr> {
    std::vector<Profile::OpMetrics>* sm = track ? &metrics : nullptr;
    if (sink || Fusable(op.kind)) {
      auto input = [this](OpId c) -> const TablePtr& { return memo_[c]; };
      if (!sink) {
        // A fusable operator outside every chain: a one-stage pipeline.
        return EvalPipeline(Pipeline{{PipelineStage{id, -1}}}, -1, input,
                            sm, nullptr);
      }
      uint32_t pidx = mplan_->pipeline_of.at(id);
      return EvalPipeline(mplan_->pipelines[pidx], pidx, input, sm, &pm);
    }
    std::vector<TablePtr> in;
    in.reserve(op.children.size());
    for (OpId c : op.children) in.push_back(memo_[c]);
    unit_chunks_ = 1;
    Result<TablePtr> t = EvalOp(op, in);
    if (sm != nullptr && t.ok()) {
      Profile::OpMetrics m;
      m.op = id;
      for (const TablePtr& c : in) m.in_rows += c->rows();
      m.out_rows = (*t)->rows();
      m.chunks = unit_chunks_;
      sm->push_back(std::move(m));
    }
    return t;
  }();
  const double ms = MsSince(start);

  // A governor trip mid-unit makes morsel and range tasks skip their
  // slices; the torn table must not be memoized.
  if (r.ok() && tripped_.load(std::memory_order_acquire)) return TripStatus();
  if (!r.ok()) return r.status();
  TablePtr t = std::move(r).value();
  if (track) {
    if (sink) {
      pm.ms = ms;
      ctx_->profile->RecordPipeline(pm);
    } else {
      metrics[0].ms = ms;  // a standalone unit's one record
    }
    for (Profile::OpMetrics& m : metrics) {
      ctx_->profile->Record(dag_.op(m.op), std::move(m));
    }
  }
  TrackTable(*t);
  memo_[id] = std::move(t);
  return Status::Ok();
}

void Evaluator::ReleaseInputs(const Op& op) {
  for (OpId c : op.children) {
    if (--consumers_[c] != 0) continue;
    // In-pipe edges (and producers skipped after a failure) have no
    // memoized table; their count still reaches zero with nothing to free.
    if (TablePtr dead = std::move(memo_[c])) {
      UntrackTable(*dead);
      ++released_tables_;
    }
  }
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
  KeyGroups jindex(max_rows_);  // equi-join build, done once up front
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
      // alike (KeyGroups' normalization); scaffolding joins keep exact
      // keys.
      jbuild_right = rT->rows() <= lT->rows();
      const Table* build = jbuild_right ? rT : lT;
      stream = jbuild_right ? lT : rT;
      ColId build_col = jbuild_right ? hop.col2 : hop.col;
      jprobe_col = jbuild_right ? hop.col : hop.col2;
      EXRQUY_RETURN_IF_ERROR(
          CheckRows(stream->rows(), max_rows_, "equi-join probe"));
      EXRQUY_RETURN_IF_ERROR(jindex.Build(
          {&build->col(build_col)}, build->rows(), hop.value_join));
      jindex.CollectMembers();
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
      uint32_t g = jindex.Find(probe_key, pr);
      if (g == KeyGroups::kNone) continue;
      for (uint32_t br : jindex.members(g)) {  // ascending build rows
        probe_rows.push_back(static_cast<uint32_t>(pr));
        build_rows.push_back(br);
      }
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

  FanOut(morsels, run_morsel);
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
    result = IterItemTable(std::move(ic), std::move(nc));
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
  EXRQUY_RETURN_IF_ERROR(CheckRows(result->rows(), max_rows_, "pipeline"));

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
  EXRQUY_RETURN_IF_ERROR(CheckRows(in.rows(), max_rows_, "selection"));
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
  EXRQUY_RETURN_IF_ERROR(
      CheckRows(std::max(in.rows(), right.rows()), max_rows_, "theta join"));
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
// Fan-out, and the morsel-range helpers of the breaker kernels.

template <typename Fn>
void Evaluator::FanOut(size_t n, const Fn& fn) {
  if (n <= 1 || threads_ <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The calling thread drains indices too, so threads_ - 1 workers keep
  // threads_ threads busy, never more.
  if (pool_ == nullptr) pool_ = std::make_unique<TaskPool>(threads_ - 1);
  pool_->ParallelFor(n, fn);
}

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
  FanOut(chunks, run);
  unit_chunks_ = std::max(unit_chunks_, chunks);
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

template <typename Less>
void Evaluator::ParallelStableSort(std::vector<uint32_t>* perm,
                                   const Less& less) {
  size_t n = perm->size();
  size_t chunks = NumMorsels(n);
  if (chunks <= 1 || threads_ <= 1) {
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
    FanOut(pairs, merge_pair);
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
  KeyGroups counts(max_rows_);
  EXRQUY_RETURN_IF_ERROR(counts.Build({&in.col(col::iter())}, in.rows()));
  counts.CollectMembers();
  const std::vector<const Column*> loop_iters = {&loop.col(col::iter())};
  for (size_t r = 0; r < loop.rows(); ++r) {
    uint32_t g = counts.Find(loop_iters, r);
    int64_t n = g == KeyGroups::kNone
                    ? 0
                    : static_cast<int64_t>(counts.members(g).size());
    if (n < op.min_card || n > op.max_card) {
      return CardinalityError(ctx_->strings->Get(op.name) +
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
      // 2^63 is exactly representable; [-2^63, 2^63) is what truncates
      // into int64_t (NaN fails the comparison too).
      if (!(d.d >= -9223372036854775808.0 && d.d < 9223372036854775808.0)) {
        return TypeError("err:FOCA0003: range bound " + FormatDouble(d.d) +
                         " is not a representable integer");
      }
      return static_cast<int64_t>(d.d);
    };
    EXRQUY_ASSIGN_OR_RETURN(int64_t a, as_int(lo[r]));
    EXRQUY_ASSIGN_OR_RETURN(int64_t b, as_int(hi[r]));
    if (a > b) continue;
    // b - a in unsigned arithmetic is exact for every pair of bounds, and
    // so is a + k below: neither overflows at the ends of the range.
    const uint64_t span = static_cast<uint64_t>(b) - static_cast<uint64_t>(a);
    if (span > 10'000'000) {
      return TypeError("range expression too large");
    }
    EXRQUY_RETURN_IF_ERROR(
        CheckRows(out_item.size() + span + 1, max_rows_, "range expansion"));
    for (uint64_t k = 0; k <= span; ++k) {
      if ((out_item.size() & 0xFFFF) == 0xFFFF) {
        EXRQUY_RETURN_IF_ERROR(PollGovernor());
      }
      out_iter.push_back(iters[r]);
      out_item.push_back(
          Value::Int(static_cast<int64_t>(static_cast<uint64_t>(a) + k)));
    }
  }
  return IterItemTable(std::move(out_iter), std::move(out_item));
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
  size_t n = 0;
  if (__builtin_mul_overflow(nl, nr, &n)) n = static_cast<size_t>(-1);
  EXRQUY_RETURN_IF_ERROR(CheckRows(n, max_rows_, "cross product"));
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
  KeyGroups index(max_rows_);
  EXRQUY_RETURN_IF_ERROR(index.Build(ColPtrs(r, op.keys), r.rows()));
  std::vector<const Column*> probe = ColPtrs(l, op.keys);
  bool keep_matching = op.kind == OpKind::kSemiJoin;
  size_t n = l.rows();
  EXRQUY_RETURN_IF_ERROR(CheckRows(n, max_rows_, "anti/semi-join probe"));
  std::vector<std::vector<uint32_t>> parts(NumMorsels(n));
  ForMorsels(n, [&](size_t c, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if ((index.Find(probe, i) != KeyGroups::kNone) == keep_matching) {
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
  // The survivors are the groups' first rows, in first-appearance order.
  KeyGroups groups(max_rows_);
  EXRQUY_RETURN_IF_ERROR(groups.Build(ColPtrs(in, in.schema()), in.rows()));
  auto out = std::make_shared<Table>();
  GatherParallel(in, groups.reps(), out.get());
  out->SetRows(groups.size());
  return out;
}

Result<TablePtr> Evaluator::EvalRowNum(const Op& op, const Table& in) {
  // % — the blocking sort. Rows keep their positions; the new column
  // receives the dense per-group rank.
  size_t n = in.rows();
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);

  // The partition (ascending) leads the sort keys.
  const Column* part = op.part != kNoCol ? &in.col(op.part) : nullptr;
  std::vector<std::pair<const Column*, bool>> keys;
  for (const SortKey& k : RowNumSortKeys(op)) {
    keys.emplace_back(&in.col(k.col), k.descending);
  }
  Column ranks(n);
  // Sorts perm by `less`, then ranks each partition 1, 2, ... in that
  // order. A presorted % (Op::presorted, audited as [presorted-claim])
  // skips the sort: on its input the stable sort is the identity.
  // `new_part(a, b)`: sorted row a starts a partition after row b. The
  // ranking carries a sequential dependency across partition
  // boundaries: kept serial.
  auto rank_by = [&](const auto& less, const auto& new_part) {
    if (op.presorted) {
      EXRQUY_DCHECK(std::is_sorted(perm.begin(), perm.end(), less));
    } else {
      ParallelStableSort(&perm, less);
    }
    int64_t rank = 0;
    for (size_t i = 0; i < n; ++i) {
      if (part != nullptr && i > 0 && new_part(perm[i], perm[i - 1])) {
        rank = 0;
      }
      ranks[perm[i]] = Value::Int(++rank);
    }
  };
  const size_t k = keys.size();
  if (std::all_of(keys.begin(), keys.end(),
                  [](const auto& key) { return AllInts(*key.first); })) {
    // Typed kernel: every key is an integer, so OrderCompare is integer
    // comparison. Each key maps to an order-preserving unsigned image
    // (complemented when descending), flattened row-major: the sort
    // compares plain words. Same order, same stability.
    std::vector<uint64_t> flat(n * k);
    for (size_t j = 0; j < k; ++j) {
      const Column& c = *keys[j].first;
      const uint64_t flip = keys[j].second ? ~uint64_t{0} : 0;
      for (size_t r = 0; r < n; ++r) {
        flat[r * k + j] = (static_cast<uint64_t>(c[r].i) ^ kSignBit) ^ flip;
      }
    }
    rank_by(
        [&](uint32_t a, uint32_t b) {
          const uint64_t* ka = flat.data() + size_t{a} * k;
          const uint64_t* kb = flat.data() + size_t{b} * k;
          for (size_t j = 0; j < k; ++j) {
            if (ka[j] != kb[j]) return ka[j] < kb[j];
          }
          return false;
        },
        [&](uint32_t a, uint32_t b) {
          return flat[size_t{a} * k] != flat[size_t{b} * k];
        });
  } else {
    rank_by(
        [&](uint32_t a, uint32_t b) {
          for (const auto& [col, desc] : keys) {
            int c = ops_.OrderCompare((*col)[a], (*col)[b]);
            if (c != 0) return desc ? c > 0 : c < 0;
          }
          return false;
        },
        [&](uint32_t a, uint32_t b) {
          return ops_.OrderCompare((*part)[a], (*part)[b]) != 0;
        });
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
      return ops_.Number(arg(0));
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
      // The 1-based positions p with round(start) <= p <
      // round(start) + round(length), compared as doubles: a NaN bound
      // selects nothing and an infinite one does not bound.
      double first = RoundHalfUp(s1.d);
      double last = std::numeric_limits<double>::infinity();
      if (op.fun == FunKind::kSubstring3) {
        EXRQUY_ASSIGN_OR_RETURN(Value s2, ops_.ToDouble(arg(2)));
        last = first + RoundHalfUp(s2.d);
      }
      std::string out;
      if (!std::isnan(first) && !std::isnan(last)) {
        double lo = std::max(first, 1.0);
        double hi = std::min(last, static_cast<double>(s.size()) + 1);
        if (lo < hi) {
          out = s.substr(static_cast<size_t>(lo) - 1,
                         static_cast<size_t>(hi - lo));
        }
      }
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
        if (op.fun != FunKind::kAbs || a.i >= 0) return a;
        if (a.i == INT64_MIN) {
          return TypeError("err:FOAR0002: integer overflow in abs");
        }
        return Value::Int(-a.i);
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
          return Value::Double(RoundHalfUp(a.d));
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
  // output deterministic). Without one, all rows form a single group —
  // also when there are none.
  KeyGroups groups(max_rows_);
  std::vector<const Column*> key;
  if (op.part != kNoCol) key.push_back(&in.col(op.part));
  const Column* part = key.empty() ? nullptr : key[0];
  EXRQUY_RETURN_IF_ERROR(groups.Build(std::move(key), in.rows()));
  groups.CollectMembers();
  const size_t ngroups = part == nullptr ? 1 : groups.size();

  const Column* arg =
      op.aggr == AggrKind::kCount ? nullptr : &in.col(op.col2);
  const Column* order =
      op.keys.empty() ? nullptr : &in.col(op.keys[0]);

  Column part_out;
  Column result;
  part_out.reserve(part == nullptr ? 0 : ngroups);
  result.reserve(ngroups);
  for (size_t g = 0; g < ngroups; ++g) {
    std::span<const uint32_t> rows = groups.members(g);
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
        // fn:max/fn:min: untypedAtomic values are cast to xs:double —
        // here only when every untyped value of the group parses, since
        // order by keys share this aggregate and must not raise — and
        // xs:string values are never cast. Integers compare exactly; a
        // double in the group promotes the result. Values of different
        // comparison classes raise.
        bool cast_untyped = true;
        for (uint32_t r : rows) {
          const Value& x = (*arg)[r];
          if (x.kind == ValueKind::kUntyped && !ops_.ToDouble(x).ok()) {
            cast_untyped = false;
            break;
          }
        }
        bool want_max = op.aggr == AggrKind::kMax;
        bool first = true;
        bool any_double = false;
        Value best;
        for (uint32_t r : rows) {
          Value cand = (*arg)[r];
          if (cand.kind == ValueKind::kUntyped && cast_untyped) {
            EXRQUY_ASSIGN_OR_RETURN(cand, ops_.ToDouble(cand));
          }
          any_double |= cand.kind == ValueKind::kDouble;
          if (first) {
            best = cand;
            first = false;
            continue;
          }
          if (!ops_.SameOrderClass(cand, best)) {
            return TypeError("err:FORG0006: fn:" +
                             std::string(AggrKindName(op.aggr)) +
                             " over values of incomparable types");
          }
          // fn:max and fn:min return NaN when any value is NaN.
          if (IsNaN(best)) continue;
          int c = ops_.OrderCompare(cand, best);
          if (IsNaN(cand) || (want_max ? c > 0 : c < 0)) best = cand;
        }
        if (any_double && best.kind == ValueKind::kInt) {
          best = Value::Double(static_cast<double>(best.i));
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
        std::vector<uint32_t> sorted(rows.begin(), rows.end());
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
    if (part != nullptr) part_out.push_back((*part)[groups.reps()[g]]);
    result.push_back(v);
  }

  auto out = std::make_shared<Table>();
  if (part != nullptr) out->AddColumn(op.part, std::move(part_out));
  out->AddColumn(op.col, std::move(result));
  out->SetRows(ngroups);
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
      g.col(op.part), g2.col(op.col2), group_left, &groups, &counts,
      max_rows_));
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
  auto sort = [&](const auto& less) {
    if (!std::is_sorted(rows.begin(), rows.end(), less)) {
      std::stable_sort(rows.begin(), rows.end(), less);
    }
  };
  if (AllInts(iters) && AllInts(poss)) {
    // Typed kernel: OrderCompare on integers is integer comparison, so
    // the sort compares the (iter, pos) pairs as plain int64_t.
    std::vector<std::pair<int64_t, int64_t>> keys(rows.size());
    for (size_t r = 0; r < keys.size(); ++r) keys[r] = {iters[r].i, poss[r].i};
    sort([&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
  } else {
    sort([&](uint32_t a, uint32_t b) {
      int c = ops.OrderCompare(iters[a], iters[b]);
      if (c != 0) return c < 0;
      return ops.OrderCompare(poss[a], poss[b]) < 0;
    });
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

  // Where a run RowsFor returned starts in the sequence-order rows.
  uint32_t Offset(std::span<const uint32_t> run) const {
    return static_cast<uint32_t>(run.data() - rows_.data());
  }
  // The content rows in sequence order; the groups are spent after.
  std::vector<uint32_t> TakeRows() { return std::move(rows_); }

 private:
  const Column& iters_;
  std::vector<uint32_t> rows_;
  size_t cursor_ = 0;  // first row of the last run found
  int64_t last_iter_ = std::numeric_limits<int64_t>::min();
};

// The string value of an attribute or text constructor's content run:
// each item atomized and cast to xs:string, joined by single spaces.
Result<StrId> ContentString(const ValueOps& ops, const Column& items,
                            std::span<const uint32_t> rows) {
  std::string s;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) s += ' ';
    EXRQUY_ASSIGN_OR_RETURN(Value sv,
                            ops.ToString(ops.Atomize(items[rows[i]])));
    s += ops.strings().Get(sv.str);
  }
  return ops.strings().Intern(s);
}

}  // namespace

Result<TablePtr> Evaluator::EvalElem(const Op& op, const Table& content,
                                     const Table& loop) {
  ContentGroups groups(content, ops_);
  const Column& items = content.col(col::item());
  const Column& loop_iters = loop.col(col::iter());
  Column out_iter = loop_iters;
  Column out_item(loop.rows());

  if (op.deferred) {
    // No consumer observes these elements' identity: keep their content,
    // and let the enclosing constructor write them.
    RecordSet rs;
    rs.name = op.name;
    rs.runs.reserve(loop.rows());
    for (size_t lr = 0; lr < loop.rows(); ++lr) {
      std::span<const uint32_t> run = groups.RowsFor(loop_iters[lr].i);
      rs.runs.emplace_back(groups.Offset(run),
                           static_cast<uint32_t>(run.size()));
    }
    rs.items = content.col_ptr(col::item());
    rs.rows = groups.TakeRows();
    rs.bytes = Table::ColumnBytes(*rs.items) +
               rs.rows.size() * sizeof(rs.rows[0]) +
               rs.runs.size() * sizeof(rs.runs[0]);
    const uint64_t set = records_.size();
    for (size_t lr = 0; lr < loop.rows(); ++lr) {
      out_item[lr] = Value::Record(set << 32 | lr);
    }
    live_bytes_ += rs.bytes;
    peak_live_bytes_ =
        std::max(peak_live_bytes_, live_bytes_ + morsel_live_bytes_);
    if (ctx_->budget != nullptr) ctx_->budget->Charge(rs.bytes);
    records_.push_back(std::move(rs));
    return IterItemTable(std::move(out_iter), std::move(out_item));
  }

  // One builder and one text buffer serve every element.
  NodeBuilder builder(ctx_->store);
  std::string text;
  for (size_t lr = 0; lr < loop.rows(); ++lr) {
    std::span<const uint32_t> rows = groups.RowsFor(loop_iters[lr].i);
    if (lr > 0) builder.Restart();
    builder.BeginElement(op.name);
    EXRQUY_RETURN_IF_ERROR(EmitContent(&builder, items, rows, &text));
    builder.EndElement();
    out_item[lr] = Value::Node(builder.Finish());
  }

  return IterItemTable(std::move(out_iter), std::move(out_item));
}

Status Evaluator::EmitContent(NodeBuilder* b, const Column& items,
                              std::span<const uint32_t> rows,
                              std::string* text) {
  const NodeStore& store = *ctx_->store;
  // Attribute items first (XQuery requires attributes to precede other
  // content; we accept them anywhere, leniently).
  for (uint32_t r : rows) {
    const Value& v = items[r];
    if (v.kind == ValueKind::kNode &&
        store.kind(v.node) == NodeKind::kAttribute) {
      b->Attribute(store.name(v.node), store.value(v.node));
    }
  }
  // Children: nodes are deep-copied, records written in place, adjacent
  // atomics merge into one space-separated text node.
  bool have_pending = false;
  auto flush = [&] {
    if (have_pending) b->Text(std::string_view(*text));
    text->clear();
    have_pending = false;
  };
  for (uint32_t r : rows) {
    const Value& v = items[r];
    if (v.kind == ValueKind::kRecord) {
      flush();
      EXRQUY_RETURN_IF_ERROR(EmitRecord(b, v.node, text));
    } else if (v.kind == ValueKind::kNode) {
      NodeKind k = store.kind(v.node);
      if (k == NodeKind::kAttribute) continue;  // already handled
      flush();
      if (k == NodeKind::kDocument) {
        // Copying a document node copies its children.
        NodeIdx end = v.node + store.size(v.node);
        NodeIdx c = v.node + 1;
        while (c <= end) {
          b->CopySubtree(c);
          c += store.size(c) + 1;
        }
      } else {
        b->CopySubtree(v.node);
      }
    } else {
      if (have_pending) *text += ' ';
      *text += ops_.Render(v);
      have_pending = true;
    }
  }
  flush();
  return Status::Ok();
}

Status Evaluator::EmitRecord(NodeBuilder* b, uint64_t record,
                             std::string* text) {
  if ((++expanded_records_ & 1023) == 0) {
    EXRQUY_RETURN_IF_ERROR(PollGovernor());
  }
  const RecordSet& rs = records_[record >> 32];
  const auto [offset, length] = rs.runs[record & 0xFFFFFFFFu];
  b->BeginElement(rs.name);
  EXRQUY_RETURN_IF_ERROR(EmitContent(
      b, *rs.items,
      std::span<const uint32_t>(rs.rows.data() + offset, length), text));
  b->EndElement();
  return Status::Ok();
}

Result<TablePtr> Evaluator::SettleRoot(TablePtr t) {
  if (records_.empty()) return t;
  auto out = std::make_shared<Table>();
  NodeBuilder builder(ctx_->store);
  bool first = true;
  std::string text;
  for (ColId c : t->schema()) {
    const Column& src = t->col(c);
    if (std::none_of(src.begin(), src.end(), [](const Value& v) {
          return v.kind == ValueKind::kRecord;
        })) {
      out->AddColumn(c, t->col_ptr(c));
      continue;
    }
    Column col = src;
    for (Value& v : col) {
      if (v.kind != ValueKind::kRecord) continue;
      if (!first) builder.Restart();
      first = false;
      EXRQUY_RETURN_IF_ERROR(EmitRecord(&builder, v.node, &text));
      v = Value::Node(builder.Finish());
    }
    out->AddColumn(c, std::move(col));
  }
  out->SetRows(t->rows());
  return out;
}

void Evaluator::ReleaseRecords() {
  for (const RecordSet& rs : records_) {
    live_bytes_ -= rs.bytes;
    if (ctx_->budget != nullptr) ctx_->budget->Release(rs.bytes);
  }
  records_.clear();
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
    EXRQUY_ASSIGN_OR_RETURN(StrId s,
                            ContentString(ops_, items, groups.RowsFor(it)));
    NodeIdx node = ctx_->store->MakeAttribute(op.name, s);
    out_iter.push_back(Value::Int(it));
    out_item.push_back(Value::Node(node));
  }

  return IterItemTable(std::move(out_iter), std::move(out_item));
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
    EXRQUY_ASSIGN_OR_RETURN(StrId s, ContentString(ops_, items, rows));
    NodeIdx node = ctx_->store->MakeText(s);
    out_iter.push_back(Value::Int(it));
    out_item.push_back(Value::Node(node));
  }

  return IterItemTable(std::move(out_iter), std::move(out_item));
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
