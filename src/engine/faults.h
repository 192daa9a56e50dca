// Deterministic fault injection for the resource governor. A FaultPlan
// names exact failure points in terms of the engine's own monotonic
// counters — "fail allocation N", "cancel at operator dispatch K", "trip
// the deadline at chunk boundary M" — so a test (or an operator
// reproducing a production incident) can replay the identical failure on
// every run: the counters advance at well-defined points in the
// evaluator, not on wall clocks or thread identities. What is
// deterministic is the *outcome* (the query fails with the planned
// Status code iff the counter reaches the threshold, and the threshold
// is reached iff an unfaulted run would pass that many points); under
// parallel execution the specific operator observing the trip may vary,
// which the governor's clean-abort contract makes unobservable.
//
// The plan is configured per query via QueryOptions::faults or, when
// that is all zeros, the environment:
//
//   EXRQUY_FAULT_ALLOC=N           fail MemoryBudget charge N  -> kResourceExhausted
//   EXRQUY_FAULT_CANCEL_OP=K       cancel at op dispatch K     -> kCancelled
//   EXRQUY_FAULT_DEADLINE_CHUNK=M  deadline at chunk M         -> kDeadlineExceeded
//   EXRQUY_FAULT_TRANSIENT=1       mark the fault transient (see below)
//
// A *transient* fault models a one-off incident (an allocation glitch, a
// pressure spike) rather than a property of the query: the QueryService
// retry policy (api/service.h) is allowed to re-run a transiently-faulted
// request with the fault disarmed, where a plain injected fault is always
// surfaced verbatim so injection tests stay deterministic.
#ifndef EXRQUY_ENGINE_FAULTS_H_
#define EXRQUY_ENGINE_FAULTS_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/status.h"

namespace exrquy {

// Which failure to inject, in engine-counter coordinates. All thresholds
// are 1-based; 0 disarms the corresponding fault.
struct FaultPlan {
  uint64_t fail_alloc = 0;         // MemoryBudget charge number
  uint64_t cancel_at_op = 0;       // operator dispatch number
  uint64_t deadline_at_chunk = 0;  // chunk-boundary poll number
  bool transient = false;          // retryable-once incident, not a replay

  bool any() const {
    return fail_alloc != 0 || cancel_at_op != 0 || deadline_at_chunk != 0;
  }

  // Reads the EXRQUY_FAULT_* environment variables. Unset/empty = 0
  // (disarmed); anything else must be a plain non-negative decimal
  // integer (EXRQUY_FAULT_TRANSIENT: "0" or "1") — malformed, signed, or
  // out-of-range values are a kInvalidArgument naming the offending
  // variable, never silently parsed as garbage.
  static Result<FaultPlan> FromEnv();
};

// Reads an unsigned EXRQUY_* knob. Unset/empty = `unset`; anything else
// must be a plain non-negative decimal integer. Signs, non-digits,
// trailing garbage, and overflow are a kInvalidArgument naming the
// variable: a typo'd knob must fail, never silently mean "default" (or
// some prefix). The one parser of every numeric EXRQUY_* variable, per
// query and per QueryService.
Result<uint64_t> StrictEnvU64(const char* name, uint64_t unset = 0);

// Reads an EXRQUY_* switch: "0" or "1", unset/empty = `unset`. Anything
// else is a kInvalidArgument naming the variable.
Result<bool> StrictEnvBool(const char* name, bool unset = false);

// Per-query counter state for one FaultPlan. The evaluator consults it
// at every operator dispatch and chunk boundary; thresholds compare with
// >= so the answer stays true once reached (the governor's trip latch
// makes the first observation the only one that matters).
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Counts one operator dispatch; true iff the cancel fault is armed and
  // dispatch number >= cancel_at_op.
  bool CancelAtOp() {
    if (plan_.cancel_at_op == 0) return false;
    return ops_.fetch_add(1, std::memory_order_relaxed) + 1 >=
           plan_.cancel_at_op;
  }

  // Counts one chunk-boundary poll; true iff the deadline fault is armed
  // and poll number >= deadline_at_chunk.
  bool DeadlineAtChunk() {
    if (plan_.deadline_at_chunk == 0) return false;
    return chunks_.fetch_add(1, std::memory_order_relaxed) + 1 >=
           plan_.deadline_at_chunk;
  }

  const FaultPlan& plan() const { return plan_; }

 private:
  const FaultPlan plan_;
  std::atomic<uint64_t> ops_{0};
  std::atomic<uint64_t> chunks_{0};
};

// ---------------------------------------------------------------------
// Exhaustive fault-point sweep.

// Which engine counter a sweep walks.
enum class FaultKind {
  kFailAlloc,        // MemoryBudget charges      -> kResourceExhausted
  kCancelAtOp,       // operator dispatches       -> kCancelled
  kDeadlineAtChunk,  // chunk-boundary polls      -> kDeadlineExceeded
};

// The Status code a fault of `kind` surfaces as when its point is hit.
StatusCode FaultKindCode(FaultKind kind);

// Runs `attempt` with the single fault point N armed for N = 1, 2, ...
// until the first clean (OK) run — i.e. until N exceeds every counter
// tick the workload performs, proving every single failure point was
// exercised. After each faulted attempt, `check` (optional) is invoked
// with (N, status) so the caller can assert the planned code, a pristine
// session/service, and a byte-identical unfaulted re-run.
//
// Returns the number of faulted points (the first clean N minus one).
// Errors: an attempt succeeding *before* a later one fails cannot happen
// by construction (the sweep stops at the first clean run); exceeding
// `max_points` without a clean run returns kInternal, the guard against
// a workload whose counters never settle.
Result<uint64_t> SweepFaultPoints(
    FaultKind kind, uint64_t max_points,
    const std::function<Status(const FaultPlan&)>& attempt,
    const std::function<void(uint64_t, const Status&)>& check = nullptr);

}  // namespace exrquy

#endif  // EXRQUY_ENGINE_FAULTS_H_
