#include "engine/faults.h"

#include <cerrno>
#include <cstdlib>
#include <string>

namespace exrquy {

Result<bool> StrictEnvBool(const char* name, bool unset) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup at resolve
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return unset;
  std::string s(v);
  if (s == "0") return false;
  if (s == "1") return true;
  return InvalidArgument(std::string(name) + ": must be 0 or 1, got \"" + s +
                         "\"");
}

Result<uint64_t> StrictEnvU64(const char* name, uint64_t unset) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup at resolve
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return unset;
  if (v[0] == '-' || v[0] == '+') {
    return InvalidArgument(std::string(name) + ": must be a non-negative " +
                           "integer, got \"" + v + "\"");
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long n = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0') {
    return InvalidArgument(std::string(name) + ": not an integer: \"" + v +
                           "\"");
  }
  if (errno == ERANGE) {
    return InvalidArgument(std::string(name) + ": out of range: \"" + v +
                           "\"");
  }
  return static_cast<uint64_t>(n);
}

Result<FaultPlan> FaultPlan::FromEnv() {
  FaultPlan plan;
  EXRQUY_ASSIGN_OR_RETURN(plan.fail_alloc, StrictEnvU64("EXRQUY_FAULT_ALLOC"));
  EXRQUY_ASSIGN_OR_RETURN(plan.cancel_at_op,
                          StrictEnvU64("EXRQUY_FAULT_CANCEL_OP"));
  EXRQUY_ASSIGN_OR_RETURN(plan.deadline_at_chunk,
                          StrictEnvU64("EXRQUY_FAULT_DEADLINE_CHUNK"));
  EXRQUY_ASSIGN_OR_RETURN(plan.transient,
                          StrictEnvBool("EXRQUY_FAULT_TRANSIENT"));
  return plan;
}

StatusCode FaultKindCode(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFailAlloc:
      return StatusCode::kResourceExhausted;
    case FaultKind::kCancelAtOp:
      return StatusCode::kCancelled;
    case FaultKind::kDeadlineAtChunk:
      return StatusCode::kDeadlineExceeded;
  }
  return StatusCode::kInternal;
}

Result<uint64_t> SweepFaultPoints(
    FaultKind kind, uint64_t max_points,
    const std::function<Status(const FaultPlan&)>& attempt,
    const std::function<void(uint64_t, const Status&)>& check) {
  for (uint64_t n = 1; n <= max_points; ++n) {
    FaultPlan plan;
    switch (kind) {
      case FaultKind::kFailAlloc:
        plan.fail_alloc = n;
        break;
      case FaultKind::kCancelAtOp:
        plan.cancel_at_op = n;
        break;
      case FaultKind::kDeadlineAtChunk:
        plan.deadline_at_chunk = n;
        break;
    }
    Status st = attempt(plan);
    if (st.ok()) return n - 1;  // point n was never reached: sweep complete
    if (check) check(n, st);
  }
  return Internal("fault-point sweep did not reach a clean run within " +
                  std::to_string(max_points) + " points");
}

}  // namespace exrquy
