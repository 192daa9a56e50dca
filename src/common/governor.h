// Resource-governance primitives shared by every layer of the stack:
//
//  * CancelToken — a shareable, thread-safe cancellation flag. The engine
//    polls it cooperatively at operator and chunk boundaries, so an
//    in-flight query aborts within one chunk's work of the Cancel() call
//    and surfaces as a kCancelled Status (never a torn result).
//  * MemoryBudget — a per-query byte accountant charged by the engine's
//    intermediate tables (engine/eval.cc TrackTable), constructed-node
//    growth (xml/node_store.cc AppendNode) and string interning
//    (common/str_pool.cc Intern). Accounting is advisory-at-charge,
//    enforced-at-boundary: a charge that crosses the limit marks the
//    budget exhausted (the allocation itself still happens — callers
//    deep in void paths cannot unwind), and the evaluator converts the
//    sticky flag into a clean kResourceExhausted Status at the next
//    operator or chunk boundary. Overshoot is therefore bounded by one
//    chunk's allocations, the same latency bound cancellation has.
//
// Both types sit in common/ (not engine/) because the charge sites span
// common/, xml/ and engine/, and the dependency arrows all point at
// common. The deterministic fault-injection hook (FailChargeAt) lives
// here too so "fail allocation N" can be driven without the budget
// knowing anything about the harness (engine/faults.h) that configures
// it.
#ifndef EXRQUY_COMMON_GOVERNOR_H_
#define EXRQUY_COMMON_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace exrquy {

// Milliseconds elapsed on the steady clock (the clock of every deadline)
// since `start`: the one phase timer of every layer.
inline double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Shareable cancellation flag. Hand the same token to
// QueryOptions::cancel and to whatever timeout/supervisor thread may
// decide to abort the query; Cancel() is safe from any thread, any
// number of times.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

using CancelTokenPtr = std::shared_ptr<CancelToken>;

// Per-query memory accountant. Thread-safe; all methods are lock-free.
// limit_bytes == 0 means "account but never exhaust" (the profiler still
// gets peak/charged numbers).
class MemoryBudget {
 public:
  explicit MemoryBudget(size_t limit_bytes = 0) : limit_(limit_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  // Records an allocation of `bytes`. Returns false — and latches
  // exhausted() — when this charge crossed the limit or hit the
  // fault-injection point; the caller may ignore the return value and
  // rely on a downstream cooperative exhausted() poll.
  bool Charge(size_t bytes) {
    uint64_t n = charges_.fetch_add(1, std::memory_order_relaxed) + 1;
    size_t now = charged_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    size_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
    uint64_t fail_at = fail_charge_at_.load(std::memory_order_relaxed);
    if ((fail_at != 0 && n >= fail_at) || (limit_ != 0 && now > limit_)) {
      exhausted_.store(true, std::memory_order_release);
      return false;
    }
    return !exhausted();
  }

  // Returns bytes previously Charge()d (e.g. a released intermediate
  // table, or nodes dropped by NodeStore::TruncateTo). Never clears the
  // exhausted latch: once a query has crossed its budget it stays dead.
  void Release(size_t bytes) {
    charged_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  bool exhausted() const {
    return exhausted_.load(std::memory_order_acquire);
  }

  size_t limit() const { return limit_; }
  size_t charged() const {
    return charged_.load(std::memory_order_relaxed);
  }

  // True when the high-water mark crossed `fraction` of the limit — the
  // memory-pressure signal the query service's graceful-degradation path
  // reacts to (api/service.h). Always false with no limit.
  bool PeakAboveFraction(double fraction) const {
    return limit_ != 0 &&
           static_cast<double>(peak()) >=
               fraction * static_cast<double>(limit_);
  }
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t charges() const {
    return charges_.load(std::memory_order_relaxed);
  }

  // Deterministic fault injection: charge number `n` (1-based, counted
  // across all charge sites) fails regardless of the limit. 0 disarms.
  void FailChargeAt(uint64_t n) {
    fail_charge_at_.store(n, std::memory_order_relaxed);
  }

 private:
  const size_t limit_;
  std::atomic<size_t> charged_{0};
  std::atomic<size_t> peak_{0};
  std::atomic<uint64_t> charges_{0};
  std::atomic<uint64_t> fail_charge_at_{0};
  std::atomic<bool> exhausted_{false};
};

}  // namespace exrquy

#endif  // EXRQUY_COMMON_GOVERNOR_H_
