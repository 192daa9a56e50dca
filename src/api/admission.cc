#include "api/admission.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/governor.h"

namespace exrquy {
namespace {

using Clock = std::chrono::steady_clock;

// Bucket 0 holds sub-microsecond samples; bucket i >= 1 holds
// [2^(i-1), 2^i) µs. The last bucket absorbs everything beyond.
size_t BucketFor(double us) {
  if (us < 1.0) return 0;
  size_t i = 1;
  uint64_t bound = 1;  // 2^(i-1)
  while (i + 1 < LatencyHistogram::kBuckets &&
         static_cast<double>(bound) * 2.0 <= us) {
    bound *= 2;
    ++i;
  }
  return i;
}

}  // namespace

double LatencyHistogram::PercentileUs(double p) const {
  if (count == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      return static_cast<double>(uint64_t{1} << i);  // bucket upper bound
    }
  }
  return static_cast<double>(uint64_t{1} << (kBuckets - 1));
}

void AtomicLatencyHistogram::Record(double us) {
  buckets_[BucketFor(us)].fetch_add(1, std::memory_order_relaxed);
}

LatencyHistogram AtomicLatencyHistogram::Snapshot() const {
  LatencyHistogram out;
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    out.count += out.buckets[i];
  }
  return out;
}

// ---------------------------------------------------------------------
// AdmissionController.

AdmissionController::AdmissionController(Config config) : config_(config) {
  free_.reserve(config_.slots);
  // pop_back hands out slot 0 first, matching the service's historical
  // worker order.
  for (size_t i = 0; i < config_.slots; ++i) {
    free_.push_back(config_.slots - 1 - i);
  }
}

Result<AdmissionController::Ticket> AdmissionController::Admit(
    std::optional<Clock::time_point> deadline) {
  Clock::time_point t0 = Clock::now();
  if (deadline.has_value() && t0 >= *deadline) {
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    return DeadlineExceeded("deadline expired before admission");
  }

  std::unique_lock<std::mutex> lock(mu_);
  if (free_.empty()) {
    if (waiters_ >= config_.max_queue_depth) {
      shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
      return Unavailable("admission queue full (" +
                         std::to_string(waiters_) + " queued, " +
                         std::to_string(config_.slots) +
                         " workers busy): request shed");
    }
    ++waiters_;
    peak_waiters_ = std::max(peak_waiters_, waiters_);
    queued_.fetch_add(1, std::memory_order_relaxed);

    std::optional<Clock::time_point> timeout_at;
    if (config_.queue_timeout_ms > 0) {
      timeout_at =
          t0 + std::chrono::milliseconds(config_.queue_timeout_ms);
    }
    auto have_slot = [this] { return !free_.empty(); };
    for (;;) {
      // Wait until whichever bound binds first; no bound = wait forever.
      bool deadline_binds =
          deadline.has_value() &&
          (!timeout_at.has_value() || *deadline < *timeout_at);
      std::optional<Clock::time_point> until =
          deadline_binds ? deadline : timeout_at;
      if (!until.has_value()) {
        cv_.wait(lock, have_slot);
        break;
      }
      if (cv_.wait_until(lock, *until, have_slot)) break;
      --waiters_;
      if (deadline_binds) {
        shed_deadline_.fetch_add(1, std::memory_order_relaxed);
        return DeadlineExceeded(
            "deadline expired after " +
            std::to_string(static_cast<int64_t>(MsSince(t0))) +
            " ms queued; execution never started");
      }
      shed_queue_timeout_.fetch_add(1, std::memory_order_relaxed);
      return Unavailable("queue timeout (" +
                         std::to_string(config_.queue_timeout_ms) +
                         " ms) waiting for a worker slot: request shed");
    }
    --waiters_;
  }

  // The queue wait is charged against the request's deadline: a slot
  // that frees up exactly at (or past) the deadline is declined — the
  // execution could only ever end in kDeadlineExceeded after burning a
  // worker, which is precisely what shedding exists to prevent.
  if (deadline.has_value() && Clock::now() >= *deadline) {
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    // The slot stays free; pass the wakeup on so another waiter gets it.
    cv_.notify_one();
    return DeadlineExceeded(
        "deadline expired after " +
        std::to_string(static_cast<int64_t>(MsSince(t0))) +
        " ms queued; execution never started");
  }

  Ticket ticket;
  ticket.slot = free_.back();
  free_.pop_back();
  ticket.queue_ms = MsSince(t0);
  admitted_.fetch_add(1, std::memory_order_relaxed);
  queue_wait_us_.Record(ticket.queue_ms * 1000.0);
  return ticket;
}

void AdmissionController::Release(size_t slot) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(slot);
  }
  cv_.notify_one();
}

AdmissionStats AdmissionController::stats() const {
  AdmissionStats out;
  out.admitted = admitted_.load(std::memory_order_relaxed);
  out.queued = queued_.load(std::memory_order_relaxed);
  out.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  out.shed_queue_timeout =
      shed_queue_timeout_.load(std::memory_order_relaxed);
  out.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.queue_depth = waiters_;
    out.peak_queue_depth = peak_waiters_;
  }
  out.queue_wait_us = queue_wait_us_.Snapshot();
  return out;
}

// ---------------------------------------------------------------------
// QuarantineList.

QuarantineList::Decision QuarantineList::Admit(const std::string& key) {
  if (config_.failure_threshold == 0) return Decision::kAdmit;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return Decision::kAdmit;
  Entry& e = it->second;
  switch (e.state) {
    case State::kClosed:
      return Decision::kAdmit;
    case State::kOpen:
      if (Clock::now() >= e.open_until) {
        e.state = State::kHalfOpen;
        probes_.fetch_add(1, std::memory_order_relaxed);
        return Decision::kProbe;
      }
      shed_.fetch_add(1, std::memory_order_relaxed);
      return Decision::kShed;
    case State::kHalfOpen:
      // The one probe is in flight; everyone else stays shed.
      shed_.fetch_add(1, std::memory_order_relaxed);
      return Decision::kShed;
  }
  return Decision::kAdmit;
}

void QuarantineList::Record(const std::string& key, bool resource_failure,
                            bool was_probe) {
  if (config_.failure_threshold == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (!resource_failure) {
    if (it != entries_.end() &&
        (was_probe || it->second.state == State::kClosed)) {
      if (was_probe) recoveries_.fetch_add(1, std::memory_order_relaxed);
      entries_.erase(it);  // clean slate: consecutive count resets
    }
    return;
  }
  if (it == entries_.end()) {
    if (entries_.size() >= config_.max_entries) {
      // Drop closed entries (mere failure counts) to make room; if every
      // entry is open, fail open for new keys rather than grow unbounded.
      for (auto e = entries_.begin(); e != entries_.end();) {
        e = e->second.state == State::kClosed ? entries_.erase(e)
                                              : std::next(e);
      }
      if (entries_.size() >= config_.max_entries) return;
    }
    it = entries_.emplace(key, Entry{}).first;
  }
  Entry& e = it->second;
  auto open_with_backoff = [&] {
    e.trips = e.trips >= 31 ? 31 : e.trips + 1;
    trips_.fetch_add(1, std::memory_order_relaxed);
    int64_t cooldown = config_.cooldown_ms;
    for (uint32_t i = 1; i < e.trips && cooldown < config_.max_cooldown_ms;
         ++i) {
      cooldown *= 2;
    }
    e.state = State::kOpen;
    e.open_until = Clock::now() + std::chrono::milliseconds(std::min(
                                      cooldown, config_.max_cooldown_ms));
  };
  if (was_probe || e.state == State::kHalfOpen) {
    // A failed probe: the query is still poison — back off harder.
    e.failures = config_.failure_threshold;
    open_with_backoff();
    return;
  }
  ++e.failures;
  if (e.state == State::kClosed &&
      e.failures >= config_.failure_threshold) {
    open_with_backoff();
  }
}

void QuarantineList::ProbeAborted(const std::string& key) {
  if (config_.failure_threshold == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.state == State::kHalfOpen) {
    // Nothing was learned: re-open with an immediate re-probe window.
    it->second.state = State::kOpen;
    it->second.open_until = Clock::now();
  }
}

void QuarantineList::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

QuarantineStats QuarantineList::stats() const {
  QuarantineStats out;
  out.shed = shed_.load(std::memory_order_relaxed);
  out.trips = trips_.load(std::memory_order_relaxed);
  out.probes = probes_.load(std::memory_order_relaxed);
  out.recoveries = recoveries_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  out.tracked = entries_.size();
  for (const auto& [key, e] : entries_) {
    if (e.state != State::kClosed) ++out.open;
  }
  return out;
}

}  // namespace exrquy
