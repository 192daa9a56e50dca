#include "engine/task_pool.h"

#include <atomic>
#include <memory>

namespace exrquy {

TaskPool::TaskPool(size_t threads) {
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void TaskPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void TaskPool::WorkerLoop() {
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      fn = std::move(queue_.front());
      queue_.pop_front();
    }
    fn();
  }
}

namespace {

// Shared state of one ParallelFor: workers and the caller race on `next`;
// the slot that finishes index n-1 is not necessarily the one that
// observes done == n, hence the condition variable.
struct ForState {
  explicit ForState(size_t n, const std::function<void(size_t)>& f)
      : total(n), fn(f) {}

  const size_t total;
  std::function<void(size_t)> fn;  // copy: helpers may start late
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;

  // Runs indices until none remain; returns the count it executed.
  void Drain() {
    size_t ran = 0;
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) break;
      fn(i);
      ++ran;
    }
    if (ran > 0) {
      std::lock_guard<std::mutex> lock(mu);
      done += ran;
      if (done == total) cv.notify_all();
    }
  }
};

}  // namespace

void TaskPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<ForState>(n, fn);
  size_t helpers = std::min(workers_.size(), n - 1);
  for (size_t h = 0; h < helpers; ++h) {
    Submit([state] { state->Drain(); });
  }
  state->Drain();
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done == state->total; });
}

}  // namespace exrquy
