// A fixed-size worker pool for the evaluator's morsel and range kernels:
// scheduled units run one at a time on the calling thread, and only a
// unit's morsels and ranges fan out here. ParallelFor lets the calling
// thread drain indices alongside the workers.
#ifndef EXRQUY_ENGINE_TASK_POOL_H_
#define EXRQUY_ENGINE_TASK_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace exrquy {

class TaskPool {
 public:
  // Starts `threads` workers.
  explicit TaskPool(size_t threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  // Invokes fn(i) for every i in [0, n), distributing indices over the
  // workers while the calling thread drains indices itself; returns when
  // every index has finished. Index-to-thread assignment is arbitrary —
  // callers must make fn's effects independent of it (disjoint output
  // slots indexed by i).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void Submit(std::function<void()> fn);
  void WorkerLoop();

  std::deque<std::function<void()>> queue_;  // guarded by mu_
  bool stop_ = false;                         // guarded by mu_
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::thread> workers_;  // last: the workers use the above
};

}  // namespace exrquy

#endif  // EXRQUY_ENGINE_TASK_POOL_H_
