// Persistent worker thread pool with a fork-join interface.
//
// The engine executes each superstep phase (compute, exchange) as one
// fork-join region over a fixed set of worker threads. Threads persist
// across supersteps so a 30-superstep PageRank does not pay thread creation
// 30×W times, and so worker ids are stable — vertex partitions, message
// buffers, and per-worker RNG streams are all indexed by worker id.
//
// run(fn) blocks until fn(worker_id) has returned on every worker.
// Exceptions thrown inside workers are captured and rethrown on the caller.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"

namespace deltav::pregel {

// Cache-line aligned (and so sized in whole lines): every worker writes
// the mutex and counters below at each fork and join, and an owner's
// members that workers read per vertex (an engine's flag arrays, say)
// must not share a line with them. Without this the owner's speed varies
// with where the allocator happens to place it.
class alignas(64) WorkerPool {
 public:
  explicit WorkerPool(int num_workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_workers() const { return static_cast<int>(threads_.size()) + 1; }

  /// Runs fn(worker_id) on every worker (worker 0 is the calling thread)
  /// and blocks until all have finished. Rethrows the first worker
  /// exception, if any.
  void run(const std::function<void(int)>& fn);

 private:
  void worker_main(int id);

  std::vector<std::thread> threads_;  // workers 1..N-1
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int running_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
};

}  // namespace deltav::pregel
