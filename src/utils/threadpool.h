#ifndef PMMREC_UTILS_THREADPOOL_H_
#define PMMREC_UTILS_THREADPOOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pmmrec {

// Fixed-worker fork-join thread pool backing ParallelFor (utils/parallel.h).
//
// The pool executes one batch of independent chunks at a time: RunChunks()
// publishes the batch, the calling thread and every worker claim chunk
// indices from a shared atomic counter, and the call returns once all
// chunks have finished. Because the submitting thread participates, a pool
// with W workers runs up to W+1 chunks concurrently.
//
// Workers are spawned lazily (EnsureWorkers) and reused for the lifetime of
// the process; an idle pool holds no locks and burns no CPU.
class ThreadPool {
 public:
  ThreadPool() = default;
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Process-wide pool shared by every ParallelFor call site.
  static ThreadPool& Global();

  // Runs fn(i) for every i in [0, n) and returns once all invocations have
  // completed. The calling thread participates in the work. Chunk indices
  // are claimed dynamically, so callers must not depend on which thread
  // runs which index. If another batch is already in flight (a nested or
  // concurrent submission), all chunks run inline on the calling thread.
  void RunChunks(int64_t n, const std::function<void(int64_t)>& fn);

  // Ensures at least `count` worker threads exist (clamped internally).
  void EnsureWorkers(int64_t count);

  // Child-side cleanup after fork(): the parent's worker threads do not
  // exist in the child, so their std::thread handles must be discarded —
  // never joined — the batch state cleared, and the mutexes and condition
  // variables rebuilt (the copies still count the parent's parked workers
  // as waiters), so the child can lazily spawn its own workers. Call it
  // first thing in the child, while it is single-threaded. Only valid when
  // the parent forked while the pool was quiescent (no RunChunks in
  // flight); dist/process.cc guarantees that by forking between training
  // steps.
  void ResetAfterFork();

  int64_t num_workers();

  // True when called from a pool worker executing a chunk. ParallelFor
  // uses this to run nested parallel regions inline instead of deadlocking
  // on the shared pool.
  static bool InWorker();

 private:
  struct Batch {
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> completed{0};
    int64_t total = 0;
    const std::function<void(int64_t)>* fn = nullptr;
    int64_t active_workers = 0;  // Guarded by the pool's mu_.
  };

  void WorkerLoop();
  static void ClaimAndRun(Batch* batch);

  std::mutex mu_;
  std::condition_variable work_cv_;  // Wakes workers on a new batch.
  std::condition_variable done_cv_;  // Wakes the submitter on completion.
  std::vector<std::thread> workers_;  // Guarded by mu_.
  Batch* batch_ = nullptr;            // Guarded by mu_.
  uint64_t batch_epoch_ = 0;          // Guarded by mu_.
  bool stop_ = false;                 // Guarded by mu_.
  std::mutex submit_mu_;  // Held for the duration of a RunChunks call.
};

}  // namespace pmmrec

#endif  // PMMREC_UTILS_THREADPOOL_H_
