#include "utils/threadpool.h"

#include <algorithm>
#include <new>

#include "utils/trace.h"

namespace pmmrec {
namespace {

thread_local bool t_in_worker = false;

// Hard cap on spawned workers; far above any sensible PMMREC_NUM_THREADS.
constexpr int64_t kMaxWorkers = 256;

}  // namespace

ThreadPool& ThreadPool::Global() {
  // Leaked intentionally: joining workers during static destruction would
  // race with other translation units' teardown.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

bool ThreadPool::InWorker() { return t_in_worker; }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::EnsureWorkers(int64_t count) {
  count = std::min(count, kMaxWorkers);
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int64_t>(workers_.size()) < count) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::ResetAfterFork() {
  // The worker threads live only in the parent. Their std::thread handles
  // are still joinable here, and destroying a joinable thread terminates —
  // so the vector is leaked deliberately, exactly like Global()'s pool.
  auto* orphaned = new std::vector<std::thread>(std::move(workers_));
  (void)orphaned;
  workers_.clear();
  // The synchronisation objects are copies of the parent's, taken while
  // its idle workers were parked in work_cv_.wait(). glibc's condition
  // variable counts those waiters, and a later notify in this process
  // blocks until they acknowledge — which threads that were never forked
  // cannot do. Rebuild them in place (no destructor: destroying a
  // condition variable with registered waiters blocks the same way). The
  // child is single-threaded here, so nothing can hold them.
  new (&mu_) std::mutex();
  new (&submit_mu_) std::mutex();
  new (&work_cv_) std::condition_variable();
  new (&done_cv_) std::condition_variable();
  batch_ = nullptr;
  batch_epoch_ = 0;
  stop_ = false;
}

int64_t ThreadPool::num_workers() {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(workers_.size());
}

void ThreadPool::ClaimAndRun(Batch* batch) {
  for (;;) {
    const int64_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch->total) break;
    // Per-chunk run time, attributed by whichever thread (worker or
    // submitter) claimed the chunk. Chunks are coarse (one per thread per
    // ParallelFor), so the two clock reads are noise.
    const bool timing = trace::Enabled(trace::Level::kEpoch);
    const uint64_t t0 = timing ? trace::NowNs() : 0;
    (*batch->fn)(i);
    if (timing) {
      PMM_TRACE_COUNT("threadpool.run_ns", trace::NowNs() - t0);
      PMM_TRACE_COUNT("threadpool.chunks", 1);
    }
    batch->completed.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  uint64_t seen_epoch = 0;
  for (;;) {
    Batch* batch = nullptr;
    // Time spent parked between batches (idle + queue wait). Together
    // with threadpool.run_ns this gives per-worker utilization; wait is
    // measured only while tracing is on, so an idle pool with tracing
    // off reads no clocks.
    const bool timing = trace::Enabled(trace::Level::kEpoch);
    const uint64_t wait_start = timing ? trace::NowNs() : 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return stop_ || batch_epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = batch_epoch_;
      batch = batch_;
      if (batch == nullptr) continue;
      // Registering under mu_ keeps the Batch (stack-allocated in
      // RunChunks) alive: the submitter cannot return while
      // active_workers > 0.
      ++batch->active_workers;
    }
    if (timing) PMM_TRACE_COUNT("threadpool.wait_ns", trace::NowNs() - wait_start);
    ClaimAndRun(batch);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --batch->active_workers;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::RunChunks(int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  if (t_in_worker || !submit_mu_.try_lock()) {
    // Nested or concurrent submission: degrade to inline execution.
    PMM_TRACE_COUNT("threadpool.inline_batches", 1);
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::lock_guard<std::mutex> submit_lock(submit_mu_, std::adopt_lock);
  PMM_TRACE_COUNT("threadpool.batches", 1);

  Batch batch;
  batch.total = n;
  batch.fn = &fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = &batch;
    ++batch_epoch_;
  }
  work_cv_.notify_all();
  ClaimAndRun(&batch);  // The submitter participates.
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return batch.completed.load(std::memory_order_acquire) == batch.total &&
             batch.active_workers == 0;
    });
    batch_ = nullptr;
  }
}

}  // namespace pmmrec
