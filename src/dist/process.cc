#include "dist/process.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>

#include "dist/allreduce.h"
#include "utils/check.h"
#include "utils/parallel.h"
#include "utils/threadpool.h"
#include "utils/trace.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PMMREC_TSAN 1
#endif
#endif
#if !defined(PMMREC_TSAN) && defined(__SANITIZE_THREAD__)
#define PMMREC_TSAN 1
#endif

#ifdef PMMREC_TSAN
// Forked ranks spawn their own threads; TSan's default die_after_fork=1
// would abort them. One definition here covers every binary that links
// pmmrec_dist.
extern "C" const char* __tsan_default_options() {
  return "die_after_fork=0";
}
#endif

namespace pmmrec {
namespace dist {

int64_t ThreadBudget(int64_t total, int64_t workers, int64_t rank) {
  PMM_CHECK_GE(workers, 1);
  PMM_CHECK_GE(rank, 0);
  PMM_CHECK_LT(rank, workers);
  if (const char* env = std::getenv("PMMREC_DIST_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<int64_t>(v);
  }
  if (total < 1) total = 1;
  const int64_t base = total / workers;
  const int64_t extra = total % workers;
  const int64_t mine = base + (rank < extra ? 1 : 0);
  return mine < 1 ? 1 : mine;
}

void AfterForkChild(int64_t rank, int64_t workers, int64_t total_threads) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  ThreadPool::Global().ResetAfterFork();
  SetNumThreads(ThreadBudget(total_threads, workers, rank));
  trace::ResetForTest();
}

uint64_t FitFingerprint(const FitResult& result,
                        const std::vector<Tensor*>& params) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis.
  const auto mix = [&h](const void* p, size_t bytes) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (const double v : result.val_hr10_per_epoch) mix(&v, sizeof(v));
  mix(&result.best_val_hr10, sizeof(result.best_val_hr10));
  mix(&result.best_epoch, sizeof(result.best_epoch));
  mix(&result.epochs_run, sizeof(result.epochs_run));
  mix(&result.final_train_loss, sizeof(result.final_train_loss));
  for (const Tensor* p : params) {
    mix(p->data(), static_cast<size_t>(p->numel()) * sizeof(float));
  }
  return h;
}

namespace {

struct ChildProc {
  pid_t pid = -1;
  bool reaped = false;
  int status = 0;
};

// Reaps any child that has already exited. During the fit no child may
// exit — the end-of-fit fingerprint barriers involve the parent — so a
// reap observed from the barrier's liveness probe means a rank died.
bool AnyChildExited(std::vector<ChildProc>* children) {
  bool any = false;
  for (ChildProc& c : *children) {
    if (c.reaped) {
      any = true;
      continue;
    }
    const pid_t r = ::waitpid(c.pid, &c.status, WNOHANG);
    if (r == c.pid) {
      c.reaped = true;
      any = true;
    }
  }
  return any;
}

}  // namespace

FitResult RunDataParallelFit(TrainableRecommender& model, const Dataset& ds,
                             const FitOptions& options, int64_t workers,
                             int64_t grad_shards) {
  PMM_CHECK_GE(workers, 1);
  if (grad_shards <= 0) grad_shards = workers;
  PMM_CHECK_MSG(grad_shards >= workers,
                "every rank must own at least one gradient shard");
  if (workers == 1 && grad_shards == 1) {
    return FitModel(model, ds, options, nullptr);
  }

  model.AttachDataset(&ds);
  const int64_t n = TotalParamNumel(model.TrainableParameters());
  if (workers == 1) {
    LocalGradReducer reducer(grad_shards, n);
    return FitModel(model, ds, options, &reducer);
  }

  // Anchor the process-wide monotonic clock base before forking so every
  // rank's trace::NowNs() shares one epoch.
  trace::NowNs();
  ShmGradSegment seg(n, grad_shards, workers);
  const int64_t total_threads = GetNumThreads();

  std::vector<ChildProc> children;
  for (int64_t rank = 1; rank < workers; ++rank) {
    const pid_t pid = ::fork();
    PMM_CHECK_MSG(pid >= 0, "fork() failed");
    if (pid == 0) {
      AfterForkChild(rank, workers, total_threads);
      // Orphan probe: PDEATHSIG already kills us with the parent, but the
      // barrier poll also notices re-parenting so a missed signal (parent
      // died before prctl took effect) cannot hang this rank.
      ShmGradReducer reducer(&seg, rank, [] { return ::getppid() == 1; });
      const FitResult r = FitModel(model, ds, options, &reducer);
      const bool agree = reducer.CheckFingerprint(
          FitFingerprint(r, model.TrainableParameters()));
      ::_exit(agree ? 0 : 7);
    }
    ChildProc c;
    c.pid = pid;
    children.push_back(c);
  }

  // The parent is rank 0. Lower its own thread budget only now — the
  // children inherited the full setting and derived their shares from it.
  SetNumThreads(ThreadBudget(total_threads, workers, 0));
  ShmGradReducer reducer(&seg, 0,
                         [&children] { return AnyChildExited(&children); });
  const FitResult result = FitModel(model, ds, options, &reducer);
  const bool agree = reducer.CheckFingerprint(
      FitFingerprint(result, model.TrainableParameters()));
  SetNumThreads(total_threads);

  for (ChildProc& c : children) {
    if (!c.reaped) {
      PMM_CHECK_EQ(::waitpid(c.pid, &c.status, 0), c.pid);
      c.reaped = true;
    }
    PMM_CHECK_MSG(WIFEXITED(c.status) && WEXITSTATUS(c.status) == 0,
                  "data-parallel worker rank exited abnormally");
  }
  PMM_CHECK_MSG(agree, "data-parallel ranks diverged (fingerprint mismatch)");
  return result;
}

}  // namespace dist
}  // namespace pmmrec
