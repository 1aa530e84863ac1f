// Multi-process substrate tests (src/dist/): the per-rank thread budget,
// the shared-memory barrier, forking with the intra-op pool live, and the
// headline determinism claim of the data-parallel fit — the trajectory is
// a pure function of the gradient shard count, never of the worker count,
// so (workers=1, shards=S) and (workers=W, shards=S) are bitwise
// identical down to every parameter bit.
//
// Labelled `scaleout`.

#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pmmrec.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "dist/process.h"
#include "dist/shm.h"
#include "utils/parallel.h"

namespace pmmrec {
namespace {

// --- Thread budget -----------------------------------------------------------

TEST(ThreadBudgetTest, DividesEvenly) {
  for (int64_t rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(dist::ThreadBudget(8, 4, rank), 2) << "rank " << rank;
  }
}

TEST(ThreadBudgetTest, RemainderGoesToLowRanks) {
  EXPECT_EQ(dist::ThreadBudget(7, 4, 0), 2);
  EXPECT_EQ(dist::ThreadBudget(7, 4, 1), 2);
  EXPECT_EQ(dist::ThreadBudget(7, 4, 2), 2);
  EXPECT_EQ(dist::ThreadBudget(7, 4, 3), 1);
}

TEST(ThreadBudgetTest, TotalAcrossRanksNeverExceedsTotalWhenFeasible) {
  for (int64_t total = 1; total <= 16; ++total) {
    for (int64_t workers = 1; workers <= 6; ++workers) {
      int64_t sum = 0;
      for (int64_t rank = 0; rank < workers; ++rank) {
        const int64_t budget = dist::ThreadBudget(total, workers, rank);
        EXPECT_GE(budget, 1);
        sum += budget;
      }
      if (total >= workers) {
        EXPECT_LE(sum, total) << "total=" << total << " workers=" << workers;
        EXPECT_EQ(sum, total) << "budget should not waste threads";
      } else {
        // Infeasible split: every rank still gets its floor of one.
        EXPECT_EQ(sum, workers);
      }
    }
  }
}

TEST(ThreadBudgetTest, EnvOverrideWins) {
  ASSERT_EQ(setenv("PMMREC_DIST_THREADS", "3", 1), 0);
  EXPECT_EQ(dist::ThreadBudget(16, 4, 0), 3);
  EXPECT_EQ(dist::ThreadBudget(1, 1, 0), 3);
  ASSERT_EQ(setenv("PMMREC_DIST_THREADS", "garbage", 1), 0);
  EXPECT_EQ(dist::ThreadBudget(8, 4, 1), 2);  // Unparsable -> computed split.
  ASSERT_EQ(unsetenv("PMMREC_DIST_THREADS"), 0);
  EXPECT_EQ(dist::ThreadBudget(8, 4, 1), 2);
}

// --- Shared-memory barrier ---------------------------------------------------

TEST(ShmBarrierTest, ThreadsRendezvousAcrossManyRounds) {
  dist::ShmBarrierState state;
  constexpr int kParties = 3;
  constexpr int kRounds = 200;
  std::atomic<int64_t> checksum{0};
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int p = 0; p < kParties; ++p) {
    threads.emplace_back([&] {
      dist::ShmBarrier barrier(&state, kParties);
      for (int r = 0; r < kRounds; ++r) {
        checksum.fetch_add(1);
        if (!barrier.Wait()) {
          ok = false;
          return;
        }
        // After the barrier every party of round r has contributed.
        if (checksum.load() < (r + 1) * kParties) ok = false;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(checksum.load(), kParties * kRounds);
}

TEST(ShmBarrierTest, AbortUnblocksWaiters) {
  dist::ShmBarrierState state;
  dist::ShmBarrier barrier(&state, 2);
  std::thread waiter([&] { EXPECT_FALSE(barrier.Wait()); });
  barrier.SignalAbort();
  waiter.join();
  // Sticky: future waits fail immediately too.
  EXPECT_FALSE(barrier.Wait());
}

TEST(ShmBarrierTest, PeerDeadProbeAbortsTheBarrier) {
  dist::ShmBarrierState state;
  dist::ShmBarrier barrier(&state, 2);
  EXPECT_FALSE(barrier.Wait([] { return true; }));
  EXPECT_TRUE(barrier.aborted());
}

// --- Fork with a live intra-op pool ------------------------------------------

// Ranks fork while the parent's pool workers are parked in their
// condition-variable wait. Those threads do not exist in the child, so
// the child's own parallel regions must never wait on them.
// The pauses let the workers on each side park before the next batch is
// published, which is when a stale condition variable blocks. The child
// carries an alarm: a regression fails here in seconds.
TEST(AfterForkChildTest, ChildRunsParallelWorkWhileParentPoolIsParked) {
  constexpr auto kPark = std::chrono::milliseconds(20);
  NumThreadsGuard guard(4);
  std::atomic<int64_t> sum{0};
  const auto run = [&sum] {
    sum = 0;
    ParallelFor(0, 1 << 12, 1, [&sum](int64_t begin, int64_t end) {
      int64_t local = 0;
      for (int64_t i = begin; i < end; ++i) local += i;
      sum += local;
    });
  };
  run();  // Spawns the parent's workers; they park once the batch ends.
  const int64_t expected = sum.load();
  std::this_thread::sleep_for(kPark);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    alarm(10);
    dist::AfterForkChild(/*rank=*/1, /*workers=*/2, /*total_threads=*/4);
    bool ok = true;
    for (int round = 0; round < 4; ++round) {
      run();
      ok = ok && sum.load() == expected;
      std::this_thread::sleep_for(kPark);
    }
    _exit(ok ? 0 : 3);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_FALSE(WIFSIGNALED(status))
      << "child killed by signal " << WTERMSIG(status);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child summed a wrong total";
  run();  // The parent's pool is untouched by the child.
  EXPECT_EQ(sum.load(), expected);
}

// --- Data-parallel fit -------------------------------------------------------

FitOptions SmallFit() {
  FitOptions fit;
  fit.max_epochs = 2;
  fit.batch_size = 8;
  fit.max_seq_len = 10;
  fit.eval_users = 40;
  fit.patience = 2;
  fit.seed = 7;
  return fit;
}

std::vector<float> FlatParams(PMMRecModel& model) {
  auto params = model.TrainableParameters();
  std::vector<float> flat(static_cast<size_t>(TotalParamNumel(params)));
  CopyParamsToFlat(params, flat.data());
  return flat;
}

void ExpectSameTrajectory(const FitResult& a, const FitResult& b) {
  ASSERT_EQ(a.val_hr10_per_epoch.size(), b.val_hr10_per_epoch.size());
  for (size_t e = 0; e < a.val_hr10_per_epoch.size(); ++e) {
    EXPECT_EQ(a.val_hr10_per_epoch[e], b.val_hr10_per_epoch[e])
        << "epoch " << e;
  }
  EXPECT_EQ(a.best_val_hr10, b.best_val_hr10);
  EXPECT_EQ(a.best_epoch, b.best_epoch);
  EXPECT_EQ(a.epochs_run, b.epochs_run);
  EXPECT_EQ(a.final_train_loss, b.final_train_loss);
}

TEST(DataParallelFitTest, SingleWorkerSingleShardIsPlainFitBitwise) {
  BenchmarkSuite suite = BuildBenchmarkSuite(0.2, 13);
  const Dataset& ds = suite.sources[0];
  const PMMRecConfig config = PMMRecConfig::FromDataset(ds);
  const FitOptions fit = SmallFit();

  PMMRecModel plain(config, 42);
  plain.AttachDataset(&ds);
  const FitResult plain_result = FitModel(plain, ds, fit);

  PMMRecModel dist_model(config, 42);
  dist_model.AttachDataset(&ds);
  const FitResult dist_result =
      dist::RunDataParallelFit(dist_model, ds, fit, /*workers=*/1,
                               /*grad_shards=*/1);

  ExpectSameTrajectory(plain_result, dist_result);
  const std::vector<float> a = FlatParams(plain);
  const std::vector<float> b = FlatParams(dist_model);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << "workers=1 shards=1 must leave the historical path bitwise intact";
}

TEST(DataParallelFitTest, TrajectoryIsAFunctionOfShardsNotWorkers) {
  BenchmarkSuite suite = BuildBenchmarkSuite(0.2, 13);
  const Dataset& ds = suite.sources[0];
  const PMMRecConfig config = PMMRecConfig::FromDataset(ds);
  const FitOptions fit = SmallFit();

  // (workers=1, shards=2): the in-process reducer computes every shard.
  PMMRecModel one(config, 42);
  one.AttachDataset(&ds);
  const FitResult one_result =
      dist::RunDataParallelFit(one, ds, fit, /*workers=*/1, /*grad_shards=*/2);

  // (workers=2, shards=0 -> 2): two forked ranks over shared memory.
  PMMRecModel two(config, 42);
  two.AttachDataset(&ds);
  const FitResult two_result =
      dist::RunDataParallelFit(two, ds, fit, /*workers=*/2, /*grad_shards=*/0);

  ExpectSameTrajectory(one_result, two_result);
  const std::vector<float> a = FlatParams(one);
  const std::vector<float> b = FlatParams(two);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << "2-process fit diverged bitwise from the 1-process fit at equal "
         "shard count";
  EXPECT_EQ(dist::FitFingerprint(one_result, one.TrainableParameters()),
            dist::FitFingerprint(two_result, two.TrainableParameters()));
}

TEST(DataParallelFitTest, ParentThreadSettingSurvivesTheFit) {
  BenchmarkSuite suite = BuildBenchmarkSuite(0.2, 13);
  const Dataset& ds = suite.sources[0];
  const PMMRecConfig config = PMMRecConfig::FromDataset(ds);
  FitOptions fit = SmallFit();
  fit.max_epochs = 1;
  fit.eval_users = 16;

  NumThreadsGuard guard(3);
  PMMRecModel model(config, 42);
  model.AttachDataset(&ds);
  dist::RunDataParallelFit(model, ds, fit, /*workers=*/2);
  // The parent lowers its own budget to its rank-0 share during the fit
  // (so ranks collectively stay within the total) and must restore it.
  EXPECT_EQ(GetNumThreads(), 3);
}

}  // namespace
}  // namespace pmmrec
