#ifndef PMMREC_DIST_ALLREDUCE_H_
#define PMMREC_DIST_ALLREDUCE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/trainer.h"
#include "dist/shm.h"

namespace pmmrec {
namespace dist {

// Gradient all-reduce over shared memory (see DESIGN.md "Data-parallel
// training").
//
// The combine is a fixed pairwise tree over the S shard slots:
//
//   for stride in 1, 2, 4, ...:
//     for i in 0, 2*stride, 4*stride, ...:
//       slot[i] += slot[i + stride]        (owner of shard i does the add)
//     barrier
//
// The summation order is a pure function of S — never of the rank count,
// scheduling, or arrival order — which is what makes the fit trajectory
// identical for every worker layout at a fixed shard count. Per round,
// destination slots are disjoint and sources are only read, so ranks
// combine concurrently without locks; the barrier between rounds is the
// only synchronization.

// Shared-memory block backing one data-parallel fit: barrier words, one
// end-of-fit fingerprint per rank, per-shard loss metadata, and S flat
// gradient slots of grad_numel floats. Construct BEFORE fork().
class ShmGradSegment {
 public:
  ShmGradSegment(int64_t grad_numel, int64_t num_shards, int64_t num_ranks);

  int64_t grad_numel() const { return n_; }
  int64_t num_shards() const { return shards_; }
  int64_t num_ranks() const { return ranks_; }

  ShmBarrierState* barrier_state();
  uint64_t* fingerprints();    // [num_ranks]
  double* losses();            // [num_shards]
  uint32_t* defined_flags();   // [num_shards], 0 or 1
  float* shard_slot(int64_t shard);

 private:
  char* base();

  int64_t n_;
  int64_t shards_;
  int64_t ranks_;
  size_t off_fps_;
  size_t off_losses_;
  size_t off_defined_;
  size_t off_slots_;
  SharedMemorySegment seg_;
};

// Single-process reducer: the S-shard trajectory computed by one rank.
// RunDataParallelFit uses it for workers == 1 with grad_shards > 1, and
// it is the bitwise reference the multi-worker path is tested against.
class LocalGradReducer : public GradReducer {
 public:
  LocalGradReducer(int64_t num_shards, int64_t grad_numel);

  int64_t num_shards() const override { return shards_; }
  int64_t num_ranks() const override { return 1; }
  int64_t rank() const override { return 0; }
  int64_t grad_numel() const override { return n_; }

  float* ShardSlot(int64_t shard) override;
  void SetShardMeta(int64_t shard, double loss, bool defined) override;
  bool Reduce(double* loss_sum, int64_t* defined_count) override;
  const float* CombinedGrad() const override { return slots_.data(); }
  bool EndStep() override { return true; }
  bool CheckFingerprint(uint64_t /*fingerprint*/) override { return true; }

 private:
  int64_t shards_;
  int64_t n_;
  std::vector<float> slots_;
  std::vector<double> losses_;
  std::vector<uint32_t> defined_;
};

// Multi-process reducer over a pre-fork ShmGradSegment. Every rank
// constructs one with its own rank id and a liveness probe; Reduce() runs
// the tree above across ranks. The segment is not owned.
class ShmGradReducer : public GradReducer {
 public:
  ShmGradReducer(ShmGradSegment* seg, int64_t rank,
                 std::function<bool()> peer_dead);

  int64_t num_shards() const override { return seg_->num_shards(); }
  int64_t num_ranks() const override { return seg_->num_ranks(); }
  int64_t rank() const override { return rank_; }
  int64_t grad_numel() const override { return seg_->grad_numel(); }

  float* ShardSlot(int64_t shard) override;
  void SetShardMeta(int64_t shard, double loss, bool defined) override;
  bool Reduce(double* loss_sum, int64_t* defined_count) override;
  const float* CombinedGrad() const override { return seg_->shard_slot(0); }
  bool EndStep() override;
  bool CheckFingerprint(uint64_t fingerprint) override;

 private:
  ShmGradSegment* seg_;
  int64_t rank_;
  ShmBarrier barrier_;
  std::function<bool()> peer_dead_;
};

}  // namespace dist
}  // namespace pmmrec

#endif  // PMMREC_DIST_ALLREDUCE_H_
