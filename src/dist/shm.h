#ifndef PMMREC_DIST_SHM_H_
#define PMMREC_DIST_SHM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>

namespace pmmrec {
namespace dist {

// Multi-process substrate (see DESIGN.md "Data-parallel training").
//
// Workers are fork()ed children of one parent: an anonymous MAP_SHARED
// mapping created before the fork is inherited by every child, so the
// gradient slots and barrier words live at the same address in every
// rank with no name in the filesystem to leak on a crash. Everything
// placed inside a segment must be trivially layout-stable (plain scalars
// and std::atomic of lock-free scalars).

// Anonymous shared mapping. Create BEFORE fork(); the parent and all
// children then address the same physical pages. Zero-initialized.
class SharedMemorySegment {
 public:
  explicit SharedMemorySegment(size_t bytes);
  ~SharedMemorySegment();

  SharedMemorySegment(const SharedMemorySegment&) = delete;
  SharedMemorySegment& operator=(const SharedMemorySegment&) = delete;

  void* data() const { return data_; }
  size_t size() const { return bytes_; }

 private:
  void* data_ = nullptr;
  size_t bytes_ = 0;
};

// The barrier's shared words; placed inside a SharedMemorySegment.
// Ticket-based: each arrival takes a monotonically increasing ticket;
// ticket/parties is the round, and the round's last arrival publishes
// `released = round + 1`. No per-round counter reset exists, so a rank
// racing ahead into the next round can never corrupt the current one.
struct ShmBarrierState {
  std::atomic<uint64_t> tickets{0};
  std::atomic<uint64_t> released{0};
  // Sticky failure flag: once set, every current and future Wait() returns
  // false immediately, so one dead or timed-out rank unwedges the rest.
  std::atomic<uint32_t> aborted{0};
};

// Generation-counting barrier over shared memory. Unlike
// pthread_barrier_t this one has a timeout and an abort path: a peer
// dying mid-step turns into a checked `false` at every surviving rank
// instead of an unbounded hang. Waiters sleep-poll (the step body costs
// milliseconds, so a ~50us poll is noise) rather than using futexes to
// stay dependency-free.
class ShmBarrier {
 public:
  static constexpr int64_t kDefaultTimeoutMs = 120000;

  // `state` must live in memory shared by all `parties` ranks.
  ShmBarrier(ShmBarrierState* state, int64_t parties);

  // Returns true when all parties arrived; false on abort or timeout (the
  // abort flag is then set so peers fail too — callers must stop the
  // step loop, never retry). `peer_dead`, when provided, is polled while
  // waiting and a true return aborts the barrier (rank 0 passes a
  // waitpid(WNOHANG) probe, children a getppid() orphan check).
  bool Wait(const std::function<bool()>& peer_dead = nullptr,
            int64_t timeout_ms = kDefaultTimeoutMs);

  void SignalAbort() {
    state_->aborted.store(1, std::memory_order_release);
  }
  bool aborted() const {
    return state_->aborted.load(std::memory_order_acquire) != 0;
  }

 private:
  ShmBarrierState* state_;
  int64_t parties_;
};

}  // namespace dist
}  // namespace pmmrec

#endif  // PMMREC_DIST_SHM_H_
