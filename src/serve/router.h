#ifndef PMMREC_SERVE_ROUTER_H_
#define PMMREC_SERVE_ROUTER_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dist/shm.h"
#include "dist/transport.h"
#include "serve/broker.h"
#include "utils/trace.h"

namespace pmmrec {
namespace serve {

// Sharded serving tier (see DESIGN.md "Multi-process scale-out").
//
// A ShardRouter forks N serving worker processes and fronts them over
// SOCK_SEQPACKET channels (dist/transport.h). Two modes:
//
//  - kReplica: every worker holds a full ServingSnapshot and runs its own
//    RequestBroker (live-update mode). Requests are routed by a
//    deterministic hash of the prefix, so a given user always lands on
//    the same worker. Each response is produced by exactly one worker
//    through the unchanged single-process path, so responses are bitwise
//    identical to a single-process broker at the same parameters.
//
//  - kIvfShard: every worker pins the snapshot published by the parent
//    before the fork and owns one contiguous slice of the IVF inverted
//    lists. Each request is scattered to ALL workers
//    (PMMRecModel::RetrieveShardCandidatesOn), the per-shard candidate
//    lists are gathered and merged in canonical order (score desc, id
//    asc), and the final top-K is cut with the same TopKFromRanked kernel
//    the broker uses. Because probe selection ranks all centroids in
//    every shard and the shards partition [0, nlist), the merged
//    candidate multiset equals the single-process IVF retrieval at equal
//    nprobe — responses are bitwise identical to the one-process broker's
//    ANN path. Requires ANN serving on.
//
// Determinism and failure semantics: the wire carries absolute deadlines
// on the shared trace::NowNs() clock (anchored before the fork); a worker
// process dying with requests outstanding resolves those futures with
// kWorkerLost — a response is either bitwise-correct or an explicit
// error, never silently partial. KillWorker/RespawnWorker expose the
// failure path to tests and the robustness fuzzer.
//
// Live updates (replica mode): PublishParams() copies the parent model's
// trainable parameters into a pre-fork shared-memory block, rings each
// worker with a kPublish frame, and waits for the ack; the worker copies
// the flat block into its parameter tensors, bumps the global parameter
// version (so snapshot hot-add reuse cannot serve stale rows), and
// publishes a fresh snapshot while in-flight batches finish on the
// pinned previous version.

enum class ShardMode {
  kReplica,   // Users hash-routed; full snapshot per worker.
  kIvfShard,  // Scatter/gather over contiguous IVF list slices.
};

const char* ToString(ShardMode mode);

struct RouterOptions {
  int64_t num_workers = 2;
  ShardMode mode = ShardMode::kReplica;
  // Per-worker broker configuration (replica mode); `queue_capacity` also
  // bounds the router-side outstanding requests per worker in both modes
  // and `exclude_history` applies to the IVF-shard merge.
  BrokerOptions broker;
  // Worker-side channel handler threads. Replica workers park one handler
  // per in-flight request on the broker future, so this bounds per-worker
  // concurrency from the wire side.
  int64_t handler_threads = 4;
  // Total intra-op threads divided across workers (dist::ThreadBudget);
  // 0 = the parent's current PMMREC_NUM_THREADS setting.
  int64_t total_threads = 0;
};

class ShardRouter {
 public:
  // Forks the workers. The model must have a dataset attached. In
  // kIvfShard mode the model must have AnnServingEnabled(); the parent
  // publishes a snapshot before forking so all workers share its pages
  // copy-on-write. The router does not own the model.
  ShardRouter(PMMRecModel* model, const RouterOptions& options);
  ~ShardRouter();  // Implies Shutdown().

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Non-blocking admission, mirroring RequestBroker::Submit: the future
  // resolves with the worker's response, or immediately with
  // kInvalidRequest / kQueueFull / kShutdown / kWorkerLost when the
  // request cannot be admitted (IVF mode requires every worker alive).
  std::future<Response> Submit(Request request);

  // Convenience synchronous call: Submit + wait.
  Response Recommend(std::vector<int32_t> prefix, int64_t topk,
                     uint64_t deadline_ns = 0);

  // Replica-mode live update: parent params -> shared flat block ->
  // kPublish doorbell -> per-worker snapshot publish; returns after every
  // live worker acked. Requests keep flowing throughout.
  void PublishParams();

  // Per-worker telemetry rollup: pulls each live worker's serialized
  // trace counters/histograms over the channel. Entry w is empty when
  // worker w is dead or the pull raced its death.
  std::vector<trace::TelemetrySnapshot> CollectWorkerTelemetry();

  // Failure-path hooks (tests, fuzz_robustness_test): SIGKILL worker w
  // and wait until its outstanding requests resolved with kWorkerLost;
  // re-fork a dead worker from the parent's current model state.
  void KillWorker(int64_t w);
  void RespawnWorker(int64_t w);
  bool worker_alive(int64_t w) const;

  // Stops admission, wakes and joins the receivers, resolves outstanding
  // requests with kShutdown, and reaps every worker. Idempotent.
  void Shutdown();

  int64_t num_workers() const { return options_.num_workers; }
  const RouterOptions& options() const { return options_; }

 private:
  // One logical request in flight. Replica mode: registered with exactly
  // one worker (remaining == 1). IVF mode: registered with every worker
  // (remaining == num_workers) and finalized by the last shard reply.
  struct Pending {
    std::mutex mu;
    Request request;
    uint64_t submit_ns = 0;
    int64_t remaining = 0;
    bool done = false;
    bool worker_lost = false;
    bool deadline_exceeded = false;
    uint64_t snapshot_version = 0;
    std::vector<std::vector<ScoredId>> shard_items;  // IVF mode, [workers].
    std::promise<Response> promise;
  };

  struct Worker {
    pid_t pid = -1;
    bool reaped = false;
    std::thread receiver;
    mutable std::mutex mu;  // Guards channel sends, alive, maps below.
    dist::Channel channel;
    bool alive = false;
    std::unordered_map<uint64_t, std::shared_ptr<Pending>> outstanding;
    // At most one control exchange (publish / telemetry) in flight per
    // worker; {false, {}} is delivered when the worker died first.
    std::unique_ptr<std::promise<std::pair<bool, std::vector<uint8_t>>>>
        control;
  };

  void SpawnWorker(int64_t w);
  void ReceiverLoop(int64_t w);
  void HandleResponse(int64_t w, dist::Frame frame);
  void MarkWorkerDead(int64_t w);
  void FailPending(const std::shared_ptr<Pending>& pending,
                   ServeStatus status);
  void FinalizeIvf(const std::shared_ptr<Pending>& pending)
      /* pending->mu held */;
  // Sends a control frame to worker w and waits for the reply payload;
  // false when the worker is dead or died before replying.
  bool ControlExchange(int64_t w, dist::FrameType type,
                       std::vector<uint8_t> payload,
                       std::vector<uint8_t>* reply);

  // Child-process entry points (never return to the caller's code path;
  // the child _exit()s after these).
  void WorkerMain(dist::Channel channel, int64_t w);
  void WorkerMainReplica(dist::Channel& channel);
  void WorkerMainIvf(dist::Channel& channel, int64_t w);

  PMMRecModel* const model_;
  const RouterOptions options_;
  int64_t total_threads_ = 0;
  int64_t num_items_ = 0;
  // Replica publish block: TotalParamNumel floats, created pre-fork.
  std::unique_ptr<dist::SharedMemorySegment> param_shm_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<bool> stopping_{false};
};

}  // namespace serve
}  // namespace pmmrec

#endif  // PMMREC_SERVE_ROUTER_H_
