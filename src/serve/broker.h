#ifndef PMMREC_SERVE_BROKER_H_
#define PMMREC_SERVE_BROKER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pmmrec.h"
#include "utils/topk.h"
#include "utils/trace.h"

namespace pmmrec {
namespace serve {

// Online serving subsystem (see DESIGN.md "Serving subsystem" and
// "Versioned serving snapshots").
//
// The RequestBroker turns independent single-user recommendation requests
// into dynamically formed micro-batches over the frozen-model inference
// path: requests enter a bounded MPSC queue, worker threads drain the
// queue under a coalescing policy (wait up to `max_wait_us` for up to
// `max_batch` requests), retrieve ranked candidates for the whole batch
// through the model's active CandidateSource (core/ivf.h: the exact full
// scan by default, the IVF index when config.ann_serving is set) —
// collapsing identical prefixes onto one shared candidate list first —
// and answer each request with its
// partial top-K (utils/topk.h): K ids and scores, never the full
// catalogue row.
//
// Snapshot protocol: every batch pins one immutable ServingSnapshot per
// domain (ItemTableCache::Pin) and answers entirely from it — tables,
// IVF lists, and (in live mode) the frozen encoder all travel inside the
// snapshot, so a request admitted under
// version N is answered from version N even if N+1 publishes mid-batch.
// In the default strict mode a stale snapshot (a parameter update landed
// between batches) is rebuilt on first pin; racing workers serialize on
// the cache's build mutex and exactly one rebuild happens. In live mode
// (BrokerOptions.live_updates) workers never build: an external updater
// publishes snapshots (PMMRecModel::PublishServingSnapshot) while workers
// keep serving the pinned previous version — no stall, no lock shared
// with training.
//
// Multi-domain serving: one broker (one queue, one worker pool, one
// coalescing policy) can serve several models. Each domain is a
// {name, model} pair registered at construction; requests carry a domain
// id and batches are split per domain before scoring, so coalescing
// amortizes queue/wakeup costs across domains while each scoring call
// stays single-model. Latency is exported per domain via
// "serve.latency_us[domain=<name>]" histograms on top of the aggregate
// "serve.latency_us".
//
// Determinism contract: a request's response depends only on the request
// and the pinned snapshot's parameters — never on which batch it
// coalesced into, the coalescing policy, the worker count, or
// PMMREC_NUM_THREADS. This holds because the exact retrieval path is
// bitwise identical per row to the serial ScoreItems + TopKSelect path
// for any batch composition and any candidate limit >= topk + |exclude|
// (approximate sources trade this for recall, deterministically — same
// request, same snapshot, same candidates).
//
// Backpressure and deadlines are checked, never blocking: a Submit against
// a full queue resolves immediately with kQueueFull, and a request whose
// deadline has passed when a worker dequeues it is shed with
// kDeadlineExceeded instead of being scored.

enum class ServeStatus {
  kOk = 0,
  kDeadlineExceeded,  // Shed at dequeue: the deadline passed while queued.
  kQueueFull,         // Rejected at submit: queue at capacity.
  kShutdown,          // Rejected at submit or flushed during Shutdown().
  kInvalidRequest,    // Empty prefix, non-positive topk, or unknown domain
                      // (at submit); an item id outside the pinned
                      // snapshot's catalogue (at dequeue).
};

const char* ToString(ServeStatus status);

struct Request {
  std::vector<int32_t> prefix;  // Interaction history, most recent last.
  int64_t topk = 10;
  // Absolute deadline on the trace::NowNs() clock; 0 means none.
  // DeadlineFromNow() converts a relative budget.
  uint64_t deadline_ns = 0;
  // Target domain (registration order at construction; 0 = first/only).
  int64_t domain = 0;
};

// Relative-budget helper: now + budget_us on the broker's clock.
uint64_t DeadlineFromNow(int64_t budget_us);

struct Response {
  ServeStatus status = ServeStatus::kOk;
  // Top-K (score desc, id asc), excluding the request's own history when
  // BrokerOptions.exclude_history is set. Empty unless status == kOk.
  std::vector<ScoredId> items;
  uint64_t queue_ns = 0;   // Submit -> dequeue.
  uint64_t total_ns = 0;   // Submit -> response.
  int64_t batch_size = 0;  // Live requests in the coalesced batch (kOk only).
  // Version of the ServingSnapshot this response was answered from, and
  // the domain it was served by (kOk only).
  uint64_t snapshot_version = 0;
  int64_t domain = 0;
};

struct BrokerOptions {
  int64_t num_workers = 2;      // Scoring threads (>= 1).
  int64_t max_batch = 32;       // Requests coalesced per scoring call.
  int64_t max_wait_us = 500;    // Max linger waiting to fill a batch.
  int64_t queue_capacity = 256; // Submits beyond this are rejected.
  bool exclude_history = true;  // Skip the request's own items in top-K.
  // Request collapsing: within one micro-batch, requests with identical
  // prefixes share a single score row (one forward instead of N); each
  // request still gets its own top-K, so different `topk` values over the
  // same prefix stay independent. Only batching makes this possible —
  // one-request-per-call dispatch never sees two requests at once.
  // Responses are unchanged bitwise: the shared row IS the row each
  // duplicate would have produced alone. Merging is per domain: two
  // identical prefixes aimed at different domains stay separate rows.
  bool merge_duplicates = true;
  // Live-update mode: the broker publishes an initial self-contained
  // snapshot per domain (frozen encoder clone) and
  // workers only ever Pin() — they never rebuild. An external updater
  // (core/trainer.h LiveUpdater, or any caller of
  // PMMRecModel::PublishServingSnapshot) swaps in new versions while
  // requests keep flowing against the previous one. In the default
  // strict mode workers rebuild stale tables on first pin, which stalls
  // racing batches behind the build — correct, but with a rebuild-sized
  // latency spike after every parameter update.
  bool live_updates = false;
};

// One served model. Registered at construction; the broker does not own
// the model. `name` tags the per-domain latency histogram
// ("serve.latency_us[domain=<name>]").
struct DomainSpec {
  std::string name;
  PMMRecModel* model = nullptr;
};

// Monotonic lifetime totals (relaxed-atomic snapshot; tests, telemetry).
struct BrokerStats {
  uint64_t submitted = 0;            // Admitted to the queue.
  uint64_t completed = 0;            // Answered kOk.
  uint64_t deadline_exceeded = 0;    // Shed at dequeue.
  uint64_t rejected_queue_full = 0;  // Rejected at submit.
  uint64_t rejected_invalid = 0;     // Rejected at submit or dequeue.
  uint64_t shutdown_flushed = 0;     // Flushed unscored by Shutdown().
  uint64_t batches = 0;              // Scoring calls issued.
  uint64_t batched_requests = 0;     // Live requests across all batches.
  uint64_t max_batch = 0;            // Largest batch actually scored.
  uint64_t merged_requests = 0;      // Duplicates collapsed onto a shared row.
  uint64_t ann_batches = 0;          // Batches retrieved via the IVF index.
  uint64_t snapshot_rebuilds = 0;    // Strict-mode stale-pin rebuilds.
};

class RequestBroker {
 public:
  // Single-domain broker (domain 0, named "default"). The model must have
  // a dataset attached; an initial snapshot is built up front (so no
  // request pays the first-build latency) and the model is left in eval
  // mode. The broker does not own the model.
  RequestBroker(PMMRecModel* model, const BrokerOptions& options);
  // Multi-domain broker: one queue and worker pool serving every listed
  // model; requests route by Request::domain (index into `domains`).
  RequestBroker(const std::vector<DomainSpec>& domains,
                const BrokerOptions& options);
  ~RequestBroker();  // Implies Shutdown().

  RequestBroker(const RequestBroker&) = delete;
  RequestBroker& operator=(const RequestBroker&) = delete;

  // Non-blocking admission: the returned future is resolved by a worker,
  // or immediately (kQueueFull / kShutdown / kInvalidRequest) when the
  // request cannot be admitted. Item ids are checked by the worker against
  // the snapshot it pins. Safe from any number of threads.
  std::future<Response> Submit(Request request);

  // Convenience synchronous call: Submit + wait.
  Response Recommend(std::vector<int32_t> prefix, int64_t topk,
                     uint64_t deadline_ns = 0);

  // Stops admission, wakes the workers, joins them, and resolves any
  // still-queued request with kShutdown. Idempotent.
  void Shutdown();

  // Test hooks: a paused broker admits requests but starts no new batch,
  // which makes queue-full and coalescing behaviour deterministic to
  // test. Call while the broker is idle.
  void Pause();
  void Resume();

  BrokerStats stats() const;
  const BrokerOptions& options() const { return options_; }
  int64_t num_domains() const { return static_cast<int64_t>(domains_.size()); }
  const std::string& domain_name(int64_t domain) const {
    return domains_[static_cast<size_t>(domain)].name;
  }

 private:
  struct Pending {
    Request request;
    std::promise<Response> promise;
    uint64_t enqueue_ns = 0;
  };

  // Registry entry: model plus the interned per-domain latency histogram
  // (cached once; Histogram::Get interns by name).
  struct Domain {
    std::string name;
    PMMRecModel* model = nullptr;
    trace::Histogram* latency_us = nullptr;
  };

  void WorkerLoop();
  // Blocks for work, applies the coalescing policy, and pops up to
  // max_batch requests. An empty result means "shutting down".
  std::vector<Pending> NextBatch();
  void ProcessBatch(std::vector<Pending> batch);
  // Scores one domain's slice of a batch and resolves its promises.
  void ProcessDomainBatch(Domain& domain, std::vector<Pending> live,
                          uint64_t dequeue_ns, int64_t coalesced_size);
  // Pins the snapshot a batch will be answered from. Strict mode: builds
  // first if stale (racing workers serialize on the cache's build mutex;
  // exactly one rebuild per invalidation). Live mode: pin only — the
  // updater owns building.
  std::shared_ptr<const ServingSnapshot> PinSnapshot(Domain& domain);
  // Answers kInvalidRequest (counted in rejected_invalid) to every request
  // whose prefix names an item outside the pinned snapshot's catalogue,
  // and drops its row; the rest of the slice keeps its order, with
  // row_of remapped onto the compacted prefixes.
  void DropOutOfCatalogue(const ServingSnapshot& snap,
                          std::vector<Pending>* live,
                          std::vector<std::vector<int32_t>>* prefixes,
                          std::vector<int64_t>* row_of, uint64_t dequeue_ns);

  const BrokerOptions options_;
  std::vector<Domain> domains_;

  // Queue state.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  bool paused_ = false;
  std::vector<std::thread> workers_;

  struct AtomicStats {
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> deadline_exceeded{0};
    std::atomic<uint64_t> rejected_queue_full{0};
    std::atomic<uint64_t> rejected_invalid{0};
    std::atomic<uint64_t> shutdown_flushed{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> batched_requests{0};
    std::atomic<uint64_t> max_batch{0};
    std::atomic<uint64_t> merged_requests{0};
    std::atomic<uint64_t> ann_batches{0};
    std::atomic<uint64_t> snapshot_rebuilds{0};
  };
  AtomicStats stats_;
};

}  // namespace serve
}  // namespace pmmrec

#endif  // PMMREC_SERVE_BROKER_H_
