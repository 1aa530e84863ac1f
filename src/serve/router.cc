#include "serve/router.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "core/ivf.h"
#include "core/trainer.h"
#include "dist/process.h"
#include "nn/optimizer.h"
#include "utils/check.h"
#include "utils/parallel.h"
#include "utils/topk.h"

namespace pmmrec {
namespace serve {
namespace {

// --- Wire payload codecs ----------------------------------------------------
// Native byte order and padding: both ends are always the same binary in
// the same process image (fork), so this is a process-local contract like
// WireHeader's. Every decode is bounds-checked — a malformed payload is a
// programming error on this side of the wire, but it must never read out
// of bounds.

template <typename T>
void Put(std::vector<uint8_t>* buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t off = buf->size();
  buf->resize(off + sizeof(T));
  std::memcpy(buf->data() + off, &v, sizeof(T));
}

class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<uint8_t>& buf)
      : p_(buf.data()), left_(buf.size()) {}

  template <typename T>
  bool Get(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (left_ < sizeof(T)) return false;
    std::memcpy(out, p_, sizeof(T));
    p_ += sizeof(T);
    left_ -= sizeof(T);
    return true;
  }

  bool exhausted() const { return left_ == 0; }

 private:
  const uint8_t* p_;
  size_t left_;
};

// Request payload: [i64 topk-or-limit][i64 n][i32 prefix x n]. Replica
// workers receive the request's topk (their broker derives its own
// candidate limit); IVF workers receive the router-computed shard limit.
std::vector<uint8_t> EncodeRequest(int64_t bound,
                                   const std::vector<int32_t>& prefix) {
  std::vector<uint8_t> buf;
  Put<int64_t>(&buf, bound);
  Put<int64_t>(&buf, static_cast<int64_t>(prefix.size()));
  for (const int32_t id : prefix) Put<int32_t>(&buf, id);
  return buf;
}

bool DecodeRequest(const std::vector<uint8_t>& payload, int64_t* bound,
                   std::vector<int32_t>* prefix) {
  PayloadReader r(payload);
  int64_t n = 0;
  if (!r.Get(bound) || !r.Get(&n)) return false;
  if (n < 0 ||
      n > static_cast<int64_t>(dist::Channel::kMaxPayload / sizeof(int32_t))) {
    return false;
  }
  prefix->resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    if (!r.Get(&(*prefix)[static_cast<size_t>(i)])) return false;
  }
  return r.exhausted();
}

void PutItems(std::vector<uint8_t>* buf, const std::vector<ScoredId>& items) {
  Put<int64_t>(buf, static_cast<int64_t>(items.size()));
  for (const ScoredId& item : items) {
    Put<int32_t>(buf, item.id);
    Put<float>(buf, item.score);
  }
}

bool GetItems(PayloadReader* r, std::vector<ScoredId>* items) {
  int64_t n = 0;
  if (!r->Get(&n)) return false;
  if (n < 0 || n > static_cast<int64_t>(dist::Channel::kMaxPayload /
                                        (sizeof(int32_t) + sizeof(float)))) {
    return false;
  }
  items->resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    ScoredId& item = (*items)[static_cast<size_t>(i)];
    if (!r->Get(&item.id) || !r->Get(&item.score)) return false;
  }
  return true;
}

bool DecodeStatus(int32_t raw, ServeStatus* out) {
  if (raw < 0 || raw > static_cast<int32_t>(ServeStatus::kWorkerLost)) {
    return false;
  }
  *out = static_cast<ServeStatus>(raw);
  return true;
}

// Replica response payload:
// [i32 status][u64 queue_ns][u64 snapshot_version][i64 batch_size][items].
std::vector<uint8_t> EncodeReplicaResponse(const Response& resp) {
  std::vector<uint8_t> buf;
  Put<int32_t>(&buf, static_cast<int32_t>(resp.status));
  Put<uint64_t>(&buf, resp.queue_ns);
  Put<uint64_t>(&buf, resp.snapshot_version);
  Put<int64_t>(&buf, resp.batch_size);
  PutItems(&buf, resp.items);
  return buf;
}

bool DecodeReplicaResponse(const std::vector<uint8_t>& payload,
                           Response* resp) {
  PayloadReader r(payload);
  int32_t status_raw = 0;
  if (!r.Get(&status_raw) || !DecodeStatus(status_raw, &resp->status) ||
      !r.Get(&resp->queue_ns) || !r.Get(&resp->snapshot_version) ||
      !r.Get(&resp->batch_size) || !GetItems(&r, &resp->items)) {
    return false;
  }
  return r.exhausted();
}

// IVF shard response payload: [i32 status][u64 snapshot_version][items].
std::vector<uint8_t> EncodeIvfResponse(ServeStatus status, uint64_t version,
                                       const std::vector<ScoredId>& items) {
  std::vector<uint8_t> buf;
  Put<int32_t>(&buf, static_cast<int32_t>(status));
  Put<uint64_t>(&buf, version);
  PutItems(&buf, items);
  return buf;
}

bool DecodeIvfResponse(const std::vector<uint8_t>& payload, ServeStatus* status,
                       uint64_t* version, std::vector<ScoredId>* items) {
  PayloadReader r(payload);
  int32_t status_raw = 0;
  if (!r.Get(&status_raw) || !DecodeStatus(status_raw, status) ||
      !r.Get(version) || !GetItems(&r, items)) {
    return false;
  }
  return r.exhausted();
}

// Deterministic replica routing: FNV-1a over the prefix bytes. Not
// load- or liveness-aware on purpose — a given user always maps to the
// same worker, so a dead worker is an explicit kWorkerLost for its users
// until RespawnWorker, never a silent re-route to a replica that might
// hold different parameters.
uint64_t HashPrefix(const std::vector<int32_t>& prefix) {
  uint64_t h = 14695981039346656037ull;
  for (const int32_t id : prefix) {
    uint32_t bits = 0;
    std::memcpy(&bits, &id, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Per-shard candidate bound, and the length the merged list is cut to.
// Any bound >= topk + |exclude| yields the single-process response
// bitwise (the broker's determinism contract: a shorter IVF candidate
// list is a prefix of a longer one, and TopKFromRanked finds its K
// survivors within the first topk + |exclude| entries).
int64_t IvfLimit(const Request& request, bool exclude_history,
                 int64_t num_items) {
  int64_t limit = request.topk;
  if (exclude_history) limit += static_cast<int64_t>(request.prefix.size());
  if (num_items > 0) limit = std::min(limit, num_items);
  return std::max<int64_t>(limit, 1);
}

Response ImmediateResponse(ServeStatus status) {
  Response resp;
  resp.status = status;
  return resp;
}

std::future<Response> ImmediateFuture(ServeStatus status) {
  std::promise<Response> promise;
  promise.set_value(ImmediateResponse(status));
  return promise.get_future();
}

}  // namespace

const char* ToString(ShardMode mode) {
  switch (mode) {
    case ShardMode::kReplica:
      return "replica";
    case ShardMode::kIvfShard:
      return "ivf";
  }
  return "unknown";
}

ShardRouter::ShardRouter(PMMRecModel* model, const RouterOptions& options)
    : model_(model), options_(options) {
  PMM_CHECK(model_ != nullptr);
  PMM_CHECK_GE(options_.num_workers, 1);
  PMM_CHECK_GE(options_.handler_threads, 1);
  PMM_CHECK_GE(options_.broker.queue_capacity, 1);
  PMM_CHECK_MSG(model_->dataset() != nullptr,
                "ShardRouter requires a model with an attached dataset");

  // Anchor the monotonic clock base before any fork so router and workers
  // agree on absolute wire deadlines.
  trace::NowNs();
  total_threads_ =
      options_.total_threads > 0 ? options_.total_threads : GetNumThreads();

  if (options_.mode == ShardMode::kIvfShard) {
    PMM_CHECK_MSG(model_->AnnServingEnabled(),
                  "IVF-shard mode requires ANN serving (config.ann_serving)");
    // Build the snapshot (tables + IVF index) once, pre-fork: every worker
    // pins the same pages copy-on-write instead of building its own.
    const auto snap = model_->PublishServingSnapshot();
    PMM_CHECK(snap->ann);
    num_items_ = snap->num_items;
  } else {
    param_shm_ = std::make_unique<dist::SharedMemorySegment>(
        static_cast<size_t>(TotalParamNumel(model_->TrainableParameters())) *
        sizeof(float));
  }

  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int64_t w = 0; w < options_.num_workers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (int64_t w = 0; w < options_.num_workers; ++w) SpawnWorker(w);
}

ShardRouter::~ShardRouter() { Shutdown(); }

void ShardRouter::SpawnWorker(int64_t w) {
  dist::Channel router_end;
  dist::Channel worker_end;
  dist::Channel::CreatePair(&router_end, &worker_end);
  const pid_t pid = ::fork();
  PMM_CHECK_MSG(pid >= 0, "fork() failed spawning serving worker");
  if (pid == 0) {
    // Child. Drop every inherited router-side fd: keeping a copy of a
    // sibling's router end would defeat EOF-based death detection.
    for (auto& other : workers_) other->channel.Close();
    router_end.Close();
    dist::AfterForkChild(w, options_.num_workers, total_threads_);
    // Workers run at epoch level so serve.* counters and latency
    // histograms accumulate for the telemetry rollup.
    trace::SetLevel(trace::Level::kEpoch);
    WorkerMain(std::move(worker_end), w);
    ::_exit(0);
  }
  worker_end.Close();
  Worker& worker = *workers_[static_cast<size_t>(w)];
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    worker.pid = pid;
    worker.reaped = false;
    worker.channel = std::move(router_end);
    worker.alive = true;
  }
  worker.receiver = std::thread([this, w] { ReceiverLoop(w); });
}

void ShardRouter::ReceiverLoop(int64_t w) {
  Worker& worker = *workers_[static_cast<size_t>(w)];
  for (;;) {
    dist::Frame frame;
    const dist::ChannelStatus status = worker.channel.Recv(&frame);
    if (status == dist::ChannelStatus::kPeerDead) break;
    if (status == dist::ChannelStatus::kBadFrame) {
      PMM_TRACE_COUNT("serve.router.bad_frames", 1);
      continue;
    }
    switch (frame.type) {
      case dist::FrameType::kResponse:
        HandleResponse(w, std::move(frame));
        break;
      case dist::FrameType::kPublishAck:
      case dist::FrameType::kTelemetryReply: {
        std::unique_ptr<std::promise<std::pair<bool, std::vector<uint8_t>>>>
            control;
        {
          std::lock_guard<std::mutex> lock(worker.mu);
          control = std::move(worker.control);
        }
        if (control) control->set_value({true, std::move(frame.payload)});
        break;
      }
      default:
        break;
    }
  }
  MarkWorkerDead(w);
}

void ShardRouter::HandleResponse(int64_t w, dist::Frame frame) {
  Worker& worker = *workers_[static_cast<size_t>(w)];
  std::shared_ptr<Pending> pending;
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    const auto it = worker.outstanding.find(frame.request_id);
    if (it == worker.outstanding.end()) return;  // Already failed/finalized.
    pending = it->second;
    worker.outstanding.erase(it);
  }
  std::lock_guard<std::mutex> lock(pending->mu);
  if (pending->done) return;
  if (options_.mode == ShardMode::kReplica) {
    Response resp;
    PMM_CHECK_MSG(DecodeReplicaResponse(frame.payload, &resp),
                  "malformed replica worker response");
    resp.total_ns = trace::NowNs() - pending->submit_ns;
    resp.domain = 0;
    pending->done = true;
    pending->promise.set_value(std::move(resp));
    return;
  }
  ServeStatus status = ServeStatus::kOk;
  uint64_t version = 0;
  std::vector<ScoredId> items;
  PMM_CHECK_MSG(DecodeIvfResponse(frame.payload, &status, &version, &items),
                "malformed IVF shard response");
  if (status == ServeStatus::kDeadlineExceeded) {
    pending->deadline_exceeded = true;
  } else {
    PMM_CHECK(status == ServeStatus::kOk);
    pending->shard_items[static_cast<size_t>(w)] = std::move(items);
    pending->snapshot_version = version;
  }
  if (--pending->remaining == 0) FinalizeIvf(pending);
}

void ShardRouter::FinalizeIvf(const std::shared_ptr<Pending>& pending) {
  Response resp;
  resp.domain = 0;
  if (pending->worker_lost) {
    resp.status = ServeStatus::kWorkerLost;
  } else if (pending->deadline_exceeded) {
    resp.status = ServeStatus::kDeadlineExceeded;
  } else {
    resp.status = ServeStatus::kOk;
    std::vector<ScoredId> merged;
    size_t total = 0;
    for (const auto& shard : pending->shard_items) total += shard.size();
    merged.reserve(total);
    for (auto& shard : pending->shard_items) {
      merged.insert(merged.end(), shard.begin(), shard.end());
    }
    std::sort(merged.begin(), merged.end(), RanksBefore);
    // Cut to exactly the length the single-process candidate list would
    // have: min(limit, total scanned). When some shard capped at `limit`
    // the merged size is already >= limit; otherwise no shard dropped
    // anything and the merged size IS the total scanned count.
    const int64_t limit =
        IvfLimit(pending->request, options_.broker.exclude_history, num_items_);
    if (static_cast<int64_t>(merged.size()) > limit) {
      merged.resize(static_cast<size_t>(limit));
    }
    std::span<const int32_t> exclude;
    if (options_.broker.exclude_history) {
      exclude = std::span<const int32_t>(pending->request.prefix);
    }
    resp.items = TopKFromRanked(merged, pending->request.topk, exclude);
    resp.snapshot_version = pending->snapshot_version;
    resp.batch_size = 1;
  }
  resp.total_ns = trace::NowNs() - pending->submit_ns;
  pending->done = true;
  pending->promise.set_value(std::move(resp));
}

void ShardRouter::FailPending(const std::shared_ptr<Pending>& pending,
                              ServeStatus status) {
  std::lock_guard<std::mutex> lock(pending->mu);
  if (pending->done) return;
  pending->done = true;
  pending->worker_lost = (status == ServeStatus::kWorkerLost);
  Response resp;
  resp.status = status;
  resp.total_ns = trace::NowNs() - pending->submit_ns;
  pending->promise.set_value(std::move(resp));
}

void ShardRouter::MarkWorkerDead(int64_t w) {
  Worker& worker = *workers_[static_cast<size_t>(w)];
  std::unordered_map<uint64_t, std::shared_ptr<Pending>> orphaned;
  std::unique_ptr<std::promise<std::pair<bool, std::vector<uint8_t>>>> control;
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    worker.alive = false;
    orphaned.swap(worker.outstanding);
    control = std::move(worker.control);
  }
  if (control) control->set_value({false, {}});
  const ServeStatus status = stopping_.load(std::memory_order_acquire)
                                 ? ServeStatus::kShutdown
                                 : ServeStatus::kWorkerLost;
  for (const auto& entry : orphaned) FailPending(entry.second, status);
}

std::future<Response> ShardRouter::Submit(Request request) {
  const uint64_t submit_ns = trace::NowNs();
  if (stopping_.load(std::memory_order_acquire)) {
    return ImmediateFuture(ServeStatus::kShutdown);
  }
  if (request.prefix.empty() || request.topk < 1 || request.domain != 0) {
    return ImmediateFuture(ServeStatus::kInvalidRequest);
  }
  // IVF shards answer from the catalogue published before the fork, so an
  // out-of-catalogue id is rejected here; a replica worker's broker checks
  // the ids against the snapshot it pins.
  if (options_.mode == ShardMode::kIvfShard &&
      !std::all_of(request.prefix.begin(), request.prefix.end(),
                   [&](int32_t item) {
                     return item >= 0 && item < num_items_;
                   })) {
    return ImmediateFuture(ServeStatus::kInvalidRequest);
  }

  const uint64_t id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  auto pending = std::make_shared<Pending>();
  pending->submit_ns = submit_ns;

  dist::Frame frame;
  frame.type = dist::FrameType::kRequest;
  frame.request_id = id;
  frame.deadline_ns = static_cast<int64_t>(request.deadline_ns);

  if (options_.mode == ShardMode::kReplica) {
    frame.payload = EncodeRequest(request.topk, request.prefix);
    const int64_t w = static_cast<int64_t>(
        HashPrefix(request.prefix) %
        static_cast<uint64_t>(options_.num_workers));
    pending->request = std::move(request);
    pending->remaining = 1;
    auto future = pending->promise.get_future();
    Worker& worker = *workers_[static_cast<size_t>(w)];
    std::lock_guard<std::mutex> lock(worker.mu);
    if (!worker.alive) return ImmediateFuture(ServeStatus::kWorkerLost);
    if (static_cast<int64_t>(worker.outstanding.size()) >=
        options_.broker.queue_capacity) {
      return ImmediateFuture(ServeStatus::kQueueFull);
    }
    worker.outstanding.emplace(id, pending);
    if (worker.channel.Send(frame) != dist::ChannelStatus::kOk) {
      // Death race: the receiver will observe EOF and fail everything in
      // the map, this entry included — resolve through that single path.
      worker.channel.ShutdownSocket();
    }
    return future;
  }

  // IVF scatter: the response needs every shard, so admission requires
  // every worker alive with queue room.
  const int64_t limit =
      IvfLimit(request, options_.broker.exclude_history, num_items_);
  frame.payload = EncodeRequest(limit, request.prefix);
  pending->request = std::move(request);
  pending->remaining = options_.num_workers;
  pending->shard_items.resize(static_cast<size_t>(options_.num_workers));
  auto future = pending->promise.get_future();

  auto unregister_first = [&](int64_t count) {
    for (int64_t v = 0; v < count; ++v) {
      Worker& worker = *workers_[static_cast<size_t>(v)];
      std::lock_guard<std::mutex> lock(worker.mu);
      worker.outstanding.erase(id);
    }
  };
  for (int64_t w = 0; w < options_.num_workers; ++w) {
    Worker& worker = *workers_[static_cast<size_t>(w)];
    std::lock_guard<std::mutex> lock(worker.mu);
    if (!worker.alive) {
      unregister_first(w);
      return ImmediateFuture(ServeStatus::kWorkerLost);
    }
    if (static_cast<int64_t>(worker.outstanding.size()) >=
        options_.broker.queue_capacity) {
      unregister_first(w);
      return ImmediateFuture(ServeStatus::kQueueFull);
    }
    worker.outstanding.emplace(id, pending);
  }
  for (int64_t w = 0; w < options_.num_workers; ++w) {
    Worker& worker = *workers_[static_cast<size_t>(w)];
    std::lock_guard<std::mutex> lock(worker.mu);
    if (!worker.alive) continue;  // Receiver already failed the pending.
    if (worker.channel.Send(frame) != dist::ChannelStatus::kOk) {
      worker.channel.ShutdownSocket();  // Let the receiver resolve it.
    }
  }
  return future;
}

Response ShardRouter::Recommend(std::vector<int32_t> prefix, int64_t topk,
                                uint64_t deadline_ns) {
  Request request;
  request.prefix = std::move(prefix);
  request.topk = topk;
  request.deadline_ns = deadline_ns;
  return Submit(std::move(request)).get();
}

bool ShardRouter::ControlExchange(int64_t w, dist::FrameType type,
                                  std::vector<uint8_t> payload,
                                  std::vector<uint8_t>* reply) {
  Worker& worker = *workers_[static_cast<size_t>(w)];
  std::future<std::pair<bool, std::vector<uint8_t>>> future;
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    if (!worker.alive) return false;
    PMM_CHECK_MSG(worker.control == nullptr,
                  "one control exchange at a time per worker");
    worker.control = std::make_unique<
        std::promise<std::pair<bool, std::vector<uint8_t>>>>();
    future = worker.control->get_future();
    dist::Frame frame;
    frame.type = type;
    frame.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    frame.payload = std::move(payload);
    if (worker.channel.Send(frame) != dist::ChannelStatus::kOk) {
      worker.control = nullptr;
      return false;
    }
  }
  auto result = future.get();
  if (!result.first) return false;
  if (reply != nullptr) *reply = std::move(result.second);
  return true;
}

void ShardRouter::PublishParams() {
  PMM_CHECK_MSG(options_.mode == ShardMode::kReplica,
                "PublishParams is a replica-mode operation (IVF shards pin "
                "the pre-fork snapshot)");
  PMM_CHECK(!stopping_.load(std::memory_order_acquire));
  CopyParamsToFlat(model_->TrainableParameters(),
                   static_cast<float*>(param_shm_->data()));
  // Sequential acks keep the flat block stable while each worker copies:
  // the next publish cannot start rewriting it before every worker that
  // is still alive finished reading this one.
  for (int64_t w = 0; w < options_.num_workers; ++w) {
    ControlExchange(w, dist::FrameType::kPublish, {}, nullptr);
  }
}

std::vector<trace::TelemetrySnapshot> ShardRouter::CollectWorkerTelemetry() {
  std::vector<trace::TelemetrySnapshot> out(
      static_cast<size_t>(options_.num_workers));
  for (int64_t w = 0; w < options_.num_workers; ++w) {
    std::vector<uint8_t> reply;
    if (!ControlExchange(w, dist::FrameType::kTelemetry, {}, &reply)) continue;
    const std::string text(reply.begin(), reply.end());
    trace::ParseTelemetry(text, &out[static_cast<size_t>(w)]);
  }
  return out;
}

void ShardRouter::KillWorker(int64_t w) {
  Worker& worker = *workers_[static_cast<size_t>(w)];
  pid_t pid = -1;
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    pid = worker.pid;
    if (worker.reaped) return;
  }
  PMM_CHECK(pid > 0);
  ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    worker.reaped = true;
  }
  // The kernel closed the worker's channel end; the receiver sees EOF,
  // runs MarkWorkerDead, and fails every outstanding request with
  // kWorkerLost. Join so both are guaranteed done on return.
  if (worker.receiver.joinable()) worker.receiver.join();
}

void ShardRouter::RespawnWorker(int64_t w) {
  Worker& worker = *workers_[static_cast<size_t>(w)];
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    PMM_CHECK_MSG(!worker.alive, "RespawnWorker target is still alive");
  }
  if (worker.receiver.joinable()) worker.receiver.join();
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    PMM_CHECK(worker.outstanding.empty());
    worker.channel.Close();
  }
  SpawnWorker(w);
}

bool ShardRouter::worker_alive(int64_t w) const {
  const Worker& worker = *workers_[static_cast<size_t>(w)];
  std::lock_guard<std::mutex> lock(worker.mu);
  return worker.alive;
}

void ShardRouter::Shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  for (auto& wp : workers_) {
    std::lock_guard<std::mutex> lock(wp->mu);
    if (wp->channel.valid()) wp->channel.ShutdownSocket();
  }
  // Each receiver wakes with kPeerDead, resolves its worker's outstanding
  // requests with kShutdown (stopping_ is set), and exits.
  for (auto& wp : workers_) {
    if (wp->receiver.joinable()) wp->receiver.join();
  }
  for (auto& wp : workers_) {
    Worker& worker = *wp;
    if (worker.pid > 0 && !worker.reaped) {
      int status = 0;
      while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
      }
      worker.reaped = true;
    }
    worker.channel.Close();
  }
}

// --- Worker (child process) side --------------------------------------------

void ShardRouter::WorkerMain(dist::Channel channel, int64_t w) {
  if (options_.mode == ShardMode::kReplica) {
    WorkerMainReplica(channel);
  } else {
    WorkerMainIvf(channel, w);
  }
}

void ShardRouter::WorkerMainReplica(dist::Channel& channel) {
  BrokerOptions broker_options = options_.broker;
  broker_options.live_updates = true;
  RequestBroker broker(model_, broker_options);
  float* const param_flat =
      param_shm_ ? static_cast<float*>(param_shm_->data()) : nullptr;
  std::mutex publish_mu;

  auto handler = [&]() {
    for (;;) {
      dist::Frame frame;
      const dist::ChannelStatus status = channel.Recv(&frame);
      if (status == dist::ChannelStatus::kPeerDead) return;
      if (status == dist::ChannelStatus::kBadFrame) {
        PMM_TRACE_COUNT("serve.worker.bad_frames", 1);
        continue;
      }
      dist::Frame out;
      out.request_id = frame.request_id;
      switch (frame.type) {
        case dist::FrameType::kRequest: {
          Request request;
          int64_t topk = 0;
          if (!DecodeRequest(frame.payload, &topk, &request.prefix)) {
            PMM_TRACE_COUNT("serve.worker.bad_frames", 1);
            break;
          }
          request.topk = topk;
          request.deadline_ns =
              frame.deadline_ns > 0 ? static_cast<uint64_t>(frame.deadline_ns)
                                    : 0;
          // This handler thread parks on the broker future; concurrency
          // comes from the other handler threads.
          Response resp = broker.Submit(std::move(request)).get();
          PMM_TRACE_COUNT("serve.worker.completed", 1);
          out.type = dist::FrameType::kResponse;
          out.payload = EncodeReplicaResponse(resp);
          if (channel.Send(out) != dist::ChannelStatus::kOk) return;
          break;
        }
        case dist::FrameType::kPublish: {
          std::lock_guard<std::mutex> lock(publish_mu);
          CopyFlatToParams(param_flat, model_->TrainableParameters());
          // Without the bump, snapshot hot-add reuse ("unchanged param
          // version") would serve stale rows for the pre-publish items.
          BumpParamUpdateVersion();
          model_->PublishServingSnapshot();
          out.type = dist::FrameType::kPublishAck;
          if (channel.Send(out) != dist::ChannelStatus::kOk) return;
          break;
        }
        case dist::FrameType::kTelemetry: {
          const std::string text = trace::SerializeTelemetry();
          out.type = dist::FrameType::kTelemetryReply;
          out.payload.assign(text.begin(), text.end());
          if (channel.Send(out) != dist::ChannelStatus::kOk) return;
          break;
        }
        case dist::FrameType::kShutdown:
          return;
        default:
          break;
      }
    }
  };

  std::vector<std::thread> extra;
  for (int64_t t = 1; t < options_.handler_threads; ++t) {
    extra.emplace_back(handler);
  }
  handler();
  for (auto& t : extra) t.join();
  broker.Shutdown();
}

void ShardRouter::WorkerMainIvf(dist::Channel& channel, int64_t w) {
  // Pin the snapshot the parent published pre-fork: the parameter version
  // is unchanged in this child, so this pins (never rebuilds) the
  // inherited, fully self-contained live snapshot.
  const auto snap = model_->PinForServing();
  PMM_CHECK(snap->ann);
  const int64_t nlist = snap->ann_index(0).nlist();
  const int64_t list_lo = w * nlist / options_.num_workers;
  const int64_t list_hi = (w + 1) * nlist / options_.num_workers;

  auto handler = [&]() {
    for (;;) {
      dist::Frame frame;
      const dist::ChannelStatus status = channel.Recv(&frame);
      if (status == dist::ChannelStatus::kPeerDead) return;
      if (status == dist::ChannelStatus::kBadFrame) {
        PMM_TRACE_COUNT("serve.worker.bad_frames", 1);
        continue;
      }
      dist::Frame out;
      out.request_id = frame.request_id;
      switch (frame.type) {
        case dist::FrameType::kRequest: {
          int64_t limit = 0;
          std::vector<std::vector<int32_t>> prefixes(1);
          if (!DecodeRequest(frame.payload, &limit, &prefixes[0])) {
            PMM_TRACE_COUNT("serve.worker.bad_frames", 1);
            break;
          }
          out.type = dist::FrameType::kResponse;
          if (frame.deadline_ns > 0 &&
              trace::NowNs() > static_cast<uint64_t>(frame.deadline_ns)) {
            out.payload = EncodeIvfResponse(ServeStatus::kDeadlineExceeded,
                                            snap->version, {});
          } else {
            const uint64_t t0 = trace::NowNs();
            auto results = model_->RetrieveShardCandidatesOn(
                snap, prefixes, limit, list_lo, list_hi);
            PMM_TRACE_OBSERVE("serve.latency_us", (trace::NowNs() - t0) / 1000);
            PMM_TRACE_COUNT("serve.worker.completed", 1);
            out.payload =
                EncodeIvfResponse(ServeStatus::kOk, snap->version, results[0]);
          }
          if (channel.Send(out) != dist::ChannelStatus::kOk) return;
          break;
        }
        case dist::FrameType::kTelemetry: {
          const std::string text = trace::SerializeTelemetry();
          out.type = dist::FrameType::kTelemetryReply;
          out.payload.assign(text.begin(), text.end());
          if (channel.Send(out) != dist::ChannelStatus::kOk) return;
          break;
        }
        case dist::FrameType::kShutdown:
          return;
        default:
          break;
      }
    }
  };

  std::vector<std::thread> extra;
  for (int64_t t = 1; t < options_.handler_threads; ++t) {
    extra.emplace_back(handler);
  }
  handler();
  for (auto& t : extra) t.join();
}

}  // namespace serve
}  // namespace pmmrec
