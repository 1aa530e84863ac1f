#include "serve/broker.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "utils/check.h"

namespace pmmrec {
namespace serve {

const char* ToString(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk: return "OK";
    case ServeStatus::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case ServeStatus::kQueueFull: return "QUEUE_FULL";
    case ServeStatus::kShutdown: return "SHUTDOWN";
    case ServeStatus::kInvalidRequest: return "INVALID_REQUEST";
  }
  return "UNKNOWN";
}

uint64_t DeadlineFromNow(int64_t budget_us) {
  PMM_CHECK_GE(budget_us, 0);
  return trace::NowNs() + static_cast<uint64_t>(budget_us) * 1000;
}

RequestBroker::RequestBroker(PMMRecModel* model, const BrokerOptions& options)
    : RequestBroker(std::vector<DomainSpec>{DomainSpec{"default", model}},
                    options) {}

RequestBroker::RequestBroker(const std::vector<DomainSpec>& domains,
                             const BrokerOptions& options)
    : options_([&options] {
        BrokerOptions o = options;
        o.num_workers = std::max<int64_t>(1, o.num_workers);
        o.max_batch = std::max<int64_t>(1, o.max_batch);
        o.max_wait_us = std::max<int64_t>(0, o.max_wait_us);
        o.queue_capacity = std::max<int64_t>(1, o.queue_capacity);
        return o;
      }()) {
  PMM_CHECK_MSG(!domains.empty(), "RequestBroker requires >= 1 domain");
  domains_.reserve(domains.size());
  for (const DomainSpec& spec : domains) {
    PMM_CHECK(spec.model != nullptr);
    PMM_CHECK_MSG(spec.model->dataset() != nullptr,
                  "RequestBroker requires an attached dataset");
    Domain domain;
    domain.name = spec.name;
    domain.model = spec.model;
    domain.latency_us =
        &trace::Histogram::Get("serve.latency_us[domain=" + spec.name + "]");
    // Build the initial snapshot before any worker exists: no request pays
    // the first-build latency and the workers start against a published
    // version. Live mode publishes a self-contained snapshot (frozen
    // encoder clone) so updates can land while workers keep pinning the
    // previous one.
    if (options_.live_updates) {
      spec.model->PublishServingSnapshot();
    } else {
      spec.model->PrepareForEval();
    }
    domains_.push_back(std::move(domain));
  }
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int64_t w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

RequestBroker::~RequestBroker() { Shutdown(); }

std::future<Response> RequestBroker::Submit(Request request) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  const uint64_t now = trace::NowNs();

  const auto reject = [&](ServeStatus status) {
    Response response;
    response.status = status;
    promise.set_value(std::move(response));
    return std::move(future);
  };

  if (request.prefix.empty() || request.topk <= 0 || request.domain < 0 ||
      request.domain >= static_cast<int64_t>(domains_.size())) {
    stats_.rejected_invalid.fetch_add(1, std::memory_order_relaxed);
    PMM_TRACE_COUNT("serve.rejected_invalid", 1);
    return reject(ServeStatus::kInvalidRequest);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return reject(ServeStatus::kShutdown);
    }
    if (static_cast<int64_t>(queue_.size()) >= options_.queue_capacity) {
      stats_.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
      PMM_TRACE_COUNT("serve.rejected_queue_full", 1);
      return reject(ServeStatus::kQueueFull);
    }
    queue_.push_back(Pending{std::move(request), std::move(promise), now});
    stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  }
  PMM_TRACE_COUNT("serve.requests", 1);
  cv_.notify_one();
  return future;
}

Response RequestBroker::Recommend(std::vector<int32_t> prefix, int64_t topk,
                                  uint64_t deadline_ns) {
  Request request;
  request.prefix = std::move(prefix);
  request.topk = topk;
  request.deadline_ns = deadline_ns;
  return Submit(std::move(request)).get();
}

std::vector<RequestBroker::Pending> RequestBroker::NextBatch() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || (!queue_.empty() && !paused_); });
    if (stop_) return {};

    // Coalescing policy: from the moment work is available, linger up to
    // max_wait_us for the queue to fill toward max_batch. Submitters
    // notify on every enqueue, so a filled batch is taken without waiting
    // out the budget.
    if (options_.max_wait_us > 0) {
      const uint64_t budget_ns =
          static_cast<uint64_t>(options_.max_wait_us) * 1000;
      const uint64_t t0 = trace::NowNs();
      while (!stop_ && !paused_ &&
             static_cast<int64_t>(queue_.size()) < options_.max_batch) {
        const uint64_t elapsed = trace::NowNs() - t0;
        if (elapsed >= budget_ns) break;
        cv_.wait_for(lock, std::chrono::nanoseconds(budget_ns - elapsed));
      }
      if (stop_) return {};
    }

    std::vector<Pending> batch;
    batch.reserve(static_cast<size_t>(
        std::min<int64_t>(options_.max_batch,
                          static_cast<int64_t>(queue_.size()))));
    while (!queue_.empty() &&
           static_cast<int64_t>(batch.size()) < options_.max_batch) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    // A sibling worker may have drained the queue during the linger; an
    // empty batch means "go back to waiting", never "shut down".
    if (!batch.empty()) return batch;
  }
}

std::shared_ptr<const ServingSnapshot> RequestBroker::PinSnapshot(
    Domain& domain) {
  if (options_.live_updates) {
    // Workers never build in live mode — the updater owns publishing.
    // A pin therefore always lands on a complete, self-contained version.
    std::shared_ptr<const ServingSnapshot> snap =
        domain.model->item_table_cache().Pin();
    PMM_CHECK_MSG(snap != nullptr && snap->user_encoder != nullptr,
                  "live_updates requires snapshots published via "
                  "PublishServingSnapshot()");
    return snap;
  }
  // Strict mode: a stale snapshot (a parameter update landed between
  // batches) is rebuilt on first pin. Racing workers serialize on the
  // cache's build mutex; whichever wins rebuilds, the rest re-check and
  // fall through, so a single invalidation costs exactly one rebuild —
  // and the rebuild covers the fp32 table plus whatever rides along
  // (the IVF lists), so no route can see a stale structure.
  bool rebuilt = false;
  std::shared_ptr<const ServingSnapshot> snap =
      domain.model->PinForServing(&rebuilt);
  if (rebuilt) {
    stats_.snapshot_rebuilds.fetch_add(1, std::memory_order_relaxed);
    PMM_TRACE_COUNT("serve.cache_rebuilds", 1);
  }
  return snap;
}

void RequestBroker::ProcessBatch(std::vector<Pending> batch) {
  const uint64_t dequeue_ns = trace::NowNs();

  // Shed requests whose deadline passed while they sat in the queue; the
  // deadline is checked once, here — work started is work finished.
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (Pending& pending : batch) {
    if (pending.request.deadline_ns != 0 &&
        dequeue_ns > pending.request.deadline_ns) {
      Response response;
      response.status = ServeStatus::kDeadlineExceeded;
      response.queue_ns = dequeue_ns - pending.enqueue_ns;
      response.total_ns = response.queue_ns;
      stats_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      PMM_TRACE_COUNT("serve.deadline_exceeded", 1);
      pending.promise.set_value(std::move(response));
      continue;
    }
    live.push_back(std::move(pending));
  }
  if (live.empty()) return;
  const int64_t coalesced = static_cast<int64_t>(live.size());

  // Split the coalesced batch by domain: coalescing amortized the queue
  // wakeups across domains; scoring stays single-model. The single-domain
  // case takes this loop once with the whole batch.
  if (domains_.size() == 1) {
    ProcessDomainBatch(domains_[0], std::move(live), dequeue_ns, coalesced);
    return;
  }
  std::vector<std::vector<Pending>> per_domain(domains_.size());
  for (Pending& pending : live) {
    per_domain[static_cast<size_t>(pending.request.domain)].push_back(
        std::move(pending));
  }
  for (size_t d = 0; d < per_domain.size(); ++d) {
    if (per_domain[d].empty()) continue;
    ProcessDomainBatch(domains_[d], std::move(per_domain[d]), dequeue_ns,
                       coalesced);
  }
}

void RequestBroker::ProcessDomainBatch(Domain& domain,
                                       std::vector<Pending> live,
                                       uint64_t dequeue_ns,
                                       int64_t coalesced_size) {
  // Request collapsing: identical prefixes in this slice map onto one
  // scored row. `prefixes` keeps the unique rows (these go to the scoring
  // call and to top-K exclusion); row_of[i] is live request i's row.
  std::vector<std::vector<int32_t>> prefixes;
  std::vector<int64_t> row_of(live.size());
  prefixes.reserve(live.size());
  if (options_.merge_duplicates) {
    std::map<std::vector<int32_t>, int64_t> row_index;
    for (size_t i = 0; i < live.size(); ++i) {
      const auto [it, inserted] = row_index.try_emplace(
          std::move(live[i].request.prefix),
          static_cast<int64_t>(prefixes.size()));
      if (inserted) prefixes.push_back(it->first);
      row_of[i] = it->second;
    }
  } else {
    for (size_t i = 0; i < live.size(); ++i) {
      row_of[i] = static_cast<int64_t>(prefixes.size());
      prefixes.push_back(std::move(live[i].request.prefix));
    }
  }
  const int64_t merged =
      static_cast<int64_t>(live.size() - prefixes.size());
  if (merged > 0) {
    stats_.merged_requests.fetch_add(static_cast<uint64_t>(merged),
                                     std::memory_order_relaxed);
    PMM_TRACE_COUNT("serve.merged_requests", merged);
  }

  // Pin the version this whole slice is answered from; everything below —
  // id validation, candidate limit, retrieval, re-rank — reads only the
  // snapshot, so a publish landing mid-batch cannot mix versions into
  // these responses.
  std::shared_ptr<const ServingSnapshot> snap = PinSnapshot(domain);
  DropOutOfCatalogue(*snap, &live, &prefixes, &row_of, dequeue_ns);
  if (live.empty()) return;

  const int64_t g = static_cast<int64_t>(live.size());
  stats_.batches.fetch_add(1, std::memory_order_relaxed);
  stats_.batched_requests.fetch_add(static_cast<uint64_t>(g),
                                    std::memory_order_relaxed);
  uint64_t prev_max = stats_.max_batch.load(std::memory_order_relaxed);
  while (prev_max < static_cast<uint64_t>(g) &&
         !stats_.max_batch.compare_exchange_weak(
             prev_max, static_cast<uint64_t>(g), std::memory_order_relaxed)) {
  }
  PMM_TRACE_COUNT("serve.batches", 1);
  PMM_TRACE_COUNT("serve.batched_requests", g);
  PMM_TRACE_OBSERVE("serve.batch_size", g);

  // Candidate limit for the exact route: large enough that every
  // request's eligible top-K survives the candidate stage (limit >=
  // topk + |exclude|, with the deduped exclusion set never larger than
  // the raw prefix), clamped to the snapshot's catalogue — hot-added
  // items become reachable the moment their snapshot is pinned. This is
  // what makes TopKFromRanked over the candidates bitwise TopKSelect over
  // the full score row — the CandidateSource refactor changes no response
  // bits in exact mode.
  int64_t limit = 1;
  for (int64_t i = 0; i < g; ++i) {
    const size_t row = static_cast<size_t>(row_of[static_cast<size_t>(i)]);
    const int64_t need =
        live[static_cast<size_t>(i)].request.topk +
        (options_.exclude_history
             ? static_cast<int64_t>(prefixes[row].size())
             : 0);
    limit = std::max(limit, need);
  }
  limit = std::min(limit, snap->num_items);

  std::vector<std::vector<ScoredId>> candidates;
  {
    PMM_TRACE_SCOPE_AT("serve.batch", kEpoch, "serve.batch.ns");
    candidates = domain.model->RetrieveCandidatesOn(snap, prefixes, limit);
  }
  if (domain.model->AnnServingEnabled()) {
    stats_.ann_batches.fetch_add(1, std::memory_order_relaxed);
    PMM_TRACE_COUNT("serve.ann_batches", 1);
  }
  for (int64_t i = 0; i < g; ++i) {
    const size_t row = static_cast<size_t>(row_of[static_cast<size_t>(i)]);
    Response response;
    response.status = ServeStatus::kOk;
    {
      PMM_TRACE_SCOPE_AT("serve.topk", kOp, "serve.topk.ns");
      response.items = TopKFromRanked(
          candidates[row], live[static_cast<size_t>(i)].request.topk,
          options_.exclude_history
              ? std::span<const int32_t>(prefixes[row])
              : std::span<const int32_t>());
    }
    response.queue_ns =
        dequeue_ns - live[static_cast<size_t>(i)].enqueue_ns;
    response.total_ns =
        trace::NowNs() - live[static_cast<size_t>(i)].enqueue_ns;
    response.batch_size = coalesced_size;
    response.snapshot_version = snap->version;
    response.domain = live[static_cast<size_t>(i)].request.domain;
    stats_.completed.fetch_add(1, std::memory_order_relaxed);
    PMM_TRACE_OBSERVE("serve.latency_us", response.total_ns / 1000);
    domain.latency_us->Observe(response.total_ns / 1000);
    PMM_TRACE_OBSERVE("serve.queue_wait_us", response.queue_ns / 1000);
    live[static_cast<size_t>(i)].promise.set_value(std::move(response));
  }
}

void RequestBroker::DropOutOfCatalogue(
    const ServingSnapshot& snap, std::vector<Pending>* live,
    std::vector<std::vector<int32_t>>* prefixes, std::vector<int64_t>* row_of,
    uint64_t dequeue_ns) {
  // Valid ids are [0, num_items) of the pinned version: a hot-add grows
  // the range from the snapshot that carries the new rows.
  std::vector<int64_t> kept_row(prefixes->size(), -1);
  int64_t kept = 0;
  for (size_t r = 0; r < prefixes->size(); ++r) {
    const std::vector<int32_t>& prefix = (*prefixes)[r];
    const bool valid = std::all_of(
        prefix.begin(), prefix.end(),
        [&](int32_t item) { return item >= 0 && item < snap.num_items; });
    if (valid) kept_row[r] = kept++;
  }
  if (kept == static_cast<int64_t>(prefixes->size())) return;

  std::vector<std::vector<int32_t>> kept_prefixes;
  kept_prefixes.reserve(static_cast<size_t>(kept));
  for (size_t r = 0; r < prefixes->size(); ++r) {
    if (kept_row[r] >= 0) kept_prefixes.push_back(std::move((*prefixes)[r]));
  }
  std::vector<Pending> kept_live;
  std::vector<int64_t> kept_row_of;
  for (size_t i = 0; i < live->size(); ++i) {
    Pending& pending = (*live)[i];
    const int64_t row = kept_row[static_cast<size_t>((*row_of)[i])];
    if (row >= 0) {
      kept_live.push_back(std::move(pending));
      kept_row_of.push_back(row);
      continue;
    }
    Response response;
    response.status = ServeStatus::kInvalidRequest;
    response.queue_ns = dequeue_ns - pending.enqueue_ns;
    response.total_ns = trace::NowNs() - pending.enqueue_ns;
    response.snapshot_version = snap.version;
    response.domain = pending.request.domain;
    stats_.rejected_invalid.fetch_add(1, std::memory_order_relaxed);
    PMM_TRACE_COUNT("serve.rejected_invalid", 1);
    pending.promise.set_value(std::move(response));
  }
  *live = std::move(kept_live);
  *prefixes = std::move(kept_prefixes);
  *row_of = std::move(kept_row_of);
}

void RequestBroker::WorkerLoop() {
  for (;;) {
    std::vector<Pending> batch = NextBatch();
    if (batch.empty()) return;  // Shutdown; leftovers are flushed there.
    ProcessBatch(std::move(batch));
  }
}

void RequestBroker::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    paused_ = false;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  std::deque<Pending> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(queue_);
  }
  for (Pending& pending : leftover) {
    Response response;
    response.status = ServeStatus::kShutdown;
    response.total_ns = trace::NowNs() - pending.enqueue_ns;
    stats_.shutdown_flushed.fetch_add(1, std::memory_order_relaxed);
    pending.promise.set_value(std::move(response));
  }
}

void RequestBroker::Pause() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = true;
  }
  cv_.notify_all();
}

void RequestBroker::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

BrokerStats RequestBroker::stats() const {
  BrokerStats out;
  out.submitted = stats_.submitted.load(std::memory_order_relaxed);
  out.completed = stats_.completed.load(std::memory_order_relaxed);
  out.deadline_exceeded =
      stats_.deadline_exceeded.load(std::memory_order_relaxed);
  out.rejected_queue_full =
      stats_.rejected_queue_full.load(std::memory_order_relaxed);
  out.rejected_invalid =
      stats_.rejected_invalid.load(std::memory_order_relaxed);
  out.shutdown_flushed =
      stats_.shutdown_flushed.load(std::memory_order_relaxed);
  out.batches = stats_.batches.load(std::memory_order_relaxed);
  out.batched_requests =
      stats_.batched_requests.load(std::memory_order_relaxed);
  out.max_batch = stats_.max_batch.load(std::memory_order_relaxed);
  out.merged_requests =
      stats_.merged_requests.load(std::memory_order_relaxed);
  out.ann_batches = stats_.ann_batches.load(std::memory_order_relaxed);
  out.snapshot_rebuilds =
      stats_.snapshot_rebuilds.load(std::memory_order_relaxed);
  return out;
}

}  // namespace serve
}  // namespace pmmrec
