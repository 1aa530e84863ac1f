#include "core/serving.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>

#include "core/ivf.h"
#include "core/user_encoder.h"
#include "nn/optimizer.h"
#include "utils/rng.h"
#include "tensor/gemm.h"
#include "utils/check.h"
#include "utils/parallel.h"
#include "utils/trace.h"

namespace pmmrec {

// --- ServingSnapshot --------------------------------------------------------

ServingSnapshot::ServingSnapshot() = default;

ServingSnapshot::~ServingSnapshot() {
  // publish_ns != 0 marks a snapshot that actually served (was swapped
  // in); builder-abandoned snapshots don't count as retirements.
  if (publish_ns != 0) PMM_TRACE_COUNT("serve.snapshot.retired", 1);
}

const std::vector<float>& ServingSnapshot::table_data(int64_t t) const {
  return *table(t).impl()->data;
}

const IvfIndex& ServingSnapshot::ann_index(int64_t t) const {
  PMM_CHECK_GE(t, 0);
  PMM_CHECK_LT(t, static_cast<int64_t>(ann_indexes.size()));
  return *ann_indexes[static_cast<size_t>(t)];
}

// --- ItemTableCache ---------------------------------------------------------

ItemTableCache::ItemTableCache() = default;
ItemTableCache::~ItemTableCache() = default;

bool ItemTableCache::valid() const {
  return valid_.load(std::memory_order_acquire) &&
         built_param_version_.load(std::memory_order_acquire) ==
             ParamUpdateVersion();
}

std::shared_ptr<const ServingSnapshot> ItemTableCache::Pin() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (current_ != nullptr) PMM_TRACE_COUNT("serve.snapshot.pinned", 1);
  return current_;
}

int64_t ItemTableCache::num_tables() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return current_ != nullptr ? current_->num_tables() : 0;
}

const Tensor& ItemTableCache::table(int64_t t) const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  PMM_CHECK_MSG(current_ != nullptr, "no serving snapshot built yet");
  PMM_CHECK_GE(t, 0);
  PMM_CHECK_LT(t, current_->num_tables());
  return current_->table(t);
}

const std::vector<float>& ItemTableCache::table_data(int64_t t) const {
  return *table(t).impl()->data;
}

void ItemTableCache::EnableAnn(const IvfConfig& config) {
  // Invalidate when the index would differ from what a build under
  // `config` produces: first enable, or any parameter change. Re-enabling
  // with the identical config keeps a valid cache (idempotent, so the
  // model can call this on every serve entry point).
  std::lock_guard<std::mutex> lock(enable_mu_);
  const bool same = ann_enabled_.load(std::memory_order_relaxed) &&
                    ann_config_.nlist == config.nlist &&
                    ann_config_.nprobe == config.nprobe &&
                    ann_config_.train_iterations == config.train_iterations &&
                    ann_config_.train_sample == config.train_sample &&
                    ann_config_.seed == config.seed;
  if (same) return;
  valid_.store(false, std::memory_order_release);  // Build on next snapshot.
  ann_config_ = config;
  ann_enabled_.store(true, std::memory_order_release);
}

void ItemTableCache::SetExactScanTable(int64_t table) {
  PMM_CHECK_GE(table, -1);
  // Steady-state no-op without the lock: the model re-asserts its route
  // on every serve entry point, so the common path must be one acquire
  // load and no writes. Real transitions happen under enable_mu_.
  if (table == exact_scan_table_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(enable_mu_);
  if (table == exact_scan_table_.load(std::memory_order_relaxed)) return;
  if (table >= 0) valid_.store(false, std::memory_order_release);
  exact_scan_table_.store(table, std::memory_order_release);
}

bool ItemTableCache::Ensure(int64_t num_items,
                            const ChunkEncoder& encode_chunk) {
  PMM_CHECK_GT(num_items, 0);
  if (valid() &&
      num_items_.load(std::memory_order_acquire) == num_items) {
    PMM_TRACE_COUNT("infer.item_table.hits", 1);
    return false;
  }
  // Exactly-once build per staleness event: racers block here; the losers
  // re-check and find the winner's snapshot already published. (In strict
  // serving this wait IS the stall-on-rebuild the live mode eliminates.)
  std::lock_guard<std::mutex> build_lock(build_mu_);
  if (valid() &&
      num_items_.load(std::memory_order_acquire) == num_items) {
    PMM_TRACE_COUNT("infer.item_table.hits", 1);
    return false;
  }
  std::shared_ptr<const ServingSnapshot> base;
  if (valid_.load(std::memory_order_acquire)) {
    // Explicitly-invalidated caches never reuse rows; a fresh same-version
    // base enables the hot-add incremental encode inside BuildSnapshot.
    std::lock_guard<std::mutex> lock(snap_mu_);
    base = current_;
  }
  PublishSnapshot(BuildSnapshot(num_items, encode_chunk, base));
  return true;
}

std::shared_ptr<const ServingSnapshot> ItemTableCache::Publish(
    int64_t num_items, const ChunkEncoder& encode_chunk,
    const SnapshotFinisher& finish) {
  PMM_CHECK_GT(num_items, 0);
  std::lock_guard<std::mutex> build_lock(build_mu_);
  std::shared_ptr<const ServingSnapshot> base;
  if (valid_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(snap_mu_);
    base = current_;
  }
  std::shared_ptr<ServingSnapshot> snap =
      BuildSnapshot(num_items, encode_chunk, base);
  if (finish) finish(snap.get());
  std::shared_ptr<const ServingSnapshot> published = snap;
  PublishSnapshot(std::move(snap));
  return published;
}

std::shared_ptr<ServingSnapshot> ItemTableCache::BuildSnapshot(
    int64_t num_items, const ChunkEncoder& encode_chunk,
    const std::shared_ptr<const ServingSnapshot>& base) {
  PMM_TRACE_SCOPE_AT("serve.snapshot.build", kEpoch,
                     "serve.snapshot.build_ns");
  PMM_TRACE_COUNT("serve.snapshot.builds", 1);
  // Historical names kept live: the rebuild tests and dashboards count
  // snapshot builds under the item-table counters.
  PMM_TRACE_COUNT("infer.item_table.rebuilds", 1);
  PMM_TRACE_COUNT("infer.item_table.rows", num_items);

  // Record the version before encoding: a concurrent param update during
  // the build leaves the snapshot stale (strict mode) rather than
  // silently current; live mode pins it regardless.
  const uint64_t version = ParamUpdateVersion();

  bool ann = false;
  IvfConfig ann_config;
  int64_t exact_scan_table = -1;
  {
    std::lock_guard<std::mutex> lock(enable_mu_);
    ann = ann_enabled_.load(std::memory_order_relaxed);
    ann_config = ann_config_;
    exact_scan_table = exact_scan_table_.load(std::memory_order_relaxed);
  }

  auto snap = std::make_shared<ServingSnapshot>();
  snap->built_param_version = version;
  snap->num_items = num_items;
  snap->ann = ann;

  const auto ids_for_chunk = [num_items](int64_t chunk) {
    const int64_t start = chunk * kChunk;
    const int64_t count = std::min<int64_t>(kChunk, num_items - start);
    std::vector<int32_t> ids(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      ids[static_cast<size_t>(i)] = static_cast<int32_t>(start + i);
    }
    return ids;
  };

  // Catalogue hot-add reuse: when the base snapshot is at the same param
  // version (no step since it was built, not explicitly invalidated) and
  // the catalogue only grew, its fully-covered chunks are copied verbatim
  // and only the boundary chunk + the new tail are encoded. The chunk
  // grid is anchored at id 0 and the encoder is row-independent, so the
  // re-encoded boundary rows are bitwise the base's rows and the whole
  // table is bitwise a full re-encode.
  const bool hot_add = base != nullptr &&
                       base->built_param_version == version &&
                       num_items > base->num_items && base->num_tables() > 0;

  int64_t n_tables = 0;
  int64_t encode_from = 0;  // first chunk the parallel sweep must encode
  if (hot_add) {
    n_tables = base->num_tables();
    encode_from = base->num_items / kChunk;
    const int64_t copied_rows = encode_from * kChunk;
    snap->tables.assign(static_cast<size_t>(n_tables), Tensor());
    for (int64_t t = 0; t < n_tables; ++t) {
      const int64_t d = base->table(t).dim(1);
      Tensor table = Tensor::Zeros(Shape{num_items, d});
      std::memcpy(table.data(), base->table(t).data(),
                  static_cast<size_t>(copied_rows * d) * sizeof(float));
      snap->tables[static_cast<size_t>(t)] = std::move(table);
    }
    PMM_TRACE_COUNT("serve.snapshot.hot_add_rows",
                    num_items - base->num_items);
  } else {
    // Chunk 0 runs serially: it determines how many tables the encoder
    // produces and their widths, so storage can be allocated before the
    // parallel sweep over the remaining chunks.
    std::vector<Tensor> first;
    {
      InferenceMode inference;
      first = encode_chunk(ids_for_chunk(0));
    }
    PMM_CHECK_MSG(!first.empty(), "ChunkEncoder returned no tables");
    n_tables = static_cast<int64_t>(first.size());
    encode_from = 1;
    snap->tables.assign(first.size(), Tensor());
    const int64_t first_count = std::min<int64_t>(kChunk, num_items);
    for (int64_t t = 0; t < n_tables; ++t) {
      const Tensor& chunk = first[static_cast<size_t>(t)];
      PMM_CHECK_EQ(chunk.rank(), 2);
      PMM_CHECK_EQ(chunk.dim(0), first_count);
      const int64_t d = chunk.dim(1);
      Tensor table = Tensor::Zeros(Shape{num_items, d});
      std::memcpy(table.data(), chunk.data(),
                  static_cast<size_t>(first_count * d) * sizeof(float));
      snap->tables[static_cast<size_t>(t)] = std::move(table);
    }
  }

  std::vector<Tensor>& tables = snap->tables;
  const int64_t n_chunks = (num_items + kChunk - 1) / kChunk;
  ParallelFor(encode_from, n_chunks, /*grain=*/1,
              [&](int64_t c0, int64_t c1) {
    // Pool workers start grad-enabled; encoding must build no graphs and
    // allocate no grad storage.
    InferenceMode inference;
    for (int64_t c = c0; c < c1; ++c) {
      const int64_t start = c * kChunk;
      const int64_t count = std::min<int64_t>(kChunk, num_items - start);
      const std::vector<Tensor> reps = encode_chunk(ids_for_chunk(c));
      PMM_CHECK_EQ(static_cast<int64_t>(reps.size()), n_tables);
      for (int64_t t = 0; t < n_tables; ++t) {
        const Tensor& chunk = reps[static_cast<size_t>(t)];
        const int64_t d = tables[static_cast<size_t>(t)].dim(1);
        PMM_CHECK_EQ(chunk.dim(0), count);
        PMM_CHECK_EQ(chunk.dim(1), d);
        std::memcpy(tables[static_cast<size_t>(t)].data() + start * d,
                    chunk.data(),
                    static_cast<size_t>(count * d) * sizeof(float));
      }
    }
  });

  // The exact route's packed copy, packed once here rather than by every
  // scan (the whole table, also after a hot-add: packing is cheap next to
  // encoding).
  if (exact_scan_table >= 0) {
    PMM_CHECK_LT(exact_scan_table, n_tables);
    const Tensor& table = tables[static_cast<size_t>(exact_scan_table)];
    snap->exact_scan =
        gemm::PackNT(table.data(), num_items, table.dim(1), table.dim(1));
    snap->exact_scan_table = exact_scan_table;
    PMM_TRACE_COUNT("serve.snapshot.packed_bytes", snap->exact_scan.bytes());
  }

  // The IVF indexes are part of the same snapshot: retrain the coarse
  // quantizer and refill the inverted lists from the fresh tables, so a
  // fresh fp32 table never coexists with stale lists.
  if (ann) {
    snap->ann_indexes.resize(static_cast<size_t>(n_tables));
    for (int64_t t = 0; t < n_tables; ++t) {
      auto index = std::make_unique<IvfIndex>();
      index->Build(tables[static_cast<size_t>(t)].data(), num_items,
                   tables[static_cast<size_t>(t)].dim(1), ann_config);
      index->set_built_param_version(version);
      snap->ann_indexes[static_cast<size_t>(t)] = std::move(index);
    }
    PMM_TRACE_COUNT("ann.index.builds", 1);
  }

  return snap;
}

void ItemTableCache::PublishSnapshot(std::shared_ptr<ServingSnapshot> snap) {
  PMM_CHECK(snap != nullptr);
  const int64_t num_items = snap->num_items;
  const uint64_t version = snap->built_param_version;
  snap->version = snapshot_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t now = trace::NowNs();
  snap->publish_ns = now;
  std::shared_ptr<const ServingSnapshot> retired;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    retired = std::move(current_);
    current_ = std::move(snap);
  }
  if (retired != nullptr && now >= retired->publish_ns) {
    PMM_TRACE_OBSERVE("serve.snapshot.age_us",
                      (now - retired->publish_ns) / 1000);
  }
  PMM_TRACE_COUNT("serve.snapshot.swaps", 1);
  // Atomic mirrors are released *after* the pointer swap: a reader that
  // observes valid_ == true then takes snap_mu_ and necessarily sees the
  // snapshot that made it true (or a newer one).
  num_items_.store(num_items, std::memory_order_release);
  built_param_version_.store(version, std::memory_order_release);
  valid_.store(true, std::memory_order_release);
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  // `retired` drops here; the snapshot itself is freed when the last
  // in-flight pin releases it (shared_ptr refcount is the grace period).
}

}  // namespace pmmrec
