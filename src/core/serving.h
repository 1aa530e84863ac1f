#ifndef PMMREC_CORE_SERVING_H_
#define PMMREC_CORE_SERVING_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "utils/topk.h"

namespace pmmrec {

// --- ANN candidate retrieval (DESIGN.md "Candidate retrieval") --------------

// Coarse-quantizer parameters of the IVF index (core/ivf.h). All-zero
// defaults mean "auto": nlist ~= sqrt(n_rows), nprobe = max(1, nlist/32),
// train_sample = min(n_rows, max(64 * nlist, 4096)).
struct IvfConfig {
  int64_t nlist = 0;   // Coarse centroids. 0 = auto; else in [1, n_rows].
  int64_t nprobe = 0;  // Lists probed per query. 0 = auto; else [1, nlist].
  // Lloyd iterations for the coarse k-means (>= 1).
  int64_t train_iterations = 10;
  // Training points subsampled (deterministic stride) from the table;
  // 0 = auto. Bounds the trainer at catalogue scale.
  int64_t train_sample = 0;
  // Seed of the k-means init/re-seed stream; fixed so index builds are
  // reproducible independent of any model RNG state.
  uint64_t seed = 0x1f1dULL;
};

class IvfIndex;      // core/ivf.h; forward-declared to keep layering acyclic.
class UserEncoder;   // core/user_encoder.h (live snapshots own a clone).
class Rng;           // utils/rng.h (ctor dependency of the encoder clone).

// --- Versioned serving snapshots (DESIGN.md "Versioned serving snapshots") --
//
// One immutable bundle of everything a worker needs to answer a request:
// the fp32 item table(s), the IVF indexes, and — for live-published
// snapshots — a frozen clone of the user encoder. Workers pin the current
// snapshot with a shared_ptr copy and answer the whole batch from it; a
// builder assembles vN+1 off the hot path and publishes it with one
// pointer swap. A retired snapshot is freed when its last in-flight pin
// drops (shared_ptr refcount IS the RCU grace period).
//
// Two flavours, distinguished by `user_encoder`:
//  - strict (user_encoder == nullptr): the snapshot freezes tables only;
//    scoring runs through the model's live encoder, and
//    staleness is still policed by the global ParamUpdateVersion. This is
//    the default mode and is bitwise + semantically identical to the
//    historical rebuild-in-place cache.
//  - live (user_encoder != nullptr): the snapshot also owns a deep-copied
//    eval-mode encoder, so a request admitted under vN is answered
//    entirely from vN even while a trainer thread keeps stepping the live
//    parameters. IVF version checks are off — consistency is the
//    snapshot's immutability, not the global counter.
struct ServingSnapshot {
  ServingSnapshot();
  ~ServingSnapshot();  // Out-of-line: IvfIndex/UserEncoder are
                       // incomplete here; also counts retirement.
  ServingSnapshot(const ServingSnapshot&) = delete;
  ServingSnapshot& operator=(const ServingSnapshot&) = delete;

  // Monotonic publish sequence of the owning cache (1, 2, ...).
  uint64_t version = 0;
  // ParamUpdateVersion() captured before encoding began.
  uint64_t built_param_version = 0;
  // trace::NowNs() at publish time (snapshot age telemetry).
  uint64_t publish_ns = 0;
  int64_t num_items = 0;

  std::vector<Tensor> tables;
  // Empty unless ann; each index records the nlist and nprobe it was
  // built with.
  std::vector<std::unique_ptr<IvfIndex>> ann_indexes;
  bool ann = false;

  // Packed copy (gemm::PackNT) of the table the owning model's exact
  // route scans, so that scan never re-packs per batch. Built only for a
  // model serving that route (ItemTableCache::SetExactScanTable); IVF
  // snapshots and the baselines' tables carry none. -1: no copy.
  int64_t exact_scan_table = -1;
  gemm::PackedNT exact_scan;

  // Live-mode extras; null for strict snapshots.
  std::unique_ptr<Rng> encoder_rng;          // owns the clone's RNG stream
  std::unique_ptr<UserEncoder> user_encoder; // frozen eval-mode clone

  int64_t num_tables() const { return static_cast<int64_t>(tables.size()); }
  const Tensor& table(int64_t t) const { return tables[static_cast<size_t>(t)]; }
  const std::vector<float>& table_data(int64_t t) const;
  int64_t width(int64_t t) const { return table(t).dim(1); }
  const IvfIndex& ann_index(int64_t t) const;
  // The packed copy of table t, or null when the snapshot has none.
  const gemm::PackedNT* packed_table(int64_t t) const {
    return t == exact_scan_table ? &exact_scan : nullptr;
  }
};

// Frozen-model serving store: builds ServingSnapshots of the catalogue's
// representation table(s) and hands out pins on the current one (see
// DESIGN.md "Inference path" / "Versioned serving snapshots").
//
// A cache instance belongs to one model. Each snapshot holds one or more
// aligned [num_items, d_t] tables (PMMRec caches the fused item
// representations; the sequential baselines cache raw reps plus projected
// scoring keys). Validity of the *current* snapshot is two-layered:
//  - explicit: Invalidate() is called by the owning model whenever its
//    identity changes (dataset attach, transfer, encoder init, training
//    mode re-entered);
//  - implicit: the snapshot records ParamUpdateVersion() (nn/optimizer.h)
//    at build time and the cache considers it stale once any parameters
//    anywhere have been stepped, loaded or copied since. Conservative —
//    an unrelated model's update also invalidates — but it makes "score
//    after an optimizer step" correct by construction rather than by
//    every call site remembering to invalidate.
//
// Builds run in fixed chunks of kChunk items: chunk 0 serially (it
// determines the table widths), the rest via ParallelFor with a per-worker
// InferenceMode guard. The chunk size is a constant, never derived from
// the thread count, so the encoded tables — and all downstream metrics —
// are bit-identical for every PMMREC_NUM_THREADS setting. Because the
// chunk grid is anchored at id 0, a catalogue hot-add reuses the old
// snapshot's fully-covered chunks verbatim and encodes only the boundary
// chunk plus the new tail — bitwise identical to a full re-encode (the
// encoder is row-independent) at a fraction of the cost.
//
// Concurrency protocol (satellite: the sticky flags and validity bits are
// atomics so the pre-snapshot fast paths have no benign-race reads):
//  - valid_/ann_enabled_/exact_scan_table_/num_items_/
//    built_param_version_ are std::atomic. Writers publish with release
//    stores *after* the snapshot pointer swap; readers use acquire loads,
//    so a thread that observes valid_ == true also observes the snapshot
//    that made it true. Purely monotonic counters (rebuilds_,
//    snapshot_seq_) are relaxed — they order nothing.
//  - current_ is guarded by snap_mu_ (pin = shared_ptr copy under the
//    lock; publish = store under the lock). A mutex rather than
//    atomic<shared_ptr>: equivalent acquire/release ordering, portable,
//    and TSan-exact.
//  - build_mu_ serializes builders: Ensure() takes it, re-checks, and
//    builds at most once per staleness event (the broker's historical
//    one-rebuild-per-param-update guarantee, now owned by the cache
//    itself). In strict mode a worker that finds the cache stale blocks
//    here — that IS the stall-on-rebuild baseline; live mode publishes
//    from a dedicated thread so workers only ever pin.
//  - enable_mu_ guards the ann/exact-scan enable transitions and
//    ann_config_.
class ItemTableCache {
 public:
  ItemTableCache();
  ~ItemTableCache();  // Out-of-line: IvfIndex is incomplete here.

  // Fixed encode-chunk size (also the historical PrepareForEval chunking,
  // so cached tables are bitwise identical to the pre-cache precompute).
  static constexpr int64_t kChunk = 64;

  // Encodes one chunk of catalogue ids; returns one [ids.size(), d_t]
  // tensor per table. Must be stateless/thread-safe in eval mode and is
  // always invoked under InferenceMode.
  using ChunkEncoder =
      std::function<std::vector<Tensor>(const std::vector<int32_t>&)>;

  // Attaches live-mode extras to a freshly built snapshot before it is
  // published (encoder clone, IVF version checks off).
  using SnapshotFinisher = std::function<void(ServingSnapshot*)>;

  // Rebuilds (and publishes) a strict snapshot when stale; returns true
  // iff a rebuild happened. Exactly-once under concurrency: losers of the
  // build race block on build_mu_ and return false once the winner
  // publishes.
  bool Ensure(int64_t num_items, const ChunkEncoder& encode_chunk);

  // Live-mode publish: always builds a fresh snapshot (reusing the current
  // one's rows when this is a pure hot-add at the same param version),
  // runs `finish` on it (attach encoder clone, IVF version checks off),
  // then swaps it in. Returns the published snapshot.
  std::shared_ptr<const ServingSnapshot> Publish(
      int64_t num_items, const ChunkEncoder& encode_chunk,
      const SnapshotFinisher& finish);

  // Pins the current snapshot (may be null before the first build). The
  // returned shared_ptr keeps the snapshot alive until released — a
  // retired snapshot is freed when its last pin drops.
  std::shared_ptr<const ServingSnapshot> Pin() const;

  // Marks the current snapshot stale (model identity changed). The next
  // Ensure()/Publish() does a full rebuild — never the hot-add reuse.
  void Invalidate() { valid_.store(false, std::memory_order_release); }

  // True when the current snapshot is current (including the implicit
  // param-version check).
  bool valid() const;

  int64_t num_tables() const;
  // t-th table of the current snapshot, [num_items, d_t]. Valid until the
  // next rebuild drops the snapshot (pin it to hold longer).
  const Tensor& table(int64_t t) const;
  // The table's flat row-major storage (num_items * d_t floats).
  const std::vector<float>& table_data(int64_t t) const;
  int64_t width(int64_t t) const { return table(t).dim(1); }

  // Lifetime rebuild count (tests, telemetry).
  uint64_t rebuilds() const { return rebuilds_.load(std::memory_order_relaxed); }

  // --- ANN index ------------------------------------------------------------
  // When enabled, every build additionally trains/refills an IVF index
  // per fp32 table inside the same snapshot, so fresh fp32 tables never
  // coexist with stale inverted lists. Enabling on a valid cache (or
  // changing the config) invalidates it so the index appears on the next
  // build. The enable is sticky: nothing turns the index off again.
  void EnableAnn(const IvfConfig& config);
  bool ann_enabled() const {
    return ann_enabled_.load(std::memory_order_acquire);
  }

  // --- Packed exact-scan table ----------------------------------------------
  // The owning model names the table its exact route scans (-1: none);
  // every build then packs it into the snapshot with the tables, so live
  // publishes and hot-adds carry it too. Naming a table on a valid cache
  // invalidates it so the copy appears on the next build; -1 just stops
  // building it. The copy costs one more table's worth of memory.
  void SetExactScanTable(int64_t table);

 private:
  // Assembles a snapshot (full build, or hot-add reuse of `base` when it
  // is fresh and num_items only grew). Does not publish.
  std::shared_ptr<ServingSnapshot> BuildSnapshot(
      int64_t num_items, const ChunkEncoder& encode_chunk,
      const std::shared_ptr<const ServingSnapshot>& base);
  // Swaps `snap` in as current and updates the atomic mirrors.
  void PublishSnapshot(std::shared_ptr<ServingSnapshot> snap);

  // Current snapshot pointer; guarded by snap_mu_ (see class comment).
  std::shared_ptr<const ServingSnapshot> current_;
  mutable std::mutex snap_mu_;
  // Serializes builders (exactly-once rebuild per staleness event).
  std::mutex build_mu_;
  // Guards enable-flag transitions and ann_config_.
  std::mutex enable_mu_;

  std::atomic<bool> ann_enabled_{false};
  IvfConfig ann_config_;  // written under enable_mu_ only
  std::atomic<int64_t> exact_scan_table_{-1};
  std::atomic<int64_t> num_items_{0};
  std::atomic<uint64_t> built_param_version_{0};
  std::atomic<bool> valid_{false};
  std::atomic<uint64_t> rebuilds_{0};
  std::atomic<uint64_t> snapshot_seq_{0};
};

}  // namespace pmmrec

#endif  // PMMREC_CORE_SERVING_H_
