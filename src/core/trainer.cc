#include "core/trainer.h"

#include <cstring>
#include <unordered_map>
#include <utility>

#include "core/pmmrec.h"
#include "nn/optimizer.h"
#include "utils/arena.h"
#include "utils/logging.h"
#include "utils/parallel.h"
#include "utils/stopwatch.h"
#include "utils/trace.h"

namespace pmmrec {
namespace {

// Value snapshot of a parameter set (for best-epoch restoration).
std::vector<std::vector<float>> SnapshotParams(
    const std::vector<Tensor*>& params) {
  std::vector<std::vector<float>> snap;
  snap.reserve(params.size());
  for (Tensor* p : params) {
    snap.emplace_back(p->data(), p->data() + p->numel());
  }
  return snap;
}

void RestoreParams(const std::vector<Tensor*>& params,
                   const std::vector<std::vector<float>>& snap) {
  PMM_CHECK_EQ(params.size(), snap.size());
  for (size_t i = 0; i < params.size(); ++i) {
    PMM_CHECK_EQ(static_cast<size_t>(params[i]->numel()), snap[i].size());
    std::copy(snap[i].begin(), snap[i].end(), params[i]->data());
  }
}

// Flat per-epoch telemetry: epoch stats plus the delta of every runtime
// counter over the epoch (arena hit rate, GEMM FLOPs, loss-term ns, ...),
// appended to the trace telemetry export. Only active at trace level
// epoch and above.
class EpochTelemetry {
 public:
  EpochTelemetry() : enabled_(trace::Enabled(trace::Level::kEpoch)) {
    if (enabled_) Snapshot(&previous_);
  }

  void Record(const std::string& dataset, int64_t epoch, double loss,
              double hr10, int64_t steps, double seconds) {
    if (!enabled_) return;
    std::vector<std::pair<std::string, double>> fields = {
        {"epoch", static_cast<double>(epoch)},
        {"train_loss", loss},
        {"val_hr10", hr10},
        {"steps", static_cast<double>(steps)},
        {"seconds", seconds},
    };
    std::unordered_map<std::string, uint64_t> current;
    Snapshot(&current);
    for (const auto& [name, value] : current) {
      const auto it = previous_.find(name);
      const uint64_t before = it == previous_.end() ? 0 : it->second;
      fields.emplace_back("ctr." + name,
                          static_cast<double>(value - before));
    }
    previous_ = std::move(current);
    trace::RecordEpochRow(dataset, std::move(fields));
  }

 private:
  static void Snapshot(std::unordered_map<std::string, uint64_t>* out) {
    out->clear();
    for (auto& [name, value] : trace::CounterSnapshot()) {
      out->emplace(std::move(name), value);
    }
  }

  const bool enabled_;
  std::unordered_map<std::string, uint64_t> previous_;
};

// splitmix64-style mix of (seed, epoch, step, shard): the reseed fed to
// the model before each shard forward. Any rank computing shard s of
// step t therefore draws the identical dropout/corruption stream.
uint64_t MixShardSeed(uint64_t seed, uint64_t epoch, uint64_t step,
                      uint64_t shard) {
  uint64_t x = seed ^ (epoch * 0x9E3779B97F4A7C15ull) ^
               (step * 0xC2B2AE3D27D4EB4Full) ^
               (shard * 0x165667B19E3779F9ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

// One sharded training step: compute owned shards, deposit flat
// gradients, tree-combine, apply the averaged gradient. Every rank calls
// optimizer.Step() on the identical combined gradient, so parameters and
// optimizer moments evolve identically everywhere.
void ShardedTrainStep(TrainableRecommender& model, const Dataset& ds,
                      const FitOptions& options,
                      const std::vector<Tensor*>& params, AdamW& optimizer,
                      GradReducer& reducer,
                      const std::vector<int64_t>& group, int64_t epoch,
                      int64_t step_index, double* epoch_loss,
                      int64_t* steps) {
  const int64_t S = reducer.num_shards();
  const int64_t n = reducer.grad_numel();
  for (int64_t s = 0; s < S; ++s) {
    if (!reducer.Owns(s)) continue;
    // Shard s = every S-th user of the shuffled group, offset s — a pure
    // function of the group and S, independent of the rank layout.
    std::vector<int64_t> shard_users;
    for (size_t u = static_cast<size_t>(s); u < group.size();
         u += static_cast<size_t>(S)) {
      shard_users.push_back(group[u]);
    }
    float* slot = reducer.ShardSlot(s);
    // In-batch losses need >= 2 users; smaller shards contribute nothing
    // (mirrors the unsharded loop skipping undefined losses).
    if (shard_users.size() < 2) {
      std::memset(slot, 0, static_cast<size_t>(n) * sizeof(float));
      reducer.SetShardMeta(s, 0.0, false);
      continue;
    }
    model.ReseedStochastic(
        MixShardSeed(options.seed, static_cast<uint64_t>(epoch),
                     static_cast<uint64_t>(step_index),
                     static_cast<uint64_t>(s)));
    const SeqBatch batch = MakeTrainBatch(ds, shard_users, options.max_seq_len);
    Tensor loss;
    {
      PMM_TRACE_SCOPE_AT("train.forward", kOp, "train.forward.ns");
      loss = model.TrainStepLoss(batch);
    }
    if (!loss.defined()) {
      std::memset(slot, 0, static_cast<size_t>(n) * sizeof(float));
      reducer.SetShardMeta(s, 0.0, false);
      continue;
    }
    optimizer.ZeroGrad();
    {
      PMM_TRACE_SCOPE_AT("train.backward", kOp, "train.backward.ns");
      loss.Backward();
    }
    // Deposit the flat gradient; parameters this shard's graph never
    // touched contribute zeros.
    int64_t off = 0;
    for (Tensor* p : params) {
      const float* g = std::as_const(*p).grad_data();
      const size_t bytes = static_cast<size_t>(p->numel()) * sizeof(float);
      if (g != nullptr) {
        std::memcpy(slot + off, g, bytes);
      } else {
        std::memset(slot + off, 0, bytes);
      }
      off += p->numel();
    }
    reducer.SetShardMeta(s, static_cast<double>(loss.item()), true);
  }

  double loss_sum = 0.0;
  int64_t defined = 0;
  PMM_CHECK_MSG(reducer.Reduce(&loss_sum, &defined),
                "data-parallel peer failed during gradient all-reduce");
  if (defined > 0) {
    // Average over defined shards and scatter back into every parameter's
    // grad buffer; from here the step is the unsharded loop verbatim.
    const float inv = 1.0f / static_cast<float>(defined);
    const float* combined = reducer.CombinedGrad();
    int64_t off = 0;
    for (Tensor* p : params) {
      float* g = p->grad_data();
      const int64_t m = p->numel();
      for (int64_t i = 0; i < m; ++i) g[i] = combined[off + i] * inv;
      off += m;
    }
    {
      PMM_TRACE_SCOPE_AT("train.optim", kOp, "train.optim.ns");
      if (options.clip_norm > 0.0f) ClipGradNorm(params, options.clip_norm);
      optimizer.Step();
    }
    *epoch_loss += loss_sum / static_cast<double>(defined);
    ++*steps;
    PMM_TRACE_COUNT("train.steps", 1);
  }
  PMM_CHECK_MSG(reducer.EndStep(),
                "data-parallel peer failed at step end");
}

}  // namespace

int64_t TotalParamNumel(const std::vector<Tensor*>& params) {
  int64_t total = 0;
  for (const Tensor* p : params) total += p->numel();
  return total;
}

void CopyParamsToFlat(const std::vector<Tensor*>& params, float* out) {
  int64_t off = 0;
  for (const Tensor* p : params) {
    std::memcpy(out + off, p->data(),
                static_cast<size_t>(p->numel()) * sizeof(float));
    off += p->numel();
  }
}

FitResult FitModel(TrainableRecommender& model, const Dataset& ds,
                   const FitOptions& options, GradReducer* reducer) {
  Stopwatch watch;
  if (options.num_threads > 0) SetNumThreads(options.num_threads);
  model.AttachDataset(&ds);
  std::vector<Tensor*> params = model.TrainableParameters();
  PMM_CHECK(!params.empty());
  if (reducer != nullptr) {
    PMM_CHECK_EQ(reducer->grad_numel(), TotalParamNumel(params));
    PMM_CHECK_GE(reducer->num_shards(), 1);
  }
  AdamW optimizer(params, options.lr, 0.9f, 0.999f, 1e-8f,
                  options.weight_decay);
  SequenceBatcher batcher(&ds, options.batch_size, options.max_seq_len);
  Rng rng(options.seed);

  FitResult result;
  std::vector<std::vector<float>> best_snapshot;
  int64_t epochs_since_best = 0;
  EpochTelemetry telemetry;

  for (int64_t epoch = 0; epoch < options.max_epochs; ++epoch) {
    // Recycle tensor storage within the epoch; drop the cache at its end
    // so one epoch's buffers never pin memory into the next.
    ArenaEpochScope arena_epoch;
    PMM_TRACE_SCOPE_AT("train.epoch", kEpoch, "train.epoch.ns");
    Stopwatch epoch_watch;
    model.SetTrainingMode(true);
    double epoch_loss = 0.0;
    int64_t steps = 0;
    int64_t step_index = 0;
    for (const auto& group : batcher.EpochUserGroups(rng)) {
      if (reducer != nullptr) {
        ShardedTrainStep(model, ds, options, params, optimizer, *reducer,
                         group, epoch, step_index, &epoch_loss, &steps);
        ++step_index;
        continue;
      }
      ++step_index;
      const SeqBatch batch = MakeTrainBatch(ds, group, options.max_seq_len);
      Tensor loss;
      {
        PMM_TRACE_SCOPE_AT("train.forward", kOp, "train.forward.ns");
        loss = model.TrainStepLoss(batch);
      }
      if (!loss.defined()) continue;
      optimizer.ZeroGrad();
      {
        PMM_TRACE_SCOPE_AT("train.backward", kOp, "train.backward.ns");
        loss.Backward();
      }
      {
        PMM_TRACE_SCOPE_AT("train.optim", kOp, "train.optim.ns");
        if (options.clip_norm > 0.0f) ClipGradNorm(params, options.clip_norm);
        optimizer.Step();
      }
      epoch_loss += loss.item();
      ++steps;
      PMM_TRACE_COUNT("train.steps", 1);
    }
    if (steps > 0) {
      result.final_train_loss = epoch_loss / static_cast<double>(steps);
    }

    model.SetTrainingMode(false);
    const RankingMetrics metrics = EvaluateRanking(
        model, ds, EvalSplit::kValidation, options.eval_users);
    const double hr10 = metrics.Hr(10);
    result.val_hr10_per_epoch.push_back(hr10);
    result.epochs_run = epoch + 1;
    telemetry.Record(ds.name, epoch, result.final_train_loss, hr10, steps,
                     epoch_watch.ElapsedSeconds());
    if (options.verbose) {
      PMM_LOG(Info) << ds.name << " epoch " << epoch << " loss "
                    << result.final_train_loss << " val HR@10 " << hr10;
    }

    if (result.best_epoch < 0 || hr10 > result.best_val_hr10) {
      result.best_val_hr10 = hr10;
      result.best_epoch = epoch;
      best_snapshot = SnapshotParams(params);
      epochs_since_best = 0;
    } else if (++epochs_since_best >= options.patience) {
      break;
    }
  }

  if (!best_snapshot.empty()) {
    RestoreParams(params, best_snapshot);
    model.InvalidateEvalCache();
  }
  model.SetTrainingMode(false);
  result.seconds = watch.ElapsedSeconds();
  return result;
}

LiveUpdater::LiveUpdater(PMMRecModel* model, const Dataset* ds,
                         const Options& options)
    : model_(model),
      ds_(ds),
      options_(options),
      batcher_(ds, options.batch_size, options.max_seq_len),
      rng_(options.seed) {
  PMM_CHECK(model_ != nullptr);
  PMM_CHECK(ds_ != nullptr);
  PMM_CHECK_MSG(model_->dataset() == ds_,
                "LiveUpdater requires the model's attached dataset");
  optimizer_ = std::make_unique<AdamW>(model_->TrainableParameters(),
                                       options_.lr, 0.9f, 0.999f, 1e-8f,
                                       options_.weight_decay);
}

LiveUpdater::~LiveUpdater() = default;

std::vector<int64_t> LiveUpdater::NextGroup() {
  if (next_group_ >= groups_.size()) {
    groups_ = batcher_.EpochUserGroups(rng_);
    next_group_ = 0;
    PMM_CHECK_MSG(!groups_.empty(),
                  "LiveUpdater needs >= 2 users to form a training batch");
  }
  return groups_[next_group_++];
}

std::shared_ptr<const ServingSnapshot> LiveUpdater::Step() {
  PMM_TRACE_SCOPE_AT("serve.live_update", kEpoch, "serve.live_update.ns");
  const SeqBatch batch =
      MakeTrainBatch(*ds_, NextGroup(), options_.max_seq_len);
  model_->SetTrainingMode(true);
  Tensor loss = model_->TrainStepLoss(batch);
  if (loss.defined()) {
    std::vector<Tensor*> params = model_->TrainableParameters();
    model_->ZeroGrad();
    loss.Backward();
    if (options_.clip_norm > 0.0f) ClipGradNorm(params, options_.clip_norm);
    optimizer_->Step();
    ++steps_;
    PMM_TRACE_COUNT("serve.live_update.steps", 1);
  }
  return Publish();
}

std::shared_ptr<const ServingSnapshot> LiveUpdater::Publish() {
  return model_->PublishServingSnapshot();
}

}  // namespace pmmrec
