// pmmrec_cli — command-line interface to the PMMRec library.
//
// Subcommands:
//   gen-data  --out-dir DIR [--scale S] [--seed N]
//             Generate the benchmark suite and save every dataset as
//             DIR/<name>.pmds.
//   stats     --data FILE.pmds
//             Print dataset statistics (Table II style).
//   train     --data FILE.pmds --out MODEL.ckpt [--epochs N] [--seed N]
//             [--modality both|text|vision] [--pretrain-objectives]
//             [--workers W] [--grad-shards S]
//             --workers forks W data-parallel training processes over
//             shared memory (see DESIGN.md "Data-parallel training");
//             the trajectory is a pure function of --grad-shards (default
//             = workers), so any worker count at the same shard count
//             trains bitwise-identically.
//   evaluate  --data FILE.pmds --model MODEL.ckpt [--split test|valid]
//             [--ann] [--nlist N] [--nprobe P]
//             With --ann the metrics are computed through the IVF
//             candidate-retrieval path (the index the serving path uses),
//             so recall loss from approximate retrieval shows up in the
//             reported HR/NDCG directly.
//   transfer  --data TARGET.pmds --source-model SRC.ckpt --out DST.ckpt
//             [--setting full|item|user|text|vision] [--epochs N]
//             Transfer components from a pre-trained checkpoint and
//             fine-tune on the target.
//   recommend --data FILE.pmds --model MODEL.ckpt --user U [--topk K]
//             Single-user mode: serial scoring path, prints the history
//             and the top-K items.
//   recommend --data FILE.pmds --model MODEL.ckpt --users U1,U2,... [--topk K]
//             [--serve-workers N] [--max-batch B] [--ann] [--nlist N]
//             [--nprobe P]
//             Batch mode (--users all scores every user): requests are
//             routed through the serving broker (src/serve/broker.h), so
//             peak score memory is O(max_batch * n_items) — not
//             O(users * n_items) — and only top-K ids/scores are kept per
//             user. Prints a users/sec line. --ann retrieves candidates
//             from the IVF index (DESIGN.md "Candidate retrieval"):
//             approximate recall, exact fp32 scores. --nlist/--nprobe
//             override the index defaults (sqrt(n) lists, nlist/32
//             probes).
//   serve-bench --data FILE.pmds --model MODEL.ckpt [--requests N]
//             [--clients C] [--workers W] [--max-batch B] [--max-wait-us U]
//             [--queue-capacity Q] [--deadline-ms D] [--topk K] [--ann]
//             [--nlist N] [--nprobe P] [--items N] [--seed S]
//             --seed permutes the per-client user sequence (0 = the
//             historical derivation, bit-for-bit).
//             Closed-loop load test of the request broker: C client
//             threads submit N requests, printing achieved QPS, latency
//             percentiles, shed/reject counts, and the batch-size
//             distribution. --items N swaps in a generated synthetic
//             catalogue of N items (no --data/--model needed; the model
//             stays untrained — serving cost is independent of parameter
//             values), for load-testing retrieval at catalogue scales no
//             checked-in dataset reaches. (bench/bench_serve is the full
//             offered-QPS sweep writing BENCH_serving.json.)
//             --update-every N switches to the train-while-serve
//             benchmark: three phases (no updates; live snapshot
//             publishes every N completed requests; strict
//             stall-on-rebuild every N requests) under identical load,
//             writing qps + p50/p99/p99.9 per phase to
//             BENCH_liveupdate.json (override with --json PATH). Every
//             4th request is a probe checked bitwise against a reference
//             computed at that response's pinned snapshot version; any
//             divergence exits nonzero. --hot-add M additionally inserts
//             M catalogue items mid-load in chunks; each chunk rides a
//             publish-only update (incremental row encode) and the bench
//             verifies the newest item is retrievable from the fresh
//             snapshot.
//
// Every subcommand reads all of its flags before it does any work and
// exits with status 2, naming each flag, when one was not among them (a
// typo such as --nprob, or a flag only another subcommand takes). Input
// that is read but does not hold — an unknown --modality or --setting, a
// user id outside the dataset, a missing or corrupt dataset or
// checkpoint — ends the subcommand with status 1 and the reason on
// stderr.
//
// Global flags (any subcommand):
//   --threads N   Intra-op threads for the tensor kernels and evaluation
//                 (overrides the PMMREC_NUM_THREADS env var; 1 = serial).
//                 Results are bit-identical for every value.
//   --trace PATH  Record op-level trace events and runtime counters, write
//                 a chrome://tracing JSON to PATH (open it in Perfetto)
//                 plus flat telemetry to PATH's *.telemetry.json sibling,
//                 and print a summary table at exit. Respects an explicit
//                 PMMREC_TRACE_LEVEL; defaults to `op`. Tracing never
//                 changes results — only wall-clock, slightly.
//
// Model checkpoints store parameters only; the architecture is derived
// from the dataset schema plus PMMRecConfig defaults, so a checkpoint must
// be loaded with the same --modality it was trained with.

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "core/pmmrec.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/serialization.h"
#include "dist/process.h"
#include "serve/broker.h"
#include "utils/flags.h"
#include "utils/parallel.h"
#include "utils/stopwatch.h"
#include "utils/topk.h"
#include "utils/trace.h"

namespace pmmrec {
namespace {

// Ends a subcommand on input that does not hold: prints the status and
// returns the exit code. PMM_CHECK stays for the program's own invariants.
int Fail(const Status& st) {
  std::fprintf(stderr, "pmmrec_cli: %s\n", st.ToString().c_str());
  return 1;
}

Status ParseModality(const std::string& name, ModalityMode* out) {
  if (name == "text") {
    *out = ModalityMode::kTextOnly;
  } else if (name == "vision") {
    *out = ModalityMode::kVisionOnly;
  } else if (name == "both") {
    *out = ModalityMode::kBoth;
  } else {
    return Status::InvalidArgument("unknown --modality: " + name);
  }
  return Status::Ok();
}

Status ParseSetting(const std::string& name, TransferSetting* out) {
  if (name == "item") {
    *out = TransferSetting::kItemEncoders;
  } else if (name == "user") {
    *out = TransferSetting::kUserEncoder;
  } else if (name == "text") {
    *out = TransferSetting::kTextOnly;
  } else if (name == "vision") {
    *out = TransferSetting::kVisionOnly;
  } else if (name == "full") {
    *out = TransferSetting::kFull;
  } else {
    return Status::InvalidArgument("unknown --setting: " + name);
  }
  return Status::Ok();
}

// Names every flag the subcommand did not read and every flag whose value
// did not parse, and returns true if there was one. Each subcommand calls
// it once it has read all of its flags and before it does any work, so a
// misspelt flag or value never runs at its default.
bool RejectUnreadFlags(const FlagParser& flags) {
  const std::vector<std::string> unread = flags.UnqueriedFlags();
  for (const std::string& name : unread) {
    std::fprintf(stderr, "pmmrec_cli %s does not read flag --%s\n",
                 flags.positional()[0].c_str(), name.c_str());
  }
  for (const std::string& message : flags.InvalidFlags()) {
    std::fprintf(stderr, "pmmrec_cli %s: %s\n",
                 flags.positional()[0].c_str(), message.c_str());
  }
  return !unread.empty() || !flags.InvalidFlags().empty();
}

Status LoadData(const std::string& path, Dataset* ds) {
  if (path.empty()) return Status::InvalidArgument("--data is required");
  return LoadDatasetFromFile(path, ds);
}

int CmdGenData(const FlagParser& flags) {
  const std::string out_dir = flags.GetString("out-dir", ".");
  const double scale = flags.GetDouble("scale", 1.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 17));
  if (RejectUnreadFlags(flags)) return 2;
  BenchmarkSuite suite = BuildBenchmarkSuite(scale, seed);
  auto save = [&](const Dataset& ds) {
    const std::string path = out_dir + "/" + ds.name + ".pmds";
    const Status st = SaveDatasetToFile(ds, path);
    std::printf("%-20s -> %s (%s)\n", ds.name.c_str(), path.c_str(),
                st.ToString().c_str());
    return st.ok();
  };
  bool ok = true;
  for (const Dataset& ds : suite.sources) ok &= save(ds);
  for (const Dataset& ds : suite.targets) ok &= save(ds);
  const Dataset fused = FuseDatasets(
      {&suite.sources[0], &suite.sources[1], &suite.sources[2],
       &suite.sources[3]},
      "FusedSources");
  ok &= save(fused);
  return ok ? 0 : 1;
}

int CmdStats(const FlagParser& flags) {
  const std::string data = flags.GetString("data");
  if (RejectUnreadFlags(flags)) return 2;
  Dataset ds;
  if (const Status st = LoadData(data, &ds); !st.ok()) return Fail(st);
  std::printf("name:      %s (platform %s)\n", ds.name.c_str(),
              ds.platform.c_str());
  std::printf("users:     %lld\n", static_cast<long long>(ds.num_users()));
  std::printf("items:     %lld\n", static_cast<long long>(ds.num_items()));
  std::printf("actions:   %lld\n", static_cast<long long>(ds.num_actions()));
  std::printf("avg.len:   %.2f\n", ds.avg_seq_len());
  std::printf("sparsity:  %.2f%%\n", ds.sparsity() * 100.0);
  std::printf("schema:    vocab=%d text_len=%d patches=%dx%d\n",
              ds.text_vocab_size, ds.text_len, ds.n_patches, ds.patch_dim);
  return 0;
}

int CmdTrain(const FlagParser& flags) {
  const std::string data = flags.GetString("data");
  ModalityMode modality = ModalityMode::kBoth;
  const Status modality_st =
      ParseModality(flags.GetString("modality", "both"), &modality);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const bool pretrain = flags.GetBool("pretrain-objectives", false);
  FitOptions opts;
  opts.max_epochs = flags.GetInt("epochs", 12);
  opts.verbose = true;
  // --workers W forks W data-parallel training processes; --grad-shards S
  // fixes the gradient-shard count (the trajectory is a pure function of
  // S, so results are bitwise-identical for any W at the same S; the
  // default S=W means changing only --workers changes the trajectory the
  // same way changing the shard count in one process would).
  const int64_t workers = std::max<int64_t>(1, flags.GetInt("workers", 1));
  const int64_t grad_shards = flags.GetInt("grad-shards", 0);
  const std::string out = flags.GetString("out", "pmmrec.ckpt");
  if (RejectUnreadFlags(flags)) return 2;
  if (!modality_st.ok()) return Fail(modality_st);

  Dataset ds;
  if (const Status st = LoadData(data, &ds); !st.ok()) return Fail(st);
  PMMRecConfig config = PMMRecConfig::FromDataset(ds);
  config.modality = modality;
  PMMRecModel model(config, seed);
  model.SetPretrainingObjectives(pretrain);
  const FitResult result =
      workers > 1 || grad_shards > 0
          ? dist::RunDataParallelFit(model, ds, opts, workers, grad_shards)
          : FitModel(model, ds, opts);
  std::printf("best validation HR@10 %.2f%% (epoch %lld, %.1fs)\n",
              result.best_val_hr10, static_cast<long long>(result.best_epoch),
              result.seconds);

  const Status st = model.SaveToFile(out);
  std::printf("saved %s: %s\n", out.c_str(), st.ToString().c_str());
  return st.ok() ? 0 : 1;
}

// The model-config flags (modality and retrieval mode) of the subcommands
// that load a checkpoint and score with it. They are read before the
// dataset whose schema completes the config is loaded.
struct ModelFlags {
  ModalityMode modality = ModalityMode::kBoth;
  bool ann = false;
  int64_t nlist = 0;
  int64_t nprobe = 0;

  // Reads every model-config flag; fails on an unknown --modality.
  static Status Read(const FlagParser& flags, ModelFlags* f) {
    const std::string modality = flags.GetString("modality", "both");
    f->ann = flags.GetBool("ann", false);
    f->nlist = flags.GetInt("nlist", 0);
    f->nprobe = flags.GetInt("nprobe", 0);
    return ParseModality(modality, &f->modality);
  }
  PMMRecConfig ConfigFor(const Dataset& ds) const {
    PMMRecConfig config = PMMRecConfig::FromDataset(ds);
    config.modality = modality;
    config.ann_serving = ann;
    config.ann_nlist = nlist;
    config.ann_nprobe = nprobe;
    return config;
  }
};

int CmdEvaluate(const FlagParser& flags) {
  const std::string data = flags.GetString("data");
  ModelFlags model_flags;
  const Status model_flags_st = ModelFlags::Read(flags, &model_flags);
  const std::string model_path = flags.GetString("model");
  const EvalSplit split = flags.GetString("split", "test") == "valid"
                              ? EvalSplit::kValidation
                              : EvalSplit::kTest;
  if (RejectUnreadFlags(flags)) return 2;
  if (!model_flags_st.ok()) return Fail(model_flags_st);

  Dataset ds;
  if (const Status st = LoadData(data, &ds); !st.ok()) return Fail(st);
  PMMRecModel model(model_flags.ConfigFor(ds), 1);
  if (const Status st = model.LoadFromFile(model_path); !st.ok()) {
    return Fail(st);
  }
  model.AttachDataset(&ds);
  const RankingMetrics metrics = EvaluateRanking(model, ds, split);
  std::printf("%s\n", metrics.ToString().c_str());
  return 0;
}

int CmdTransfer(const FlagParser& flags) {
  const std::string data = flags.GetString("data");
  TransferSetting setting = TransferSetting::kFull;
  const Status setting_st =
      ParseSetting(flags.GetString("setting", "full"), &setting);
  const std::string source_path = flags.GetString("source-model");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  FitOptions opts;
  opts.max_epochs = flags.GetInt("epochs", 12);
  opts.verbose = true;
  const std::string out = flags.GetString("out", "pmmrec_finetuned.ckpt");
  if (RejectUnreadFlags(flags)) return 2;
  if (!setting_st.ok()) return Fail(setting_st);

  Dataset target;
  if (const Status st = LoadData(data, &target); !st.ok()) return Fail(st);
  PMMRecConfig config = PMMRecConfig::FromDataset(target);
  if (setting == TransferSetting::kTextOnly) {
    config.modality = ModalityMode::kTextOnly;
  } else if (setting == TransferSetting::kVisionOnly) {
    config.modality = ModalityMode::kVisionOnly;
  }

  // The source checkpoint was saved from a multi-modal model with the
  // same schema.
  PMMRecConfig source_config = config;
  source_config.modality = ModalityMode::kBoth;
  PMMRecModel source(source_config, 1);
  if (const Status st = source.LoadFromFile(source_path); !st.ok()) {
    return Fail(st);
  }

  PMMRecModel model(config, seed);
  model.TransferFrom(source, setting);
  FitModel(model, target, opts);
  const RankingMetrics metrics =
      EvaluateRanking(model, target, EvalSplit::kTest);
  std::printf("fine-tuned (%s transfer): %s\n", ToString(setting),
              metrics.ToString().c_str());

  const Status save = model.SaveToFile(out);
  std::printf("saved %s: %s\n", out.c_str(), save.ToString().c_str());
  return save.ok() ? 0 : 1;
}

// Prints one "user U: top-K" line. Ordering is the shared kernel's rule
// (utils/topk.h): score descending, ties broken by ascending item id, so
// the printed list is deterministic.
void PrintTopKEntries(int64_t user, const std::vector<ScoredId>& items,
                      int64_t topk) {
  std::printf("user %lld top-%lld:", static_cast<long long>(user),
              static_cast<long long>(topk));
  for (const ScoredId& entry : items) {
    std::printf(" %d(%.3f)", entry.id, entry.score);
  }
  std::printf("\n");
}

// Selects and prints the top-K of a full-catalogue score row via the
// partial top-K kernel, skipping items already in the user's history.
void PrintTopK(int64_t user, const std::vector<int32_t>& history,
               const float* scores, int64_t n_items, int64_t topk) {
  PrintTopKEntries(user, TopKSelect(scores, n_items, topk, history), topk);
}

// Parses --users as a comma-separated id list or "all". Every id must be
// a whole integer in [0, num_users).
Status ParseUsers(const std::string& spec, int64_t num_users,
                  std::vector<int64_t>* users) {
  if (spec == "all") {
    users->resize(static_cast<size_t>(num_users));
    std::iota(users->begin(), users->end(), 0);
    return Status::Ok();
  }
  size_t pos = 0;
  while (pos < spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? spec.size() - pos
                                                    : comma - pos);
    if (!tok.empty()) {
      int64_t u = -1;
      const auto [end, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), u);
      if (ec != std::errc() || end != tok.data() + tok.size() || u < 0 ||
          u >= num_users) {
        return Status::InvalidArgument(
            "--users: '" + tok + "' is not a user id in [0, " +
            std::to_string(num_users) + ")");
      }
      users->push_back(u);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (users->empty()) {
    return Status::InvalidArgument("--users parsed to an empty list");
  }
  return Status::Ok();
}

int CmdRecommend(const FlagParser& flags) {
  const std::string data = flags.GetString("data");
  ModelFlags model_flags;
  const Status model_flags_st = ModelFlags::Read(flags, &model_flags);
  const std::string model_path = flags.GetString("model");
  const int64_t topk = flags.GetInt("topk", 10);
  const std::string users_spec = flags.GetString("users");
  const int64_t user = flags.GetInt("user", 0);
  serve::BrokerOptions options;
  options.num_workers = flags.GetInt("serve-workers", 2);
  options.max_batch = flags.GetInt("max-batch", 32);
  options.max_wait_us = 0;  // Closed-loop: the queue is pre-filled.
  if (RejectUnreadFlags(flags)) return 2;
  if (!model_flags_st.ok()) return Fail(model_flags_st);

  Dataset ds;
  if (const Status st = LoadData(data, &ds); !st.ok()) return Fail(st);
  PMMRecModel model(model_flags.ConfigFor(ds), 1);
  if (const Status st = model.LoadFromFile(model_path); !st.ok()) {
    return Fail(st);
  }
  model.AttachDataset(&ds);

  if (!users_spec.empty()) {
    // Batch mode: requests routed through the serving broker, which
    // coalesces them into micro-batches over the grad-free path. Peak
    // score memory is O(max_batch * n_items) inside the broker — only the
    // top-K ids/scores per user are ever held here, so `--users all`
    // works at any catalogue/user scale.
    std::vector<int64_t> users;
    if (const Status st = ParseUsers(users_spec, ds.num_users(), &users);
        !st.ok()) {
      return Fail(st);
    }
    options.queue_capacity = static_cast<int64_t>(users.size());
    serve::RequestBroker broker(&model, options);

    Stopwatch watch;
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(users.size());
    for (int64_t u : users) {
      serve::Request request;
      request.prefix = ds.TestPrefix(u);
      request.topk = topk;
      futures.push_back(broker.Submit(std::move(request)));
    }
    std::vector<serve::Response> responses;
    responses.reserve(users.size());
    for (auto& future : futures) responses.push_back(future.get());
    const double ms = watch.ElapsedMillis();

    for (size_t i = 0; i < users.size(); ++i) {
      PMM_CHECK_MSG(responses[i].status == serve::ServeStatus::kOk,
                    std::string("serve status ") +
                        serve::ToString(responses[i].status));
      PrintTopKEntries(users[i], responses[i].items, topk);
    }
    const serve::BrokerStats stats = broker.stats();
    const char* path_note =
        model.AnnServingEnabled() ? ", ivf candidate path" : "";
    std::printf("scored %zu users in %.2f ms (%.1f users/s, %llu batches, "
                "max batch %llu%s)\n",
                users.size(), ms,
                static_cast<double>(users.size()) / (ms / 1e3),
                static_cast<unsigned long long>(stats.batches),
                static_cast<unsigned long long>(stats.max_batch), path_note);
    return 0;
  }

  if (user < 0 || user >= ds.num_users()) {
    return Fail(Status::InvalidArgument(
        "--user " + std::to_string(user) + " is not a user id in [0, " +
        std::to_string(ds.num_users()) + ")"));
  }
  const std::vector<int32_t> history = ds.TestPrefix(user);
  const std::vector<float> scores = model.ScoreItems(history);
  std::printf("user %lld history:", static_cast<long long>(user));
  for (int32_t item : history) std::printf(" %d", item);
  std::printf("\n");
  PrintTopK(user, history, scores.data(), static_cast<int64_t>(scores.size()),
            topk);
  return 0;
}

// --- Live-update serve-bench ----------------------------------------------

uint32_t FloatBits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

bool TopKBitwiseEqual(const std::vector<ScoredId>& got,
                      const std::vector<ScoredId>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id ||
        FloatBits(got[i].score) != FloatBits(want[i].score)) {
      return false;
    }
  }
  return true;
}

// Per-snapshot-version reference answers for the probe prefixes. The
// updater inserts a version's answers right after publishing it; a probe
// client that races ahead of the insert waits on the condition variable
// (the publish always precedes the pin that produced the response, so the
// reference always arrives).
class ReferenceBook {
 public:
  void Insert(uint64_t version, std::vector<std::vector<ScoredId>> refs) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      by_version_[version] = std::move(refs);
    }
    cv_.notify_all();
  }
  std::vector<ScoredId> Lookup(uint64_t version, size_t probe) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return by_version_.count(version) != 0; });
    return by_version_[version][probe];
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, std::vector<std::vector<ScoredId>>> by_version_;
};

// Single-threaded reference answers for the probe prefixes against one
// pinned snapshot, through the same route the broker takes (the model's
// CandidateSource) and the same TopKFromRanked cut. The candidate limit
// only needs topk + |exclude| per row for the final top-K to be
// limit-invariant, so using the probes' own maximum matches any batch the
// broker forms.
std::vector<std::vector<ScoredId>> ComputeProbeReference(
    PMMRecModel& model, const std::shared_ptr<const ServingSnapshot>& snap,
    const std::vector<std::vector<int32_t>>& probes, int64_t topk) {
  int64_t limit = 1;
  for (const std::vector<int32_t>& p : probes) {
    limit = std::max<int64_t>(limit, topk + static_cast<int64_t>(p.size()));
  }
  limit = std::min(limit, snap->num_items);
  const std::vector<std::vector<ScoredId>> ranked =
      model.RetrieveCandidatesOn(snap, probes, limit);
  std::vector<std::vector<ScoredId>> out(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    out[i] = TopKFromRanked(ranked[i], topk,
                            std::span<const int32_t>(probes[i]));
  }
  return out;
}

struct LoadStats {
  std::vector<uint64_t> latencies_ns;  // kOk responses only.
  uint64_t mismatches = 0;             // Probe responses != reference bits.
  uint64_t not_ok = 0;
  double seconds = 0;
  double qps() const {
    return seconds > 0
               ? static_cast<double>(latencies_ns.size()) / seconds
               : 0.0;
  }
};

struct LivePct {
  double p50_us = 0, p99_us = 0, p999_us = 0;
};

LivePct ExactLivePct(std::vector<uint64_t> ns) {
  LivePct out;
  if (ns.empty()) return out;
  std::sort(ns.begin(), ns.end());
  const auto pick = [&](double p) {
    const size_t idx = std::min(
        ns.size() - 1,
        static_cast<size_t>(p / 100.0 * static_cast<double>(ns.size())));
    return static_cast<double>(ns[idx]) / 1e3;
  };
  out.p50_us = pick(50);
  out.p99_us = pick(99);
  out.p999_us = pick(99.9);
  return out;
}

// Closed-loop load with embedded probes: every 4th request per client is
// one of the fixed probe prefixes, and its response is checked bitwise
// (ids + score bits) against `reference` at the response's pinned
// snapshot version.
LoadStats RunLoad(
    serve::RequestBroker& broker, const Dataset& ds, int64_t requests,
    int64_t clients, int64_t topk,
    const std::vector<std::vector<int32_t>>& probes,
    const std::function<std::vector<ScoredId>(uint64_t, size_t)>& reference,
    std::atomic<uint64_t>* completed) {
  std::vector<std::vector<uint64_t>> lat(static_cast<size_t>(clients));
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> not_ok{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  Stopwatch watch;
  for (int64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const int64_t n =
          requests / clients + (c < requests % clients ? 1 : 0);
      for (int64_t i = 0; i < n; ++i) {
        const bool is_probe = !probes.empty() && i % 4 == 3;
        const size_t probe_idx =
            probes.empty()
                ? 0
                : static_cast<size_t>(c + i) % probes.size();
        serve::Request request;
        if (is_probe) {
          request.prefix = probes[probe_idx];
        } else {
          const int64_t user = (c * 7919 + i * 104729) % ds.num_users();
          request.prefix = ds.TestPrefix(user);
        }
        request.topk = topk;
        const serve::Response response =
            broker.Submit(std::move(request)).get();
        if (completed != nullptr) {
          completed->fetch_add(1, std::memory_order_relaxed);
        }
        if (response.status != serve::ServeStatus::kOk) {
          not_ok.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        lat[static_cast<size_t>(c)].push_back(response.total_ns);
        if (is_probe &&
            !TopKBitwiseEqual(response.items,
                              reference(response.snapshot_version,
                                        probe_idx))) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadStats out;
  out.seconds = watch.ElapsedMillis() / 1e3;
  for (const auto& per_client : lat) {
    out.latencies_ns.insert(out.latencies_ns.end(), per_client.begin(),
                            per_client.end());
  }
  out.mismatches = mismatches.load();
  out.not_ok = not_ok.load();
  return out;
}

// serve-bench's load and broker flags, read before any catalogue is
// loaded or generated.
struct ServeBenchFlags {
  int64_t requests = 0;
  int64_t clients = 0;
  int64_t topk = 0;
  int64_t deadline_ms = 0;
  int64_t seed = 0;
  int64_t update_every = 0;
  int64_t hot_add = 0;
  std::string json;
  serve::BrokerOptions broker;
};

// Train-while-serve benchmark (--update-every / --hot-add): three phases
// on one model, writing BENCH_liveupdate.json.
//
//   1. no_update      — live-mode broker, steady load, no publishes: the
//                       baseline latency profile.
//   2. live_update    — the same broker under the same load while an
//                       updater thread runs one optimizer step + publish
//                       every N completed requests (and hot-adds --hot-add
//                       items in chunks on publish-only updates, which
//                       take the incremental encode path). Workers keep
//                       pinning; nothing stalls.
//   3. strict_rebuild — a strict-mode broker on the same model while the
//                       updater invalidates the snapshot every N
//                       completed requests: every invalidation stalls the
//                       next pin behind a full rebuild (the historical
//                       protocol's cost).
//
// Every 4th request is a probe whose response is checked bitwise against
// a single-threaded reference computed from that response's pinned
// snapshot version; any divergence (or an unreachable hot-added item)
// exits nonzero.
int RunServeBenchLive(PMMRecModel& model, Dataset& ds,
                      const ServeBenchFlags& args) {
  const int64_t requests = args.requests;
  const int64_t clients = args.clients;
  const int64_t topk = args.topk;
  const int64_t hot_add = std::max<int64_t>(0, args.hot_add);
  int64_t update_every = args.update_every;
  if (update_every <= 0) update_every = std::max<int64_t>(1, requests / 8);

  serve::BrokerOptions options = args.broker;
  options.live_updates = true;

  std::vector<std::vector<int32_t>> probes;
  for (int64_t u = 0; u < std::min<int64_t>(8, ds.num_users()); ++u) {
    probes.push_back(ds.TestPrefix(u));
  }

  ReferenceBook refs;
  LoadStats no_update, live, strict;
  uint64_t updates_done = 0;
  int64_t hot_added = 0;
  bool hot_add_reachable = true;
  const int64_t original_items = ds.num_items();

  {
    serve::RequestBroker broker(&model, options);
    const std::shared_ptr<const ServingSnapshot> snap0 =
        model.item_table_cache().Pin();
    refs.Insert(snap0->version,
                ComputeProbeReference(model, snap0, probes, topk));
    const auto lookup = [&](uint64_t version, size_t probe) {
      return refs.Lookup(version, probe);
    };

    no_update =
        RunLoad(broker, ds, requests, clients, topk, probes, lookup, nullptr);

    LiveUpdater::Options uopts;
    uopts.max_seq_len = model.config().max_seq_len;
    LiveUpdater updater(&model, &ds, uopts);
    std::atomic<uint64_t> completed{0};
    std::atomic<bool> done{false};
    int64_t hot_remaining = hot_add;
    const int64_t hot_chunk =
        hot_add > 0 ? std::max<int64_t>(1, (hot_add + 1) / 2) : 0;
    std::thread update_thread([&] {
      uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t now = completed.load(std::memory_order_relaxed);
        if (now < last + static_cast<uint64_t>(update_every)) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        last = now;
        std::shared_ptr<const ServingSnapshot> snap;
        if (hot_remaining > 0) {
          // Hot-add rides a publish-only update: the param version is
          // unchanged, so only the new rows are encoded.
          const int64_t chunk = std::min(hot_chunk, hot_remaining);
          for (int64_t j = 0; j < chunk; ++j) {
            ds.items.push_back(
                ds.items[static_cast<size_t>(
                    (ds.num_items() * 40503) % original_items)]);
          }
          hot_remaining -= chunk;
          hot_added += chunk;
          snap = updater.Publish();
          // End-to-end reachability: full-catalogue exact retrieval from
          // the fresh snapshot must surface the newest id.
          const std::vector<std::vector<ScoredId>> ranked =
              model.RetrieveExactCandidatesOn(
                  snap,
                  std::span<const std::vector<int32_t>>(&probes[0], 1),
                  snap->num_items);
          const int32_t newest = static_cast<int32_t>(snap->num_items - 1);
          bool found = false;
          for (const ScoredId& s : ranked[0]) found = found || s.id == newest;
          hot_add_reachable = hot_add_reachable && found;
        } else {
          snap = updater.Step();
        }
        ++updates_done;
        refs.Insert(snap->version,
                    ComputeProbeReference(model, snap, probes, topk));
      }
    });
#ifdef __linux__
    // The snapshot protocol keeps builds off the serving hot path by
    // construction (workers never wait on the builder), but on a
    // CPU-starved host the builder still competes for cycles. Demote it
    // to background priority — the production posture for a co-located
    // train-while-serve updater: serving latency stays flat and updates
    // absorb only idle capacity.
    sched_param sp{};
    pthread_setschedparam(update_thread.native_handle(), SCHED_IDLE, &sp);
#endif
    live = RunLoad(broker, ds, requests, clients, topk, probes, lookup,
                   &completed);
    done.store(true, std::memory_order_release);
    update_thread.join();
    broker.Shutdown();
  }

  uint64_t strict_rebuilds = 0;
  {
    serve::BrokerOptions sopts = options;
    sopts.live_updates = false;
    serve::RequestBroker broker(&model, sopts);
    const std::shared_ptr<const ServingSnapshot> strict_snap =
        model.PinForServing();
    const std::vector<std::vector<ScoredId>> strict_ref =
        ComputeProbeReference(model, strict_snap, probes, topk);
    // Parameters are frozen in this phase, so every rebuild reproduces
    // the same tables bitwise and one reference covers all versions.
    const auto lookup = [&](uint64_t, size_t probe) {
      return strict_ref[probe];
    };
    std::atomic<uint64_t> completed{0};
    std::atomic<bool> done{false};
    std::thread invalidator([&] {
      uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t now = completed.load(std::memory_order_relaxed);
        if (now < last + static_cast<uint64_t>(update_every)) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        last = now;
        model.InvalidateServingSnapshot();
      }
    });
    strict = RunLoad(broker, ds, requests, clients, topk, probes, lookup,
                     &completed);
    done.store(true, std::memory_order_release);
    invalidator.join();
    strict_rebuilds = broker.stats().snapshot_rebuilds;
    broker.Shutdown();
  }

  const LivePct base_pct = ExactLivePct(no_update.latencies_ns);
  const LivePct live_pct = ExactLivePct(live.latencies_ns);
  const LivePct strict_pct = ExactLivePct(strict.latencies_ns);
  const uint64_t mismatches =
      no_update.mismatches + live.mismatches + strict.mismatches;
  const bool ok = mismatches == 0 && hot_add_reachable;
  const double live_ratio =
      base_pct.p99_us > 0 ? live_pct.p99_us / base_pct.p99_us : 0.0;
  const double strict_ratio =
      base_pct.p99_us > 0 ? strict_pct.p99_us / base_pct.p99_us : 0.0;

  std::printf("serve-bench live: %lld requests/phase, %lld clients, "
              "%lld workers, update every %lld, hot-add %lld, %lld items\n",
              static_cast<long long>(requests),
              static_cast<long long>(clients),
              static_cast<long long>(options.num_workers),
              static_cast<long long>(update_every),
              static_cast<long long>(hot_add),
              static_cast<long long>(ds.num_items()));
  std::printf("  no_update       %9.1f req/s  p50 %7.0f  p99 %7.0f  "
              "p99.9 %7.0f us\n",
              no_update.qps(), base_pct.p50_us, base_pct.p99_us,
              base_pct.p999_us);
  std::printf("  live_update     %9.1f req/s  p50 %7.0f  p99 %7.0f  "
              "p99.9 %7.0f us  (%llu updates, %lld hot-added, "
              "p99 %.2fx no-update)\n",
              live.qps(), live_pct.p50_us, live_pct.p99_us,
              live_pct.p999_us,
              static_cast<unsigned long long>(updates_done),
              static_cast<long long>(hot_added), live_ratio);
  std::printf("  strict_rebuild  %9.1f req/s  p50 %7.0f  p99 %7.0f  "
              "p99.9 %7.0f us  (%llu rebuild stalls, p99 %.2fx "
              "no-update)\n",
              strict.qps(), strict_pct.p50_us, strict_pct.p99_us,
              strict_pct.p999_us,
              static_cast<unsigned long long>(strict_rebuilds),
              strict_ratio);
  std::printf("  probes bitwise %s vs per-version reference%s\n",
              mismatches == 0 ? "EQUAL" : "DIFFERENT",
              hot_add > 0
                  ? (hot_add_reachable ? "; hot-added items reachable"
                                       : "; hot-added items MISSING")
                  : "");

  const std::string& path = args.json;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Fail(Status::IoError("cannot write " + path));
  std::fprintf(f,
               "{\n  \"bench\": \"liveupdate\",\n"
               "  \"requests_per_phase\": %lld,\n  \"clients\": %lld,\n"
               "  \"workers\": %lld,\n  \"update_every\": %lld,\n"
               "  \"hot_add\": %lld,\n  \"items\": %lld,\n",
               static_cast<long long>(requests),
               static_cast<long long>(clients),
               static_cast<long long>(options.num_workers),
               static_cast<long long>(update_every),
               static_cast<long long>(hot_add),
               static_cast<long long>(ds.num_items()));
  const auto phase = [&](const char* name, const LoadStats& stats,
                         const LivePct& pct, const char* tail) {
    std::fprintf(f,
                 "  \"%s\": {\"qps\": %.2f, \"p50_us\": %.1f, "
                 "\"p99_us\": %.1f, \"p999_us\": %.1f%s},\n",
                 name, stats.qps(), pct.p50_us, pct.p99_us, pct.p999_us,
                 tail);
  };
  phase("no_update", no_update, base_pct, "");
  char tail[128];
  std::snprintf(tail, sizeof(tail),
                ", \"updates\": %llu, \"hot_added\": %lld",
                static_cast<unsigned long long>(updates_done),
                static_cast<long long>(hot_added));
  phase("live_update", live, live_pct, tail);
  std::snprintf(tail, sizeof(tail), ", \"rebuild_stalls\": %llu",
                static_cast<unsigned long long>(strict_rebuilds));
  phase("strict_rebuild", strict, strict_pct, tail);
  std::fprintf(f,
               "  \"p99_live_over_no_update\": %.3f,\n"
               "  \"p99_strict_over_no_update\": %.3f,\n"
               "  \"bitwise_equal\": %s,\n  \"hot_add_reachable\": %s\n}\n",
               live_ratio, strict_ratio, mismatches == 0 ? "true" : "false",
               hot_add_reachable ? "true" : "false");
  std::fclose(f);
  std::printf("  wrote %s\n", path.c_str());
  return ok ? 0 : 1;
}

// Closed-loop broker load test: C client threads each fire their share of
// N requests back-to-back and block on the future before submitting the
// next one. With C > max_batch the broker sees sustained concurrency and
// coalesces; the printed percentiles are exact (computed from the raw
// sorted per-request latencies, not the trace histogram's bucket bounds).
int CmdServeBench(const FlagParser& flags) {
  // --items N swaps the on-disk dataset for a generated synthetic
  // catalogue of N items and skips the checkpoint load: serving cost does
  // not depend on parameter values, so an untrained model load-tests the
  // broker and the retrieval path at catalogue scales no checked-in
  // dataset reaches.
  const int64_t synth_items = flags.GetInt("items", 0);
  const std::string data = synth_items > 0 ? "" : flags.GetString("data");
  const std::string model_path =
      synth_items > 0 ? "" : flags.GetString("model");
  ModelFlags model_flags;
  const Status model_flags_st = ModelFlags::Read(flags, &model_flags);
  ServeBenchFlags args;
  args.requests = std::max<int64_t>(1, flags.GetInt("requests", 512));
  args.clients = std::max<int64_t>(1, flags.GetInt("clients", 8));
  args.topk = flags.GetInt("topk", 10);
  args.deadline_ms = flags.GetInt("deadline-ms", 0);
  // --seed S permutes which users each client walks (S=0 keeps the
  // historical derivation bit-for-bit), so repeated runs can sample a
  // different request mix without changing the load shape.
  args.seed = flags.GetInt("seed", 0);
  args.update_every = flags.GetInt("update-every", 0);
  args.hot_add = flags.GetInt("hot-add", 0);
  args.json = flags.GetString("json", "BENCH_liveupdate.json");
  args.broker.num_workers = flags.GetInt("workers", 2);
  args.broker.max_batch = flags.GetInt("max-batch", 32);
  args.broker.max_wait_us = flags.GetInt("max-wait-us", 200);
  args.broker.queue_capacity = flags.GetInt("queue-capacity", 1024);
  if (RejectUnreadFlags(flags)) return 2;
  if (!model_flags_st.ok()) return Fail(model_flags_st);

  Dataset ds;
  if (synth_items > 0) {
    SyntheticWorld world{WorldConfig{}};
    PlatformConfig pc;
    pc.name = "ServeBenchSynthetic";
    pc.platform = "Bili";
    pc.clusters = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    pc.n_items = static_cast<int32_t>(synth_items);
    pc.n_users = static_cast<int32_t>(std::min<int64_t>(synth_items, 2048));
    ds = DatasetGenerator(&world).Generate(pc);
  } else if (const Status st = LoadData(data, &ds); !st.ok()) {
    return Fail(st);
  }
  PMMRecModel model(model_flags.ConfigFor(ds), 1);
  if (synth_items <= 0) {
    if (const Status st = model.LoadFromFile(model_path); !st.ok()) {
      return Fail(st);
    }
  }
  model.AttachDataset(&ds);

  // Train-while-serve mode: --update-every / --hot-add switch to the
  // three-phase live-update benchmark (see RunServeBenchLive above).
  if (args.update_every > 0 || args.hot_add > 0) {
    return RunServeBenchLive(model, ds, args);
  }

  const int64_t requests = args.requests;
  const int64_t clients = args.clients;
  const int64_t topk = args.topk;
  const int64_t deadline_ms = args.deadline_ms;
  const int64_t seed = args.seed;
  const serve::BrokerOptions& options = args.broker;
  serve::RequestBroker broker(&model, options);

  std::vector<std::vector<uint64_t>> latencies(
      static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  Stopwatch watch;
  for (int64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const int64_t n =
          requests / clients + (c < requests % clients ? 1 : 0);
      for (int64_t i = 0; i < n; ++i) {
        const int64_t user =
            (seed * 31 + c * 7919 + i * 104729) % ds.num_users();
        serve::Request request;
        request.prefix = ds.TestPrefix(user);
        request.topk = topk;
        if (deadline_ms > 0) {
          request.deadline_ns = serve::DeadlineFromNow(deadline_ms * 1000);
        }
        const serve::Response response =
            broker.Submit(std::move(request)).get();
        if (response.status == serve::ServeStatus::kOk) {
          latencies[static_cast<size_t>(c)].push_back(response.total_ns);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = watch.ElapsedMillis() / 1e3;

  std::vector<uint64_t> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end());
  const auto pct = [&](double p) {
    if (all.empty()) return 0.0;
    const size_t idx = std::min(
        all.size() - 1,
        static_cast<size_t>(p / 100.0 * static_cast<double>(all.size())));
    return static_cast<double>(all[idx]) / 1e3;
  };
  const char* path_note = model.AnnServingEnabled() ? "ivf" : "exact";
  std::printf("serve-bench: %lld requests, %lld clients, %lld workers, "
              "max_batch %lld, max_wait %lld us, %lld items, %s path\n",
              static_cast<long long>(requests),
              static_cast<long long>(clients),
              static_cast<long long>(options.num_workers),
              static_cast<long long>(options.max_batch),
              static_cast<long long>(options.max_wait_us),
              static_cast<long long>(ds.num_items()), path_note);
  std::printf("  achieved %.1f req/s; latency us p50 %.0f p95 %.0f p99 %.0f\n",
              static_cast<double>(all.size()) / seconds, pct(50), pct(95),
              pct(99));
  const serve::BrokerStats stats = broker.stats();
  std::printf("  completed %llu, deadline_exceeded %llu, queue_full %llu; "
              "%llu batches, mean batch %.2f, max batch %llu\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.deadline_exceeded),
              static_cast<unsigned long long>(stats.rejected_queue_full),
              static_cast<unsigned long long>(stats.batches),
              stats.batches == 0
                  ? 0.0
                  : static_cast<double>(stats.batched_requests) /
                        static_cast<double>(stats.batches),
              static_cast<unsigned long long>(stats.max_batch));
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pmmrec_cli <gen-data|stats|train|evaluate|transfer|"
               "recommend|serve-bench> [--flags]\n(see the header of "
               "tools/pmmrec_cli.cc for per-command flags)\n");
  return 2;
}

}  // namespace
}  // namespace pmmrec

int main(int argc, char** argv) {
  using namespace pmmrec;
  FlagParser flags(argc, argv);
  if (flags.positional().empty()) return Usage();
  const int64_t threads = flags.GetInt("threads", 0);
  if (threads > 0) SetNumThreads(threads);
  const std::string trace_path = flags.GetString("trace");
  if (!trace_path.empty()) {
    trace::SetExportPath(trace_path);
    // An explicit PMMREC_TRACE_LEVEL (or an earlier SetLevel) wins; the
    // flag alone means full op-level tracing.
    if (!trace::Enabled(trace::Level::kEpoch)) {
      trace::SetLevel(trace::Level::kOp);
    }
  }
  const std::string command = flags.positional()[0];
  int rc = 2;
  if (command == "gen-data") rc = CmdGenData(flags);
  else if (command == "stats") rc = CmdStats(flags);
  else if (command == "train") rc = CmdTrain(flags);
  else if (command == "evaluate") rc = CmdEvaluate(flags);
  else if (command == "transfer") rc = CmdTransfer(flags);
  else if (command == "recommend") rc = CmdRecommend(flags);
  else if (command == "serve-bench") rc = CmdServeBench(flags);
  else return Usage();

  if (trace::Enabled(trace::Level::kEpoch)) {
    const std::string summary = trace::SummaryTable();
    if (!summary.empty()) std::printf("\n%s", summary.c_str());
    const Status st = trace::ExportConfigured();
    const std::string path = trace::ExportPath();
    if (!st.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n", st.ToString().c_str());
    } else if (!path.empty()) {
      std::printf("wrote trace %s and telemetry %s\n", path.c_str(),
                  trace::TelemetryPathFor(path).c_str());
    }
  }
  return rc;
}
