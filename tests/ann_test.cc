// The CandidateSource retrieval layer (core/ivf.h). The claims:
//
//  1. With the default config (no ANN), every broker response
//     is bitwise identical to the pre-candidate serial reference
//     (ScoreItems + TopKSelect) for every tested worker x thread
//     combination — the CandidateSource refactor moves no response bits
//     in exact mode.
//  2. RetrieveExactCandidates is bitwise TopKSelect over the full score
//     row, on a packed exact-route snapshot and on the plain rows of an
//     ANN snapshot alike, and IvfIndex at nprobe == nlist reproduces
//     ExactCandidateSource bit-for-bit (every row scanned, same kernel,
//     same order).
//  3. Candidate recall@10 is monotone in nprobe (probed lists are nested
//     as nprobe grows and in-list scores are exact).
//  4. With ANN serving on, the one-rebuild-per-param-update protocol
//     covers the IVF index: an optimizer step under concurrent client
//     load costs exactly one rebuild, and every served score is still
//     the exact fp32 score of its item.
//  5. Config contract: out-of-range nlist/nprobe and bad Retrieve
//     arguments die under PMM_CHECK.
//  6. The packed-list scan's edges: lists longer than one kNC tile, empty
//     lists, limits above the probed row count and non-finite scores —
//     each bitwise, at one and four threads.
//
// Labelled `ann`; CI also runs this suite under PMMREC_SANITIZE=thread.

#include "core/ivf.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pmmrec.h"
#include "data/batcher.h"
#include "data/generator.h"
#include "nn/optimizer.h"
#include "serve/broker.h"
#include "tensor/gemm.h"
#include "tests/test_util.h"
#include "utils/parallel.h"
#include "utils/rng.h"
#include "utils/topk.h"

namespace pmmrec {
namespace {

using serve::BrokerOptions;
using serve::BrokerStats;
using serve::Request;
using serve::RequestBroker;
using serve::Response;
using serve::ServeStatus;
using test::ExpectBitwise;

// Synthetic clustered table + queries (the geometry IVF exploits).
struct SyntheticTable {
  int64_t n = 0;
  int64_t d = 0;
  std::vector<float> rows;
  std::vector<float> queries;  // [nq, d]
  int64_t nq = 0;
};

SyntheticTable MakeClusteredTable(int64_t n, int64_t d, int64_t nq,
                                  uint64_t seed) {
  SyntheticTable t;
  t.n = n;
  t.d = d;
  t.nq = nq;
  const int64_t n_centers = 16;
  Rng rng(seed);
  std::vector<float> centers(static_cast<size_t>(n_centers * d));
  for (float& c : centers) c = rng.NormalFloat();
  t.rows.resize(static_cast<size_t>(n * d));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = i % n_centers;
    for (int64_t j = 0; j < d; ++j) {
      t.rows[static_cast<size_t>(i * d + j)] =
          centers[static_cast<size_t>(c * d + j)] + 0.3f * rng.NormalFloat();
    }
  }
  t.queries.resize(static_cast<size_t>(nq * d));
  for (int64_t q = 0; q < nq; ++q) {
    const int64_t c = rng.UniformInt(0, n_centers);
    for (int64_t j = 0; j < d; ++j) {
      t.queries[static_cast<size_t>(q * d + j)] =
          centers[static_cast<size_t>(c * d + j)] + 0.3f * rng.NormalFloat();
    }
  }
  return t;
}

// --- Claim 1: exact broker path is bitwise the pre-candidate scan. ----------

// Constructs models per test (default vs ann_serving configs), so only
// the dataset/config half of the fixture is shared.
using AnnServeTest = test::SuiteDatasetTest;

TEST_F(AnnServeTest, ExactBrokerBitwiseEqualAcrossWorkersAndThreads) {
  constexpr int64_t kTopK = 10;
  PMMRecModel model(config_, 42);
  model.AttachDataset(&ds_);
  ASSERT_FALSE(model.AnnServingEnabled());

  std::vector<std::vector<int32_t>> prefixes;
  for (int64_t u = 0; u < 16; ++u) {
    prefixes.push_back(ds_.TestPrefix(u % ds_.num_users()));
  }
  std::vector<std::vector<ScoredId>> want;
  {
    NumThreadsGuard guard(1);
    for (const auto& prefix : prefixes) {
      want.push_back(test::SerialTopK(model, prefix, kTopK));
    }
  }

  for (const int64_t threads : {int64_t{1}, int64_t{4}}) {
    NumThreadsGuard guard(threads);
    for (const int64_t workers : {int64_t{1}, int64_t{4}}) {
      BrokerOptions options;
      options.num_workers = workers;
      options.max_batch = 8;
      options.max_wait_us = 200;
      options.queue_capacity = 64;
      RequestBroker broker(&model, options);
      std::vector<std::future<Response>> futures;
      for (const auto& prefix : prefixes) {
        Request request;
        request.prefix = prefix;
        request.topk = kTopK;
        futures.push_back(broker.Submit(std::move(request)));
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        const Response response = futures[i].get();
        const std::string what = "threads=" + std::to_string(threads) +
                                 " workers=" + std::to_string(workers) +
                                 " request=" + std::to_string(i);
        ASSERT_EQ(response.status, ServeStatus::kOk) << what;
        ExpectBitwise(response.items, want[i], what);
      }
      EXPECT_EQ(broker.stats().ann_batches, 0u)
          << "ANN branch taken without ann_serving";
    }
  }
}

TEST_F(AnnServeTest, RetrieveExactCandidatesIsBitwiseFullScan) {
  constexpr int64_t kLimit = 25;
  PMMRecModel model(config_, 42);
  model.AttachDataset(&ds_);
  model.PrepareForEval();
  std::vector<std::vector<int32_t>> prefixes;
  for (int64_t u = 0; u < 6; ++u) prefixes.push_back(ds_.TestPrefix(u));
  const std::vector<std::vector<ScoredId>> got =
      model.RetrieveExactCandidates(prefixes, kLimit);
  ASSERT_EQ(got.size(), prefixes.size());
  for (size_t i = 0; i < prefixes.size(); ++i) {
    const std::vector<float> scores = model.ScoreItems(prefixes[i]);
    const std::vector<ScoredId> want = TopKSelect(
        scores.data(), static_cast<int64_t>(scores.size()), kLimit);
    ExpectBitwise(got[i], want, "prefix " + std::to_string(i));
  }

  // The tiled scan at scale: a catalogue of three scan tiles (the last
  // ragged), one batch holding every effective length 1..max_seq_len
  // (one packed encoder pass and one scan serve them all) plus duplicate
  // prefixes, on the packed copy of an exact-route snapshot and on the
  // plain rows of an ANN snapshot, at one and four threads.
  SyntheticWorld world{WorldConfig{}};
  PlatformConfig pc;
  pc.name = "ScanTiles";
  pc.platform = "Bili";
  pc.clusters = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  pc.n_items = static_cast<int32_t>(2 * gemm::kNC + 100);
  pc.n_users = 16;
  const Dataset tiles = DatasetGenerator(&world).Generate(pc);
  const int64_t max_len = PMMRecConfig::FromDataset(tiles).max_seq_len;
  Rng rng(7);
  std::vector<std::vector<int32_t>> batch;
  for (int64_t len = 1; len <= max_len + 2; ++len) {
    std::vector<int32_t> prefix;
    for (int64_t l = 0; l < len; ++l) {
      prefix.push_back(static_cast<int32_t>(rng.UniformInt(0, pc.n_items)));
    }
    batch.push_back(prefix);
    if (len % 4 == 0) batch.push_back(prefix);  // duplicate prefix
  }
  for (const bool ann : {false, true}) {
    PMMRecConfig config = PMMRecConfig::FromDataset(tiles);
    config.ann_serving = ann;
    PMMRecModel tiled(config, 42);
    tiled.AttachDataset(&tiles);
    const std::shared_ptr<const ServingSnapshot> snap = tiled.PinForServing();
    // Only the exact route carries the packed copy.
    ASSERT_EQ(snap->packed_table(0) != nullptr, !ann);
    std::vector<std::vector<ScoredId>> want;
    for (const std::vector<int32_t>& prefix : batch) {
      const std::vector<float> scores = tiled.ScoreItems(prefix);
      want.push_back(TopKSelect(scores.data(), pc.n_items, kLimit));
    }
    for (const int64_t threads : {int64_t{1}, int64_t{4}}) {
      NumThreadsGuard guard(threads);
      const std::vector<std::vector<ScoredId>> tiled_got =
          tiled.RetrieveExactCandidatesOn(snap, batch, kLimit);
      ASSERT_EQ(tiled_got.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        ExpectBitwise(tiled_got[i], want[i],
                      std::string(ann ? "ann" : "exact") +
                          " snapshot, threads=" + std::to_string(threads) +
                          " prefix " + std::to_string(i));
      }
    }
  }
}

// --- Claim 4: rebuild-exactly-once with the IVF index riding along. ---------

TEST_F(AnnServeTest, ParamUpdateMidLoadRebuildsOnceWithAnnEnabled) {
  constexpr int64_t kTopK = 5;
  PMMRecConfig config = config_;
  config.ann_serving = true;
  PMMRecModel model(config, 42);
  model.AttachDataset(&ds_);

  BrokerOptions options;
  options.num_workers = 2;
  options.max_batch = 1;  // Maximal concurrency against the rebuild.
  options.max_wait_us = 0;
  RequestBroker broker(&model, options);

  const Response before = broker.Recommend(ds_.TestPrefix(0), kTopK);
  ASSERT_EQ(before.status, ServeStatus::kOk);
  ASSERT_TRUE(model.AnnServingEnabled());
  ASSERT_TRUE(model.item_table_cache().ann_enabled());
  const uint64_t rebuilds_before = model.item_table_cache().rebuilds();

  // A real optimizer step: the fp32 table AND the IVF index go stale.
  test::TrainOneStep(model, ds_, config.max_seq_len);
  ASSERT_FALSE(model.item_table_cache().valid());

  constexpr int64_t kClients = 4;
  std::vector<std::thread> clients;
  std::vector<Response> responses(kClients);
  for (int64_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      responses[static_cast<size_t>(c)] =
          broker.Recommend(ds_.TestPrefix(c), kTopK);
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(model.item_table_cache().rebuilds(), rebuilds_before + 1);
  EXPECT_TRUE(model.item_table_cache().valid());
  EXPECT_GT(broker.stats().ann_batches, 0u);

  // ANN may narrow WHICH items are served, but every served score must
  // be the exact post-update fp32 score of its item.
  for (int64_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[static_cast<size_t>(c)].status, ServeStatus::kOk);
    const std::vector<float> scores = model.ScoreItems(ds_.TestPrefix(c));
    for (const ScoredId& item : responses[static_cast<size_t>(c)].items) {
      EXPECT_EQ(std::memcmp(&item.score,
                            &scores[static_cast<size_t>(item.id)],
                            sizeof(float)),
                0)
          << "client " << c << " item " << item.id;
    }
  }
}

// --- Claim 2: nprobe == nlist reproduces the exact source bitwise. ----------

TEST(IvfIndexTest, FullProbeBitwiseEqualsExactSource) {
  const SyntheticTable t = MakeClusteredTable(600, 12, 24, 21);
  constexpr int64_t kLimit = 15;
  ExactCandidateSource exact(t.rows.data(), t.n, t.d);
  const std::vector<std::vector<ScoredId>> want =
      exact.Retrieve(t.queries.data(), t.nq, kLimit);

  IvfConfig config;
  config.nlist = 20;
  config.nprobe = 20;
  IvfIndex index;
  index.Build(t.rows.data(), t.n, t.d, config);
  EXPECT_EQ(index.nlist(), 20);
  EXPECT_EQ(index.nprobe(), 20);
  const std::vector<std::vector<ScoredId>> got =
      IvfCandidateSource(&index).Retrieve(t.queries.data(), t.nq, kLimit);
  ASSERT_EQ(got.size(), want.size());
  for (size_t q = 0; q < want.size(); ++q) {
    ExpectBitwise(got[q], want[q], "query " + std::to_string(q));
  }
}

TEST(IvfIndexTest, RetrieveDeterministicAcrossThreadCounts) {
  const SyntheticTable t = MakeClusteredTable(400, 8, 16, 33);
  IvfConfig config;
  IvfIndex index;
  index.Build(t.rows.data(), t.n, t.d, config);
  std::vector<std::vector<std::vector<ScoredId>>> runs;
  for (const int64_t threads : {1, 4}) {
    NumThreadsGuard guard(threads);
    runs.push_back(
        IvfCandidateSource(&index).Retrieve(t.queries.data(), t.nq, 10));
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (size_t q = 0; q < runs[0].size(); ++q) {
    ExpectBitwise(runs[1][q], runs[0][q], "query " + std::to_string(q));
  }
}

// --- Claim 3: recall@10 is monotone in nprobe. ------------------------------

TEST(IvfIndexTest, RecallMonotoneInNprobe) {
  const SyntheticTable t = MakeClusteredTable(800, 12, 32, 5);
  constexpr int64_t kTopK = 10;
  ExactCandidateSource exact(t.rows.data(), t.n, t.d);
  const std::vector<std::vector<ScoredId>> truth =
      exact.Retrieve(t.queries.data(), t.nq, kTopK);

  const int64_t nlist = 24;
  double previous = -1.0;
  for (const int64_t nprobe : {1, 2, 4, 8, 16, 24}) {
    IvfConfig config;
    config.nlist = nlist;
    config.nprobe = nprobe;
    IvfIndex index;
    index.Build(t.rows.data(), t.n, t.d, config);
    const std::vector<std::vector<ScoredId>> got =
        IvfCandidateSource(&index).Retrieve(t.queries.data(), t.nq, kTopK);
    double recall = 0;
    for (int64_t q = 0; q < t.nq; ++q) {
      int64_t hit = 0;
      for (const ScoredId& e : truth[static_cast<size_t>(q)]) {
        for (const ScoredId& g : got[static_cast<size_t>(q)]) {
          if (g.id == e.id) {
            ++hit;
            break;
          }
        }
      }
      recall += static_cast<double>(hit) /
                static_cast<double>(truth[static_cast<size_t>(q)].size());
    }
    recall /= static_cast<double>(t.nq);
    // Probed lists are nested as nprobe grows and in-list scores exact,
    // so per-query recall can only grow.
    EXPECT_GE(recall, previous) << "nprobe " << nprobe;
    previous = recall;
  }
  EXPECT_EQ(previous, 1.0) << "full probe must recall everything";
}

// --- Claim 6: the packed-list scan at its edges. ----------------------------

// Full-probe IVF over `rows` against the exact source, at limits
// `limits` and at one and four threads: bitwise equal, and every list in
// strict canonical order.
void ExpectFullProbeIsExact(const std::vector<float>& rows, int64_t n,
                            int64_t d, const std::vector<float>& queries,
                            int64_t nq, const IvfIndex& index,
                            const std::vector<int64_t>& limits,
                            const std::string& what) {
  ASSERT_EQ(index.nprobe(), index.nlist());
  ExactCandidateSource exact(rows.data(), n, d);
  for (const int64_t limit : limits) {
    const std::vector<std::vector<ScoredId>> want =
        exact.Retrieve(queries.data(), nq, limit);
    for (const int64_t threads : {int64_t{1}, int64_t{4}}) {
      NumThreadsGuard guard(threads);
      const std::vector<std::vector<ScoredId>> got =
          index.Retrieve(queries.data(), nq, limit);
      ASSERT_EQ(got.size(), want.size());
      for (size_t q = 0; q < want.size(); ++q) {
        const std::string where = what + " limit=" + std::to_string(limit) +
                                  " threads=" + std::to_string(threads) +
                                  " query " + std::to_string(q);
        ASSERT_EQ(static_cast<int64_t>(got[q].size()), std::min(limit, n))
            << where;
        ExpectBitwise(got[q], want[q], where);
        for (size_t i = 1; i < got[q].size(); ++i) {
          EXPECT_TRUE(RanksBefore(got[q][i - 1], got[q][i]))
              << where << " position " << i;
        }
      }
    }
  }
}

TEST(IvfScanTest, ListLongerThanOneTile) {
  const SyntheticTable t = MakeClusteredTable(1500, 12, 8, 41);
  IvfConfig config;
  config.nlist = 2;
  config.nprobe = 2;
  IvfIndex index;
  index.Build(t.rows.data(), t.n, t.d, config);
  EXPECT_GT(std::max(index.list_size(0), index.list_size(1)), gemm::kNC);
  ExpectFullProbeIsExact(t.rows, t.n, t.d, t.queries, t.nq, index,
                         {1, 25, gemm::kNC + 3}, "nlist 2");
}

TEST(IvfScanTest, EmptyListsAndLimitAboveTheProbedRows) {
  // Three distinct rows, each repeated: k-means seeds coincide, so some
  // of the six lists stay empty, and every score ties with a third of
  // the table (the id tie-break decides the order).
  const int64_t n = 90;
  const int64_t d = 8;
  const SyntheticTable base = MakeClusteredTable(3, d, 6, 43);
  std::vector<float> rows(static_cast<size_t>(n * d));
  for (int64_t i = 0; i < n; ++i) {
    std::copy_n(base.rows.begin() + (i % 3) * d, d, rows.begin() + i * d);
  }
  IvfConfig config;
  config.nlist = 6;
  config.nprobe = 6;
  IvfIndex full;
  full.Build(rows.data(), n, d, config);
  int64_t empty = 0;
  for (int64_t l = 0; l < full.nlist(); ++l) empty += full.list_size(l) == 0;
  EXPECT_GT(empty, 0);
  ExpectFullProbeIsExact(rows, n, d, base.queries, base.nq, full,
                         {1, 31, n, n + 50}, "duplicated rows");

  // Probing part of a clustered table with limit above n returns every
  // probed row, each with its exact score, in canonical order.
  const SyntheticTable t = MakeClusteredTable(400, 8, 6, 45);
  config.nlist = 8;
  config.nprobe = 3;
  IvfIndex partial;
  partial.Build(t.rows.data(), t.n, t.d, config);
  const std::vector<std::vector<ScoredId>> exact =
      ExactCandidateSource(t.rows.data(), t.n, t.d)
          .Retrieve(t.queries.data(), t.nq, t.n);
  for (const int64_t threads : {int64_t{1}, int64_t{4}}) {
    NumThreadsGuard guard(threads);
    const std::vector<std::vector<ScoredId>> got =
        partial.Retrieve(t.queries.data(), t.nq, t.n + 50);
    for (int64_t q = 0; q < t.nq; ++q) {
      const std::vector<ScoredId>& row = got[static_cast<size_t>(q)];
      EXPECT_GT(row.size(), 0u);
      EXPECT_LT(static_cast<int64_t>(row.size()), t.n);
      // The exact list restricted to the returned ids, in its order.
      std::vector<int32_t> ids;
      for (const ScoredId& e : row) ids.push_back(e.id);
      std::sort(ids.begin(), ids.end());
      std::vector<ScoredId> want;
      for (const ScoredId& e : exact[static_cast<size_t>(q)]) {
        if (std::binary_search(ids.begin(), ids.end(), e.id)) {
          want.push_back(e);
        }
      }
      ExpectBitwise(row, want, "partial probe, threads=" +
                                   std::to_string(threads) + " query " +
                                   std::to_string(q));
    }
  }
}

TEST(IvfScanTest, NonFiniteScoresKeepTheCanonicalOrder) {
  // NaN, +-inf and zero scores: a NaN row, rows whose one non-zero
  // component is +-inf (score +-inf by the sign of the query's first
  // component), and an all-zero row, among ordinary clustered rows.
  SyntheticTable t = MakeClusteredTable(600, 12, 12, 47);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  auto set_row = [&](int64_t i, float first, float rest) {
    std::fill_n(t.rows.begin() + i * t.d, t.d, rest);
    t.rows[static_cast<size_t>(i * t.d)] = first;
  };
  set_row(17, nan, nan);
  set_row(230, inf, 0.0f);
  set_row(231, -inf, 0.0f);
  set_row(402, 0.0f, 0.0f);
  set_row(599, inf, 0.0f);
  IvfConfig config;
  config.nlist = 20;
  config.nprobe = 20;
  IvfIndex index;
  index.Build(t.rows.data(), t.n, t.d, config);
  ExpectFullProbeIsExact(t.rows, t.n, t.d, t.queries, t.nq, index,
                         {1, 15, t.n}, "non-finite rows");
  // The NaN row ranks after every number.
  const std::vector<std::vector<ScoredId>> all =
      index.Retrieve(t.queries.data(), t.nq, t.n);
  for (const std::vector<ScoredId>& row : all) {
    EXPECT_EQ(row.back().id, 17);
  }
}

// --- Claim 5: contract death tests. -----------------------------------------

TEST(IvfDeathTest, NlistOutOfRange) {
  EXPECT_DEATH(IvfIndex::ResolveNlist(101, 100), "nlist");
  EXPECT_DEATH(IvfIndex::ResolveNlist(-1, 100), "nlist");
}

TEST(IvfDeathTest, NprobeOutOfRange) {
  EXPECT_DEATH(IvfIndex::ResolveNprobe(11, 10), "nprobe");
  EXPECT_DEATH(IvfIndex::ResolveNprobe(-2, 10), "nprobe");
}

TEST(IvfDeathTest, BadRetrieveArguments) {
  const SyntheticTable t = MakeClusteredTable(100, 4, 2, 3);
  IvfIndex unbuilt;
  EXPECT_DEATH(unbuilt.Retrieve(t.queries.data(), 1, 10), "PMM_CHECK");
  IvfConfig config;
  IvfIndex index;
  index.Build(t.rows.data(), t.n, t.d, config);
  EXPECT_DEATH(index.Retrieve(t.queries.data(), 1, 0), "PMM_CHECK");
  EXPECT_DEATH(index.Retrieve(nullptr, 1, 10), "PMM_CHECK");
}

}  // namespace
}  // namespace pmmrec
