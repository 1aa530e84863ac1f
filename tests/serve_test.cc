// The serving broker (src/serve/broker.h). The load-bearing claims:
//
//  1. Determinism under nondeterministic batching — a broker response is
//     bitwise identical to the serial single-user path (ScoreItems +
//     TopKSelect) for every tested combination of worker count, intra-op
//     thread count, coalescing policy, arrival pattern, duplicate
//     merging, and history exclusion on or off. Which batch a request
//     lands in must never show in its response.
//  2. Backpressure and deadlines are checked statuses, never hangs:
//     queue-full rejects at submit, expired deadlines shed at dequeue,
//     invalid requests reject immediately, item ids outside the pinned
//     catalogue reject at dequeue without disturbing their batch,
//     shutdown flushes the queue.
//  3. Invalidation safety — a parameter update between requests triggers
//     exactly one item-table rebuild across all workers, and no response
//     is ever computed from a torn table.
//
// Labelled `serve`; CI also runs this suite under PMMREC_SANITIZE=thread.

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pmmrec.h"
#include "data/batcher.h"
#include "data/generator.h"
#include "nn/optimizer.h"
#include "serve/broker.h"
#include "tests/test_util.h"
#include "utils/parallel.h"
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

using ServeTest = test::SmallModelTest;

TEST_F(ServeTest, BitwiseEqualAcrossWorkersThreadsAndPolicies) {
  constexpr int64_t kTopK = 10;
  const std::vector<std::vector<int32_t>> prefixes = MixedPrefixes(24);
  std::vector<std::vector<ScoredId>> want;
  {
    NumThreadsGuard guard(1);
    for (const auto& prefix : prefixes) {
      want.push_back(SerialReference(prefix, kTopK));
    }
  }

  struct Policy {
    int64_t max_batch;
    int64_t max_wait_us;
  };
  for (const int64_t threads : {int64_t{1}, int64_t{4}}) {
    NumThreadsGuard guard(threads);
    for (const int64_t workers : {int64_t{1}, int64_t{4}}) {
      for (const Policy policy : {Policy{1, 0}, Policy{16, 500}}) {
        BrokerOptions options;
        options.num_workers = workers;
        options.max_batch = policy.max_batch;
        options.max_wait_us = policy.max_wait_us;
        options.queue_capacity = 64;
        RequestBroker broker(&model_, options);

        std::vector<std::future<Response>> futures;
        for (const auto& prefix : prefixes) {
          Request request;
          request.prefix = prefix;
          request.topk = kTopK;
          futures.push_back(broker.Submit(std::move(request)));
        }
        for (size_t i = 0; i < futures.size(); ++i) {
          const Response response = futures[i].get();
          const std::string what =
              "threads=" + std::to_string(threads) +
              " workers=" + std::to_string(workers) +
              " max_batch=" + std::to_string(policy.max_batch) +
              " request=" + std::to_string(i);
          ASSERT_EQ(response.status, ServeStatus::kOk) << what;
          ExpectBitwise(response.items, want[i], what);
        }
      }
    }
  }
}

TEST_F(ServeTest, AdversarialArrivalPatternsDoNotChangeResponses) {
  constexpr int64_t kTopK = 10;
  const std::vector<std::vector<int32_t>> prefixes = MixedPrefixes(16);
  std::vector<std::vector<ScoredId>> want;
  for (const auto& prefix : prefixes) {
    want.push_back(SerialReference(prefix, kTopK));
  }

  BrokerOptions options;
  options.num_workers = 2;
  options.max_batch = 16;
  options.max_wait_us = 200;
  options.queue_capacity = 64;
  RequestBroker broker(&model_, options);

  const auto submit = [&](size_t i) {
    Request request;
    request.prefix = prefixes[i];
    request.topk = kTopK;
    return broker.Submit(std::move(request));
  };

  // Pattern 1: trickle — one outstanding request at a time, so most
  // batches have size 1.
  for (size_t i = 0; i < prefixes.size(); ++i) {
    const Response response = submit(i).get();
    ASSERT_EQ(response.status, ServeStatus::kOk);
    ExpectBitwise(response.items, want[i], "trickle " + std::to_string(i));
  }

  // Pattern 2: paused accumulation — requests pile up while no worker may
  // start, then coalesce into one maximal batch on Resume.
  broker.Pause();
  std::vector<std::future<Response>> futures;
  for (size_t i = 0; i < prefixes.size(); ++i) futures.push_back(submit(i));
  broker.Resume();
  for (size_t i = 0; i < futures.size(); ++i) {
    const Response response = futures[i].get();
    ASSERT_EQ(response.status, ServeStatus::kOk);
    ExpectBitwise(response.items, want[i], "paused " + std::to_string(i));
    EXPECT_GT(response.batch_size, 1) << "paused accumulation never "
                                         "coalesced; the pattern is not "
                                         "adversarial";
  }

  // Pattern 3: duplicate storm — the same prefix many times, interleaved
  // with distinct ones; duplicates collapse onto one scored row.
  const BrokerStats before = broker.stats();
  futures.clear();
  broker.Pause();
  for (int round = 0; round < 3; ++round) {
    for (const size_t i : {size_t{0}, size_t{1}}) futures.push_back(submit(i));
    futures.push_back(submit(2 + static_cast<size_t>(round)));
  }
  broker.Resume();
  for (size_t f = 0; f < futures.size(); ++f) {
    const Response response = futures[f].get();
    ASSERT_EQ(response.status, ServeStatus::kOk);
    const size_t i = f % 3 == 2 ? 2 + f / 3 : f % 3;
    ExpectBitwise(response.items, want[i], "dup-storm " + std::to_string(f));
  }
  EXPECT_GT(broker.stats().merged_requests, before.merged_requests)
      << "duplicate storm collapsed nothing";
}

TEST_F(ServeTest, MergeDuplicatesOffMatchesMergeDuplicatesOn) {
  constexpr int64_t kTopK = 7;
  const std::vector<int32_t> prefix = ds_.TestPrefix(3);
  const std::vector<ScoredId> want = SerialReference(prefix, kTopK);

  for (const bool merge : {true, false}) {
    BrokerOptions options;
    options.num_workers = 1;
    options.max_batch = 8;
    options.max_wait_us = 200;
    options.merge_duplicates = merge;
    RequestBroker broker(&model_, options);

    broker.Pause();
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 6; ++i) {
      Request request;
      request.prefix = prefix;
      request.topk = kTopK;
      futures.push_back(broker.Submit(std::move(request)));
    }
    broker.Resume();
    for (auto& future : futures) {
      const Response response = future.get();
      ASSERT_EQ(response.status, ServeStatus::kOk);
      ExpectBitwise(response.items, want,
                    merge ? "merge=on" : "merge=off");
    }
    const BrokerStats stats = broker.stats();
    if (merge) {
      EXPECT_GT(stats.merged_requests, 0u);
    } else {
      EXPECT_EQ(stats.merged_requests, 0u);
    }
  }
}

TEST_F(ServeTest, HistoryExclusionOnAndOffMatchSerialTopK) {
  constexpr int64_t kTopK = 10;
  const std::vector<int32_t> prefix = ds_.TestPrefix(5);

  for (const bool exclude : {true, false}) {
    BrokerOptions options;
    options.num_workers = 1;
    options.exclude_history = exclude;
    RequestBroker broker(&model_, options);
    const Response response = broker.Recommend(prefix, kTopK);
    ASSERT_EQ(response.status, ServeStatus::kOk);

    const std::vector<float> scores = model_.ScoreItems(prefix);
    const std::vector<ScoredId> want = TopKSelect(
        scores.data(), static_cast<int64_t>(scores.size()), kTopK,
        exclude ? std::span<const int32_t>(prefix)
                : std::span<const int32_t>());
    ExpectBitwise(response.items, want,
                  exclude ? "exclude=on" : "exclude=off");
    if (exclude) {
      for (const ScoredId& item : response.items) {
        for (const int32_t h : prefix) {
          EXPECT_NE(item.id, h) << "history item served";
        }
      }
    }
  }
}

TEST_F(ServeTest, ExpiredDeadlineIsShedWithCheckedStatus) {
  BrokerOptions options;
  options.num_workers = 1;
  options.max_batch = 4;
  options.max_wait_us = 0;
  RequestBroker broker(&model_, options);

  broker.Pause();
  Request doomed;
  doomed.prefix = ds_.TestPrefix(0);
  doomed.topk = 5;
  doomed.deadline_ns = serve::DeadlineFromNow(/*budget_us=*/100);
  std::future<Response> doomed_future = broker.Submit(std::move(doomed));

  Request healthy;
  healthy.prefix = ds_.TestPrefix(1);
  healthy.topk = 5;  // No deadline: must be scored normally.
  std::future<Response> healthy_future = broker.Submit(std::move(healthy));

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  broker.Resume();

  const Response shed = doomed_future.get();
  EXPECT_EQ(shed.status, ServeStatus::kDeadlineExceeded);
  EXPECT_TRUE(shed.items.empty());
  EXPECT_GT(shed.queue_ns, 0u);

  const Response ok = healthy_future.get();
  EXPECT_EQ(ok.status, ServeStatus::kOk);
  ExpectBitwise(ok.items, SerialReference(ds_.TestPrefix(1), 5), "healthy");

  EXPECT_EQ(broker.stats().deadline_exceeded, 1u);
}

TEST_F(ServeTest, FullQueueRejectsImmediatelyWithCheckedStatus) {
  BrokerOptions options;
  options.num_workers = 1;
  options.max_batch = 4;
  options.queue_capacity = 2;
  RequestBroker broker(&model_, options);

  broker.Pause();
  const auto submit = [&](int64_t user) {
    Request request;
    request.prefix = ds_.TestPrefix(user);
    request.topk = 5;
    return broker.Submit(std::move(request));
  };
  std::future<Response> first = submit(0);
  std::future<Response> second = submit(1);
  std::future<Response> overflow = submit(2);

  // The rejection resolves immediately — no worker involvement, no block.
  ASSERT_EQ(overflow.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(overflow.get().status, ServeStatus::kQueueFull);
  EXPECT_EQ(broker.stats().rejected_queue_full, 1u);

  broker.Resume();
  EXPECT_EQ(first.get().status, ServeStatus::kOk);
  EXPECT_EQ(second.get().status, ServeStatus::kOk);
}

TEST_F(ServeTest, InvalidRequestsRejectImmediately) {
  RequestBroker broker(&model_, BrokerOptions{});

  Request empty_prefix;
  empty_prefix.topk = 5;
  std::future<Response> no_prefix = broker.Submit(std::move(empty_prefix));
  ASSERT_EQ(no_prefix.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(no_prefix.get().status, ServeStatus::kInvalidRequest);

  Request bad_topk;
  bad_topk.prefix = ds_.TestPrefix(0);
  bad_topk.topk = 0;
  EXPECT_EQ(broker.Submit(std::move(bad_topk)).get().status,
            ServeStatus::kInvalidRequest);
  EXPECT_EQ(broker.stats().rejected_invalid, 2u);
}

TEST_F(ServeTest, OutOfCatalogueIdsRejectWithoutDisturbingTheirBatch) {
  constexpr int64_t kTopK = 5;
  BrokerOptions options;
  options.num_workers = 1;
  options.max_batch = 16;
  options.max_wait_us = 0;
  RequestBroker broker(&model_, options);

  const std::vector<std::vector<int32_t>> valid = MixedPrefixes(6);
  std::vector<int32_t> negative = valid[1];
  negative.push_back(-1);
  std::vector<int32_t> past_end = valid[2];
  past_end.insert(past_end.begin(), static_cast<int32_t>(ds_.num_items()));
  // Interleaved so the invalid rows sit between valid ones in one batch;
  // the repeated invalid prefix also exercises duplicate merging.
  const std::vector<std::vector<int32_t>> sent = {
      valid[0], negative, valid[1], past_end, valid[2],
      negative, valid[3], valid[4], valid[5]};

  broker.Pause();
  std::vector<std::future<Response>> futures;
  for (const auto& prefix : sent) {
    Request request;
    request.prefix = prefix;
    request.topk = kTopK;
    futures.push_back(broker.Submit(std::move(request)));
  }
  broker.Resume();

  for (size_t i = 0; i < sent.size(); ++i) {
    const Response response = futures[i].get();
    const bool invalid = sent[i] == negative || sent[i] == past_end;
    const std::string what = "request " + std::to_string(i);
    if (invalid) {
      EXPECT_EQ(response.status, ServeStatus::kInvalidRequest) << what;
      EXPECT_TRUE(response.items.empty()) << what;
      continue;
    }
    ASSERT_EQ(response.status, ServeStatus::kOk) << what;
    ExpectBitwise(response.items, SerialReference(sent[i], kTopK), what);
  }
  const BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.batches, 1u) << "the requests did not share one batch";
  EXPECT_EQ(stats.rejected_invalid, 3u);
  EXPECT_EQ(stats.completed, 6u);
}

TEST_F(ServeTest, ShutdownFlushesQueuedRequestsAndRejectsNewOnes) {
  BrokerOptions options;
  options.num_workers = 1;
  RequestBroker broker(&model_, options);

  broker.Pause();
  Request request;
  request.prefix = ds_.TestPrefix(0);
  request.topk = 5;
  std::future<Response> queued = broker.Submit(std::move(request));
  broker.Shutdown();

  EXPECT_EQ(queued.get().status, ServeStatus::kShutdown);
  EXPECT_EQ(broker.stats().shutdown_flushed, 1u);

  Request late;
  late.prefix = ds_.TestPrefix(1);
  late.topk = 5;
  EXPECT_EQ(broker.Submit(std::move(late)).get().status,
            ServeStatus::kShutdown);
}

TEST_F(ServeTest, ParamUpdateBetweenRequestsRebuildsExactlyOnce) {
  constexpr int64_t kTopK = 10;
  BrokerOptions options;
  options.num_workers = 2;
  options.max_batch = 1;  // Every request is its own batch: maximal
  options.max_wait_us = 0;  // concurrency against the rebuild protocol.
  RequestBroker broker(&model_, options);

  // Warm request against the fresh table.
  const Response before = broker.Recommend(ds_.TestPrefix(0), kTopK);
  ASSERT_EQ(before.status, ServeStatus::kOk);
  const uint64_t rebuilds_before = model_.item_table_cache().rebuilds();

  // A real optimizer step between requests: the item table is now stale.
  test::TrainOneStep(model_, ds_, config_.max_seq_len);
  ASSERT_FALSE(model_.item_table_cache().valid());

  // Concurrent clients race both workers into the stale-cache path.
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

  // Exactly one rebuild, no matter how many workers hit the stale table.
  EXPECT_EQ(model_.item_table_cache().rebuilds(), rebuilds_before + 1);
  EXPECT_TRUE(model_.item_table_cache().valid());

  // And no torn read: every response matches the post-update serial path.
  for (int64_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[static_cast<size_t>(c)].status, ServeStatus::kOk);
    ExpectBitwise(responses[static_cast<size_t>(c)].items,
                  SerialReference(ds_.TestPrefix(c), kTopK),
                  "post-update client " + std::to_string(c));
  }
}

TEST_F(ServeTest, ConcurrentSubmittersAllGetCorrectResponses) {
  constexpr int64_t kTopK = 10;
  constexpr int64_t kSubmitters = 4;
  constexpr int64_t kPerSubmitter = 25;

  const std::vector<std::vector<int32_t>> prefixes = MixedPrefixes(16);
  std::vector<std::vector<ScoredId>> want;
  for (const auto& prefix : prefixes) {
    want.push_back(SerialReference(prefix, kTopK));
  }

  BrokerOptions options;
  options.num_workers = 2;
  options.max_batch = 8;
  options.max_wait_us = 100;
  options.queue_capacity = kSubmitters * kPerSubmitter;
  RequestBroker broker(&model_, options);

  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> submitters;
  for (int64_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int64_t i = 0; i < kPerSubmitter; ++i) {
        const size_t which =
            static_cast<size_t>((s * kPerSubmitter + i) % prefixes.size());
        Request request;
        request.prefix = prefixes[which];
        request.topk = kTopK;
        const Response response = broker.Submit(std::move(request)).get();
        if (response.status != ServeStatus::kOk ||
            response.items.size() != want[which].size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t j = 0; j < want[which].size(); ++j) {
          if (response.items[j].id != want[which][j].id ||
              std::memcmp(&response.items[j].score, &want[which][j].score,
                          sizeof(float)) != 0) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.submitted, kSubmitters * kPerSubmitter);
  EXPECT_EQ(stats.completed, kSubmitters * kPerSubmitter);
  EXPECT_EQ(stats.batched_requests, stats.completed);
  EXPECT_GE(stats.batches, stats.completed / 8);
}

}  // namespace
}  // namespace pmmrec
