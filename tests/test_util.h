#ifndef PMMREC_TESTS_TEST_UTIL_H_
#define PMMREC_TESTS_TEST_UTIL_H_

// Shared fixtures and helpers for the serving-path suites
// (inference_test, serve_test, ann_test, live_serve_test,
// fuzz_robustness_test, golden_test).
// Everything here encodes the common experimental setup — the small
// benchmark-suite model, mixed-length prefix batches, the serial bitwise
// reference, and the canonical "one real optimizer step" parameter
// update — so the suites assert claims, not scaffolding.

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pmmrec.h"
#include "data/batcher.h"
#include "data/generator.h"
#include "nn/optimizer.h"
#include "utils/topk.h"

namespace pmmrec {
namespace test {

// Mixed-length prefixes, including > max_seq_len tails, so batched paths
// pack every sequence length.
inline std::vector<std::vector<int32_t>> MixedPrefixes(const Dataset& ds,
                                                       int64_t n) {
  std::vector<std::vector<int32_t>> prefixes;
  for (int64_t u = 0; u < n; ++u) {
    std::vector<int32_t> p = ds.TestPrefix(u % ds.num_users());
    // Truncate to varying lengths, including > max_seq_len tails.
    const size_t len = 1 + static_cast<size_t>(u) % p.size();
    p.resize(len);
    prefixes.push_back(std::move(p));
  }
  return prefixes;
}

// The serial single-user reference every serving path must reproduce
// bitwise: ScoreItems + the shared top-K kernel.
inline std::vector<ScoredId> SerialTopK(PMMRecModel& model,
                                        const std::vector<int32_t>& prefix,
                                        int64_t topk) {
  const std::vector<float> scores = model.ScoreItems(prefix);
  return TopKSelect(scores.data(), static_cast<int64_t>(scores.size()), topk,
                    prefix);
}

inline void ExpectBitwise(const std::vector<ScoredId>& got,
                          const std::vector<ScoredId>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " position " << i;
    EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(float)), 0)
        << what << " position " << i;
  }
}

// One real optimizer step over the first 8 users — the canonical
// parameter update of the invalidation tests. Bumps the process-wide
// ParamUpdateVersion, so every serving cache (item table, packed scan
// table, IVF index) goes stale.
inline void TrainOneStep(PMMRecModel& model, const Dataset& ds,
                         int64_t max_seq_len) {
  std::vector<int64_t> users;
  for (int64_t u = 0; u < 8; ++u) users.push_back(u);
  const SeqBatch batch = MakeTrainBatch(ds, users, max_seq_len);
  AdamW opt(model.TrainableParameters(), 1e-3f);
  Tensor loss = model.TrainStepLoss(batch);
  ASSERT_TRUE(loss.defined());
  loss.Backward();
  opt.Step();
}

// Benchmark-suite dataset + default config, no model: for suites that
// construct models per test (e.g. with per-test config variations).
class SuiteDatasetTest : public ::testing::Test {
 protected:
  SuiteDatasetTest()
      : suite_(BuildBenchmarkSuite(0.2, 13)),
        ds_(suite_.sources[0]),
        config_(PMMRecConfig::FromDataset(ds_)) {}

  std::vector<std::vector<int32_t>> MixedPrefixes(int64_t n) {
    return test::MixedPrefixes(ds_, n);
  }

  BenchmarkSuite suite_;
  const Dataset& ds_;
  PMMRecConfig config_;
};

// ... plus an attached seed-42 model. The optional mutator edits the
// config before model construction (e.g. to route a serving mode).
class SmallModelTest : public SuiteDatasetTest {
 protected:
  using ConfigMutator = std::function<void(PMMRecConfig&)>;

  explicit SmallModelTest(const ConfigMutator& mutate = {})
      : model_(MutatedConfig(mutate), 42) {
    model_.AttachDataset(&ds_);
  }

  std::vector<ScoredId> SerialReference(const std::vector<int32_t>& prefix,
                                        int64_t topk) {
    return SerialTopK(model_, prefix, topk);
  }

  PMMRecModel model_;

 private:
  // Runs before model_'s constructor; config_ lives in the base, which is
  // fully initialized by then.
  const PMMRecConfig& MutatedConfig(const ConfigMutator& mutate) {
    if (mutate) mutate(config_);
    return config_;
  }
};

}  // namespace test
}  // namespace pmmrec

#endif  // PMMREC_TESTS_TEST_UTIL_H_
