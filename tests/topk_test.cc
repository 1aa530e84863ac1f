// The partial top-K selection kernel (utils/topk.h): equivalence to a
// full-sort reference, the documented tie-break rule (score descending,
// then id ascending), exclusion semantics, the prefix property that makes
// results independent of k, the streaming TopKSelector reproducing
// TopKSelect under any chunking (NaN and infinities included), and the
// RankOfTarget fast path staying bitwise-identical to the original
// mask-based implementation.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "utils/topk.h"

namespace pmmrec {
namespace {

// Full-sort reference: sort every eligible (id, score) pair by the
// canonical predicate and truncate.
std::vector<ScoredId> TopKReference(const std::vector<float>& scores,
                                    int64_t k,
                                    const std::vector<int32_t>& exclude) {
  std::vector<ScoredId> all;
  for (int64_t i = 0; i < static_cast<int64_t>(scores.size()); ++i) {
    if (std::find(exclude.begin(), exclude.end(), static_cast<int32_t>(i)) !=
        exclude.end()) {
      continue;
    }
    all.push_back(ScoredId{static_cast<int32_t>(i),
                           scores[static_cast<size_t>(i)]});
  }
  std::sort(all.begin(), all.end(), RanksBefore);
  if (static_cast<int64_t>(all.size()) > k) {
    all.resize(static_cast<size_t>(k));
  }
  return all;
}

// The pre-refactor RankOfTarget: O(n) exclusion mask + linear scan.
int64_t RankOfTargetMaskReference(const std::vector<float>& scores,
                                  int32_t target,
                                  const std::vector<int32_t>& exclude) {
  const int64_t n = static_cast<int64_t>(scores.size());
  std::vector<bool> excluded(static_cast<size_t>(n), false);
  for (int32_t e : exclude) {
    if (e >= 0 && e < n) excluded[static_cast<size_t>(e)] = true;
  }
  const float target_score = scores[static_cast<size_t>(target)];
  int64_t rank = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (i == target || excluded[static_cast<size_t>(i)]) continue;
    if (scores[static_cast<size_t>(i)] >= target_score) ++rank;
  }
  return rank;
}

std::vector<float> RandomScores(int64_t n, uint32_t seed,
                                bool with_ties = false) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::vector<float> scores(static_cast<size_t>(n));
  for (float& s : scores) s = dist(rng);
  if (with_ties) {
    // Quantize coarsely so equal scores are common.
    for (float& s : scores) s = std::round(s * 4.0f) / 4.0f;
  }
  return scores;
}

void ExpectSame(const std::vector<ScoredId>& got,
                const std::vector<ScoredId>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " position " << i;
    EXPECT_EQ(got[i].score, want[i].score) << what << " position " << i;
  }
}

TEST(TopKSelectTest, MatchesFullSortReference) {
  for (const int64_t n : {int64_t{1}, int64_t{7}, int64_t{100},
                          int64_t{701}}) {
    for (const int64_t k : {int64_t{1}, int64_t{5}, int64_t{50},
                            int64_t{1000}}) {
      const std::vector<float> scores =
          RandomScores(n, static_cast<uint32_t>(n * 31 + k));
      const std::vector<ScoredId> got =
          TopKSelect(scores.data(), n, k);
      ExpectSame(got, TopKReference(scores, k, {}),
                 ("n=" + std::to_string(n) + " k=" + std::to_string(k))
                     .c_str());
    }
  }
}

TEST(TopKSelectTest, TiesBreakByAscendingId) {
  // All-equal scores: top-k must be ids 0..k-1 in order.
  const std::vector<float> flat(64, 1.5f);
  const std::vector<ScoredId> got = TopKSelect(flat.data(), 64, 5);
  ASSERT_EQ(got.size(), 5u);
  for (int32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)].id, i);
    EXPECT_EQ(got[static_cast<size_t>(i)].score, 1.5f);
  }

  // Heavy-tie random case against the reference.
  const std::vector<float> scores = RandomScores(257, 99, /*with_ties=*/true);
  ExpectSame(TopKSelect(scores.data(), 257, 20),
             TopKReference(scores, 20, {}), "quantized ties");
}

TEST(TopKSelectTest, ExcludesHistoryIncludingDuplicatesAndOutOfRange) {
  const std::vector<float> scores = RandomScores(100, 7);
  // Duplicated entries, unsorted order, and out-of-range ids must all be
  // tolerated: history prefixes repeat items and are never sanitized.
  const std::vector<int32_t> exclude = {17, 3, 17, 99, 3, -5, 100, 1000};
  const std::vector<ScoredId> got =
      TopKSelect(scores.data(), 100, 10, exclude);
  ExpectSame(got, TopKReference(scores, 10, exclude), "exclusion");
  for (const ScoredId& entry : got) {
    EXPECT_NE(entry.id, 17);
    EXPECT_NE(entry.id, 3);
    EXPECT_NE(entry.id, 99);
  }
}

TEST(TopKSelectTest, KExceedingEligibleReturnsAllOrdered) {
  const std::vector<float> scores = RandomScores(8, 3);
  const std::vector<int32_t> exclude = {0, 1};
  const std::vector<ScoredId> got =
      TopKSelect(scores.data(), 8, 100, exclude);
  EXPECT_EQ(got.size(), 6u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_TRUE(RanksBefore(got[i - 1], got[i]));
  }
}

TEST(TopKSelectTest, PrefixProperty) {
  // top-j is exactly the first j entries of top-k for every j <= k: the
  // selection is a pure function of the total order, not of k. This is
  // what makes broker responses independent of the requested depth.
  const std::vector<float> scores = RandomScores(300, 11, /*with_ties=*/true);
  const std::vector<ScoredId> top50 = TopKSelect(scores.data(), 300, 50);
  for (const int64_t j : {int64_t{1}, int64_t{10}, int64_t{49}}) {
    const std::vector<ScoredId> topj = TopKSelect(scores.data(), 300, j);
    ASSERT_EQ(topj.size(), static_cast<size_t>(j));
    for (size_t i = 0; i < topj.size(); ++i) {
      EXPECT_EQ(topj[i].id, top50[i].id) << "j=" << j << " position " << i;
      EXPECT_EQ(topj[i].score, top50[i].score);
    }
  }
}

// --- Streaming selector ------------------------------------------------------

// A TopKSelector fed `scores` in consecutive chunks of `chunk`.
std::vector<ScoredId> SelectInChunks(const std::vector<float>& scores,
                                     int64_t k, int64_t chunk,
                                     const std::vector<int32_t>& exclude) {
  TopKSelector selector(k, exclude);
  const int64_t n = static_cast<int64_t>(scores.size());
  for (int64_t i = 0; i < n; i += chunk) {
    selector.Push(scores.data() + i, std::min(chunk, n - i));
  }
  return selector.Take();
}

// The per-element heap loop TopKSelect ran before the streaming selector
// existed: no prefilter, exclusion first, then the bounded heap. The
// selector must make exactly its decisions; NaN scores would expose a
// prefilter that skips a candidate the heap accepts (a NaN front is
// displaced by every number, which a score test against it never
// passes).
std::vector<ScoredId> PerElementHeapReference(
    const std::vector<float>& scores, int64_t k,
    const std::vector<int32_t>& exclude) {
  std::vector<ScoredId> heap;
  for (int64_t i = 0; i < static_cast<int64_t>(scores.size()); ++i) {
    const int32_t id = static_cast<int32_t>(i);
    if (std::find(exclude.begin(), exclude.end(), id) != exclude.end()) {
      continue;
    }
    const ScoredId candidate{id, scores[static_cast<size_t>(i)]};
    if (static_cast<int64_t>(heap.size()) < k) {
      heap.push_back(candidate);
      std::push_heap(heap.begin(), heap.end(), RanksBefore);
    } else if (k > 0 && RanksBefore(candidate, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), RanksBefore);
      heap.back() = candidate;
      std::push_heap(heap.begin(), heap.end(), RanksBefore);
    }
  }
  std::sort(heap.begin(), heap.end(), RanksBefore);
  return heap;
}

// Ids and score bits (EXPECT_EQ on floats would reject NaN == NaN).
void ExpectBitwise(const std::vector<ScoredId>& got,
                   const std::vector<ScoredId>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " position " << i;
    EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(float)), 0)
        << what << " position " << i;
  }
}

// Every chunking of every row against TopKSelect over the whole row.
void ExpectChunkingInvariant(const std::vector<float>& scores,
                             const std::vector<int64_t>& ks,
                             const std::vector<int32_t>& exclude,
                             const std::string& what) {
  const int64_t n = static_cast<int64_t>(scores.size());
  for (const int64_t k : ks) {
    const std::vector<ScoredId> want =
        TopKSelect(scores.data(), n, k, exclude);
    for (const int64_t chunk : {int64_t{1}, int64_t{3}, int64_t{15},
                                int64_t{16}, int64_t{17}, int64_t{64},
                                std::max<int64_t>(n, 1)}) {
      ExpectBitwise(SelectInChunks(scores, k, chunk, exclude), want,
                    what + " k=" + std::to_string(k) +
                        " chunk=" + std::to_string(chunk));
    }
  }
}

TEST(TopKSelectorTest, ChunkedMatchesTopKSelect) {
  for (const int64_t n : {int64_t{1}, int64_t{16}, int64_t{33},
                          int64_t{100}, int64_t{701}}) {
    ExpectChunkingInvariant(RandomScores(n, static_cast<uint32_t>(n) + 5),
                            {1, 5, 50, 1000}, {},
                            "n=" + std::to_string(n));
  }
}

TEST(TopKSelectorTest, TiesStraddlingChunkBoundaries) {
  // Runs of equal scores across every boundary of the chunkings above,
  // with the best run last so ties keep displacing the heap front.
  std::vector<float> scores(160);
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = static_cast<float>(i / 12);
  }
  ExpectChunkingInvariant(scores, {1, 7, 12, 30}, {}, "ascending runs");
  std::reverse(scores.begin(), scores.end());
  ExpectChunkingInvariant(scores, {1, 7, 12, 30}, {}, "descending runs");
  ExpectChunkingInvariant(RandomScores(300, 21, /*with_ties=*/true),
                          {1, 10, 50}, {}, "quantized ties");
}

TEST(TopKSelectorTest, NaNAndInfinitiesMatchThePerElementHeap) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> scores = RandomScores(200, 31);
  // NaN inside the fill phase, as a later candidate and in runs that
  // span chunk boundaries; +-inf both early and late.
  for (const size_t i : {0u, 2u, 15u, 16u, 17u, 63u, 64u, 130u, 199u}) {
    scores[i] = nan;
  }
  for (const size_t i : {5u, 90u}) scores[i] = inf;
  for (const size_t i : {1u, 47u, 150u}) scores[i] = -inf;
  for (const int64_t k : {int64_t{1}, int64_t{4}, int64_t{40},
                          int64_t{300}}) {
    ExpectBitwise(TopKSelect(scores.data(), 200, k),
                  PerElementHeapReference(scores, k, {}),
                  "TopKSelect k=" + std::to_string(k));
  }
  ExpectChunkingInvariant(scores, {1, 4, 40, 300}, {}, "nan/inf");
  // An all-NaN prefix leaves a NaN at the heap front.
  std::vector<float> nan_first(64, nan);
  for (size_t i = 8; i < nan_first.size(); ++i) {
    nan_first[i] = static_cast<float>(i % 5);
  }
  ExpectBitwise(TopKSelect(nan_first.data(), 64, 8),
                PerElementHeapReference(nan_first, 8, {}), "nan front");
  ExpectChunkingInvariant(nan_first, {8, 20}, {}, "nan front");
}

TEST(TopKSelectTest, NaNRanksAfterEveryNumber) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> scores = {nan, 1.0f, -inf, nan, inf, 0.0f, -0.0f};
  const std::vector<ScoredId> got = TopKSelect(scores.data(), 7, 7);
  const std::vector<int32_t> want_ids = {4, 1, 5, 6, 2, 0, 3};
  ASSERT_EQ(got.size(), want_ids.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want_ids[i]) << "position " << i;
  }
  // A strict weak order: irreflexive, and a NaN neither ties nor beats a
  // number.
  const ScoredId a{0, nan}, b{1, 1.0f}, c{3, nan};
  EXPECT_FALSE(RanksBefore(a, a));
  EXPECT_TRUE(RanksBefore(b, a));
  EXPECT_FALSE(RanksBefore(a, b));
  EXPECT_TRUE(RanksBefore(a, c));
  EXPECT_FALSE(RanksBefore(c, a));
}

// Explicit-id pushes in shuffled order (an IVF probe's lists arrive in
// probe order, not id order) select exactly what one contiguous push of
// the whole row selects, NaN included: a NaN front and later NaNs of
// smaller id must both be handled.
TEST(TopKSelectorTest, ExplicitIdPushMatchesContiguousPush) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> scores = RandomScores(300, 51, /*with_ties=*/true);
  for (const size_t i : {3u, 40u, 41u, 150u, 298u}) scores[i] = nan;
  scores[77] = inf;
  scores[12] = -inf;
  // Mostly NaN with a few numbers: with ids pushed in descending order,
  // the heap front is a NaN of large id when smaller-id NaNs arrive.
  std::vector<float> mostly_nan(120, nan);
  for (const size_t i : {7u, 60u, 61u, 119u}) {
    mostly_nan[i] = static_cast<float>(i % 3);
  }
  const std::vector<int32_t> exclude = {5, 41, 5};
  std::mt19937 rng(53);
  for (const std::vector<float>* row :
       std::vector<const std::vector<float>*>{&scores, &mostly_nan}) {
    const int64_t n = static_cast<int64_t>(row->size());
    std::vector<int32_t> order(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      order[static_cast<size_t>(i)] = static_cast<int32_t>(i);
    }
    const std::vector<int32_t> descending(order.rbegin(), order.rend());
    std::vector<int32_t> shuffled = order;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    for (const std::vector<int32_t>* ids :
         std::vector<const std::vector<int32_t>*>{&descending, &shuffled}) {
      std::vector<float> permuted(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        permuted[static_cast<size_t>(i)] =
            (*row)[static_cast<size_t>((*ids)[static_cast<size_t>(i)])];
      }
      for (const int64_t k : {int64_t{1}, int64_t{3}, int64_t{10},
                              int64_t{50}, n + 5}) {
        for (const int64_t chunk : {int64_t{1}, int64_t{16}, int64_t{37}, n}) {
          TopKSelector selector(k, exclude);
          for (int64_t i = 0; i < n; i += chunk) {
            selector.Push(permuted.data() + i, ids->data() + i,
                          std::min(chunk, n - i));
          }
          ExpectBitwise(selector.Take(),
                        TopKSelect(row->data(), n, k, exclude),
                        "n=" + std::to_string(n) + " k=" + std::to_string(k) +
                            " chunk=" + std::to_string(chunk) +
                            (ids == &shuffled ? " shuffled" : " descending"));
        }
      }
    }
  }
}

TEST(TopKSelectorTest, KExceedingNAndExclusions) {
  const std::vector<float> scores = RandomScores(50, 41, /*with_ties=*/true);
  // Duplicates, unsorted order, and out-of-range ids, as in a history.
  const std::vector<int32_t> exclude = {17, 3, 17, 49, 0, -5, 50, 1000};
  ExpectChunkingInvariant(scores, {1, 10, 43, 50, 100}, exclude,
                          "exclusion");
  const std::vector<ScoredId> all = SelectInChunks(scores, 100, 7, exclude);
  EXPECT_EQ(all.size(), 46u);  // 50 ids minus the 4 excluded in range
  EXPECT_TRUE(SelectInChunks(scores, 0, 7, exclude).empty());
}

TEST(RankOfTargetTest, MatchesMaskReferenceIncludingTiesAndDuplicates) {
  for (const uint32_t seed : {1u, 2u, 3u}) {
    const std::vector<float> scores =
        RandomScores(200, seed, /*with_ties=*/true);
    std::mt19937 rng(seed * 17);
    for (int round = 0; round < 20; ++round) {
      const int32_t target =
          static_cast<int32_t>(rng() % scores.size());
      std::vector<int32_t> exclude;
      const size_t m = rng() % 8;
      for (size_t i = 0; i < m; ++i) {
        // Duplicates on purpose: history prefixes repeat items.
        const int32_t e = static_cast<int32_t>(rng() % scores.size());
        if (e == target) continue;
        exclude.push_back(e);
        if (rng() % 2 == 0) exclude.push_back(e);
      }
      const int64_t got = RankOfTarget(scores, target, exclude);
      const int64_t want =
          RankOfTargetMaskReference(scores, target, exclude);
      EXPECT_EQ(got, want) << "seed=" << seed << " round=" << round;
    }
  }
}

TEST(RankOfTargetTest, TargetWinningAndLosingExtremes) {
  std::vector<float> scores(50, 0.0f);
  scores[7] = 10.0f;
  EXPECT_EQ(RankOfTarget(scores, 7, {}), 0);
  scores[7] = -10.0f;
  EXPECT_EQ(RankOfTarget(scores, 7, {}), 49);
  // Excluding every competitor puts the target at rank 0.
  std::vector<int32_t> all_others;
  for (int32_t i = 0; i < 50; ++i) {
    if (i != 7) all_others.push_back(i);
  }
  EXPECT_EQ(RankOfTarget(scores, 7, all_others), 0);
}

}  // namespace
}  // namespace pmmrec
