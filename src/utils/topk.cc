#include "utils/topk.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "utils/check.h"

namespace pmmrec {

namespace {

// Scores tested against the heap front in one step once the heap is full.
constexpr int64_t kPrefilterBlock = 16;

// True when some score of the block is >= front. The compares are
// ordered, so a NaN score never counts, exactly as in the per-score
// test. Spelled with vector types because the compiler keeps the plain
// loop scalar once it is inlined into Push.
#if defined(__GNUC__) || defined(__clang__)
typedef float v4f __attribute__((vector_size(16)));
typedef int32_t v4i __attribute__((vector_size(16)));

inline bool AnyAtLeast(const float* scores, float front) {
  static_assert(kPrefilterBlock == 16, "four 4-lane compares per block");
  v4f s[4];
  std::memcpy(s, scores, sizeof(s));
  const v4i hit =
      (s[0] >= front) | (s[1] >= front) | (s[2] >= front) | (s[3] >= front);
  return (hit[0] | hit[1] | hit[2] | hit[3]) != 0;
}
#else
inline bool AnyAtLeast(const float* scores, float front) {
  bool any = false;
  for (int64_t l = 0; l < kPrefilterBlock; ++l) any |= scores[l] >= front;
  return any;
}
#endif

// RanksBefore as a comparator type: the std heap and sort templates then
// inline it, where a function pointer costs an indirect call per compare.
struct RanksBeforeLess {
  bool operator()(const ScoredId& a, const ScoredId& b) const {
    return RanksBefore(a, b);
  }
};

}  // namespace

TopKSelector::TopKSelector(int64_t k, std::span<const int32_t> exclude)
    : k_(k), skip_(exclude.begin(), exclude.end()) {
  PMM_CHECK_GE(k, 0);
  std::sort(skip_.begin(), skip_.end());
}

void TopKSelector::Offer(const ScoredId& candidate) {
  if (!skip_.empty() &&
      std::binary_search(skip_.begin(), skip_.end(), candidate.id)) {
    return;
  }
  if (static_cast<int64_t>(heap_.size()) < k_) {
    heap_.push_back(candidate);
    std::push_heap(heap_.begin(), heap_.end(), RanksBeforeLess());
  } else if (RanksBefore(candidate, heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), RanksBeforeLess());
    heap_.back() = candidate;
    std::push_heap(heap_.begin(), heap_.end(), RanksBeforeLess());
  }
}

template <typename IdAt>
void TopKSelector::PushScores(const float* scores, int64_t n, IdAt id_at) {
  if (k_ == 0) return;
  int64_t i = 0;
  for (; i < n && static_cast<int64_t>(heap_.size()) < k_; ++i) {
    Offer(ScoredId{id_at(i), scores[i]});
  }
  // Full heap with a NaN front: no score test applies (see the class
  // comment). Once a number reaches the front the heap holds no NaN, and
  // only numbers pass the prefilter below, so the front stays a number.
  for (; i < n && std::isnan(heap_.front().score); ++i) {
    Offer(ScoredId{id_at(i), scores[i]});
  }
  if (i == n) return;
  // The score prefilter, a block at a time, then per score within a
  // block that has a hit. The front is re-read after every candidate
  // that passes (an insertion moves the front).
  float front = heap_.front().score;
  while (i < n) {
    const int64_t end = std::min(n, i + kPrefilterBlock);
    if (end - i == kPrefilterBlock && !AnyAtLeast(scores + i, front)) {
      i = end;
      continue;
    }
    for (; i < end; ++i) {
      if (!(scores[i] >= front)) continue;
      Offer(ScoredId{id_at(i), scores[i]});
      front = heap_.front().score;
    }
  }
}

void TopKSelector::Push(const float* scores, int64_t n) {
  PMM_CHECK(scores != nullptr || n == 0);
  const int64_t base = next_id_;
  next_id_ += n;
  PushScores(scores, n,
             [base](int64_t i) { return static_cast<int32_t>(base + i); });
}

void TopKSelector::Push(const float* scores, const int32_t* ids, int64_t n) {
  PMM_CHECK((scores != nullptr && ids != nullptr) || n == 0);
  PushScores(scores, n, [ids](int64_t i) { return ids[i]; });
}

std::vector<ScoredId> TopKSelector::Take() {
  std::vector<ScoredId> out = std::move(heap_);
  heap_.clear();
  std::sort(out.begin(), out.end(), RanksBeforeLess());
  return out;
}

std::vector<ScoredId> TopKSelect(const float* scores, int64_t n, int64_t k,
                                 std::span<const int32_t> exclude) {
  TopKSelector selector(k, exclude);
  selector.Push(scores, n);
  return selector.Take();
}

std::vector<ScoredId> TopKFromRanked(std::span<const ScoredId> ranked,
                                     int64_t k,
                                     std::span<const int32_t> exclude) {
  PMM_CHECK_GE(k, 0);
  std::vector<ScoredId> out;
  if (k == 0 || ranked.empty()) return out;

  std::vector<int32_t> skip(exclude.begin(), exclude.end());
  std::sort(skip.begin(), skip.end());

  out.reserve(static_cast<size_t>(
      std::min<int64_t>(k, static_cast<int64_t>(ranked.size()))));
  for (const ScoredId& candidate : ranked) {
    if (static_cast<int64_t>(out.size()) >= k) break;
    if (!skip.empty() &&
        std::binary_search(skip.begin(), skip.end(), candidate.id)) {
      continue;
    }
    out.push_back(candidate);
  }
  return out;
}

}  // namespace pmmrec
