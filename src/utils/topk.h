#ifndef PMMREC_UTILS_TOPK_H_
#define PMMREC_UTILS_TOPK_H_

#include <cstdint>
#include <span>
#include <vector>

namespace pmmrec {

// Partial top-K selection over a full-catalogue score row (see DESIGN.md
// "Serving subsystem").
//
// Every ranked surface in the repo (broker responses, the CLI's top-K
// printer) selects through this one kernel so the ordering rule is defined
// in exactly one place:
//
//   a ranks before b  iff  a.score > b.score, or
//                          a.score == b.score and a.id < b.id,
//
// with a NaN score ranking after every number, NaNs by ascending id.
// The id tie-break makes the output a total order on (score, id), so the
// selected set and its presentation order are deterministic — independent
// of k, of which batch a request coalesced into, and of any thread count.
// Placing NaN explicitly keeps that order a strict weak order (std::sort,
// heaps and merges are undefined otherwise) even over a corrupt table.

struct ScoredId {
  int32_t id = 0;
  float score = 0.0f;
};

// The canonical ordering predicate: score descending, id ascending, NaN
// last.
inline bool RanksBefore(const ScoredId& a, const ScoredId& b) {
  if (a.score > b.score) return true;
  if (a.score < b.score) return false;
  // Equal scores, or at least one NaN: a number ranks before a NaN.
  const bool a_nan = a.score != a.score;
  const bool b_nan = b.score != b.score;
  if (a_nan != b_nan) return b_nan;
  return a.id < b.id;
}

// Streaming top-k over one score row that arrives in chunks: Push() offers
// the next chunk (ids continue from where the previous chunk ended, the
// first chunk starting at id 0), Take() returns the selection. The
// result is exactly TopKSelect over the concatenated row, whatever the
// chunking, so a scan can select from each tile while it is still in
// cache instead of materialising the full row. The explicit-id Push
// offers scores of arbitrary distinct ids (an IVF list's catalogue ids)
// and leaves the contiguous id counter alone; since RanksBefore is a
// total order, the selection does not depend on the order of the pushes.
//
// A bounded min-heap of the k best seen so far: with RanksBefore as the
// heap comparator the front is the *worst* retained entry, and a
// candidate displaces it exactly when the candidate ranks before it.
// Once the heap is full and its front is a number, a candidate is first
// tested against the front's score alone: RanksBefore(c, front) then
// implies c.score >= front.score (a NaN candidate fails both), so the
// test skips only candidates the heap would reject. A NaN front is beaten
// by every number and by a NaN of smaller id, so while one is there
// every candidate goes to the heap. Either way the heap makes the
// decisions it would make if offered every score in turn.
class TopKSelector {
 public:
  explicit TopKSelector(int64_t k, std::span<const int32_t> exclude = {});

  void Push(const float* scores, int64_t n);
  // scores[i] is the score of item ids[i]; ids must be distinct from each
  // other and from every id pushed before.
  void Push(const float* scores, const int32_t* ids, int64_t n);
  // The selection in presentation order; leaves the selector empty.
  std::vector<ScoredId> Take();

 private:
  template <typename IdAt>
  void PushScores(const float* scores, int64_t n, IdAt id_at);
  void Offer(const ScoredId& candidate);

  int64_t k_ = 0;
  int64_t next_id_ = 0;
  // Sorted copy of the (small) exclusion list for O(log m) membership
  // tests; duplicates in a history are harmless under binary_search.
  std::vector<int32_t> skip_;
  std::vector<ScoredId> heap_;
};

// Returns the top-k entries of scores[0, n) in presentation order, with
// ids in `exclude` (a user's history; duplicates and out-of-range ids are
// tolerated) skipped. k may exceed the number of eligible items, in which
// case every eligible item is returned, still fully ordered.
//
// Cost is O(n log k) time and O(k + |exclude|) space (one TopKSelector
// pass) — no n-sized buffer is allocated and the score row is never
// reordered.
std::vector<ScoredId> TopKSelect(const float* scores, int64_t n, int64_t k,
                                 std::span<const int32_t> exclude = {});

// Top-k of an already fully-ordered candidate list (a CandidateSource's
// output, core/ivf.h): walks `ranked` in order, skips ids in `exclude`,
// and returns the first k survivors. Produces exactly TopKSelect's output
// whenever the eligible top-k of the full row is contained in `ranked` —
// which the broker guarantees on the exact route by asking for at least
// k + |exclude| candidates (DESIGN.md "Candidate retrieval"); fewer than
// k items are returned only when `ranked` is exhausted.
std::vector<ScoredId> TopKFromRanked(std::span<const ScoredId> ranked,
                                     int64_t k,
                                     std::span<const int32_t> exclude = {});

}  // namespace pmmrec

#endif  // PMMREC_UTILS_TOPK_H_
