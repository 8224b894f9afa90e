// CountSketch (Charikar, Chen, Farach-Colton 2002), the heavy-hitter
// workhorse of the paper's upper bounds (Section 3.1).
//
// An r x b array of counters; row j adds s_j(i) * delta to counter
// (j, h_j(i)).  The point estimate of v_i is the median over rows of
// s_j(i) * C[j][h_j(i)], with error O(sqrt(F2 / b)) per query with
// probability 1 - 2^{-Omega(r)}.
//
// Hashing: each row draws ONE 4-wise polynomial H_j over GF(2^61-1) and
// derives both decisions from it -- bucket h_j(i) = fastrange(H_j(i)) and
// sign s_j(i) = low bit of H_j(i).  For any four items the H_j values are
// jointly uniform and independent, so s_j is exactly 4-wise and h_j is
// (better than) the 2-wise the analysis needs; the only approximation is
// that s and h of a single item share one uniform value, which correlates
// them by at most 2^-(61 - log2 b) per item -- far below the fastrange
// bucket bias already accounted for.  Halving the hash work this way is
// what the per-update cost budget is spent on.
//
// The coefficients live in a structure-of-arrays KWiseHashBank, and the
// batched paths run through the runtime-dispatched SIMD kernel layer
// (util/simd/): UpdateBatch splits each L1-sized block into a field-power
// precompute, a per-row lane-parallel Eval4Wise pass, a vectorized
// FastRange61 pass, and a scalar counter scatter, all over small stack
// arrays.  Mersenne-61 arithmetic is exact in every tier, so Update and
// UpdateBatch produce bit-identical counters under any dispatch
// (scalar/AVX2/AVX-512).  Query scratch (median buffers, the batched
// decode staging) is hoisted into mutable members, making the steady-state
// update and query paths allocation-free.  Queries are not thread-safe for
// that reason.
//
// Two decoding modes are provided:
//   * TrackTopK: a running candidate set maintained during the stream (the
//     standard CountSketch-with-heap construction) -- a genuine one-pass
//     streaming algorithm.
//   * EstimateAll over an explicit candidate list -- used by tests.

#ifndef GSTREAM_SKETCH_COUNT_SKETCH_H_
#define GSTREAM_SKETCH_COUNT_SKETCH_H_

#include <cstdint>
#include <vector>

#include "sketch/linear_sketch.h"
#include "util/aligned.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/scratch.h"

namespace gstream {

namespace persist {
struct SketchSerde;  // durable wire format (persist/sketch_io.h)
}  // namespace persist

struct CountSketchOptions {
  size_t rows = 5;       // r: drives the failure probability 2^{-Omega(r)}
  size_t buckets = 256;  // b: drives the error sqrt(F2 / b)
};

class CountSketch : public LinearSketch {
 public:
  CountSketch(const CountSketchOptions& options, Rng& rng);

  void Update(ItemId item, int64_t delta) override;
  void UpdateBatch(const gstream::Update* updates, size_t n) override;

  // Adds another sketch's counters into this one.  Both sketches must have
  // been constructed with the same geometry from equal-state Rngs (same
  // seed), so they share hash functions; this is checked via a fingerprint
  // of the hash coefficients.  Linearity makes the merged sketch identical
  // to one that processed both streams -- the basis for distributed
  // aggregation (map shards, merge, decode once).
  void MergeFrom(const CountSketch& other);

  // Median-of-rows point estimate of v_item.
  int64_t Estimate(ItemId item) const;

  // Point estimates for an explicit candidate list, in input order.
  // Bit-identical to calling Estimate per item; this is the decode the
  // candidate-union merge (CountSketchTopK::MergeFrom) and its property
  // tests are pinned against.
  std::vector<int64_t> EstimateAll(const std::vector<ItemId>& items) const;

  // Allocation-free (steady-state) form of EstimateAll: writes n estimates
  // into `out`, item-major through the SIMD kernel layer -- the batched
  // decode the candidate-union merge runs on.
  void EstimateAllInto(const ItemId* items, size_t n, int64_t* out) const;

  // UpdateBatch that also records where each update landed: row j's
  // bucket and sign for update i go to bucket[j * n + i] and
  // sign[j * n + i] (sign in {+1, -1}).  Counters are bit-identical to
  // UpdateBatch.
  void UpdateBatchRecording(const gstream::Update* updates, size_t n,
                            uint32_t* bucket, int64_t* sign);

  // Median-of-rows estimates of the n items whose buckets and signs
  // UpdateBatchRecording recorded, against the current counters, without
  // hashing again: out[i] is bit-identical to Estimate(updates[i].item).
  void EstimateRecordedInto(const uint32_t* bucket, const int64_t* sign,
                            size_t n, int64_t* out) const;

  // Per-row F2 estimate (sum of squared counters is unbiased for F2);
  // returns the median across rows.  Coarser than a dedicated AMS sketch
  // but free given the structure.
  double EstimateF2() const;

  size_t SpaceBytes() const override;

  size_t rows() const { return options_.rows; }
  size_t buckets() const { return options_.buckets; }

  // The hash-coefficient fingerprint that guards MergeFrom: equal iff the
  // sketches drew identical randomness (same-seed construction).  Exposed
  // so composite structures (heavy-hitter sketches, the recursive stack)
  // can derive their own merge guards from their components'.
  uint64_t Fingerprint() const { return hash_fingerprint_; }

  // Raw counter state (rows * buckets, row-major, 64-byte-aligned base --
  // see util/aligned.h); used by the batch/single equivalence tests.
  const AlignedI64Vector& counters() const { return counters_; }

 private:
  // The serializer restores counter state directly (never the hash
  // coefficients: those come from same-seed reconstruction, checked via
  // the fingerprint in the wire header).
  friend struct persist::SketchSerde;

  // out[i] = median over rows j of vals[j * simd::kSimdBlock + i], i < m.
  void RowMediansInto(const int64_t* vals, size_t m, int64_t* out) const;

  // H_j(item) for row j, given the item's precomputed field powers.
  uint64_t RowHash(size_t j, uint64_t xm, uint64_t x2, uint64_t x3) const {
    return Eval4Wise(hash_bank_.DegreeCoeffs(0)[j],
                     hash_bank_.DegreeCoeffs(1)[j],
                     hash_bank_.DegreeCoeffs(2)[j],
                     hash_bank_.DegreeCoeffs(3)[j], xm, x2, x3);
  }

  CountSketchOptions options_;
  KWiseHashBank hash_bank_;      // one 4-wise polynomial per row
  AlignedI64Vector counters_;    // rows * buckets, row-major, 64B-aligned
  uint64_t hash_fingerprint_ = 0;  // guards MergeFrom
  // Reusable query scratch (median buffers and the rows x kSimdBlock
  // staging of the batched decodes); members so the steady-state query
  // paths never allocate.  The update path needs none: UpdateBatch blocks
  // through stack arrays.
  mutable std::vector<int64_t> row_scratch_;
  mutable Scratch<int64_t> est_scratch_;
  mutable std::vector<double> f2_scratch_;
};

// The top-k tracker's candidate set: (item, estimate) entries in a flat
// vector plus an open-addressed index over them (linear probing, at most
// half full at `capacity` entries).  The entries are the state; the index
// is Scratch, rebuilt by the first Upsert after a copy, Assign or
// KeepStrongest.  Entry order is unspecified: readers that need an order
// sort.
class CandidateTable {
 public:
  struct Entry {
    ItemId item;
    int64_t estimate;
  };

  explicit CandidateTable(size_t capacity);

  size_t size() const { return entries_.size(); }
  const std::vector<Entry>& entries() const { return entries_; }

  // Inserts `item` with `estimate`, or overwrites the estimate it has.
  // A new item needs a free entry (size() < capacity).
  void Upsert(ItemId item, int64_t estimate);

  // Replaces every entry.  Items must be distinct, at most `capacity`.
  void Assign(std::vector<Entry> entries);

  // Keeps the k strongest entries: larger |estimate| first, item id as the
  // total-order tiebreak, so the kept set never depends on entry order.
  void KeepStrongest(size_t k);

 private:
  size_t HomeSlot(ItemId item) const;
  void BuildIndex();

  size_t capacity_;
  int index_bits_;  // log2 of the index size
  std::vector<Entry> entries_;
  Scratch<uint32_t> index_;  // slot -> entry position + 1 (0 = empty)
};

// CountSketch plus a running top-k candidate tracker: after each update the
// touched item's estimate is refreshed and the best k estimates (by
// absolute value) are retained.  This is the classic streaming heavy-hitter
// decode; with deletions an item whose estimate later collapses is evicted.
//
// Candidate maintenance is amortized: the set (a flat CandidateTable of
// capacity 2k + 1) grows freely to 2k, and the insert that takes it past
// 2k triggers one O(k) selection back to the k strongest -- O(1) amortized
// work per update instead of a per-update linear eviction scan.
//
// A chunk is coalesced first (CoalesceChunk: each distinct item once, net
// delta, ascending), so the scatter hashes each distinct item once per row
// and records its (bucket, sign) pairs; the refresh then gathers every
// touched item's post-chunk estimate from those pairs instead of hashing
// again, and upserts the items in ascending id order, pruning whenever
// the table passes 2k.  Entries not yet refreshed keep their earlier
// estimates into such a mid-chunk prune.  docs/engine.md ("Chunk
// coalescing") argues why this is exact.
class CountSketchTopK : public LinearSketch {
 public:
  CountSketchTopK(const CountSketchOptions& options, size_t k, Rng& rng);

  void Update(ItemId item, int64_t delta) override;

  // Coalesces the chunk, applies it to the underlying sketch (bit-identical
  // counters to the sequential loop), then refreshes each distinct touched
  // item's estimate once, against the post-chunk counters.
  void UpdateBatch(const gstream::Update* updates, size_t n) override;

  // Merges another tracker that processed a disjoint shard of the stream.
  // Both trackers must share k and hash functions (same-seed construction;
  // fingerprint-guarded like CountSketch::MergeFrom).  The linear counter
  // arrays are summed, the candidate sets are unioned, every union member
  // is re-estimated against the merged counters via EstimateAll, and the
  // set is re-pruned to the k strongest.  For this pairwise merge the
  // result is exactly the top-k of the two inputs' candidate union under
  // merged-counter estimates; a fold over >2 shards applies that rule per
  // step (each intermediate prune sees prefix counters), so end-to-end
  // recall rests on heavy items ranking top-k at every prefix -- see
  // docs/engine.md for the full argument and tests/verify/ for the
  // statistical pin.
  void MergeFrom(const CountSketchTopK& other);

  // The current candidates, sorted by decreasing |estimate|.
  std::vector<std::pair<ItemId, int64_t>> TopK() const;

  // The current candidate ids in ascending order (maintenance metadata;
  // exposed so merge tests can form the candidate union independently).
  std::vector<ItemId> CandidateItems() const;

  const CountSketch& sketch() const { return sketch_; }
  size_t k() const { return k_; }

  // Merge-guard fingerprint: the inner sketch's hash fingerprint mixed
  // with k (trackers of different capacity must not merge).
  uint64_t Fingerprint() const {
    return sketch_.Fingerprint() ^ (k_ * 0x9e3779b97f4a7c15ULL);
  }

  size_t SpaceBytes() const override;

 private:
  friend struct persist::SketchSerde;

  void Refresh(ItemId item);
  void Prune();

  CountSketch sketch_;
  size_t k_;
  // Candidate -> current estimate.  Size capped at 2k (hysteresis band so
  // borderline items are not thrashed in and out).
  CandidateTable candidates_;
  // Per-chunk scratch: the coalesced chunk, the scatter's recorded
  // buckets and signs (rows x distinct items), the refreshed estimates,
  // and the merge's candidate union.
  Scratch<gstream::Update> chunk_;
  Scratch<uint32_t> buckets_;
  Scratch<int64_t> signs_;
  Scratch<int64_t> estimates_;
  Scratch<ItemId> union_;
};

}  // namespace gstream

#endif  // GSTREAM_SKETCH_COUNT_SKETCH_H_
