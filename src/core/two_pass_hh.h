// Algorithm 1 of the paper: the 2-pass (g, lambda, 0, delta)-heavy-hitter
// algorithm (Section 4.2).
//
// Pass 1 runs a CountSketch sized for lambda / 2H(M) heaviness under F2 and
// keeps the items with the largest estimated magnitudes, discarding the
// estimates.  Pass 2 tabulates the exact frequency of each kept item, so
// the cover weights are exact (eps = 0): local variability of g is
// irrelevant, which is precisely why predictability is not needed with two
// passes (Theorem 3).
//
// Lemma 17/18 justify the sizing: if g is slow-jumping and slow-dropping
// then every (g, lambda)-heavy hitter is (lambda / H(M))-heavy for F2, and
// at most H(M)/lambda items can be at least as large, so tracking
// `candidates` = O(H(M)/lambda) ids suffices.
//
// The pass-2 tabulation is a frozen sorted candidate array with a parallel
// count array: updates bind to a slot by branch-poor binary search (no
// hashing), the batched kernel amortizes the search over runs of equal
// items, and the (ids, counts) pair is a trivially mergeable linear state
// -- which is what lets pass 2 ride the sharded ingestion engine.

#ifndef GSTREAM_CORE_TWO_PASS_HH_H_
#define GSTREAM_CORE_TWO_PASS_HH_H_

#include <vector>

#include "core/heavy_hitters.h"
#include "sketch/count_sketch.h"

namespace gstream {

struct TwoPassHHOptions {
  CountSketchOptions count_sketch;
  // Number of candidate ids carried into the second pass
  // (2 H(M) / lambda in the paper's parameterization).
  size_t candidates = 64;
};

class TwoPassHeavyHitter : public GHeavyHitterSketch {
 public:
  TwoPassHeavyHitter(const TwoPassHHOptions& options, Rng& rng);

  int passes() const override { return 2; }
  void Update(ItemId item, int64_t delta) override;
  void UpdateBatch(const gstream::Update* updates, size_t n) override;
  void AdvancePass() override;
  GCover Cover(const GFunction& g) const override;
  size_t SpaceBytes() const override;

  // Merges a same-pass replica that processed a disjoint shard of the
  // current pass's stream.  In pass 1 this is the tracker candidate-union
  // merge (fingerprint-guarded).  In pass 2 both replicas must hold the
  // identical frozen candidate list (checked); the exact counts sum, and
  // the pass-1 tracker -- frozen, no longer part of the decode -- is left
  // untouched so replicated trackers are not double-counted.
  void MergeFrom(const TwoPassHeavyHitter& other);

  // Mergeable-interface surface: the type-erased merge checks the dynamic
  // type and delegates to the typed merge above (which additionally checks
  // the pass agreement and, in pass 2, the frozen candidate lists).
  void MergeFrom(const GHeavyHitterSketch& other) override;
  uint64_t Fingerprint() const override { return tracker_.Fingerprint(); }
  std::unique_ptr<GHeavyHitterSketch> Clone() const override {
    return std::make_unique<TwoPassHeavyHitter>(*this);
  }

  // Pass-1 state, exposed so engine equivalence tests can pin the merged
  // counters bit-exactly against a sequential pass.
  const CountSketchTopK& tracker() const { return tracker_; }

  // The frozen candidate ids (ascending); empty before AdvancePass.
  const std::vector<ItemId>& candidate_ids() const { return candidate_ids_; }

 private:
  friend struct persist::SketchSerde;

  TwoPassHHOptions options_;
  int current_pass_ = 1;
  CountSketchTopK tracker_;
  // Pass-2 tabulation: frozen candidate ids (sorted ascending) and their
  // exact counts, index-aligned.
  std::vector<ItemId> candidate_ids_;
  std::vector<int64_t> exact_counts_;
};

// Runs both passes over `stream` as sequential batched passes on a fresh
// sketch whose randomness derives from Rng(seed), and returns it ready to
// decode.  The sharded counterpart is ProcessStreamSharded
// (engine/sharded_ingestor.h) with a factory that builds
// TwoPassHeavyHitter(options, Rng(seed)) per shard: pass 1 merges the
// same-seed replicas by candidate union, pass 2 tabulates copies of the
// frozen candidate table whose exact counts sum at close.
TwoPassHeavyHitter ProcessTwoPassHH(const TwoPassHHOptions& options,
                                    uint64_t seed, const Stream& stream);

}  // namespace gstream

#endif  // GSTREAM_CORE_TWO_PASS_HH_H_
