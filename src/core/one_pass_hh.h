// Algorithm 2 of the paper: the 1-pass (g, lambda, eps, delta)-heavy-hitter
// algorithm (Section 4.3).
//
// A CountSketch sized for lambda / 3H(M) F2-heaviness runs alongside an AMS
// F2 sketch.  At decode time each candidate's estimate v-hat is kept only
// if g is stable on the interval v-hat +- E, where
//
//     E = (eps / 2H(M)) * sqrt(F2-hat)
//
// is the CountSketch error bound (Algorithm 2 lines 4-5).  The paper's
// predictability machinery (Lemma 21) guarantees that for a predictable g
// every true heavy hitter survives this pruning while any candidate whose
// g-value could be mis-reported is rejected.  For a non-predictable g the
// pruning rejects genuinely heavy items -- the observable one-pass failure
// that Theorem 2 turns into a lower bound.
//
// The "for all |y| <= E" stability test is evaluated on a probe grid of
// geometric and linear offsets (both signs); see the finite-domain
// substitutions in docs/experiments.md for why this preserves behaviour
// for every catalog function.

#ifndef GSTREAM_CORE_ONE_PASS_HH_H_
#define GSTREAM_CORE_ONE_PASS_HH_H_

#include "core/heavy_hitters.h"
#include "sketch/ams.h"
#include "sketch/count_sketch.h"
#include "util/scratch.h"

namespace gstream {

struct OnePassHHOptions {
  CountSketchOptions count_sketch;
  AmsOptions ams;
  // Candidate ids tracked (3 H(M) / lambda in the paper's parameterization).
  size_t candidates = 64;
  // Approximation accuracy eps of the cover.
  double epsilon = 0.25;
  // The envelope H(M) of the function (gfunc/envelope.h); governs the
  // pruning interval E.
  double h_envelope = 1.0;
};

class OnePassHeavyHitter : public GHeavyHitterSketch {
 public:
  OnePassHeavyHitter(const OnePassHHOptions& options, Rng& rng);

  int passes() const override { return 1; }
  void Update(ItemId item, int64_t delta) override;
  void UpdateBatch(const gstream::Update* updates, size_t n) override;
  void AdvancePass() override;
  GCover Cover(const GFunction& g) const override;
  size_t SpaceBytes() const override;

  // Merges a same-seed replica that processed a disjoint shard of the
  // stream: candidate-union merge on the tracker (CountSketchTopK::
  // MergeFrom) plus the AMS sum merge.  Both components fingerprint-guard
  // the shared-hash requirement.
  void MergeFrom(const OnePassHeavyHitter& other);

  // Mergeable-interface surface: the type-erased merge checks the dynamic
  // type and delegates to the typed merge above; the fingerprint combines
  // the component guards.
  void MergeFrom(const GHeavyHitterSketch& other) override;
  uint64_t Fingerprint() const override {
    return tracker_.Fingerprint() * 0x100000001b3ULL ^ ams_.Fingerprint();
  }
  std::unique_ptr<GHeavyHitterSketch> Clone() const override {
    return std::make_unique<OnePassHeavyHitter>(*this);
  }

  // The pruning interval E derived from the current F2 estimate.
  int64_t PruningRadius() const;

  // Component state, exposed so the engine equivalence tests can pin the
  // merged linear state bit-exactly against a sequential pass.
  const CountSketchTopK& tracker() const { return tracker_; }
  const AmsSketch& ams() const { return ams_; }

  // Probe magnitudes per sign Cover() uses to approximate "for all
  // |y| <= E".
  static constexpr size_t kProbePoints = 24;

  // Exposed for tests: whether the estimate v-hat would survive pruning
  // under `g` with radius E.
  static bool SurvivesPruning(const GFunction& g, int64_t v_hat, int64_t e,
                              double epsilon, size_t probe_points);

 private:
  friend struct persist::SketchSerde;

  OnePassHHOptions options_;
  CountSketchTopK tracker_;
  AmsSketch ams_;
  Scratch<gstream::Update> chunk_;  // UpdateBatch's coalesced chunk
};

// Runs the full one-pass algorithm over `stream` as one sequential batched
// pass on a fresh sketch whose randomness derives from Rng(seed), and
// returns it ready to decode.  The sharded counterpart is
// ProcessStreamSharded (engine/sharded_ingestor.h) with a factory that
// builds OnePassHeavyHitter(options, Rng(seed)) per shard; its merged
// linear state (tracker counters, AMS sums) is bit-identical to this.
OnePassHeavyHitter ProcessOnePassHH(const OnePassHHOptions& options,
                                    uint64_t seed, const Stream& stream);

}  // namespace gstream

#endif  // GSTREAM_CORE_ONE_PASS_HH_H_
