// The bespoke 1-pass heavy-hitter sketch for the nearly periodic function
// g_np(x) = 2^{-i_x} (paper Proposition 54, Appendix D.1).
//
// g_np is *not* slow-dropping, so the generic CountSketch route of
// Algorithm 2 cannot certify its heavy hitters -- yet it is 1-pass
// tractable through modular structure:
//
//  * The stream is hashed into C = O(lambda^-2) substreams, separating (with
//    constant probability) the <= 2/lambda items whose g_np value ties or
//    exceeds the heavy hitter's.
//  * Each substream runs D = O(log n) independent trials; trial t keeps the
//    pairwise-random signed-bit sums
//        m      = sum_{j sampled} v_j
//        m_b    = sum_{j sampled, bit b of id j set} v_j
//    If the substream holds a unique item j* of minimal i_{v_j}, then in
//    every trial sampling j* the lowest set bit of m is exactly i_{v_j*}
//    (everything else contributes multiples of 2^{i+1}), so
//    Y = max_t 2^{-i_m} recovers g_np(v_j*), roughly D/2 trials attain Y,
//    and bit b of j* is set iff i_{m_b} == i_m in those trials -- the
//    "binary search in post-processing" of the proposition.
//  * Decodes failing the |M| ~ D/2 share test or the consistency check
//    X_t(j*) == [t in M] are rejected rather than mis-reported.
//
// GnpHeavyHitter implements GHeavyHitterSketch so it can be plugged
// directly into the recursive sketch (Theorem 13), giving a complete
// 1-pass g_np-SUM algorithm.  Cover() ignores the passed function and
// reports g_np values (has_frequency = false); it is only meaningful for
// g = g_np.

#ifndef GSTREAM_CORE_GNP_SKETCH_H_
#define GSTREAM_CORE_GNP_SKETCH_H_

#include <vector>

#include "core/heavy_hitters.h"
#include "util/hash.h"

namespace gstream {

namespace persist {
struct SketchSerde;  // durable wire format (persist/sketch_io.h)
}  // namespace persist

struct GnpSketchOptions {
  // C: number of substreams (O(lambda^-2)).
  size_t substreams = 64;
  // D: trials per substream (O(log n)).
  size_t trials = 24;
  // Bits of item ids to recover (ceil(log2 domain)).
  int id_bits = 20;
  // Acceptance band for |M| / D (the fraction of trials attaining Y).
  double min_share = 0.2;
  double max_share = 0.8;
};

class GnpHeavyHitter : public GHeavyHitterSketch {
 public:
  GnpHeavyHitter(const GnpSketchOptions& options, Rng& rng);

  int passes() const override { return 1; }
  void Update(ItemId item, int64_t delta) override;
  void UpdateBatch(const gstream::Update* updates, size_t n) override;
  void AdvancePass() override;

  // Cover entries carry g_np(|v_j|) in g_value (has_frequency = false).
  GCover Cover(const GFunction& g) const override;

  // Adds another sketch's signed-bit sums into this one.  The per-trial
  // sums m and m_b are linear in the frequency vector, so -- under matched
  // substream/trial geometry and shared hashes (same-seed construction,
  // fingerprint-guarded like the linear sketches) -- the merged counters
  // are bit-identical to one sketch that processed both shards, and the
  // decode is the whole-stream decode.
  void MergeFrom(const GnpHeavyHitter& other);

  void MergeFrom(const GHeavyHitterSketch& other) override;
  uint64_t Fingerprint() const override { return hash_fingerprint_; }
  std::unique_ptr<GHeavyHitterSketch> Clone() const override {
    return std::make_unique<GnpHeavyHitter>(*this);
  }

  size_t SpaceBytes() const override;

  // Raw counter state; used by the batch/single equivalence tests.
  const std::vector<int64_t>& counters() const { return counters_; }

 private:
  friend struct persist::SketchSerde;

  // Counter layout: per substream s, per trial t, slot 0 is m and slots
  // 1..id_bits are the per-bit sums m_b.
  size_t SlotIndex(size_t substream, size_t trial, int slot) const;

  // Pairwise trial-sampling indicator X_t(x), shared across substreams.
  bool TrialSampled(size_t trial, uint64_t xm) const {
    return (Eval2Wise(trial_bank_.DegreeCoeffs(0)[trial],
                      trial_bank_.DegreeCoeffs(1)[trial], xm) &
            1) != 0;
  }

  // 2-wise substream partition: one Eval2Wise plus a fastrange.
  size_t SubstreamOf(uint64_t xm) const {
    return static_cast<size_t>(FastRange61(
        Eval2Wise(substream_bank_.DegreeCoeffs(0)[0],
                  substream_bank_.DegreeCoeffs(1)[0], xm),
        options_.substreams));
  }

  GnpSketchOptions options_;
  KWiseHashBank substream_bank_;  // one pairwise row
  // One pairwise row per trial, so the batched kernel walks each degree's
  // coefficients contiguously.
  KWiseHashBank trial_bank_;
  std::vector<int64_t> counters_;
  uint64_t hash_fingerprint_ = 0;  // guards MergeFrom
  // UpdateBatch staging for the packed per-item trial bitmasks,
  // word-major: word w of item i lives at [w * kSimdBlock + i], so each
  // eval2_parity_or pass packs trial t into bit t%64 of word t/64.  Sized
  // once at construction (ceil(trials/64) words per item); configurations
  // beyond 64 trials take extra words instead of falling back to the
  // per-update path.  Not sketch state: never serialized or compared.
  std::vector<uint64_t> mask_scratch_;
};

}  // namespace gstream

#endif  // GSTREAM_CORE_GNP_SKETCH_H_
