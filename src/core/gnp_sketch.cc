#include "core/gnp_sketch.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/bit.h"
#include "util/logging.h"
#include "util/simd/simd_dispatch.h"

namespace gstream {
namespace {

// i_m: index of the lowest set bit of |m|; two's complement makes ctz on
// the raw bits correct for negative m as well.  -1 for m == 0.
int LowBitOrMinus1(int64_t m) {
  if (m == 0) return -1;
  return LowestSetBit(static_cast<uint64_t>(m));
}

}  // namespace

GnpHeavyHitter::GnpHeavyHitter(const GnpSketchOptions& options, Rng& rng)
    : options_(options),
      substream_bank_(/*k=*/2, /*rows=*/1, rng),
      trial_bank_(/*k=*/2, options.trials, rng) {
  GSTREAM_CHECK_GE(options.substreams, 1u);
  // The SIMD fastrange kernel assembles h * range from 32-bit partial
  // products, so the substream range must fit in 32 bits.
  GSTREAM_CHECK_LT(options.substreams, uint64_t{1} << 32);
  GSTREAM_CHECK_GE(options.trials, 2u);
  GSTREAM_CHECK_GE(options.id_bits, 1);
  GSTREAM_CHECK_LE(options.id_bits, 62);
  counters_.assign(options.substreams * options.trials *
                       (static_cast<size_t>(options.id_bits) + 1),
                   0);
  mask_scratch_.resize(((options.trials + 63) / 64) * simd::kSimdBlock);
  // Fingerprint the drawn substream and trial hashes by probing them, the
  // same guard discipline as the linear sketches: equal iff the sketches
  // were constructed from equal-state Rngs.
  uint64_t fp = kFnvOffsetBasis;
  for (uint64_t probe : {uint64_t{1}, uint64_t{0x9e3779b9}}) {
    const uint64_t xm = ReduceToField(probe);
    fp = FnvFold(fp, SubstreamOf(xm));
    for (size_t t = 0; t < options.trials; ++t) {
      fp = FnvFold(fp, static_cast<uint64_t>(TrialSampled(t, xm)));
    }
  }
  hash_fingerprint_ = fp;
}

void GnpHeavyHitter::MergeFrom(const GnpHeavyHitter& other) {
  GSTREAM_CHECK_EQ(options_.substreams, other.options_.substreams);
  GSTREAM_CHECK_EQ(options_.trials, other.options_.trials);
  GSTREAM_CHECK_EQ(options_.id_bits, other.options_.id_bits);
  GSTREAM_CHECK_EQ(hash_fingerprint_, other.hash_fingerprint_);
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] = WrapAdd(counters_[i], other.counters_[i]);
  }
}

void GnpHeavyHitter::MergeFrom(const GHeavyHitterSketch& other) {
  const auto* o = dynamic_cast<const GnpHeavyHitter*>(&other);
  GSTREAM_CHECK(o != nullptr);
  MergeFrom(*o);
}

size_t GnpHeavyHitter::SlotIndex(size_t substream, size_t trial,
                                 int slot) const {
  const size_t slots = static_cast<size_t>(options_.id_bits) + 1;
  return (substream * options_.trials + trial) * slots +
         static_cast<size_t>(slot);
}

void GnpHeavyHitter::Update(ItemId item, int64_t delta) {
  const uint64_t xm = ReduceToField(item);
  const size_t s = SubstreamOf(xm);
  for (size_t t = 0; t < options_.trials; ++t) {
    if (!TrialSampled(t, xm)) continue;
    int64_t* base = counters_.data() + SlotIndex(s, t, 0);
    base[0] = WrapAdd(base[0], delta);
    // Walk only the set bits of the id instead of testing all id_bits.
    uint64_t bits =
        item & ((options_.id_bits >= 64) ? ~uint64_t{0}
                                         : ((uint64_t{1} << options_.id_bits) -
                                            1));
    while (bits != 0) {
      int64_t& cell = base[1 + LowestSetBit(bits)];
      cell = WrapAdd(cell, delta);
      bits &= bits - 1;
    }
  }
}

void GnpHeavyHitter::UpdateBatch(const gstream::Update* updates, size_t n) {
  const size_t slots = static_cast<size_t>(options_.id_bits) + 1;
  const uint64_t id_mask = (options_.id_bits >= 64)
                               ? ~uint64_t{0}
                               : ((uint64_t{1} << options_.id_bits) - 1);
  const size_t trials = options_.trials;
  const size_t words = (trials + 63) / 64;
  // Three vectorized hash passes per L1-resident block through the
  // dispatched SIMD layer -- substream hash, substream fastrange, and one
  // lane-parallel parity pass per trial packing the sampling indicators
  // into per-item bitmask words (word-major in mask_scratch_, one word per
  // 64 trials, so >64-trial geometries batch like any other) -- then one
  // scalar scatter that walks only the set bits.  The per-trial hashing
  // this replaces was the entire gap between gnp/batched and gnp/single
  // (trials x MulAddMod61 per item).  Parities and substreams are derived
  // from the same canonical values as Update's TrialSampled/SubstreamOf,
  // so counters stay bit-identical.
  const simd::SimdOps& ops = simd::Ops();
  const uint64_t s0 = substream_bank_.DegreeCoeffs(0)[0];
  const uint64_t s1 = substream_bank_.DegreeCoeffs(1)[0];
  const uint64_t* ta0 = trial_bank_.DegreeCoeffs(0);
  const uint64_t* ta1 = trial_bank_.DegreeCoeffs(1);
  uint64_t* const masks = mask_scratch_.data();
  alignas(64) uint64_t xm[simd::kSimdBlock];
  alignas(64) int64_t delta[simd::kSimdBlock];
  alignas(64) uint32_t sub[simd::kSimdBlock];
  for (size_t base = 0; base < n; base += simd::kSimdBlock) {
    const size_t m = std::min(simd::kSimdBlock, n - base);
    ops.prepare_batch2(updates + base, m, xm, delta);
    ops.eval2_bucket(s0, s1, xm, options_.substreams, m, sub);
    for (size_t w = 0; w < words; ++w) {
      std::memset(masks + w * simd::kSimdBlock, 0, m * sizeof(uint64_t));
    }
    for (size_t t = 0; t < trials; ++t) {
      ops.eval2_parity_or(ta0[t], ta1[t], xm, m,
                          static_cast<unsigned>(t & 63),
                          masks + (t >> 6) * simd::kSimdBlock);
    }
    for (size_t i = 0; i < m; ++i) {
      const int64_t d = delta[i];
      const uint64_t masked_id = updates[base + i].item & id_mask;
      int64_t* sub_base = counters_.data() + sub[i] * trials * slots;
      for (size_t w = 0; w < words; ++w) {
        uint64_t sampled = masks[w * simd::kSimdBlock + i];
        while (sampled != 0) {
          const size_t t = (w << 6) + LowestSetBit(sampled);
          int64_t* cell = sub_base + t * slots;
          cell[0] = WrapAdd(cell[0], d);
          uint64_t bits = masked_id;
          while (bits != 0) {
            int64_t& slot = cell[1 + LowestSetBit(bits)];
            slot = WrapAdd(slot, d);
            bits &= bits - 1;
          }
          sampled &= sampled - 1;
        }
      }
    }
  }
}

void GnpHeavyHitter::AdvancePass() { GSTREAM_CHECK(false); }

GCover GnpHeavyHitter::Cover(const GFunction& /*g*/) const {
  GCover cover;
  for (size_t s = 0; s < options_.substreams; ++s) {
    // Y = max_t 2^{-i_m}: realized as the minimal i_m over nonempty trials.
    int best_i = -1;
    for (size_t t = 0; t < options_.trials; ++t) {
      const int i = LowBitOrMinus1(counters_[SlotIndex(s, t, 0)]);
      if (i >= 0 && (best_i < 0 || i < best_i)) best_i = i;
    }
    if (best_i < 0) continue;  // empty substream

    // M = trials attaining Y; require roughly half of them to, as a unique
    // minimal item sampled with pairwise probability 1/2 would produce.
    std::vector<size_t> in_m;
    for (size_t t = 0; t < options_.trials; ++t) {
      if (LowBitOrMinus1(counters_[SlotIndex(s, t, 0)]) == best_i) {
        in_m.push_back(t);
      }
    }
    const double share = static_cast<double>(in_m.size()) /
                         static_cast<double>(options_.trials);
    if (share < options_.min_share || share > options_.max_share) continue;

    // Recover the id bit-by-bit by majority over the trials in M.
    ItemId candidate = 0;
    for (int b = 0; b < options_.id_bits; ++b) {
      size_t votes = 0;
      for (const size_t t : in_m) {
        if (LowBitOrMinus1(counters_[SlotIndex(s, t, b + 1)]) == best_i) {
          ++votes;
        }
      }
      if (2 * votes > in_m.size()) candidate |= (ItemId{1} << b);
    }

    // Consistency: the candidate must be sampled in exactly the trials of M
    // and hash to this substream; otherwise the substream held no unique
    // minimal item and we report nothing (a detected failure, not a wrong
    // answer).
    const uint64_t cand_xm = ReduceToField(candidate);
    if (SubstreamOf(cand_xm) != s) continue;
    bool consistent = true;
    for (size_t t = 0; t < options_.trials && consistent; ++t) {
      const bool sampled = TrialSampled(t, cand_xm);
      const bool in_m_t =
          LowBitOrMinus1(counters_[SlotIndex(s, t, 0)]) == best_i;
      if (sampled != in_m_t) consistent = false;
    }
    if (!consistent) continue;

    cover.push_back(GCoverEntry{candidate, 0,
                                std::exp2(-static_cast<double>(best_i)),
                                /*has_frequency=*/false});
  }
  return cover;
}

size_t GnpHeavyHitter::SpaceBytes() const {
  size_t bytes = counters_.size() * sizeof(int64_t);
  bytes += substream_bank_.SpaceBytes() + sizeof(uint64_t);  // + range
  bytes += trial_bank_.SpaceBytes();
  return bytes;
}

}  // namespace gstream
