// The AMS F2 sketch (Alon, Matias, Szegedy 1996), used by the one-pass
// heavy-hitter algorithm (Algorithm 2 of the paper) to bound the
// CountSketch error via sqrt(F2-hat).
//
// Median of `groups` means of `group_size` atomic estimators; each atomic
// estimator is Z = sum_i s(i) v_i with a 4-wise sign hash, and E[Z^2] = F2,
// Var[Z^2] <= 2 F2^2.  With group_size = O(1/eps^2) and groups = O(log
// 1/delta) the estimate is within (1 +- eps) F2 with probability 1 - delta.
//
// Signs from hash bits.  Estimator e (group e / group_size, slot
// e % group_size) takes its sign from bit e % kSignsPerRow of sign row
// e / kSignsPerRow, a canonical 4-wise polynomial hash over GF(2^61 - 1):
// s_e(i) = +1 if that bit of h_row(i) is set, else -1.  One row
// evaluation per item thus signs 56 estimators, and AMS 32x5 evaluates 3
// rows per item instead of 160.
//
// Why it is sound.  For any 4 distinct items a row's 4 values are uniform
// on Z_p, p = 2^61 - 1, and so within total-variation distance 4 * 2^-61
// of 4 uniform 61-bit words, whose bits are i.i.d. fair coins; distinct
// rows are independent draws.  So all of the sketch's signs are jointly
// 4-wise independent up to that 2^-61 slack -- the slack CountSketch
// already accepts when it takes a bucket and a sign from one hash.  Every
// moment the AMS analysis uses involves at most 4 items at a time, so each
// Z_e^2 is still unbiased with variance <= 2 F2^2, and any two estimators
// are pairwise uncorrelated, within a group or across groups.  The
// Chebyshev bound on each group mean is therefore unchanged.  Groups whose
// estimators come from disjoint rows are independent; groups that share a
// row are functions of one polynomial, so the exponential confidence of
// the median over groups is proven only for the former.  Measured on
// seeded Zipf streams, the median's mean relative F2 error sits 2-5 %
// above that of one 4-wise row per estimator (CHANGES.md).
//
// Draw and drop.  The constructor draws the bank's rows from `rng` row by
// row, exactly as a bank of one row per estimator would draw its first
// rows, then draws and discards the coefficients of the remaining
// group_size * groups - rows() rows.  Every later draw from the same `rng`
// (the next sketch of a stack, core/moments) is thereby unchanged.
// Fingerprint() hashes the new derivation (kSignsPerRow and each row's
// values), so a blob written under one-row-per-estimator signs is refused
// by fingerprint rather than loaded under the wrong signs.
//
// The batched update kernel walks (row x block) through the dispatched
// SIMD layer (util/simd/): the block's shared field powers feed one
// eval4_row per row, and bit_signed_sums folds the row's hash words into
// its estimators' sums.  Updates are allocation-free (stack-array
// blocking); queries are not thread-safe (EstimateF2 mutates its member
// median scratch).

#ifndef GSTREAM_SKETCH_AMS_H_
#define GSTREAM_SKETCH_AMS_H_

#include <cstdint>
#include <vector>

#include "sketch/linear_sketch.h"
#include "util/aligned.h"
#include "util/hash.h"
#include "util/random.h"

namespace gstream {

namespace persist {
struct SketchSerde;  // durable wire format (persist/sketch_io.h)
}  // namespace persist

struct AmsOptions {
  size_t group_size = 16;  // estimators averaged per group (~1/eps^2)
  size_t groups = 5;       // groups medianed (~log 1/delta)
};

class AmsSketch : public LinearSketch {
 public:
  // Estimators signed by one row: the low 56 bits of its canonical hash,
  // seven 8-lane groups of the AVX-512 kernel.
  static constexpr size_t kSignsPerRow = 56;

  AmsSketch(const AmsOptions& options, Rng& rng);

  void Update(ItemId item, int64_t delta) override;
  void UpdateBatch(const gstream::Update* updates, size_t n) override;

  // Median-of-means F2 estimate.
  double EstimateF2() const;

  // Adds another sketch's sums into this one; both must come from
  // equal-state Rngs (fingerprint-checked), mirroring
  // CountSketch::MergeFrom.
  void MergeFrom(const AmsSketch& other);

  size_t SpaceBytes() const override;

  // Raw estimator sums (group_size * groups, 64-byte-aligned base -- see
  // util/aligned.h); used by the batch/single equivalence tests.
  const AlignedI64Vector& sums() const { return sums_; }

  // The hash-coefficient fingerprint that guards MergeFrom; see
  // CountSketch::Fingerprint.
  uint64_t Fingerprint() const { return hash_fingerprint_; }

 private:
  friend struct persist::SketchSerde;

  // Estimators signed by row r: kSignsPerRow, fewer in the last row.
  size_t RowSigns(size_t r) const;

  AmsOptions options_;
  KWiseHashBank sign_bank_;  // ceil(estimators / kSignsPerRow) rows, 4-wise
  AlignedI64Vector sums_;    // Z per estimator, 64B-aligned base
  uint64_t hash_fingerprint_ = 0;
  mutable std::vector<double> mean_scratch_;  // median-of-means decode
};

}  // namespace gstream

#endif  // GSTREAM_SKETCH_AMS_H_
