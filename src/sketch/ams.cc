#include "sketch/ams.h"

#include <algorithm>

#include "util/bit.h"
#include "util/logging.h"
#include "util/simd/simd_dispatch.h"
#include "util/simd/simd_scalar_ref.h"

namespace gstream {
namespace {

size_t SignRows(const AmsOptions& options) {
  const size_t total = std::max<size_t>(options.group_size * options.groups, 1);
  return (total + AmsSketch::kSignsPerRow - 1) / AmsSketch::kSignsPerRow;
}

}  // namespace

AmsSketch::AmsSketch(const AmsOptions& options, Rng& rng)
    : options_(options), sign_bank_(/*k=*/4, SignRows(options), rng) {
  GSTREAM_CHECK_GE(options.group_size, 1u);
  GSTREAM_CHECK_GE(options.groups, 1u);
  const size_t total = options.group_size * options.groups;
  // Draw and drop the coefficients of one 4-wise row per estimator past
  // the bank, so every later draw from `rng` is what it would be if each
  // estimator still had a row of its own.
  for (size_t e = sign_bank_.rows(); e < total; ++e) {
    for (int d = 0; d < 4; ++d) rng.UniformUint64(kMersenne61);
  }
  sums_.assign(total, 0);
  GSTREAM_DCHECK(IsCacheLineAligned(sums_.data()));
  mean_scratch_.resize(options.groups);
  uint64_t fp = FnvFold(kFnvOffsetBasis, kSignsPerRow);
  for (size_t r = 0; r < sign_bank_.rows(); ++r) {
    fp = FnvFold(fp, sign_bank_.EvalRow(r, ReduceToField(1)));
    fp = FnvFold(fp, sign_bank_.EvalRow(r, ReduceToField(0x9e3779b9)));
  }
  hash_fingerprint_ = fp;
}

size_t AmsSketch::RowSigns(size_t r) const {
  return std::min(kSignsPerRow, sums_.size() - r * kSignsPerRow);
}

void AmsSketch::MergeFrom(const AmsSketch& other) {
  GSTREAM_CHECK_EQ(options_.group_size, other.options_.group_size);
  GSTREAM_CHECK_EQ(options_.groups, other.options_.groups);
  GSTREAM_CHECK_EQ(hash_fingerprint_, other.hash_fingerprint_);
  for (size_t i = 0; i < sums_.size(); ++i) {
    sums_[i] = WrapAdd(sums_[i], other.sums_[i]);
  }
}

void AmsSketch::Update(ItemId item, int64_t delta) {
  uint64_t xm, x2, x3;
  FieldPowers3Lazy(item, &xm, &x2, &x3);
  const uint64_t* c0 = sign_bank_.DegreeCoeffs(0);
  const uint64_t* c1 = sign_bank_.DegreeCoeffs(1);
  const uint64_t* c2 = sign_bank_.DegreeCoeffs(2);
  const uint64_t* c3 = sign_bank_.DegreeCoeffs(3);
  for (size_t r = 0; r < sign_bank_.rows(); ++r) {
    const uint64_t h = Eval4Wise(c0[r], c1[r], c2[r], c3[r], xm, x2, x3);
    simd::ScalarBitSignedSums(&h, &delta, 1, RowSigns(r),
                              sums_.data() + r * kSignsPerRow);
  }
}

void AmsSketch::UpdateBatch(const gstream::Update* updates, size_t n) {
  // Row-major over L1-resident blocks through the dispatched SIMD layer:
  // the per-item field powers are computed once per block, each row's
  // hashes once per block, and bit_signed_sums then signs all of the
  // row's estimators from those words.  int64 wraparound addition is
  // associative, so the per-block partial sums leave sums_ bit-identical
  // to the sequential loop under any tier.
  const simd::SimdOps& ops = simd::Ops();
  const uint64_t* c0 = sign_bank_.DegreeCoeffs(0);
  const uint64_t* c1 = sign_bank_.DegreeCoeffs(1);
  const uint64_t* c2 = sign_bank_.DegreeCoeffs(2);
  const uint64_t* c3 = sign_bank_.DegreeCoeffs(3);
  alignas(64) uint64_t xm[simd::kSimdBlock];
  alignas(64) uint64_t x2[simd::kSimdBlock];
  alignas(64) uint64_t x3[simd::kSimdBlock];
  alignas(64) int64_t delta[simd::kSimdBlock];
  alignas(64) uint64_t h[simd::kSimdBlock];
  for (size_t base = 0; base < n; base += simd::kSimdBlock) {
    const size_t m = std::min(simd::kSimdBlock, n - base);
    ops.prepare_batch(updates + base, m, xm, x2, x3, delta);
    for (size_t r = 0; r < sign_bank_.rows(); ++r) {
      ops.eval4_row(c0[r], c1[r], c2[r], c3[r], xm, x2, x3, m, h);
      ops.bit_signed_sums(h, delta, m, RowSigns(r),
                          sums_.data() + r * kSignsPerRow);
    }
  }
}

double AmsSketch::EstimateF2() const {
  for (size_t grp = 0; grp < options_.groups; ++grp) {
    double mean = 0.0;
    for (size_t e = 0; e < options_.group_size; ++e) {
      const double z =
          static_cast<double>(sums_[grp * options_.group_size + e]);
      mean += z * z;
    }
    mean_scratch_[grp] = mean / static_cast<double>(options_.group_size);
  }
  std::sort(mean_scratch_.begin(), mean_scratch_.end());
  return mean_scratch_[mean_scratch_.size() / 2];
}

size_t AmsSketch::SpaceBytes() const {
  return sums_.size() * sizeof(int64_t) + sign_bank_.SpaceBytes();
}

}  // namespace gstream
