#include "sketch/count_min.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"
#include "util/simd/simd_dispatch.h"

namespace gstream {

CountMinSketch::CountMinSketch(const CountMinOptions& options, Rng& rng)
    : options_(options),
      bucket_bank_(/*k=*/2, std::max<size_t>(options.rows, 1), rng) {
  GSTREAM_CHECK_GE(options.rows, 1u);
  GSTREAM_CHECK_GE(options.buckets, 1u);
  // The SIMD fastrange kernel assembles h * range from 32-bit partial
  // products, so the bucket range must fit in 32 bits.
  GSTREAM_CHECK_LT(options.buckets, uint64_t{1} << 32);
  counters_.assign(options.rows * options.buckets, 0);
  GSTREAM_DCHECK(IsCacheLineAligned(counters_.data()));
  row_scratch_.resize(options.rows);
  uint64_t fp = kFnvOffsetBasis;
  for (size_t j = 0; j < options.rows; ++j) {
    for (uint64_t probe : {uint64_t{1}, uint64_t{0x9e3779b9}}) {
      const uint64_t h = bucket_bank_.EvalRow(j, ReduceToField(probe));
      fp = FnvFold(fp, FastRange61(h, options.buckets));
    }
  }
  hash_fingerprint_ = fp;
}

void CountMinSketch::MergeFrom(const CountMinSketch& other) {
  GSTREAM_CHECK_EQ(options_.rows, other.options_.rows);
  GSTREAM_CHECK_EQ(options_.buckets, other.options_.buckets);
  GSTREAM_CHECK_EQ(hash_fingerprint_, other.hash_fingerprint_);
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
}

void CountMinSketch::Update(ItemId item, int64_t delta) {
  // Per-row cost budget: one specialized Eval2Wise (64-bit-only reduction,
  // no generic 128-bit fold chain) plus one fastrange, with the SoA
  // coefficient pointers hoisted out of the row loop -- this is what keeps
  // the per-update path ahead of the seed baseline (bench
  // `count_min/single` vs `count_min/seed_single`).  Eval2Wise returns the
  // same canonical value as EvalRow, so all decode and fingerprint paths
  // agree bit-for-bit.
  const uint64_t xm = ReduceToFieldLazy(item);
  const size_t b = options_.buckets;
  const uint64_t* h0 = bucket_bank_.DegreeCoeffs(0);
  const uint64_t* h1 = bucket_bank_.DegreeCoeffs(1);
  int64_t* __restrict counters = counters_.data();
  for (size_t j = 0; j < options_.rows; ++j) {
    counters[j * b + FastRange61(Eval2Wise(h0[j], h1[j], xm), b)] += delta;
  }
}

void CountMinSketch::UpdateBatch(const gstream::Update* updates, size_t n) {
  // Blocked hash/reduce/scatter passes through the dispatched SIMD layer;
  // see CountSketch::UpdateBatch for the structure.  Count-Min needs no
  // field powers (2-wise rows), so the precompute is a plain deinterleave.
  const simd::SimdOps& ops = simd::Ops();
  const size_t b = options_.buckets;
  const size_t rows = options_.rows;
  const uint64_t* h0 = bucket_bank_.DegreeCoeffs(0);
  const uint64_t* h1 = bucket_bank_.DegreeCoeffs(1);
  alignas(64) uint64_t xm[simd::kSimdBlock];
  alignas(64) int64_t delta[simd::kSimdBlock];
  alignas(64) uint32_t idx[simd::kSimdBlock];
  for (size_t base = 0; base < n; base += simd::kSimdBlock) {
    const size_t m = std::min(simd::kSimdBlock, n - base);
    ops.prepare_batch2(updates + base, m, xm, delta);
    for (size_t j = 0; j < rows; ++j) {
      ops.eval2_bucket(h0[j], h1[j], xm, b, m, idx);
      ops.scatter_add_signed(counters_.data() + j * b, idx, delta, m);
    }
  }
}

int64_t CountMinSketch::EstimateMin(ItemId item) const {
  const uint64_t xm = ReduceToFieldLazy(item);
  const size_t b = options_.buckets;
  const uint64_t* h0 = bucket_bank_.DegreeCoeffs(0);
  const uint64_t* h1 = bucket_bank_.DegreeCoeffs(1);
  int64_t best = std::numeric_limits<int64_t>::max();
  for (size_t j = 0; j < options_.rows; ++j) {
    best = std::min(
        best,
        counters_[j * b + FastRange61(Eval2Wise(h0[j], h1[j], xm), b)]);
  }
  return best;
}

int64_t CountMinSketch::EstimateMedian(ItemId item) const {
  const uint64_t xm = ReduceToFieldLazy(item);
  const size_t b = options_.buckets;
  const uint64_t* h0 = bucket_bank_.DegreeCoeffs(0);
  const uint64_t* h1 = bucket_bank_.DegreeCoeffs(1);
  for (size_t j = 0; j < options_.rows; ++j) {
    row_scratch_[j] =
        counters_[j * b + FastRange61(Eval2Wise(h0[j], h1[j], xm), b)];
  }
  std::nth_element(
      row_scratch_.begin(),
      row_scratch_.begin() + static_cast<ptrdiff_t>(row_scratch_.size() / 2),
      row_scratch_.end());
  return row_scratch_[row_scratch_.size() / 2];
}

size_t CountMinSketch::SpaceBytes() const {
  return counters_.size() * sizeof(int64_t) + bucket_bank_.SpaceBytes() +
         sizeof(uint64_t) /* bucket range */;
}

}  // namespace gstream
