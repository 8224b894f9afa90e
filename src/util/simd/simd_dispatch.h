// Runtime-dispatched SIMD kernels for the Mersenne-61 hash hot path.
//
// Every batched sketch kernel in this library spends its cycles in the same
// three operations: evaluating a low-degree polynomial over GF(2^61 - 1) at
// a chunk of stream items (Eval4Wise / the 2-wise fused multiply-add),
// reducing the hash onto a bucket range (FastRange61), and scattering
// signed deltas into counters.  The first two are data-parallel across the
// items of a chunk -- the coefficients are loop-invariant per row, and
// Mersenne-61 arithmetic is exact in 64-bit lanes -- so this layer lifts
// them into an ISA-dispatched function table (the scatter stays a scalar
// loop in every tier):
//
//   * kScalar  -- the reference tier, built from the util/hash.h primitives
//                 verbatim.  Always available; the other tiers must agree
//                 with it bit-for-bit.
//   * kAvx2    -- 4 x 64-bit lanes; the 61x62-bit modular products are
//                 assembled from 32x32->64 partial products
//                 (_mm256_mul_epu32) and folded carry-free (docs/simd.md
//                 walks through the bound arithmetic).
//   * kAvx512  -- 8 x 64-bit lanes; the products use the AVX-512 IFMA
//                 52-bit multiply-add units (vpmadd52lo/hi) plus vpmullq
//                 for the small cross terms.  Requires avx512f/dq/vl/ifma.
//
// The active tier is chosen once, on first use, by CPUID -- the best tier
// both compiled in (see GSTREAM_SIMD in CMakeLists.txt) and supported by
// the host -- and can be overridden for testing with the environment
// variable GSTREAM_FORCE_ISA={scalar,avx2,avx512} or programmatically via
// ForceIsaTier().  A forced tier the build or host cannot run is refused
// (the env override clamps down with a warning; ForceIsaTier returns
// false so tests can skip).
//
// Exactness contract: all tiers compute the same canonical field elements.
// Eval4Wise/Eval2Wise outputs are canonical (< 2^61 - 1) and depend only on
// the input residues, so tiers are free to use different lazy intermediate
// representations; counters, estimates, and fingerprints derived from any
// tier are bit-identical to the scalar tier.  The batch-equivalence,
// sharded==sequential, and merge test pins all hold under every forced
// tier (tests/sketch/simd_dispatch_test.cc).

#ifndef GSTREAM_UTIL_SIMD_SIMD_DISPATCH_H_
#define GSTREAM_UTIL_SIMD_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>

#include "stream/stream.h"

namespace gstream {
namespace simd {

// Internal blocking size of the batched sketch kernels: hash/bucket/delta
// arrays for one block fit comfortably in L1 as small stack arrays
// (6 x 512 x 8 B = 24 KiB), so the hash, reduce, and scatter passes stream
// over hot lines.  Equal to kStreamBatchSize so a ForEachBatch chunk is
// one block.
inline constexpr size_t kSimdBlock = 512;

// The dispatched kernel table.  All pointer arguments are non-aliasing
// arrays of at least n elements; `out`/destination arrays may not overlap
// the inputs.  "Canonical" means a fully reduced field element in
// [0, 2^61 - 1); "lazy" means congruent mod 2^61 - 1 within the documented
// bound.  Tail elements (n not a multiple of the lane width) are handled
// inside each kernel via the scalar reference path.
struct SimdOps {
  // Deinterleaves a chunk of updates and precomputes the shared per-item
  // field powers: xm[i] lazy (<= p + 7), x2[i]/x3[i] lazy (< 2^63),
  // delta[i] = updates[i].delta.  The powers feed eval4_row /
  // eval4_bucket of the same tier.
  void (*prepare_batch)(const Update* updates, size_t n, uint64_t* xm,
                        uint64_t* x2, uint64_t* x3, int64_t* delta);

  // Deinterleave only (2-wise consumers need no powers): xm[i] lazy
  // (<= p + 7), delta[i] = updates[i].delta.
  void (*prepare_batch2)(const Update* updates, size_t n, uint64_t* xm,
                         int64_t* delta);

  // Field powers from raw 64-bit keys (the query-path analogue of
  // prepare_batch): xm[i] lazy (<= p + 7), x2[i]/x3[i] lazy (< 2^63).
  void (*field_powers)(const uint64_t* keys, size_t n, uint64_t* xm,
                       uint64_t* x2, uint64_t* x3);

  // out[i] = Eval4Wise(c0, c1, c2, c3, xm[i], x2[i], x3[i]) -- canonical.
  // Inputs are lazy within the prepare_batch/field_powers bounds.
  void (*eval4_row)(uint64_t c0, uint64_t c1, uint64_t c2, uint64_t c3,
                    const uint64_t* xm, const uint64_t* x2,
                    const uint64_t* x3, size_t n, uint64_t* out);

  // Fused CountSketch row kernel: with h_i the canonical Eval4Wise value,
  // writes idx[i] = FastRange61(h_i, range) and the signed delta
  // sd[i] = (h_i & 1) ? delta[i] : -delta[i] (mod 2^64, so -INT64_MIN
  // is INT64_MIN).  The hash never touches memory, and the caller's
  // scatter degenerates to counters[idx[i]] += sd[i].  1 <= range < 2^32.
  void (*eval4_bucket)(uint64_t c0, uint64_t c1, uint64_t c2, uint64_t c3,
                       const uint64_t* xm, const uint64_t* x2,
                       const uint64_t* x3, const int64_t* delta,
                       uint64_t range, size_t n, uint32_t* idx, int64_t* sd);

  // Fused 2-wise bucket kernel (the g_np substream hash):
  // idx[i] = FastRange61((a1 * xm[i] + a0) mod p, range).
  void (*eval2_bucket)(uint64_t a0, uint64_t a1, const uint64_t* xm,
                       uint64_t range, size_t n, uint32_t* idx);

  // sums[j] += sum_i (((h[i] >> j) & 1) ? delta[i] : -delta[i]) for every
  // j < count, 1 <= count <= 64, with int64 wraparound semantics identical
  // to the sequential loop: bit j of each hash word signs estimator j (the
  // AMS accumulation, sketch/ams.h).  Writes only sums[0, count).
  void (*bit_signed_sums)(const uint64_t* h, const int64_t* delta, size_t n,
                          size_t count, int64_t* sums);

  // masks[i] |= ((a1 * xm[i] + a0) mod p & 1) << bit, for bit < 64 -- the
  // g_np per-trial sampling indicator, packed one trial per bit.
  void (*eval2_parity_or)(uint64_t a0, uint64_t a1, const uint64_t* xm,
                          size_t n, unsigned bit, uint64_t* masks);

  // counters[idx[i]] += sd[i] (mod 2^64) for i < n: the one counter
  // update, fed by eval4_bucket's signed deltas (CountSketch).  idx values
  // must be in-range for `counters`; duplicate indices within the batch
  // fold in stream order.  Every tier points this entry (and the one
  // below) at the simd_scalar_ref.h loop: vector scatter/gather kernels
  // were built and measured losing (docs/simd.md).
  void (*scatter_add_signed)(int64_t* counters, const uint32_t* idx,
                             const int64_t* sd, size_t n);

  // out[i] = counters[idx[i]] * sign[i] (mod 2^64) with sign[i] in
  // {+1, -1} -- the estimate-side decode (CountSketch EstimateAllInto).
  void (*gather_signed)(const int64_t* counters, const uint32_t* idx,
                        const int64_t* sign, size_t n, int64_t* out);
};

enum class IsaTier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

// The active kernel table (dispatch resolved on first call; thread-safe).
const SimdOps& Ops();

// The tier Ops() currently dispatches to.
IsaTier ActiveIsaTier();

// True if `tier` was compiled in AND the host CPU can run it.
bool IsaTierAvailable(IsaTier tier);

// Forces dispatch to `tier` (for tests and benchmarks).  Returns false --
// leaving dispatch unchanged -- if the tier is unavailable, so callers can
// skip rather than crash on lesser hosts.  Not safe to call concurrently
// with running kernels; intended between runs.
bool ForceIsaTier(IsaTier tier);

// Restores CPUID-based dispatch (still honoring GSTREAM_FORCE_ISA if set).
void ClearForcedIsaTier();

// "scalar", "avx2", "avx512".
const char* IsaTierName(IsaTier tier);

// Per-tier kernel tables; null when the tier was not compiled in.  The
// scalar table always exists.  Exposed for the dispatcher and tests.
const SimdOps* GetScalarOps();
const SimdOps* GetAvx2Ops();
const SimdOps* GetAvx512Ops();

}  // namespace simd
}  // namespace gstream

#endif  // GSTREAM_UTIL_SIMD_SIMD_DISPATCH_H_
