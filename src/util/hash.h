// k-wise independent hash families.
//
// The streaming algorithms in this library need limited-independence hashing
// with provable guarantees rather than ad-hoc mixing:
//   * CountSketch needs 2-wise bucket hashes and 4-wise sign hashes
//     (Charikar, Chen, Farach-Colton 2002).
//   * The AMS F2 sketch needs 4-wise sign hashes (Alon, Matias, Szegedy 1996).
//   * The recursive sketch's subsampler and the g_np sketch (Prop. 54 of the
//     paper) need pairwise-independent Bernoulli(1/2) variables.
//
// All families are degree-(k-1) polynomials over the Mersenne prime field
// GF(2^61 - 1), the textbook construction: h(x) = sum a_i x^i mod p.  A
// degree-(k-1) polynomial with uniform coefficients is exactly k-wise
// independent on inputs < p.
//
// One layout holds them all: KWiseHashBank, R functions of equal
// independence stored structure-of-arrays (all degree-d coefficients
// contiguous).  Every hash the library draws is a bank row -- CountSketch
// and AMS rows, the subsampler's one pairwise row per level, the
// g_np substream and trial hashes, the DIST piece and sign hashes -- so a
// hot loop evaluates one item against every row with the row's
// coefficients held in registers: the allocation-free batched update path.
// 2-wise rows are evaluated with Eval2Wise, 4-wise rows with Eval4Wise (or
// EvalRow's Horner rule where speed does not matter).
//
// This header is the scalar kernel interface: the inline primitives below
// (ReduceToFieldLazy, FieldPowers3Lazy, Eval4Wise, Eval2Wise, FastRange61)
// are both the per-update hot path and the reference semantics for the
// runtime-dispatched SIMD layer in util/simd/, whose AVX2/AVX-512 tiers
// evaluate the same polynomials lane-parallel over item chunks and must
// (and do, exactly) reproduce these functions' canonical outputs --
// see docs/simd.md for the per-tier reduction arguments.

#ifndef GSTREAM_UTIL_HASH_H_
#define GSTREAM_UTIL_HASH_H_

#include <cstdint>
#include <vector>

#include "util/random.h"

namespace gstream {

// The Mersenne prime 2^61 - 1 used as the hash field modulus.
inline constexpr uint64_t kMersenne61 = (uint64_t{1} << 61) - 1;

// Reduces a 128-bit product modulo 2^61 - 1.  Inline: this is the innermost
// operation of every sketch update kernel, and an out-of-line call here
// costs more than the reduction itself.
inline uint64_t ModMersenne61(__uint128_t x) {
  // Fold twice in 128 bits (the high part of a 128-bit value exceeds 64
  // bits, so the folds must stay wide), then finish with one conditional
  // subtraction: after the first fold x < 2^61 + 2^67, after the second
  // x <= (2^61 - 1) + 65, so a single subtraction of p canonicalizes.
  x = (x & kMersenne61) + (x >> 61);
  x = (x & kMersenne61) + (x >> 61);
  uint64_t r = static_cast<uint64_t>(x);
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

// Multiplies two field elements modulo 2^61 - 1.
inline uint64_t MulMod61(uint64_t a, uint64_t b) {
  return ModMersenne61(static_cast<__uint128_t>(a) * b);
}

// One fused Horner step: a * x + c mod 2^61 - 1, for a, c < 2^61 and
// x < 2^61.  The 128-bit intermediate a*x + c < 2^123 stays within what
// ModMersenne61's two folds can reduce.
inline uint64_t MulAddMod61(uint64_t a, uint64_t x, uint64_t c) {
  return ModMersenne61(static_cast<__uint128_t>(a) * x + c);
}

// Reduces an arbitrary 64-bit key into the hash field [0, 2^61 - 1).
inline uint64_t ReduceToField(uint64_t x) { return x % kMersenne61; }

// Lazy variants for hot loops: results are congruent mod p but may exceed
// p by a few units (bounds below), deferring canonicalization to the final
// reduction of the evaluation chain (e.g. Eval4Wise's ModMersenne61, which
// canonicalizes any 128-bit input).  Chains built from these produce the
// same canonical hash value as their eager counterparts.

// result == x (mod p), result <= p + 7.
inline uint64_t ReduceToFieldLazy(uint64_t x) {
  return (x & kMersenne61) + (x >> 61);
}

// result == a*b (mod p), result < 2^63, for a, b < 2^63 with a*b < 2^125:
// a single fold leaves at most two carry bits above p.
inline uint64_t MulMod61Lazy(uint64_t a, uint64_t b) {
  const __uint128_t y = static_cast<__uint128_t>(a) * b;
  return static_cast<uint64_t>((y & kMersenne61) + (y >> 61));
}

// Lazy powers x, x^2, x^3 (mod p) of a 64-bit key, the shared per-item
// precomputation of every 4-wise kernel: x <= p + 7, x^2 and x^3 < 2^63,
// within Eval4Wise's input bounds.  All update and query paths of a sketch
// must derive their hashes from this same helper so the values agree
// bit-for-bit.
inline void FieldPowers3Lazy(uint64_t key, uint64_t* x, uint64_t* x2,
                             uint64_t* x3) {
  *x = ReduceToFieldLazy(key);
  *x2 = MulMod61Lazy(*x, *x);
  *x3 = MulMod61Lazy(*x2, *x);
}

// Evaluates the degree-3 polynomial c0 + c1 x + c2 x^2 + c3 x^3 mod p given
// precomputed powers x2 == x^2, x3 == x^3 (mod p); lazy representatives
// are accepted (x <= p + 7, x2 and x3 < 2^63, the FieldPowers3Lazy
// bounds).  The three 128-bit products (each < 2^124) and c0 are summed
// exactly in 128 bits (< 2^126) and reduced once -- one fold pass instead
// of one per Horner step, which is what makes the 4-wise kernels cheap
// when the powers are hoisted out of the per-row loop.  Returns the same
// canonical value as Horner evaluation at the canonical x.
inline uint64_t Eval4Wise(uint64_t c0, uint64_t c1, uint64_t c2, uint64_t c3,
                          uint64_t x, uint64_t x2, uint64_t x3) {
  const __uint128_t sum = static_cast<__uint128_t>(c1) * x +
                          static_cast<__uint128_t>(c2) * x2 +
                          static_cast<__uint128_t>(c3) * x3 + c0;
  // Specialized reduction: sum < 2^125, so hi < 2^61 and both folds fit in
  // 64-bit registers (sum >> 61 < 2^64, first fold < 2^61 + 2^64/8 + ...
  // < 2^64), sparing the 128-bit carry chains of the generic ModMersenne61.
  const uint64_t lo = static_cast<uint64_t>(sum);
  const uint64_t hi = static_cast<uint64_t>(sum >> 64);
  uint64_t r = (lo & kMersenne61) + ((hi << 3) | (lo >> 61));
  r = (r & kMersenne61) + (r >> 61);
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

// Evaluates the degree-1 polynomial a0 + a1 x mod p for a0, a1 < p and a
// lazy x <= p + 7 -- the 2-wise analogue of Eval4Wise, with the same
// specialized 64-bit reduction instead of MulAddMod61's generic 128-bit
// fold chain.  Returns the same canonical value as MulAddMod61(a1, x, a0).
// This is the evaluator of every 2-wise bank row (the subsampler levels,
// the g_np substream and trial hashes, the DIST pieces); the SIMD tiers (util/simd/) lane-parallelize exactly this
// computation.
inline uint64_t Eval2Wise(uint64_t a0, uint64_t a1, uint64_t x) {
  // sum = a1 * x + a0 < 2^61 * (2^61 + 8) + 2^61 < 2^123, so hi < 2^59,
  // (hi << 3) | (lo >> 61) < 2^62, and the first fold stays below 2^63.
  const __uint128_t sum = static_cast<__uint128_t>(a1) * x + a0;
  const uint64_t lo = static_cast<uint64_t>(sum);
  const uint64_t hi = static_cast<uint64_t>(sum >> 64);
  uint64_t r = (lo & kMersenne61) + ((hi << 3) | (lo >> 61));
  r = (r & kMersenne61) + (r >> 61);
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

// Maps a field element h in [0, 2^61) onto [0, range) by Lemire's
// multiply-shift fastrange, adapted to the 61-bit hash domain:
// floor(h * range / 2^61).  No hardware divide.  Each bucket receives
// either floor(2^61 / range) or ceil(2^61 / range) preimages of [0, 2^61),
// and h ranges over the field [0, 2^61 - 1), so the per-bucket probability
// deviates from 1/range by at most (range + 1) / 2^61 -- the same
// negligible bias bound as the modulo reduction it replaces.
inline uint64_t FastRange61(uint64_t h, uint64_t range) {
  return static_cast<uint64_t>((static_cast<__uint128_t>(h) * range) >> 61);
}

// (h & 1) ? v : -v, mod 2^64: a CountSketch row sign applied to a delta
// or a counter.  Free of signed overflow (-INT64_MIN wraps to INT64_MIN)
// and branch-free: the hash bit is a coin flip a branch would mispredict
// half the time.
inline int64_t ApplyRowSign(uint64_t h, int64_t v) {
  const uint64_t flip = (h & 1) - 1;  // 0 keeps v, all ones negates it
  return static_cast<int64_t>((static_cast<uint64_t>(v) ^ flip) - flip);
}

// One FNV-1a step, (h ^ v) * prime, folding a 64-bit word into a running
// fingerprint started at kFnvOffsetBasis: the combiner of every sketch's
// hash Fingerprint() merge guard.
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t FnvFold(uint64_t h, uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

// A bank of `rows` independent k-wise hash functions sharing one flat
// structure-of-arrays coefficient store: coefficient a_d of row r lives at
// coeffs_[d * rows + r].  DegreeCoeffs(d) exposes the contiguous degree-d
// slice so a hot loop over a batch of items can keep one row's coefficients
// in registers (no per-row object indirection, no allocation).
class KWiseHashBank {
 public:
  // Draws `rows` uniformly random degree-(k-1) polynomials, row by row
  // (a_0 .. a_{k-1}, then the next row), each with a nonzero leading
  // coefficient when k > 1.  k >= 1; rows may be 0 (an empty bank).
  KWiseHashBank(int k, size_t rows, Rng& rng);

  // Evaluates row `r` at the pre-reduced point `xm` (xm < 2^61 - 1).
  uint64_t EvalRow(size_t r, uint64_t xm) const {
    uint64_t acc = coeffs_[static_cast<size_t>(k_ - 1) * rows_ + r];
    for (int d = k_ - 2; d >= 0; --d) {
      acc = MulAddMod61(acc, xm, coeffs_[static_cast<size_t>(d) * rows_ + r]);
    }
    return acc;
  }

  // The contiguous array of degree-`d` coefficients, one per row.
  const uint64_t* DegreeCoeffs(int d) const {
    return coeffs_.data() + static_cast<size_t>(d) * rows_;
  }

  int independence() const { return k_; }
  size_t rows() const { return rows_; }

  // Bytes of state held by the bank (all coefficients).
  size_t SpaceBytes() const { return coeffs_.size() * sizeof(uint64_t); }

 private:
  int k_ = 0;
  size_t rows_ = 0;
  std::vector<uint64_t> coeffs_;  // coeffs_[d * rows_ + r]
};

}  // namespace gstream

#endif  // GSTREAM_UTIL_HASH_H_
