// The kAvx2 dispatch tier: 4 x 64-bit lanes of exact Mersenne-61
// arithmetic built from 32x32->64 partial products (_mm256_mul_epu32),
// shifts, masks, and adds -- no carry chains anywhere.
//
// Lane modular multiply (MulMod61Lanes), for a < 2^62, b < 2^63:
//   split a = a0 + 2^32 a1 (a1 < 2^30), b = b0 + 2^32 b1 (b1 < 2^31), so
//     a*b = p00 + 2^32 (p01 + p10) + 2^64 p11
//   with p00 = a0 b0 < 2^64 (exact in a lane), mid = p01 + p10 < 2^64
//   (no overflow: < 2^63 + 2^62), p11 = a1 b1 < 2^61.  Reduce each term
//   mod p = 2^61 - 1 without ever materializing the 128-bit product:
//     p00                ==  fold(p00)                  (< 2^61 + 8)
//     2^32 mid            =  2^32 m_lo + 2^61 m_hi     (m_lo = mid mod 2^29)
//                        ==  (m_lo << 32) + m_hi        (< 2^61 + 2^35)
//     2^64 p11            =  8 p11 * 2^61 / 2^61 ... 2^64 == 8 (mod p), and
//                            p11 << 3 < 2^64, so == fold(p11 << 3)
//   where fold(v) = (v & p) + (v >> 61) == v (mod p) for any uint64 v.
//   The four reduced terms sum below 2^63; one more fold returns a lazy
//   representative < 2^61 + 4.
//
// Canonicalization (Canonical61) folds twice more and conditionally
// subtracts p, yielding the unique representative in [0, p) -- hence
// bit-identical agreement with the scalar tier for every kernel output.
// Tails (n % 4) run through the simd_scalar_ref.h functions.

#include "util/simd/simd_dispatch.h"

#if defined(GSTREAM_SIMD_BUILD_AVX2)

#include <immintrin.h>

#include "util/hash.h"
#include "util/simd/simd_scalar_ref.h"

namespace gstream {
namespace simd {
namespace {

inline __m256i P() { return _mm256_set1_epi64x(kMersenne61); }

// (v & p) + (v >> 61): congruent to v mod p for any uint64 lane, <= p + 7.
inline __m256i Fold61(__m256i v) {
  return _mm256_add_epi64(_mm256_and_si256(v, P()),
                          _mm256_srli_epi64(v, 61));
}

// Lazy modular product: lanes a < 2^62, b < 2^63 -> result < 2^61 + 4,
// congruent to a*b mod p.  See the file comment for the bound arithmetic.
inline __m256i MulMod61Lanes(__m256i a, __m256i b) {
  const __m256i a1 = _mm256_srli_epi64(a, 32);
  const __m256i b1 = _mm256_srli_epi64(b, 32);
  const __m256i p00 = _mm256_mul_epu32(a, b);    // low32(a) * low32(b)
  const __m256i p01 = _mm256_mul_epu32(a, b1);
  const __m256i p10 = _mm256_mul_epu32(a1, b);
  const __m256i p11 = _mm256_mul_epu32(a1, b1);
  const __m256i mid = _mm256_add_epi64(p01, p10);
  const __m256i m_lo = _mm256_and_si256(mid, _mm256_set1_epi64x((1 << 29) - 1));
  const __m256i m_hi = _mm256_srli_epi64(mid, 29);
  __m256i r = Fold61(p00);
  r = _mm256_add_epi64(r, _mm256_slli_epi64(m_lo, 32));
  r = _mm256_add_epi64(r, m_hi);
  r = _mm256_add_epi64(r, Fold61(_mm256_slli_epi64(p11, 3)));
  return Fold61(r);
}

// Unique representative in [0, p) of any uint64 lane value: two folds
// bring it to <= p (never above 2^61), then one masked subtract.  Lane
// values stay below 2^62, so the signed 64-bit compare is safe.
inline __m256i Canonical61(__m256i v) {
  v = Fold61(Fold61(v));
  const __m256i ge = _mm256_cmpgt_epi64(v, _mm256_set1_epi64x(kMersenne61 - 1));
  return _mm256_sub_epi64(v, _mm256_and_si256(ge, P()));
}

// Canonical c0 + c1 x + c2 x^2 + c3 x^3 mod p for one row's coefficient
// broadcast and four items' lazy powers.  The three lazy products
// (< 2^61 + 4 each) plus c0 (< p) sum below 2^63 + 16 -- no lane wraps --
// and Canonical61 accepts any uint64.
inline __m256i Eval4Lanes(__m256i c0, __m256i c1, __m256i c2, __m256i c3,
                          __m256i x, __m256i x2, __m256i x3) {
  __m256i s = MulMod61Lanes(c1, x);
  s = _mm256_add_epi64(s, MulMod61Lanes(c2, x2));
  s = _mm256_add_epi64(s, MulMod61Lanes(c3, x3));
  s = _mm256_add_epi64(s, c0);
  return Canonical61(s);
}

inline __m256i Load(const uint64_t* p_) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p_));
}
inline void Store(uint64_t* p_, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p_), v);
}

// In-register FastRange61, (h * range) >> 61 for h < 2^61, range < 2^32:
// with A = low32(h)*range and B = high29(h)*range, the product is
// 2^32 (B + (A >> 32)) + low32(A) and the low 32 bits cannot carry into
// bit 61, so the bucket is (B + (A >> 32)) >> 29.  h lanes canonical.
// Returns 64-bit lanes holding 32-bit buckets.
inline __m256i FastRangeLanes(__m256i h, __m256i range) {
  const __m256i a = _mm256_mul_epu32(h, range);
  const __m256i b = _mm256_mul_epu32(_mm256_srli_epi64(h, 32), range);
  return _mm256_srli_epi64(_mm256_add_epi64(b, _mm256_srli_epi64(a, 32)), 29);
}

// Narrows 4 x 64-bit lanes (values < 2^32) to 4 packed uint32 at out.
inline void StoreNarrow32(uint32_t* out, __m256i v) {
  const __m256i packed = _mm256_permutevar8x32_epi32(
      v, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm256_castsi256_si128(packed));
}

// Loads 4 consecutive Update structs (16-byte item/delta AoS stride) and
// deinterleaves them into item and delta lane vectors: two unpacks merge
// qwords 0/2 of each 128-bit half, one cross-lane permute restores stream
// order.
inline void LoadUpdates4(const Update* u, __m256i* items, __m256i* deltas) {
  const __m256i u01 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u));
  const __m256i u23 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u + 2));
  // unpacklo: [i0, i2, i1, i3]; unpackhi: [d0, d2, d1, d3].
  const __m256i lo = _mm256_unpacklo_epi64(u01, u23);
  const __m256i hi = _mm256_unpackhi_epi64(u01, u23);
  *items = _mm256_permute4x64_epi64(lo, 0xD8);   // (0,2,1,3)
  *deltas = _mm256_permute4x64_epi64(hi, 0xD8);
}

void Avx2PrepareBatch(const Update* updates, size_t n, uint64_t* xm,
                      uint64_t* x2, uint64_t* x3, int64_t* delta) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i items, deltas;
    LoadUpdates4(updates + i, &items, &deltas);
    const __m256i x = Fold61(items);          // == ReduceToFieldLazy
    const __m256i sq = MulMod61Lanes(x, x);   // x <= p + 7 < 2^62: ok as a
    const __m256i cu = MulMod61Lanes(sq, x);  // sq < 2^61 + 4 < 2^62: ok
    Store(xm + i, x);
    Store(x2 + i, sq);
    Store(x3 + i, cu);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(delta + i), deltas);
  }
  ScalarPrepareBatch(updates + i, n - i, xm + i, x2 + i, x3 + i, delta + i);
}

void Avx2PrepareBatch2(const Update* updates, size_t n, uint64_t* xm,
                       int64_t* delta) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i items, deltas;
    LoadUpdates4(updates + i, &items, &deltas);
    Store(xm + i, Fold61(items));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(delta + i), deltas);
  }
  ScalarPrepareBatch2(updates + i, n - i, xm + i, delta + i);
}

void Avx2FieldPowers(const uint64_t* keys, size_t n, uint64_t* xm,
                     uint64_t* x2, uint64_t* x3) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x = Fold61(Load(keys + i));  // == ReduceToFieldLazy
    const __m256i sq = MulMod61Lanes(x, x);
    const __m256i cu = MulMod61Lanes(sq, x);
    Store(xm + i, x);
    Store(x2 + i, sq);
    Store(x3 + i, cu);
  }
  ScalarFieldPowers(keys + i, n - i, xm + i, x2 + i, x3 + i);
}

void Avx2Eval4Row(uint64_t c0, uint64_t c1, uint64_t c2, uint64_t c3,
                  const uint64_t* xm, const uint64_t* x2, const uint64_t* x3,
                  size_t n, uint64_t* out) {
  const __m256i C0 = _mm256_set1_epi64x(static_cast<long long>(c0));
  const __m256i C1 = _mm256_set1_epi64x(static_cast<long long>(c1));
  const __m256i C2 = _mm256_set1_epi64x(static_cast<long long>(c2));
  const __m256i C3 = _mm256_set1_epi64x(static_cast<long long>(c3));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Store(out + i, Eval4Lanes(C0, C1, C2, C3, Load(xm + i), Load(x2 + i),
                              Load(x3 + i)));
  }
  ScalarEval4Row(c0, c1, c2, c3, xm + i, x2 + i, x3 + i, n - i, out + i);
}

void Avx2Eval4Bucket(uint64_t c0, uint64_t c1, uint64_t c2, uint64_t c3,
                     const uint64_t* xm, const uint64_t* x2,
                     const uint64_t* x3, const int64_t* delta, uint64_t range,
                     size_t n, uint32_t* idx, int64_t* sd) {
  const __m256i C0 = _mm256_set1_epi64x(static_cast<long long>(c0));
  const __m256i C1 = _mm256_set1_epi64x(static_cast<long long>(c1));
  const __m256i C2 = _mm256_set1_epi64x(static_cast<long long>(c2));
  const __m256i C3 = _mm256_set1_epi64x(static_cast<long long>(c3));
  const __m256i R = _mm256_set1_epi64x(static_cast<long long>(range));
  const __m256i one = _mm256_set1_epi64x(1);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i h = Eval4Lanes(C0, C1, C2, C3, Load(xm + i), Load(x2 + i),
                                 Load(x3 + i));
    StoreNarrow32(idx + i, FastRangeLanes(h, R));
    // m = (h & 1) - 1; (d ^ m) - m negates exactly the even-hash lanes.
    const __m256i m = _mm256_sub_epi64(_mm256_and_si256(h, one), one);
    const __m256i d = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(delta + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sd + i),
                        _mm256_sub_epi64(_mm256_xor_si256(d, m), m));
  }
  ScalarEval4Bucket(c0, c1, c2, c3, xm + i, x2 + i, x3 + i, delta + i, range,
                    n - i, idx + i, sd + i);
}

void Avx2Eval2Bucket(uint64_t a0, uint64_t a1, const uint64_t* xm,
                     uint64_t range, size_t n, uint32_t* idx) {
  const __m256i A0 = _mm256_set1_epi64x(static_cast<long long>(a0));
  const __m256i A1 = _mm256_set1_epi64x(static_cast<long long>(a1));
  const __m256i R = _mm256_set1_epi64x(static_cast<long long>(range));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i s = _mm256_add_epi64(MulMod61Lanes(A1, Load(xm + i)), A0);
    StoreNarrow32(idx + i, FastRangeLanes(Canonical61(s), R));
  }
  ScalarEval2Bucket(a0, a1, xm + i, range, n - i, idx + i);
}

// bit_signed_sums, item-major: estimator j's signed sum is 2 P_j - D
// (mod 2^64), with D the sum of every delta and P_j the sum over items
// whose hash has bit j set.  P lives in kGroups registers of four
// estimators each.  A variable left shift moves bit 4g + l of the
// broadcast hash into lane l's sign bit, and blendv keeps the delta
// exactly where that bit is set.  The last group is written under a lane
// mask, so sums[count..] is never touched.
template <size_t kGroups>
void Avx2BitSignedSumsImpl(const uint64_t* h, const int64_t* delta, size_t n,
                           size_t count, int64_t* sums) {
  __m256i p[kGroups];
  __m256i shift[kGroups];
  for (size_t g = 0; g < kGroups; ++g) {
    p[g] = _mm256_setzero_si256();
    const long long top = 63 - 4 * static_cast<long long>(g);
    shift[g] = _mm256_setr_epi64x(top, top - 1, top - 2, top - 3);
  }
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    const __m256d d = _mm256_castsi256_pd(_mm256_set1_epi64x(delta[i]));
    total += static_cast<uint64_t>(delta[i]);
    const __m256i bits = _mm256_set1_epi64x(static_cast<long long>(h[i]));
    for (size_t g = 0; g < kGroups; ++g) {
      const __m256d sel = _mm256_blendv_pd(
          _mm256_setzero_pd(), d,
          _mm256_castsi256_pd(_mm256_sllv_epi64(bits, shift[g])));
      p[g] = _mm256_add_epi64(p[g], _mm256_castpd_si256(sel));
    }
  }
  const __m256i t = _mm256_set1_epi64x(static_cast<long long>(total));
  for (size_t g = 0; g < kGroups; ++g) {
    const long long left = static_cast<long long>(count - 4 * g);
    const __m256i m = _mm256_cmpgt_epi64(_mm256_set1_epi64x(left),
                                         _mm256_setr_epi64x(0, 1, 2, 3));
    long long* out = reinterpret_cast<long long*>(sums + 4 * g);
    const __m256i s = _mm256_maskload_epi64(out, m);
    const __m256i z = _mm256_sub_epi64(_mm256_add_epi64(p[g], p[g]), t);
    _mm256_maskstore_epi64(out, m, _mm256_add_epi64(s, z));
  }
}

void Avx2BitSignedSums(const uint64_t* h, const int64_t* delta, size_t n,
                       size_t count, int64_t* sums) {
  switch ((count + 3) / 4) {
    case 1: return Avx2BitSignedSumsImpl<1>(h, delta, n, count, sums);
    case 2: return Avx2BitSignedSumsImpl<2>(h, delta, n, count, sums);
    case 3: return Avx2BitSignedSumsImpl<3>(h, delta, n, count, sums);
    case 4: return Avx2BitSignedSumsImpl<4>(h, delta, n, count, sums);
    case 5: return Avx2BitSignedSumsImpl<5>(h, delta, n, count, sums);
    case 6: return Avx2BitSignedSumsImpl<6>(h, delta, n, count, sums);
    case 7: return Avx2BitSignedSumsImpl<7>(h, delta, n, count, sums);
    case 8: return Avx2BitSignedSumsImpl<8>(h, delta, n, count, sums);
    case 9: return Avx2BitSignedSumsImpl<9>(h, delta, n, count, sums);
    case 10: return Avx2BitSignedSumsImpl<10>(h, delta, n, count, sums);
    case 11: return Avx2BitSignedSumsImpl<11>(h, delta, n, count, sums);
    case 12: return Avx2BitSignedSumsImpl<12>(h, delta, n, count, sums);
    case 13: return Avx2BitSignedSumsImpl<13>(h, delta, n, count, sums);
    case 14: return Avx2BitSignedSumsImpl<14>(h, delta, n, count, sums);
    case 15: return Avx2BitSignedSumsImpl<15>(h, delta, n, count, sums);
    case 16: return Avx2BitSignedSumsImpl<16>(h, delta, n, count, sums);
  }
}

void Avx2Eval2ParityOr(uint64_t a0, uint64_t a1, const uint64_t* xm, size_t n,
                       unsigned bit, uint64_t* masks) {
  const __m256i A0 = _mm256_set1_epi64x(static_cast<long long>(a0));
  const __m256i A1 = _mm256_set1_epi64x(static_cast<long long>(a1));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(bit));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i s = _mm256_add_epi64(MulMod61Lanes(A1, Load(xm + i)), A0);
    const __m256i par = _mm256_and_si256(Canonical61(s), one);
    const __m256i m = Load(masks + i);
    Store(masks + i, _mm256_or_si256(m, _mm256_sll_epi64(par, shift)));
  }
  ScalarEval2ParityOr(a0, a1, xm + i, n - i, bit, masks + i);
}

}  // namespace

const SimdOps* GetAvx2Ops() {
  const SimdOps& scalar = *GetScalarOps();
  static const SimdOps ops = {
      &Avx2PrepareBatch,  &Avx2PrepareBatch2, &Avx2FieldPowers,
      &Avx2Eval4Row,      &Avx2Eval4Bucket,   &Avx2Eval2Bucket,
      &Avx2BitSignedSums, &Avx2Eval2ParityOr,
      // The counter scatter and the decode gather are the scalar tier's
      // own kernels (docs/simd.md: the vector versions lost).  Taken from
      // the scalar table so this ISA-flagged file emits no copy of them.
      scalar.scatter_add_signed, scalar.gather_signed,
  };
  return &ops;
}

}  // namespace simd
}  // namespace gstream

#else  // !GSTREAM_SIMD_BUILD_AVX2

namespace gstream {
namespace simd {
const SimdOps* GetAvx2Ops() { return nullptr; }
}  // namespace simd
}  // namespace gstream

#endif  // GSTREAM_SIMD_BUILD_AVX2
