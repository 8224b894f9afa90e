// The kAvx512 dispatch tier: 8 x 64-bit lanes built on the AVX-512 IFMA
// 52-bit multiply-add units (vpmadd52lo/hi.uq).  Runtime dispatch requires
// avx512f + avx512dq + avx512vl + avx512ifma (simd_dispatch.cc).
//
// Radix-52 accumulation.  Field elements (and their lazy representatives,
// all < 2^63) are split on the fly into two 52-bit limbs, v = vL + 2^52 vH
// (vH < 2^11), and a whole polynomial sum is accumulated in three limb
// accumulators representing  value = LO + 2^52 HI + 2^104 TOP:
//
//   c*v:  LO  += lo52(cL*vL)                        (vpmadd52luq)
//         HI  += hi52(cL*vL) + lo52(cL*vH) + lo52(cH*vL)
//         TOP += hi52(cL*vH) + hi52(cH*vL) + cH*vH
//
// -- seven vpmadd52 per product and nothing else, because the instruction
// fuses the multiply with the limb addition.  Every partial product is
// exact: the lo/hi pair covers cL*vL and cL*vH / cH*vL completely, and
// cH*vH < 2^22 fits a lo52 term outright.  Accumulating c0 plus three
// products keeps LO < 2^54, HI < 2^56, TOP < 2^23 -- far from the 64-bit
// lane limit, so no intermediate reduction is needed.
//
// One deferred reduction (Reduce52) maps the limbs back to a single lazy
// value < 2^63 using 2^61 == 1 (mod p), p = 2^61 - 1:
//
//   2^52 HI  ==  ((HI mod 2^9) << 52) + (HI >> 9)       since 2^52*2^9 = 2^61
//   2^104 TOP == 2^43 TOP == ((TOP mod 2^18) << 43) + (TOP >> 18)
//
// with every shifted term below 2^61, so the five-term sum stays under
// 2^63.  Canonicalization (Canonical61) then folds twice and
// conditionally subtracts p, yielding the unique representative in
// [0, p) -- hence bit-identical agreement with the scalar tier for every
// kernel output.  Tails (n % 8) run through simd_scalar_ref.h.

#include "util/simd/simd_dispatch.h"

#if defined(GSTREAM_SIMD_BUILD_AVX512)

#include <immintrin.h>

#include "util/hash.h"
#include "util/simd/simd_scalar_ref.h"

namespace gstream {
namespace simd {
namespace {

constexpr int64_t kMask52 = (int64_t{1} << 52) - 1;

inline __m512i P() { return _mm512_set1_epi64(kMersenne61); }

// (v & p) + (v >> 61): congruent to v mod p for any uint64 lane, <= p + 7.
inline __m512i Fold61(__m512i v) {
  return _mm512_add_epi64(_mm512_and_si512(v, P()),
                          _mm512_srli_epi64(v, 61));
}

// Unique representative in [0, p) of any uint64 lane value: two folds
// bring it to <= p + a few units (never above 2^61), then one masked
// subtract.
inline __m512i Canonical61(__m512i v) {
  v = Fold61(Fold61(v));  // <= 2^61
  const __mmask8 ge = _mm512_cmpge_epu64_mask(v, P());
  return _mm512_mask_sub_epi64(v, ge, v, P());
}

// Radix-52 limb accumulator; see the file comment.  Sound for any number
// of accumulated products while HI stays below 2^64 (each product adds at
// most 3 * (2^52 - 1) to HI, so hundreds of products fit; the kernels
// accumulate at most three).
struct Limbs52 {
  __m512i lo, hi, top;
};

inline Limbs52 InitLimbs(uint64_t c0) {
  return Limbs52{_mm512_set1_epi64(static_cast<long long>(c0) & kMask52),
                 _mm512_set1_epi64(static_cast<long long>(c0 >> 52)),
                 _mm512_setzero_si512()};
}

// One broadcast coefficient c < 2^61, pre-split by the caller into
// cl = c mod 2^52 and ch = c >> 52 (< 2^9).
inline void MulAccumulate(Limbs52* acc, __m512i cl, __m512i ch, __m512i v) {
  const __m512i mask52 = _mm512_set1_epi64(kMask52);
  const __m512i vl = _mm512_and_si512(v, mask52);
  const __m512i vh = _mm512_srli_epi64(v, 52);  // < 2^11 for v < 2^63
  acc->lo = _mm512_madd52lo_epu64(acc->lo, cl, vl);
  acc->hi = _mm512_madd52hi_epu64(acc->hi, cl, vl);
  acc->hi = _mm512_madd52lo_epu64(acc->hi, cl, vh);
  acc->top = _mm512_madd52hi_epu64(acc->top, cl, vh);
  acc->hi = _mm512_madd52lo_epu64(acc->hi, ch, vl);
  acc->top = _mm512_madd52hi_epu64(acc->top, ch, vl);
  acc->top = _mm512_madd52lo_epu64(acc->top, ch, vh);  // cH*vH < 2^22: exact
}

// Limbs -> lazy value < 2^63, congruent mod p (see the file comment).
inline __m512i Reduce52(const Limbs52& acc) {
  const __m512i hi_lo = _mm512_and_si512(acc.hi, _mm512_set1_epi64(511));
  const __m512i top_lo =
      _mm512_and_si512(acc.top, _mm512_set1_epi64((1 << 18) - 1));
  __m512i s = _mm512_add_epi64(acc.lo, _mm512_slli_epi64(hi_lo, 52));
  s = _mm512_add_epi64(s, _mm512_srli_epi64(acc.hi, 9));
  s = _mm512_add_epi64(s, _mm512_slli_epi64(top_lo, 43));
  return _mm512_add_epi64(s, _mm512_srli_epi64(acc.top, 18));
}

// Split of a broadcast coefficient, hoisted out of the item loops.
struct CoeffSplit {
  __m512i lo, hi;
};

inline CoeffSplit SplitCoeff(uint64_t c) {
  return CoeffSplit{_mm512_set1_epi64(static_cast<long long>(c) & kMask52),
                    _mm512_set1_epi64(static_cast<long long>(c >> 52))};
}

// Canonical c0 + c1 x + c2 x^2 + c3 x^3 mod p for one row's pre-split
// coefficients and eight items' lazy powers.
inline __m512i Eval4Lanes(uint64_t c0, const CoeffSplit& c1,
                          const CoeffSplit& c2, const CoeffSplit& c3,
                          __m512i x, __m512i x2, __m512i x3) {
  Limbs52 acc = InitLimbs(c0);
  MulAccumulate(&acc, c1.lo, c1.hi, x);
  MulAccumulate(&acc, c2.lo, c2.hi, x2);
  MulAccumulate(&acc, c3.lo, c3.hi, x3);
  return Canonical61(Reduce52(acc));
}

// Canonical a0 + a1 x mod p.
inline __m512i Eval2Lanes(uint64_t a0, const CoeffSplit& a1, __m512i x) {
  Limbs52 acc = InitLimbs(a0);
  MulAccumulate(&acc, a1.lo, a1.hi, x);
  return Canonical61(Reduce52(acc));
}

// Lazy modular product of two variant lane vectors (a, b < 2^63), used for
// the shared field powers: split both on the fly, accumulate once, reduce.
// Result < 2^62, congruent to a*b mod p.
inline __m512i MulMod61Lanes(__m512i a, __m512i b) {
  const __m512i mask52 = _mm512_set1_epi64(kMask52);
  Limbs52 acc{_mm512_setzero_si512(), _mm512_setzero_si512(),
              _mm512_setzero_si512()};
  MulAccumulate(&acc, _mm512_and_si512(a, mask52), _mm512_srli_epi64(a, 52),
                b);
  return Reduce52(acc);
}

// In-register FastRange61 (same two-partial-product form as the AVX2
// tier); h lanes canonical, range < 2^32.
inline __m512i FastRangeLanes(__m512i h, __m512i range) {
  const __m512i a = _mm512_mul_epu32(h, range);
  const __m512i b = _mm512_mul_epu32(_mm512_srli_epi64(h, 32), range);
  return _mm512_srli_epi64(_mm512_add_epi64(b, _mm512_srli_epi64(a, 32)), 29);
}

// Loads 8 consecutive Update structs (16-byte item/delta AoS stride) and
// deinterleaves them with two cross-register qword permutes.
inline void LoadUpdates8(const Update* u, __m512i* items, __m512i* deltas) {
  const __m512i u03 = _mm512_loadu_si512(u);
  const __m512i u47 = _mm512_loadu_si512(u + 4);
  const __m512i even =
      _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);  // 8.. selects u47
  const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  *items = _mm512_permutex2var_epi64(u03, even, u47);
  *deltas = _mm512_permutex2var_epi64(u03, odd, u47);
}

inline __m512i Load(const uint64_t* p_) { return _mm512_loadu_si512(p_); }
inline void Store(uint64_t* p_, __m512i v) { _mm512_storeu_si512(p_, v); }

void Avx512PrepareBatch(const Update* updates, size_t n, uint64_t* xm,
                        uint64_t* x2, uint64_t* x3, int64_t* delta) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i items, deltas;
    LoadUpdates8(updates + i, &items, &deltas);
    const __m512i x = Fold61(items);  // == ReduceToFieldLazy
    const __m512i sq = MulMod61Lanes(x, x);
    const __m512i cu = MulMod61Lanes(sq, x);
    Store(xm + i, x);
    Store(x2 + i, sq);
    Store(x3 + i, cu);
    _mm512_storeu_si512(delta + i, deltas);
  }
  ScalarPrepareBatch(updates + i, n - i, xm + i, x2 + i, x3 + i, delta + i);
}

void Avx512PrepareBatch2(const Update* updates, size_t n, uint64_t* xm,
                         int64_t* delta) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i items, deltas;
    LoadUpdates8(updates + i, &items, &deltas);
    Store(xm + i, Fold61(items));
    _mm512_storeu_si512(delta + i, deltas);
  }
  ScalarPrepareBatch2(updates + i, n - i, xm + i, delta + i);
}

void Avx512FieldPowers(const uint64_t* keys, size_t n, uint64_t* xm,
                       uint64_t* x2, uint64_t* x3) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = Fold61(Load(keys + i));  // == ReduceToFieldLazy
    const __m512i sq = MulMod61Lanes(x, x);
    const __m512i cu = MulMod61Lanes(sq, x);
    Store(xm + i, x);
    Store(x2 + i, sq);
    Store(x3 + i, cu);
  }
  ScalarFieldPowers(keys + i, n - i, xm + i, x2 + i, x3 + i);
}

void Avx512Eval4Row(uint64_t c0, uint64_t c1, uint64_t c2, uint64_t c3,
                    const uint64_t* xm, const uint64_t* x2,
                    const uint64_t* x3, size_t n, uint64_t* out) {
  const CoeffSplit C1 = SplitCoeff(c1);
  const CoeffSplit C2 = SplitCoeff(c2);
  const CoeffSplit C3 = SplitCoeff(c3);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Store(out + i, Eval4Lanes(c0, C1, C2, C3, Load(xm + i), Load(x2 + i),
                              Load(x3 + i)));
  }
  ScalarEval4Row(c0, c1, c2, c3, xm + i, x2 + i, x3 + i, n - i, out + i);
}

void Avx512Eval4Bucket(uint64_t c0, uint64_t c1, uint64_t c2, uint64_t c3,
                       const uint64_t* xm, const uint64_t* x2,
                       const uint64_t* x3, const int64_t* delta,
                       uint64_t range, size_t n, uint32_t* idx, int64_t* sd) {
  const CoeffSplit C1 = SplitCoeff(c1);
  const CoeffSplit C2 = SplitCoeff(c2);
  const CoeffSplit C3 = SplitCoeff(c3);
  const __m512i R = _mm512_set1_epi64(static_cast<long long>(range));
  const __m512i one = _mm512_set1_epi64(1);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i h = Eval4Lanes(c0, C1, C2, C3, Load(xm + i), Load(x2 + i),
                                 Load(x3 + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + i),
                        _mm512_cvtepi64_epi32(FastRangeLanes(h, R)));
    const __m512i d = _mm512_loadu_si512(delta + i);
    const __mmask8 plus = _mm512_test_epi64_mask(h, one);
    const __m512i neg = _mm512_sub_epi64(_mm512_setzero_si512(), d);
    _mm512_storeu_si512(sd + i, _mm512_mask_blend_epi64(plus, neg, d));
  }
  ScalarEval4Bucket(c0, c1, c2, c3, xm + i, x2 + i, x3 + i, delta + i, range,
                    n - i, idx + i, sd + i);
}

void Avx512Eval2Bucket(uint64_t a0, uint64_t a1, const uint64_t* xm,
                       uint64_t range, size_t n, uint32_t* idx) {
  const CoeffSplit A1 = SplitCoeff(a1);
  const __m512i R = _mm512_set1_epi64(static_cast<long long>(range));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i h = Eval2Lanes(a0, A1, Load(xm + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + i),
                        _mm512_cvtepi64_epi32(FastRangeLanes(h, R)));
  }
  ScalarEval2Bucket(a0, a1, xm + i, range, n - i, idx + i);
}

// bit_signed_sums, item-major: estimator j's signed sum is 2 P_j - D
// (mod 2^64), with D the sum of every delta and P_j the sum over items
// whose hash has bit j set.  P lives in kGroups registers of eight
// estimators each; an item adds its broadcast delta to every estimator of
// a group under the 8-bit mask of that group's hash bits.  The last group
// is written under a lane mask, so sums[count..] is never touched.
template <size_t kGroups>
void Avx512BitSignedSumsImpl(const uint64_t* h, const int64_t* delta,
                             size_t n, size_t count, int64_t* sums) {
  __m512i p[kGroups];
  for (size_t g = 0; g < kGroups; ++g) p[g] = _mm512_setzero_si512();
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    const __m512i d = _mm512_set1_epi64(delta[i]);
    total += static_cast<uint64_t>(delta[i]);
    const uint64_t bits = h[i];
    for (size_t g = 0; g < kGroups; ++g) {
      p[g] = _mm512_mask_add_epi64(
          p[g], _cvtu32_mask8(static_cast<uint32_t>(bits >> (8 * g))), p[g],
          d);
    }
  }
  const __m512i t = _mm512_set1_epi64(static_cast<long long>(total));
  for (size_t g = 0; g < kGroups; ++g) {
    const size_t left = count - 8 * g;
    const __mmask8 m =
        left >= 8 ? __mmask8{0xff} : _cvtu32_mask8((1u << left) - 1);
    const __m512i s = _mm512_maskz_loadu_epi64(m, sums + 8 * g);
    const __m512i z = _mm512_sub_epi64(_mm512_add_epi64(p[g], p[g]), t);
    _mm512_mask_storeu_epi64(sums + 8 * g, m, _mm512_add_epi64(s, z));
  }
}

void Avx512BitSignedSums(const uint64_t* h, const int64_t* delta, size_t n,
                         size_t count, int64_t* sums) {
  switch ((count + 7) / 8) {
    case 1: return Avx512BitSignedSumsImpl<1>(h, delta, n, count, sums);
    case 2: return Avx512BitSignedSumsImpl<2>(h, delta, n, count, sums);
    case 3: return Avx512BitSignedSumsImpl<3>(h, delta, n, count, sums);
    case 4: return Avx512BitSignedSumsImpl<4>(h, delta, n, count, sums);
    case 5: return Avx512BitSignedSumsImpl<5>(h, delta, n, count, sums);
    case 6: return Avx512BitSignedSumsImpl<6>(h, delta, n, count, sums);
    case 7: return Avx512BitSignedSumsImpl<7>(h, delta, n, count, sums);
    case 8: return Avx512BitSignedSumsImpl<8>(h, delta, n, count, sums);
  }
}

void Avx512Eval2ParityOr(uint64_t a0, uint64_t a1, const uint64_t* xm,
                         size_t n, unsigned bit, uint64_t* masks) {
  const CoeffSplit A1 = SplitCoeff(a1);
  const __m512i one = _mm512_set1_epi64(1);
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(bit));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i par =
        _mm512_and_si512(Eval2Lanes(a0, A1, Load(xm + i)), one);
    const __m512i m = Load(masks + i);
    Store(masks + i, _mm512_or_si512(m, _mm512_sll_epi64(par, shift)));
  }
  ScalarEval2ParityOr(a0, a1, xm + i, n - i, bit, masks + i);
}

}  // namespace

const SimdOps* GetAvx512Ops() {
  const SimdOps& scalar = *GetScalarOps();
  static const SimdOps ops = {
      &Avx512PrepareBatch,  &Avx512PrepareBatch2, &Avx512FieldPowers,
      &Avx512Eval4Row,      &Avx512Eval4Bucket,   &Avx512Eval2Bucket,
      &Avx512BitSignedSums, &Avx512Eval2ParityOr,
      // The counter scatter and the decode gather are the scalar tier's
      // own kernels (docs/simd.md: the vector versions lost).  Taken from
      // the scalar table so this ISA-flagged file emits no copy of them.
      scalar.scatter_add_signed, scalar.gather_signed,
  };
  return &ops;
}

}  // namespace simd
}  // namespace gstream

#else  // !GSTREAM_SIMD_BUILD_AVX512

namespace gstream {
namespace simd {
const SimdOps* GetAvx512Ops() { return nullptr; }
}  // namespace simd
}  // namespace gstream

#endif  // GSTREAM_SIMD_BUILD_AVX512
