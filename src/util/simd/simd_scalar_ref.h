// Scalar reference implementations of the SimdOps kernels, built directly
// on the util/hash.h primitives.  These serve two roles:
//   * the kScalar dispatch tier (simd_kernels_scalar.cc), and
//   * the tail loops of the vector tiers -- when n is not a multiple of
//     the lane width, the remainder runs through exactly these functions,
//     so a vector tier's output is the scalar tier's output element for
//     element by construction at the boundaries.
//
// Every function here produces canonical field elements (or values derived
// from them), which is what makes tier agreement a theorem rather than a
// test-only observation: canonical reduction mod 2^61 - 1 is unique, so
// any tier that computes the same residue agrees bit-for-bit.

#ifndef GSTREAM_UTIL_SIMD_SIMD_SCALAR_REF_H_
#define GSTREAM_UTIL_SIMD_SIMD_SCALAR_REF_H_

#include <cstddef>
#include <cstdint>

#include "stream/stream.h"
#include "util/hash.h"

namespace gstream {
namespace simd {

inline void ScalarPrepareBatch(const Update* updates, size_t n, uint64_t* xm,
                               uint64_t* x2, uint64_t* x3, int64_t* delta) {
  for (size_t i = 0; i < n; ++i) {
    FieldPowers3Lazy(updates[i].item, &xm[i], &x2[i], &x3[i]);
    delta[i] = updates[i].delta;
  }
}

inline void ScalarPrepareBatch2(const Update* updates, size_t n, uint64_t* xm,
                                int64_t* delta) {
  for (size_t i = 0; i < n; ++i) {
    xm[i] = ReduceToFieldLazy(updates[i].item);
    delta[i] = updates[i].delta;
  }
}

inline void ScalarFieldPowers(const uint64_t* keys, size_t n, uint64_t* xm,
                              uint64_t* x2, uint64_t* x3) {
  for (size_t i = 0; i < n; ++i) {
    FieldPowers3Lazy(keys[i], &xm[i], &x2[i], &x3[i]);
  }
}

inline void ScalarEval4Row(uint64_t c0, uint64_t c1, uint64_t c2, uint64_t c3,
                           const uint64_t* xm, const uint64_t* x2,
                           const uint64_t* x3, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = Eval4Wise(c0, c1, c2, c3, xm[i], x2[i], x3[i]);
  }
}

inline void ScalarEval4Bucket(uint64_t c0, uint64_t c1, uint64_t c2,
                              uint64_t c3, const uint64_t* xm,
                              const uint64_t* x2, const uint64_t* x3,
                              const int64_t* delta, uint64_t range, size_t n,
                              uint32_t* idx, int64_t* sd) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = Eval4Wise(c0, c1, c2, c3, xm[i], x2[i], x3[i]);
    idx[i] = static_cast<uint32_t>(FastRange61(h, range));
    sd[i] = ApplyRowSign(h, delta[i]);
  }
}

inline void ScalarEval2Bucket(uint64_t a0, uint64_t a1, const uint64_t* xm,
                              uint64_t range, size_t n, uint32_t* idx) {
  for (size_t i = 0; i < n; ++i) {
    idx[i] = static_cast<uint32_t>(FastRange61(Eval2Wise(a0, a1, xm[i]),
                                               range));
  }
}

// Unsigned arithmetic: the int64 wraparound the contract names, with no
// signed overflow when a delta is INT64_MIN.
inline void ScalarBitSignedSums(const uint64_t* h, const int64_t* delta,
                                size_t n, size_t count, int64_t* sums) {
  for (size_t j = 0; j < count; ++j) {
    uint64_t z = static_cast<uint64_t>(sums[j]);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t d = static_cast<uint64_t>(delta[i]);
      z += ((h[i] >> j) & 1) ? d : 0 - d;
    }
    sums[j] = static_cast<int64_t>(z);
  }
}

inline void ScalarEval2ParityOr(uint64_t a0, uint64_t a1, const uint64_t* xm,
                                size_t n, unsigned bit, uint64_t* masks) {
  for (size_t i = 0; i < n; ++i) {
    masks[i] |= (Eval2Wise(a0, a1, xm[i]) & 1) << bit;
  }
}

// The counter scatter/gather kernels of every tier: sequential stream-order
// accumulation and multiply-by-sign decode, both mod 2^64 so a counter at
// the int64 edge wraps instead of overflowing.

inline void ScalarScatterAddSigned(int64_t* counters, const uint32_t* idx,
                                   const int64_t* sd, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    counters[idx[i]] = static_cast<int64_t>(
        static_cast<uint64_t>(counters[idx[i]]) + static_cast<uint64_t>(sd[i]));
  }
}

inline void ScalarGatherSigned(const int64_t* counters, const uint32_t* idx,
                               const int64_t* sign, size_t n, int64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<int64_t>(static_cast<uint64_t>(counters[idx[i]]) *
                                  static_cast<uint64_t>(sign[i]));
  }
}

}  // namespace simd
}  // namespace gstream

#endif  // GSTREAM_UTIL_SIMD_SIMD_SCALAR_REF_H_
