// Small bit-manipulation helpers shared across the library.

#ifndef GSTREAM_UTIL_BIT_H_
#define GSTREAM_UTIL_BIT_H_

#include <cstdint>

#include "util/logging.h"

namespace gstream {

// Index of the lowest set bit of `x` (i_x in the paper's g_np definition,
// Appendix D.1).  Requires x != 0.
inline int LowestSetBit(uint64_t x) {
  GSTREAM_CHECK(x != 0);
  return __builtin_ctzll(x);
}

// Floor of log2(x).  Requires x > 0.
inline int Log2Floor(uint64_t x) {
  GSTREAM_CHECK(x > 0);
  return 63 - __builtin_clzll(x);
}

// Ceiling of log2(x).  Requires x > 0; Log2Ceil(1) == 0.
inline int Log2Ceil(uint64_t x) {
  GSTREAM_CHECK(x > 0);
  return (x == 1) ? 0 : Log2Floor(x - 1) + 1;
}

// Smallest power of two >= x.  Requires x >= 1.
inline uint64_t NextPow2(uint64_t x) { return uint64_t{1} << Log2Ceil(x); }

// a + b mod 2^64, the sketch counters' addition: a counter at the int64
// edge wraps instead of overflowing, and merges stay exact by linearity.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

}  // namespace gstream

#endif  // GSTREAM_UTIL_BIT_H_
