#include "sketch/subsampler.h"

#include <algorithm>

#include "util/logging.h"

namespace gstream {

NestedSubsampler::NestedSubsampler(int max_level, Rng& rng)
    : levels_(/*k=*/2, static_cast<size_t>(std::max(max_level, 0)), rng) {
  GSTREAM_CHECK_GE(max_level, 0);
  // FNV-fold the coefficients directly: equal-state Rngs draw equal
  // coefficient sequences.
  const uint64_t* a0 = levels_.DegreeCoeffs(0);
  const uint64_t* a1 = levels_.DegreeCoeffs(1);
  uint64_t fp = kFnvOffsetBasis;
  for (size_t l = 0; l < levels_.rows(); ++l) {
    fp = FnvFold(FnvFold(fp, a0[l]), a1[l]);
  }
  fingerprint_ = fp;
}

}  // namespace gstream
