// The kScalar dispatch tier: the simd_scalar_ref.h reference kernels,
// exported as a SimdOps table.  Always compiled, regardless of GSTREAM_SIMD
// or host ISA -- this is the tier every other tier must match bit-for-bit,
// and the fallback that keeps the library runnable everywhere.

#include "util/simd/simd_dispatch.h"
#include "util/simd/simd_scalar_ref.h"

namespace gstream {
namespace simd {

const SimdOps* GetScalarOps() {
  static const SimdOps ops = {
      &ScalarPrepareBatch,  &ScalarPrepareBatch2, &ScalarFieldPowers,
      &ScalarEval4Row,      &ScalarEval4Bucket,   &ScalarEval2Bucket,
      &ScalarBitSignedSums, &ScalarEval2ParityOr, &ScalarScatterAddSigned,
      &ScalarGatherSigned,
  };
  return &ops;
}

}  // namespace simd
}  // namespace gstream
