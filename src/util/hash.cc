#include "util/hash.h"

#include "util/logging.h"

namespace gstream {

KWiseHashBank::KWiseHashBank(int k, size_t rows, Rng& rng)
    : k_(k), rows_(rows) {
  GSTREAM_CHECK_GE(k, 1);
  coeffs_.resize(static_cast<size_t>(k) * rows);
  // Draw row-by-row (a_0 .. a_{k-1} per row), storing into the
  // degree-major layout.
  for (size_t r = 0; r < rows; ++r) {
    for (int d = 0; d < k; ++d) {
      coeffs_[static_cast<size_t>(d) * rows + r] =
          rng.UniformUint64(kMersenne61);
    }
    // Force a nonzero leading coefficient so the polynomial has full degree.
    uint64_t& lead = coeffs_[static_cast<size_t>(k - 1) * rows + r];
    if (k > 1 && lead == 0) lead = 1;
  }
}

}  // namespace gstream
