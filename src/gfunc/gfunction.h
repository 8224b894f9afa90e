// The class G of functions characterized by the paper.
//
// The paper studies g : Z>=0 -> R with g(0) = 0, g(1) = 1 and g(x) > 0 for
// x > 0 (Section 3), extended symmetrically to negative arguments via
// g(|x|).  `GFunction` is the oracle interface the algorithms assume: they
// may evaluate g at any point but know nothing else about it; everything
// they need (envelopes, radii) is derived from evaluations.

#ifndef GSTREAM_GFUNC_GFUNCTION_H_
#define GSTREAM_GFUNC_GFUNCTION_H_

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace gstream {

// A function of one variable applied to frequencies.  Thread-compatible;
// all implementations in this library are immutable after construction.
class GFunction {
 public:
  virtual ~GFunction() = default;

  // g(x) for x >= 0.  Implementations must satisfy g(0) == 0 and
  // g(x) > 0 for x > 0 (the class G normalization); factories in catalog.h
  // additionally rescale so that g(1) == 1.
  virtual double Value(int64_t x) const = 0;

  // Human-readable name used in tables and test output.
  virtual std::string name() const = 0;

  // Symmetric extension g(|x|) used when applying g to frequencies.  |x|
  // saturates at INT64_MAX: sketch counters wrap mod 2^64, so an estimate
  // can be INT64_MIN, whose magnitude no int64 holds.
  double ValueAbs(int64_t x) const {
    return Value(x == std::numeric_limits<int64_t>::min()
                     ? std::numeric_limits<int64_t>::max()
                     : std::llabs(x));
  }

  // Adapts this function to the std::function-based callables used by
  // stream/exact.h.  The returned callable references *this; the GFunction
  // must outlive it.
  std::function<double(int64_t)> AsCallable() const {
    return [this](int64_t x) { return ValueAbs(x); };
  }
};

// Evaluates g on 0..max_x inclusive into a dense table (table[x] == g(x)).
// Shared by the property checkers and envelope computations so g is
// evaluated exactly once per point.
std::vector<double> EvaluateTable(const GFunction& g, int64_t max_x);

}  // namespace gstream

#endif  // GSTREAM_GFUNC_GFUNCTION_H_
