// Hardware thread count, for sizing thread fan-outs (the parallel stream
// loader's segment count, the bench report's scaling block).

#ifndef GSTREAM_UTIL_THREAD_AFFINITY_H_
#define GSTREAM_UTIL_THREAD_AFFINITY_H_

#include <thread>

namespace gstream {

// Hardware concurrency with the zero-means-unknown case collapsed to 1,
// so `x % HardwareThreads()` is always well defined.
inline unsigned HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace gstream

#endif  // GSTREAM_UTIL_THREAD_AFFINITY_H_
