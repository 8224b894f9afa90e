// Reusable working storage that is not part of its owner's state.
//
// A sketch keeps per-chunk buffers (a coalesced chunk, recorded hashes, a
// lookup index) between calls only so the steady-state update path never
// allocates.  Such a buffer must not travel with the sketch: the engine
// copies a replica per shard, and a query path may copy a whole sketch per
// answer.  Scratch<T> therefore copies as empty (copy-assignment releases
// the destination's buffer too), moves its buffer along, and leaves sizing
// to the owner, which grows it lazily on first use.

#ifndef GSTREAM_UTIL_SCRATCH_H_
#define GSTREAM_UTIL_SCRATCH_H_

#include <vector>

namespace gstream {

template <typename T>
struct Scratch {
  std::vector<T> buf;

  Scratch() = default;
  Scratch(const Scratch&) noexcept {}
  Scratch& operator=(const Scratch&) noexcept {
    std::vector<T>().swap(buf);
    return *this;
  }
  Scratch(Scratch&&) noexcept = default;
  Scratch& operator=(Scratch&&) noexcept = default;
};

}  // namespace gstream

#endif  // GSTREAM_UTIL_SCRATCH_H_
