#include "stream/stream.h"

#include <algorithm>
#include <utility>

#include "stream/exact.h"
#include "util/logging.h"

namespace gstream {

Stream::Stream(uint64_t domain) : domain_(domain) {
  GSTREAM_CHECK_GE(domain, 1u);
}

void Stream::Append(ItemId item, int64_t delta) {
  GSTREAM_CHECK_LT(item, domain_);
  updates_.push_back(Update{item, delta});
}

void Stream::AppendStream(const Stream& other) {
  GSTREAM_CHECK_EQ(domain_, other.domain_);
  // Make geometric growth explicit rather than relying on the stdlib's
  // insert growth policy; never reserve an exact fit smaller than double
  // the current size, which would make a loop of appends quadratic.
  const size_t needed = updates_.size() + other.updates_.size();
  if (needed > updates_.capacity()) {
    updates_.reserve(std::max(needed, 2 * updates_.size()));
  }
  updates_.insert(updates_.end(), other.updates_.begin(),
                  other.updates_.end());
}

namespace {

// Sorts src[0, n) by item into src or dst, returning the one that holds
// the result.  LSD radix sort, 8 bits a pass, skipping every digit on
// which all items agree (a 2^20 domain takes three passes).
Update* SortByItem(Update* src, Update* dst, size_t n) {
  uint64_t any = 0;
  uint64_t all = ~uint64_t{0};
  for (size_t i = 0; i < n; ++i) {
    any |= src[i].item;
    all &= src[i].item;
  }
  const uint64_t varying = any ^ all;
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    size_t offset[256] = {};
    for (size_t i = 0; i < n; ++i) ++offset[(src[i].item >> shift) & 0xff];
    size_t sum = 0;
    for (size_t& o : offset) sum += std::exchange(o, sum);
    for (size_t i = 0; i < n; ++i) {
      dst[offset[(src[i].item >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

}  // namespace

std::span<const Update> CoalesceChunk(const Update* updates, size_t n,
                                      std::vector<Update>* scratch) {
  size_t ascending = 1;
  while (ascending < n &&
         updates[ascending - 1].item < updates[ascending].item) {
    ++ascending;
  }
  if (ascending >= n) return {updates, n};
  // Two halves: the chunk's copy and the radix sort's other buffer.
  if (scratch->size() < 2 * n) scratch->resize(2 * n);
  Update* const copy = scratch->data();
  std::copy(updates, updates + n, copy);
  Update* const sorted = SortByItem(copy, copy + n, n);
  size_t kept = 0;
  for (size_t i = 0; i < n;) {
    const ItemId item = sorted[i].item;
    uint64_t net = 0;
    for (; i < n && sorted[i].item == item; ++i) {
      net += static_cast<uint64_t>(sorted[i].delta);
    }
    sorted[kept++] = Update{item, static_cast<int64_t>(net)};
  }
  return {sorted, kept};
}

FrequencyMap ExactFrequencies(const Stream& stream) {
  // One batched pass through the mergeable exact sketch -- the ground-truth
  // baseline rides the same hot path the approximate sketches use.
  ExactFrequencySketch sketch;
  ProcessStream(sketch, stream);
  return sketch.Frequencies();
}

}  // namespace gstream
