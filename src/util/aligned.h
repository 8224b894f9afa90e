// 64-byte-aligned storage for sketch counter arrays.
//
// A cache-line-aligned base gives each counter array its first cache line
// to itself: data()'s line holds no malloc header and no neighbouring
// heap chunk.  Measured on the firehose workload (perfbench/, 3 worker
// threads, 4-core AVX-512 Xeon): plain std::vector<int64_t> counters ran
// ~9% slower end to end, while two variants that also keep data()'s line
// private without aligning the rows (data() 16 bytes past an aligned
// base; a plain allocation with 64 bytes of front padding) ran as fast as
// this one.  std::vector's default allocator only promises
// alignof(std::max_align_t) (16 on this ABI), so counter vectors use this
// allocator instead.
//
// The allocator is stateless: vectors with the same value_type and
// alignment compare, swap, and move interchangeably.  It is a distinct
// type from std::vector<T>, so comparing against a plain vector requires
// std::equal (the few test sites that do this construct the expected
// values in an aligned vector instead).

#ifndef GSTREAM_UTIL_ALIGNED_H_
#define GSTREAM_UTIL_ALIGNED_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace gstream {

template <typename T, size_t Alignment>
struct AlignedAllocator {
  static_assert((Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "Alignment must not weaken the type's natural alignment");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }

  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }
};

template <typename T, typename U, size_t A>
bool operator==(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) {
  return true;
}

template <typename T, typename U, size_t A>
bool operator!=(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) {
  return false;
}

// The counter-array type shared by CountSketch and AMS: contents and
// semantics of std::vector<int64_t>, data() on a cache-line boundary.
using AlignedI64Vector = std::vector<int64_t, AlignedAllocator<int64_t, 64>>;

// True if `p` sits on a 64-byte boundary; the sketch constructors assert
// this on their counter allocations in debug builds.
inline bool IsCacheLineAligned(const void* p) {
  return (reinterpret_cast<uintptr_t>(p) & 63) == 0;
}

}  // namespace gstream

#endif  // GSTREAM_UTIL_ALIGNED_H_
