// Process-wide observability: a named-instrument metrics registry with
// lock-free updates.
//
// Two instrument kinds, both obtained from the process-wide Registry by
// name and valid for the life of the process:
//
//   * Counter   -- monotone u64; Add() is a relaxed fetch_add on a
//                  per-thread slot, folded (summed) at read time.
//   * Histogram -- log-linear HDR-style value histogram (ns, bytes, chunk
//                  counts...): fixed mergeable buckets, relaxed per-thread
//                  slot updates folded at read time, exact
//                  p50/p90/p99/p999 extraction from the folded buckets
//                  (each reported percentile is the representative value
//                  of the bucket containing that rank, within 1/32
//                  relative error of any value in the bucket).
//
// Concurrency model: registration (GetCounter/GetHistogram) takes
// a mutex and is expected to run once per call site (handles are cached);
// every *update* is a relaxed atomic on a cache-line-private slot selected
// by a thread-local index, so concurrent writers never contend and never
// lock.  Reads (Value()/Snapshot()) fold the slots with relaxed loads:
// they are always safe, and exact at any quiescent point (no concurrent
// writers), which is when the engine and the bench read them.
//
// Compile-out contract: with the CMake option GSTREAM_OBS=OFF the macro
// GSTREAM_OBS_ENABLED is 0 and every instrument method is an empty inline
// stub with no state behind it -- call sites compile to nothing, the
// registry returns shared dummies, and Snapshot() is deterministically
// empty.  The library still links and every bit-exactness pin passes
// unchanged, because observability only ever *reads* clocks and *writes*
// instruments, never sketch state.
//
// Naming scheme (docs/observability.md): "<subsystem>/<metric>" with the
// unit as a suffix ("_ns", "_bytes"); per-shard instruments insert the
// index as "<subsystem>/shard/<i>/<metric>".

#ifndef GSTREAM_OBS_METRICS_H_
#define GSTREAM_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#ifndef GSTREAM_OBS_ENABLED
#define GSTREAM_OBS_ENABLED 1
#endif

namespace gstream {
namespace obs {

// True when the observability layer is compiled in; usable with
// `if constexpr` so timing code (clock reads) compiles out entirely under
// GSTREAM_OBS=OFF.
inline constexpr bool kEnabled = GSTREAM_OBS_ENABLED != 0;

// Monotonic nanoseconds (steady_clock) since an arbitrary epoch.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Batched drive paths sample one batch in kBatchSampleEvery for latency
// timing: two clock reads per sampled batch keep the instrumented hot path
// within a fraction of a percent of the uninstrumented one while still
// collecting thousands of samples per bench run.
inline constexpr size_t kBatchSampleEvery = 8;

// Slots per write-sharded instrument.  Threads pick a slot once
// (thread-local); collisions are correct (atomic adds), just contended.
inline constexpr size_t kCounterSlots = 16;
inline constexpr size_t kHistogramSlots = 8;

// Small dense process-wide thread index (0, 1, 2, ... in thread creation
// order), also used as the trace-event tid.
size_t NextThreadSlot();
inline size_t ThreadSlotIndex() {
  thread_local const size_t slot = NextThreadSlot();
  return slot;
}

// ---------------------------------------------------------------------------
// Histogram bucket geometry: log-linear with 16 sub-buckets per octave.
//
// Values 0..15 get exact unit buckets; a value v >= 16 with most
// significant bit b lands in octave (b - 4), sub-bucket = the four bits
// below the leading one.  Every bucket's width is at most 1/16 of its
// lower bound, so any value is within 1/32 of its bucket's representative
// (midpoint).  The geometry is fixed -- every histogram in every process
// has identical buckets -- which is what makes snapshots mergeable by
// plain elementwise addition.
// ---------------------------------------------------------------------------

inline constexpr size_t kSubBucketBits = 4;
inline constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;  // 16
// Octaves 0..(63 - kSubBucketBits) plus the 16 unit buckets.
inline constexpr size_t kHistogramBuckets =
    kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;  // 976

constexpr size_t HistogramBucketIndex(uint64_t v) {
  if (v < kSubBuckets) return static_cast<size_t>(v);
  const int msb = 63 - __builtin_clzll(v);
  const size_t octave = static_cast<size_t>(msb) - kSubBucketBits;
  const size_t sub =
      static_cast<size_t>(v >> (msb - static_cast<int>(kSubBucketBits))) &
      (kSubBuckets - 1);
  return kSubBuckets + octave * kSubBuckets + sub;
}

constexpr uint64_t HistogramBucketLowerBound(size_t index) {
  if (index < kSubBuckets) return index;
  const size_t octave = (index - kSubBuckets) / kSubBuckets;
  const size_t sub = (index - kSubBuckets) % kSubBuckets;
  return static_cast<uint64_t>(kSubBuckets + sub) << octave;
}

constexpr uint64_t HistogramBucketWidth(size_t index) {
  if (index < kSubBuckets) return 1;
  return uint64_t{1} << ((index - kSubBuckets) / kSubBuckets);
}

// The value reported for every sample in the bucket: the midpoint, within
// width/2 <= lower_bound/32 of any member.
constexpr uint64_t HistogramBucketRepresentative(size_t index) {
  return HistogramBucketLowerBound(index) + HistogramBucketWidth(index) / 2;
}

// ---------------------------------------------------------------------------
// Folded, mergeable histogram state.  A plain struct in every build mode:
// tests and the bench harness construct, merge, and query these directly.
// ---------------------------------------------------------------------------

struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  // Either empty (no samples) or exactly kHistogramBuckets entries.
  std::vector<uint64_t> buckets;

  bool empty() const { return count == 0; }
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  // Adds one sample -- the same transition Histogram::Record applies to a
  // live slot.  Lets tests and offline tooling build snapshots directly.
  void Record(uint64_t value);

  // Elementwise bucket/count/sum addition, max of maxes.  Associative and
  // commutative, so per-shard or per-process snapshots fold in any order.
  void MergeFrom(const HistogramSnapshot& other);

  // Subtracts an earlier snapshot of the *same* instrument, leaving the
  // samples recorded in between (the bench uses this to attribute a shared
  // histogram to one variant).  `max` cannot be un-merged and keeps this
  // snapshot's value.
  void SubtractBaseline(const HistogramSnapshot& earlier);

  // The representative value of the bucket holding rank ceil(p * count),
  // p in [0, 1]; 0 when empty, exact `max` for p == 1.  Monotone in p, so
  // p50 <= p90 <= p99 <= p999 always holds.
  uint64_t ValueAtPercentile(double p) const;
};

// ---------------------------------------------------------------------------
// Instruments.
// ---------------------------------------------------------------------------

#if GSTREAM_OBS_ENABLED

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) {
    slots_[ThreadSlotIndex() & (kCounterSlots - 1)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  Slot slots_[kCounterSlots];
};

class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    Slot& s = slots_[ThreadSlotIndex() & (kHistogramSlots - 1)];
    s.buckets[HistogramBucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
    uint64_t cur = s.max.load(std::memory_order_relaxed);
    while (value > cur && !s.max.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
  }

  // Folds every slot.  Exact at quiescent points; safe (never torn within
  // one bucket) while writers run.
  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
    std::atomic<uint64_t> buckets[kHistogramBuckets] = {};
  };
  Slot slots_[kHistogramSlots];
};

#else  // !GSTREAM_OBS_ENABLED -- every instrument is a stateless no-op.

class Counter {
 public:
  void Add(uint64_t) {}
  void Increment() {}
  uint64_t Value() const { return 0; }
};

class Histogram {
 public:
  void Record(uint64_t) {}
  HistogramSnapshot Snapshot() const { return HistogramSnapshot{}; }
};

#endif  // GSTREAM_OBS_ENABLED

// ---------------------------------------------------------------------------
// Registry: the process-wide instrument namespace.
// ---------------------------------------------------------------------------

// Everything a registry knew at one instant, keyed by instrument name in
// sorted order -- the deterministic input to the exporters (snapshot.h).
struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;
};

class Registry {
 public:
  static Registry& Get();

  // Returns the instrument registered under `name`, creating it on first
  // use.  The pointer is valid for the life of the process; call sites
  // fetch once and cache.  Each kind has its own namespace (a counter and
  // a histogram may share a name, though the naming scheme avoids it).
  Counter* GetCounter(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // Folds every registered instrument.  Deterministic (sorted by name);
  // empty under GSTREAM_OBS=OFF.
  RegistrySnapshot Snapshot() const;

 private:
  Registry() = default;
  struct Impl;
  Impl* impl();  // lazily constructed, never destroyed
};

// RAII duration recorder: records elapsed ns into `hist` at scope exit.
// Under GSTREAM_OBS=OFF no clock is ever read.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist)
#if GSTREAM_OBS_ENABLED
      : hist_(hist), start_ns_(NowNs()) {
  }
  ~ScopedTimer() { hist_->Record(NowNs() - start_ns_); }
#else
  {
    (void)hist;
  }
#endif

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

#if GSTREAM_OBS_ENABLED
 private:
  Histogram* hist_;
  uint64_t start_ns_;
#endif
};

}  // namespace obs
}  // namespace gstream

#endif  // GSTREAM_OBS_METRICS_H_
