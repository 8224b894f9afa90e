// Deterministic, seeded fault injection for the whole engine.
//
// A *fault site* is a named point in library code where a failure can be
// injected: a worker-sink stall, a sink exception, a ring that pretends to
// be full, an I/O error in stream_io or the atomic-write path.  Sites are
// registered lazily at first use (GetPoint) and are enumerable (Sites()),
// so a chaos harness can discover every injectable failure in the build it
// is driving -- no site exists only in someone's head.  It is the one fault
// mechanism: chaos schedules and the torn-write kill points of
// WriteFileAtomic (persist/sketch_io.h's kAtomicWriteSites) alike.
//
// Determinism: Arm(seed, specs) derives one SplitMix64 key per site from
// (seed, site name).  Each evaluation takes a per-site atomic index and
// fires iff mix(key + index) falls under the armed probability, so for a
// fixed seed the k-th evaluation of a site always makes the same decision
// -- independent of thread interleaving, wall clock, or evaluation order
// across *other* sites.  Re-running a chaos schedule with the same seed
// reproduces the same per-site fire sequence.
//
// Concurrency contract: ShouldFire() is lock-free (one acquire load on the
// armed flag, plus two relaxed fetch_adds when armed) and safe from any
// thread.  Arm()/Disarm() take the registry mutex and must run while the
// process is quiescent with respect to fault evaluation (arm before
// constructing the engine / starting the feed, disarm after it closed);
// the armed flag's release store pairs with ShouldFire's acquire load so
// armed configuration is visible without locking the hot path.
//
// Compile-out contract: mirroring GSTREAM_OBS, the CMake option
// GSTREAM_FAULTS=OFF defines GSTREAM_FAULTS_ENABLED=0 and every method
// becomes an empty inline stub -- ShouldFire() is a constant `false` the
// optimizer deletes, Arm() is a no-op, Sites() is empty.  Production
// builds that want zero injected-fault surface compile the whole framework
// away; the default build keeps it (one relaxed load per site evaluation
// when disarmed) so release binaries can run chaos schedules.

#ifndef GSTREAM_UTIL_FAULT_H_
#define GSTREAM_UTIL_FAULT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#ifndef GSTREAM_FAULTS_ENABLED
#define GSTREAM_FAULTS_ENABLED 1
#endif

namespace gstream {
namespace fault {

// True when the fault framework is compiled in; usable with `if constexpr`
// so injection blocks compile out entirely under GSTREAM_FAULTS=OFF.
inline constexpr bool kEnabled = GSTREAM_FAULTS_ENABLED != 0;

// One armed fault: which site, how often, how hard.
struct FaultSpec {
  std::string site;        // exact registered site name
  double probability = 0;  // per-evaluation fire probability in [0, 1]
  // Site-defined magnitude: stall sites read it as nanoseconds to sleep;
  // error sites ignore it.
  uint64_t param = 0;
  // Cap on total fires (0 = unbounded): lets a schedule say "exactly one
  // sink exception" without tuning probability against stream length.
  uint64_t max_fires = 0;
};

// Enumeration/report row for one registered site.
struct FaultSiteInfo {
  std::string name;
  bool armed = false;
  double probability = 0;
  uint64_t param = 0;
  uint64_t evaluations = 0;
  uint64_t fires = 0;
};

// The uniform message carried by every injected failure, so logs (and the
// stream_io status-message pins) can tell an injected fault from a real
// one: real I/O errors carry strerror(errno), injected ones carry this.
inline std::string InjectedFaultMessage(const std::string& site) {
  return "injected fault " + site;
}

// Sleep helper for stall-type injections (steady clock; never a busy
// wait, so a stalled worker yields its core like a real slow consumer).
inline void SleepNs(uint64_t ns) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

#if GSTREAM_FAULTS_ENABLED

// A registered site.  Handles are process-lifetime (fetched once per call
// site or per engine construction, like obs instruments) and remain valid
// across Arm/Disarm cycles.
class FaultPoint {
 public:
  FaultPoint(const FaultPoint&) = delete;
  FaultPoint& operator=(const FaultPoint&) = delete;

  // Deterministic per-evaluation decision as described in the header
  // comment.  Disarmed: one acquire load, no counter movement.
  bool ShouldFire() {
    if (!armed_.load(std::memory_order_acquire)) return false;
    const uint64_t idx = evaluations_.fetch_add(1, std::memory_order_relaxed);
    // Stateless SplitMix64 stream: decision k depends only on (key, k).
    uint64_t state = key_ + idx;
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    if (z > threshold_) return false;
    const uint64_t prior = fires_.fetch_add(1, std::memory_order_relaxed);
    if (max_fires_ != 0 && prior >= max_fires_) {
      // Capped out: undo so fires() reports actual injections only.
      fires_.fetch_sub(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  const std::string& name() const { return name_; }
  // The armed spec's magnitude (0 when disarmed).
  uint64_t param() const { return param_.load(std::memory_order_relaxed); }
  uint64_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }
  uint64_t fires() const { return fires_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  explicit FaultPoint(std::string name) : name_(std::move(name)) {}

  const std::string name_;
  // Armed configuration.  Written under the registry mutex before the
  // armed_ release store; ShouldFire's acquire load makes them visible.
  uint64_t key_ = 0;
  uint64_t threshold_ = 0;  // fire iff mix(key + idx) <= threshold
  uint64_t max_fires_ = 0;
  std::atomic<uint64_t> param_{0};
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> evaluations_{0};
  std::atomic<uint64_t> fires_{0};
};

class Registry {
 public:
  static Registry& Get();

  // Returns the process-lifetime handle for `name`, registering the site
  // on first use.  Takes the registry mutex; cache the handle.
  FaultPoint* GetPoint(const std::string& name);

  // Arms exactly the sites named in `specs` (registering any not yet seen,
  // so arm order vs. site registration order does not matter) and disarms
  // every other site.  Resets evaluation/fire counters so per-seed runs
  // start from index 0 -- that is what makes a schedule reproducible.
  // Quiescent-only (see header comment).
  void Arm(uint64_t seed, const std::vector<FaultSpec>& specs);

  // Disarms every site.  Counters keep their values for post-run reports.
  void Disarm();

  // Every registered site with its armed state and counters, sorted by
  // name -- the enumerable fault catalog.
  std::vector<FaultSiteInfo> Sites() const;

 private:
  Registry() = default;
  struct Impl;
  Impl* impl() const;  // lazily constructed, never destroyed
};

#else  // !GSTREAM_FAULTS_ENABLED

// Compiled-out stubs: no state, no decisions, no sites.
class FaultPoint {
 public:
  bool ShouldFire() { return false; }
  const std::string& name() const {
    static const std::string empty;
    return empty;
  }
  uint64_t param() const { return 0; }
  uint64_t evaluations() const { return 0; }
  uint64_t fires() const { return 0; }
};

class Registry {
 public:
  static Registry& Get() {
    static Registry registry;
    return registry;
  }
  FaultPoint* GetPoint(const std::string&) { return &point_; }
  void Arm(uint64_t, const std::vector<FaultSpec>&) {}
  void Disarm() {}
  std::vector<FaultSiteInfo> Sites() const { return {}; }

 private:
  FaultPoint point_;
};

#endif  // GSTREAM_FAULTS_ENABLED

}  // namespace fault
}  // namespace gstream

#endif  // GSTREAM_UTIL_FAULT_H_
