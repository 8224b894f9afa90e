#include "obs/metrics.h"

#include <cmath>
#include <memory>
#include <mutex>

namespace gstream {
namespace obs {

size_t NextThreadSlot() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void HistogramSnapshot::Record(uint64_t value) {
  if (buckets.empty()) buckets.assign(kHistogramBuckets, 0);
  ++buckets[HistogramBucketIndex(value)];
  ++count;
  sum += value;
  if (value > max) max = value;
}

void HistogramSnapshot::MergeFrom(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (buckets.empty()) buckets.assign(kHistogramBuckets, 0);
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
}

void HistogramSnapshot::SubtractBaseline(const HistogramSnapshot& earlier) {
  if (earlier.count == 0) return;
  for (size_t i = 0; i < kHistogramBuckets && i < buckets.size(); ++i) {
    buckets[i] -= earlier.buckets[i];
  }
  count -= earlier.count;
  sum -= earlier.sum;
  if (count == 0) buckets.clear();
}

uint64_t HistogramSnapshot::ValueAtPercentile(double p) const {
  if (count == 0) return 0;
  if (p >= 1.0) return max;
  if (p < 0.0) p = 0.0;
  // Rank of the requested percentile, 1-based (ceil(p*count), min 1): the
  // smallest bucket whose cumulative count reaches it holds the answer.
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(p * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      const uint64_t rep = HistogramBucketRepresentative(i);
      // Never report beyond the observed maximum (the top bucket's
      // midpoint can exceed it).
      return rep < max ? rep : max;
    }
  }
  return max;
}

#if GSTREAM_OBS_ENABLED

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.assign(kHistogramBuckets, 0);
  for (const Slot& s : slots_) {
    snap.sum += s.sum.load(std::memory_order_relaxed);
    const uint64_t slot_max = s.max.load(std::memory_order_relaxed);
    if (slot_max > snap.max) snap.max = slot_max;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      snap.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  for (const uint64_t b : snap.buckets) snap.count += b;
  if (snap.count == 0) snap.buckets.clear();
  return snap;
}

// Registration is mutex-guarded and cold (handles are cached by callers);
// the maps hold unique_ptrs so handed-out instrument pointers survive
// rehashing.  Instruments are never deleted.
struct Registry::Impl {
  mutable std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry::Impl* Registry::impl() {
  // Leaked on purpose: instrument handles are cached across the process
  // (including in thread_local and static storage), so the registry must
  // outlive every other static destructor.
  static Impl* const impl = new Impl;
  return impl;
}

Registry& Registry::Get() {
  static Registry registry;
  return registry;
}

Counter* Registry::GetCounter(std::string_view name) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  auto it = i->counters.find(name);
  if (it == i->counters.end()) {
    it = i->counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  auto it = i->histograms.find(name);
  if (it == i->histograms.end()) {
    it = i->histograms
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

RegistrySnapshot Registry::Snapshot() const {
  Impl* i = const_cast<Registry*>(this)->impl();
  std::lock_guard<std::mutex> lock(i->mu);
  RegistrySnapshot snap;
  for (const auto& [name, c] : i->counters) snap.counters[name] = c->Value();
  for (const auto& [name, h] : i->histograms) {
    snap.histograms[name] = h->Snapshot();
  }
  return snap;
}

#else  // !GSTREAM_OBS_ENABLED

// Compiled-out mode: one shared dummy per instrument kind; the registry
// neither stores names nor state, so Snapshot() is deterministically empty
// and the library still links against identical call sites.
struct Registry::Impl {};

Registry::Impl* Registry::impl() { return nullptr; }

Registry& Registry::Get() {
  static Registry registry;
  return registry;
}

Counter* Registry::GetCounter(std::string_view) {
  static Counter dummy;
  return &dummy;
}

Histogram* Registry::GetHistogram(std::string_view) {
  static Histogram dummy;
  return &dummy;
}

RegistrySnapshot Registry::Snapshot() const { return RegistrySnapshot{}; }

#endif  // GSTREAM_OBS_ENABLED

}  // namespace obs
}  // namespace gstream
