// The metrics layer's own contracts: bucket geometry, percentile accuracy,
// merge associativity, concurrent-writer fold correctness, and the
// GSTREAM_OBS=OFF compile-out behavior.  The suite compiles in BOTH build
// modes -- under OFF the instrument tests flip to asserting that
// everything is a deterministic no-op (the "library still links, snapshots
// deterministically empty" half of the compile-out contract).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace gstream {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Bucket geometry (build-mode independent: plain constexpr functions).
// ---------------------------------------------------------------------------

TEST(HistogramBuckets, UnitBucketsAreExact) {
  for (uint64_t v = 0; v < kSubBuckets; ++v) {
    EXPECT_EQ(HistogramBucketIndex(v), v);
    EXPECT_EQ(HistogramBucketLowerBound(v), v);
    EXPECT_EQ(HistogramBucketWidth(v), 1u);
  }
}

TEST(HistogramBuckets, IndexIsMonotoneAndBoundarySharp) {
  // At every bucket boundary the lower bound maps to its own bucket and
  // lower_bound - 1 maps to the previous one.
  for (size_t b = 1; b < kHistogramBuckets; ++b) {
    const uint64_t lo = HistogramBucketLowerBound(b);
    ASSERT_EQ(HistogramBucketIndex(lo), b) << "lower bound of bucket " << b;
    ASSERT_EQ(HistogramBucketIndex(lo - 1), b - 1)
        << "value below bucket " << b;
  }
}

TEST(HistogramBuckets, WidthIsAtMostSixteenthOfLowerBound) {
  for (size_t b = kSubBuckets; b < kHistogramBuckets; ++b) {
    EXPECT_LE(HistogramBucketWidth(b) * kSubBuckets,
              HistogramBucketLowerBound(b))
        << "bucket " << b;
  }
}

TEST(HistogramBuckets, ExtremesLandInRange) {
  EXPECT_EQ(HistogramBucketIndex(0), 0u);
  EXPECT_LT(HistogramBucketIndex(UINT64_MAX), kHistogramBuckets);
  const size_t top = HistogramBucketIndex(UINT64_MAX);
  EXPECT_GE(UINT64_MAX, HistogramBucketLowerBound(top));
}

TEST(HistogramBuckets, RepresentativeWithinBucket) {
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    const uint64_t rep = HistogramBucketRepresentative(b);
    EXPECT_GE(rep, HistogramBucketLowerBound(b));
    // Compare via subtraction: lower + width overflows in the top bucket.
    EXPECT_LT(rep - HistogramBucketLowerBound(b), HistogramBucketWidth(b))
        << "bucket " << b;
  }
}

// ---------------------------------------------------------------------------
// HistogramSnapshot: plain-struct behavior, identical in both build modes.
// ---------------------------------------------------------------------------

TEST(HistogramSnapshot, PercentileAccuracyBound) {
  // Values spanning 9 decades, deliberately not bucket-aligned: every
  // reported percentile must be within the bucket-geometry error bound of
  // the exact order statistic.
  std::vector<uint64_t> values;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint64_t decade = 1; decade <= 1000000000ULL; decade *= 10) {
    for (int i = 0; i < 64; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      values.push_back(decade + x % (9 * decade));
    }
  }
  HistogramSnapshot h;
  for (const uint64_t v : values) h.Record(v);
  std::vector<uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (const double p : {0.5, 0.9, 0.99, 0.999}) {
    // Same rank convention as ValueAtPercentile: ceil(p * count), min 1.
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(p * static_cast<double>(sorted.size()))));
    const double exact = static_cast<double>(sorted[rank - 1]);
    const double got = static_cast<double>(h.ValueAtPercentile(p));
    // The representative is within 1/32 of any member of its bucket; 6.5%
    // gives headroom for the rank landing anywhere inside the bucket.
    EXPECT_NEAR(got, exact, std::max(1.0, exact * 0.065)) << "p=" << p;
  }
}

TEST(HistogramSnapshot, PercentilesAreMonotone) {
  HistogramSnapshot h;
  for (uint64_t v = 1; v < 100000; v = v * 3 / 2 + 1) h.Record(v);
  uint64_t prev = 0;
  for (const double p : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const uint64_t v = h.ValueAtPercentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
  EXPECT_EQ(h.ValueAtPercentile(1.0), h.max);
}

TEST(HistogramSnapshot, EmptyIsZero) {
  const HistogramSnapshot h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.ValueAtPercentile(0.5), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramSnapshot, MergeIsAssociativeAndCommutative) {
  auto fill = [](uint64_t seed, size_t n) {
    HistogramSnapshot h;
    uint64_t x = seed;
    for (size_t i = 0; i < n; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      h.Record(x >> 40);
    }
    return h;
  };
  const HistogramSnapshot a = fill(1, 500), b = fill(2, 300), c = fill(3, 700);

  HistogramSnapshot ab_c = a;
  ab_c.MergeFrom(b);
  ab_c.MergeFrom(c);
  HistogramSnapshot a_bc = b;
  a_bc.MergeFrom(c);
  a_bc.MergeFrom(a);

  EXPECT_EQ(ab_c.count, a_bc.count);
  EXPECT_EQ(ab_c.sum, a_bc.sum);
  EXPECT_EQ(ab_c.max, a_bc.max);
  EXPECT_EQ(ab_c.buckets, a_bc.buckets);
  EXPECT_EQ(ab_c.count, a.count + b.count + c.count);
}

TEST(HistogramSnapshot, SubtractBaselineLeavesDelta) {
  HistogramSnapshot h;
  for (uint64_t v = 0; v < 100; ++v) h.Record(v);
  const HistogramSnapshot before = h;
  for (uint64_t v = 1000; v < 1100; ++v) h.Record(v);
  HistogramSnapshot delta = h;
  delta.SubtractBaseline(before);
  EXPECT_EQ(delta.count, 100u);
  // Every surviving sample is from the second batch.
  EXPECT_GE(delta.ValueAtPercentile(0.01), 900u);
}

// ---------------------------------------------------------------------------
// Live instruments + registry.  Branch per build mode.
// ---------------------------------------------------------------------------

TEST(Registry, HandlesAreStableAndNamespaced) {
  Registry& r = Registry::Get();
  Counter* c1 = r.GetCounter("test/registry/identity");
  Counter* c2 = r.GetCounter("test/registry/identity");
  EXPECT_EQ(c1, c2);
  // A histogram under the same name is a distinct instrument (per-kind
  // namespaces), not a type confusion.
  EXPECT_NE(static_cast<void*>(c1),
            static_cast<void*>(r.GetHistogram("test/registry/identity")));
}

#if GSTREAM_OBS_ENABLED

TEST(Counter, FoldsConcurrentWriters) {
  Counter* c = Registry::Get().GetCounter("test/counter/concurrent");
  const uint64_t before = c->Value();
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value() - before, kThreads * kPerThread);
}

TEST(Histogram, FoldsConcurrentWriters) {
  Histogram* h = Registry::Get().GetHistogram("test/hist/concurrent");
  const HistogramSnapshot before = h->Snapshot();
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) h->Record(t * 1000 + 17);
    });
  }
  for (std::thread& t : threads) t.join();
  HistogramSnapshot snap = h->Snapshot();
  snap.SubtractBaseline(before);
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  uint64_t expected_sum = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    expected_sum += (t * 1000 + 17) * kPerThread;
  }
  EXPECT_EQ(snap.sum, expected_sum);
  EXPECT_EQ(snap.max, (kThreads - 1) * 1000 + 17);
}

TEST(Registry, SnapshotSeesRegisteredInstruments) {
  Registry& r = Registry::Get();
  r.GetCounter("test/snapshot/c")->Add(7);
  r.GetHistogram("test/snapshot/h")->Record(123);
  const RegistrySnapshot snap = r.Snapshot();
  ASSERT_TRUE(snap.counters.count("test/snapshot/c"));
  EXPECT_GE(snap.counters.at("test/snapshot/c"), 7u);
  ASSERT_TRUE(snap.histograms.count("test/snapshot/h"));
  EXPECT_GE(snap.histograms.at("test/snapshot/h").count, 1u);
}

#else  // !GSTREAM_OBS_ENABLED

TEST(ObsOff, InstrumentsAreNoOps) {
  Registry& r = Registry::Get();
  Counter* c = r.GetCounter("test/off/counter");
  c->Add(100);
  c->Increment();
  EXPECT_EQ(c->Value(), 0u);
  Histogram* h = r.GetHistogram("test/off/hist");
  h->Record(42);
  EXPECT_TRUE(h->Snapshot().empty());
}

TEST(ObsOff, SnapshotIsDeterministicallyEmpty) {
  Registry& r = Registry::Get();
  r.GetCounter("test/off/snapshot")->Add(1);
  const RegistrySnapshot snap = r.Snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(ObsOff, KEnabledIsFalse) { EXPECT_FALSE(kEnabled); }

#endif  // GSTREAM_OBS_ENABLED

}  // namespace
}  // namespace obs
}  // namespace gstream
