#include "sketch/count_sketch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "persist/sketch_io.h"
#include "stream/exact.h"
#include "stream/generators.h"
#include "util/stats.h"

namespace gstream {
namespace {

TEST(CountSketchTest, SingleItemExactRecovery) {
  Rng rng(1);
  CountSketch cs(CountSketchOptions{5, 64}, rng);
  cs.Update(42, 1000);
  EXPECT_EQ(cs.Estimate(42), 1000);
}

TEST(CountSketchTest, DeletionsCancelExactly) {
  Rng rng(2);
  CountSketch cs(CountSketchOptions{5, 64}, rng);
  cs.Update(7, 500);
  cs.Update(7, -500);
  EXPECT_EQ(cs.Estimate(7), 0);
}

TEST(CountSketchTest, UntouchedItemEstimatesNearZero) {
  Rng rng(3);
  CountSketch cs(CountSketchOptions{7, 512}, rng);
  for (ItemId i = 0; i < 100; ++i) cs.Update(i, 10);
  // Item 5000 was never updated; its estimate is pure collision noise,
  // bounded by sqrt(F2/b) * O(1) = sqrt(100*100/512) ~ 4.4.
  EXPECT_LE(std::llabs(cs.Estimate(5000)), 20);
}

TEST(CountSketchTest, ErrorBoundHolndsOnZipfWorkload) {
  Rng rng(4);
  const Workload w = MakeZipfWorkload(1 << 14, 2000, 1.1, 50000,
                                      StreamShapeOptions{}, rng);
  CountSketch cs(CountSketchOptions{7, 1024}, rng);
  ProcessStream(cs, w.stream);
  const double f2 = ExactMoment(w.frequencies, 2.0);
  const double bound = 3.0 * std::sqrt(f2 / 1024.0);
  size_t violations = 0;
  for (const auto& [item, value] : w.frequencies) {
    if (std::llabs(cs.Estimate(item) - value) > bound) ++violations;
  }
  // Per-item failure probability is 2^{-Omega(rows)}; allow a thin tail.
  EXPECT_LE(violations, w.frequencies.size() / 50);
}

TEST(CountSketchTest, MoreBucketsShrinkError) {
  Rng rng(5);
  const Workload w = MakeUniformWorkload(1 << 12, 3000, 1, 100,
                                         StreamShapeOptions{}, rng);
  double errors[2];
  size_t idx = 0;
  for (const size_t buckets : {64u, 4096u}) {
    Rng local(99);
    CountSketch cs(CountSketchOptions{5, buckets}, local);
    ProcessStream(cs, w.stream);
    std::vector<double> errs;
    for (const auto& [item, value] : w.frequencies) {
      errs.push_back(
          static_cast<double>(std::llabs(cs.Estimate(item) - value)));
    }
    errors[idx++] = Mean(errs);
  }
  EXPECT_LT(errors[1], errors[0] / 2.0);
}

TEST(CountSketchTest, DeterministicGivenSeed) {
  const Workload w = [&] {
    Rng rng(6);
    return MakeUniformWorkload(1 << 10, 500, 1, 50, StreamShapeOptions{},
                               rng);
  }();
  Rng r1(123), r2(123);
  CountSketch a(CountSketchOptions{5, 256}, r1);
  CountSketch b(CountSketchOptions{5, 256}, r2);
  ProcessStream(a, w.stream);
  ProcessStream(b, w.stream);
  for (const auto& [item, value] : w.frequencies) {
    EXPECT_EQ(a.Estimate(item), b.Estimate(item));
  }
}

TEST(CountSketchTest, F2EstimateWithinFactorTwo) {
  Rng rng(7);
  const Workload w = MakeZipfWorkload(1 << 12, 1000, 1.0, 10000,
                                      StreamShapeOptions{}, rng);
  CountSketch cs(CountSketchOptions{9, 2048}, rng);
  ProcessStream(cs, w.stream);
  const double truth = ExactMoment(w.frequencies, 2.0);
  EXPECT_GT(cs.EstimateF2(), truth / 2.0);
  EXPECT_LT(cs.EstimateF2(), truth * 2.0);
}

TEST(CountSketchTest, SpaceBytesScalesWithGeometry) {
  Rng rng(8);
  CountSketch small(CountSketchOptions{2, 32}, rng);
  CountSketch big(CountSketchOptions{8, 512}, rng);
  EXPECT_GT(big.SpaceBytes(), small.SpaceBytes() * 16);
  EXPECT_GE(small.SpaceBytes(), 2 * 32 * sizeof(int64_t));
}

// Re-seals a blob's trailing checksum over the bytes before it.
void Reseal(std::string* blob) {
  const size_t body = blob->size() - 8;
  const uint64_t checksum =
      persist::Checksum64(std::string_view(*blob).substr(0, body));
  for (size_t i = 0; i < 8; ++i) {
    (*blob)[body + i] = static_cast<char>(checksum >> (8 * i));
  }
}

// Plants `counters` (row-major) into a CountSketch blob, whose counter
// array ends just before the trailing checksum.
std::string PlantCounters(const std::vector<int64_t>& counters,
                          std::string blob) {
  const size_t body = blob.size() - 8;
  std::memcpy(blob.data() + body - 8 * counters.size(), counters.data(),
              8 * counters.size());
  Reseal(&blob);
  return blob;
}

void PlantCounters(const std::vector<int64_t>& counters, CountSketch* cs) {
  ASSERT_TRUE(
      DeserializeSketch(PlantCounters(counters, SerializeSketch(*cs)), cs)
          .ok());
}

TEST(CountSketchTest, EstimateAllEqualsEstimateAtExtremes) {
  // One bucket per row, so every item reads counter j times its sign in
  // row j.  Counters are drawn from the int64 extremes and small values,
  // with repeats, so the rows tie often.  Every item is probed: a row
  // holding INT64_MIN with sign -1 reads INT64_MIN again (mod 2^64) in
  // Estimate and in the batched gather alike.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t palette[] = {kMin, kMax, kMin + 1, kMax - 1, -1, 0, 1, 7, 7};
  Rng pick(14);
  for (size_t rows = 1; rows <= 7; ++rows) {
    SCOPED_TRACE(rows);
    const CountSketchOptions options{rows, 1};
    for (int trial = 0; trial < 64; ++trial) {
      std::vector<int64_t> counters(rows);
      for (int64_t& c : counters) c = palette[pick.NextUint64() % 9];
      Rng rng(100 + rows);
      CountSketch cs(options, rng);
      PlantCounters(counters, &cs);
      std::vector<ItemId> items(256);
      for (ItemId x = 0; x < 256; ++x) items[x] = x;
      const std::vector<int64_t> all = cs.EstimateAll(items);
      ASSERT_EQ(all.size(), items.size());
      for (size_t i = 0; i < items.size(); ++i) {
        ASSERT_EQ(all[i], cs.Estimate(items[i])) << "item " << items[i];
      }
    }
  }
}

TEST(CountSketchTest, UpdateAndMergeWrapAtInt64Edge) {
  // Counters are sums mod 2^64: Update, UpdateBatch and MergeFrom all
  // wrap at the int64 edge to the same counters (the sanitizer leg sees
  // no signed overflow).  One bucket per row, so each counter is the
  // sign-weighted sum of every delta.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<Update> ups = {
      {1, kMax}, {1, kMax}, {2, kMin}, {3, kMin}, {2, 5}, {3, kMax}};
  const CountSketchOptions options{3, 1};
  const auto make = [&options] {
    Rng rng(15);
    return CountSketch(options, rng);
  };
  std::vector<uint64_t> expected(options.rows, 0);
  for (const Update& u : ups) {
    CountSketch probe = make();
    probe.Update(u.item, 1);
    for (size_t j = 0; j < options.rows; ++j) {
      expected[j] += static_cast<uint64_t>(probe.counters()[j]) *
                     static_cast<uint64_t>(u.delta);
    }
  }
  CountSketch single = make();
  for (const Update& u : ups) single.Update(u.item, u.delta);
  CountSketch batched = make();
  batched.UpdateBatch(ups.data(), ups.size());
  for (size_t j = 0; j < options.rows; ++j) {
    EXPECT_EQ(static_cast<uint64_t>(single.counters()[j]), expected[j]);
    EXPECT_EQ(batched.counters()[j], single.counters()[j]);
  }
  single.MergeFrom(batched);
  for (size_t j = 0; j < options.rows; ++j) {
    EXPECT_EQ(static_cast<uint64_t>(single.counters()[j]), 2 * expected[j]);
  }
}

TEST(CountSketchTopKTest, FindsPlantedHeavyHitter) {
  Rng rng(9);
  ItemId heavy = 0;
  const Workload w = MakePlantedHeavyHitterWorkload(
      1 << 12, 500, 20, 100000, StreamShapeOptions{}, rng, &heavy);
  CountSketchTopK topk(CountSketchOptions{5, 512}, 10, rng);
  ProcessStream(topk, w.stream);
  const auto top = topk.TopK();
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].first, heavy);
  EXPECT_NEAR(static_cast<double>(top[0].second), 100000.0, 1000.0);
}

TEST(CountSketchTopKTest, Int64MinEstimateRanksStrongest) {
  // Counters wrap, so an estimate can be INT64_MIN, whose magnitude 2^63
  // beats INT64_MAX's.  One row of two buckets: item `a` reads INT64_MIN
  // and item `b` reads +-INT64_MAX once the counters are planted into the
  // tracker's CountSketch blob and a merge re-estimates both candidates.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const auto make = [] {
    Rng rng(16);
    return CountSketchTopK(CountSketchOptions{1, 2}, 2, rng);
  };
  const auto bucket = [&make](ItemId item) {
    CountSketchTopK probe = make();
    probe.Update(item, 1);
    return probe.sketch().counters()[0] != 0 ? 0 : 1;
  };
  const ItemId a = 0;
  ItemId b = 1;
  while (bucket(b) == bucket(a)) ++b;
  std::vector<int64_t> counters(2);
  counters[bucket(a)] = kMin;
  counters[bucket(b)] = kMax;

  CountSketchTopK topk = make();
  topk.Update(a, 1);
  topk.Update(b, 1);
  std::string blob = SerializeSketch(topk);
  const std::string child = SerializeSketch(topk.sketch());
  const size_t at = blob.find(child);
  ASSERT_NE(at, std::string::npos);
  blob.replace(at, child.size(), PlantCounters(counters, child));
  Reseal(&blob);
  ASSERT_TRUE(DeserializeSketch(blob, &topk).ok());
  topk.MergeFrom(make());

  const auto top = topk.TopK();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], (std::pair<ItemId, int64_t>{a, kMin}));
  EXPECT_EQ(top[1].first, b);
  EXPECT_TRUE(top[1].second == kMax || top[1].second == -kMax);
}

TEST(CountSketchTopKTest, FindsNegativeHeavyHitter) {
  Rng rng(10);
  CountSketchTopK topk(CountSketchOptions{5, 256}, 4, rng);
  for (ItemId i = 0; i < 100; ++i) topk.Update(i, 3);
  topk.Update(777, -50000);
  const auto top = topk.TopK();
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].first, 777u);
  EXPECT_LT(top[0].second, -40000);
}

TEST(CountSketchTopKTest, CapsCandidateCount) {
  Rng rng(11);
  const size_t k = 8;
  CountSketchTopK topk(CountSketchOptions{5, 256}, k, rng);
  for (ItemId i = 0; i < 10000; ++i) topk.Update(i, 1 + (i % 7));
  EXPECT_LE(topk.TopK().size(), k);
}

TEST(CountSketchTopKTest, TopKSortedByMagnitude) {
  Rng rng(12);
  CountSketchTopK topk(CountSketchOptions{7, 512}, 5, rng);
  topk.Update(1, 100);
  topk.Update(2, -5000);
  topk.Update(3, 300);
  const auto top = topk.TopK();
  ASSERT_GE(top.size(), 3u);
  EXPECT_EQ(top[0].first, 2u);
  EXPECT_EQ(top[1].first, 3u);
  EXPECT_EQ(top[2].first, 1u);
}

TEST(CountSketchDeathTest, RejectsZeroRows) {
  Rng rng(13);
  EXPECT_DEATH(CountSketch(CountSketchOptions{0, 8}, rng), "GSTREAM_CHECK");
}

}  // namespace
}  // namespace gstream
