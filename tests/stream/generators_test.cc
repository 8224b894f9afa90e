#include "stream/generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "stream/exact.h"

namespace gstream {
namespace {

// Invariant shared by all generators: the emitted stream realizes exactly
// the frequency vector the workload reports.
void ExpectStreamMatchesFrequencies(const Workload& w) {
  const FrequencyMap actual = ExactFrequencies(w.stream);
  EXPECT_EQ(actual.size(), w.frequencies.size());
  for (const auto& [item, value] : w.frequencies) {
    ASSERT_TRUE(actual.contains(item)) << "item " << item;
    EXPECT_EQ(actual.at(item), value) << "item " << item;
  }
}

TEST(GeneratorsTest, StreamFromFrequenciesExact) {
  Rng rng(1);
  FrequencyMap freq{{0, 5}, {3, -2}, {7, 11}};
  const Workload w =
      MakeStreamFromFrequencies(8, freq, StreamShapeOptions{}, rng);
  ExpectStreamMatchesFrequencies(w);
}

TEST(GeneratorsTest, UnitUpdatesExpandFrequencies) {
  Rng rng(2);
  StreamShapeOptions options;
  options.unit_updates = true;
  options.shuffle = false;
  FrequencyMap freq{{1, 3}, {2, -2}};
  const Workload w = MakeStreamFromFrequencies(4, freq, options, rng);
  EXPECT_EQ(w.stream.length(), 5u);  // 3 + 2 unit updates
  for (const Update& u : w.stream.updates()) {
    EXPECT_EQ(std::llabs(u.delta), 1);
  }
  ExpectStreamMatchesFrequencies(w);
}

TEST(GeneratorsTest, ChurnPreservesFrequencies) {
  Rng rng(3);
  StreamShapeOptions options;
  options.churn_pairs = 50;
  options.churn_magnitude = 7;
  FrequencyMap freq{{1, 4}};
  const Workload w = MakeStreamFromFrequencies(64, freq, options, rng);
  EXPECT_EQ(w.stream.length(), 1u + 100u);
  const auto& ups = w.stream.updates();
  EXPECT_TRUE(std::any_of(ups.begin(), ups.end(),
                          [](const Update& u) { return u.delta < 0; }));
  ExpectStreamMatchesFrequencies(w);
}

TEST(GeneratorsTest, DeterministicGivenSeed) {
  Rng rng1(7), rng2(7);
  const Workload w1 =
      MakeZipfWorkload(1024, 100, 1.1, 1000, StreamShapeOptions{}, rng1);
  const Workload w2 =
      MakeZipfWorkload(1024, 100, 1.1, 1000, StreamShapeOptions{}, rng2);
  ASSERT_EQ(w1.stream.length(), w2.stream.length());
  for (size_t i = 0; i < w1.stream.length(); ++i) {
    EXPECT_EQ(w1.stream.updates()[i].item, w2.stream.updates()[i].item);
    EXPECT_EQ(w1.stream.updates()[i].delta, w2.stream.updates()[i].delta);
  }
}

TEST(GeneratorsTest, ZipfShape) {
  Rng rng(11);
  const int64_t max_freq = 10000;
  const Workload w =
      MakeZipfWorkload(1 << 14, 500, 1.2, max_freq, StreamShapeOptions{},
                       rng);
  ExpectStreamMatchesFrequencies(w);
  EXPECT_EQ(w.frequencies.size(), 500u);
  int64_t top = 0;
  for (const auto& [item, value] : w.frequencies) {
    EXPECT_GE(value, 1);
    EXPECT_LE(value, max_freq);
    top = std::max(top, value);
  }
  EXPECT_EQ(top, max_freq);  // rank-1 item
}

TEST(GeneratorsTest, UniformBounds) {
  Rng rng(13);
  const Workload w = MakeUniformWorkload(1 << 12, 300, 10, 20,
                                         StreamShapeOptions{}, rng);
  ExpectStreamMatchesFrequencies(w);
  EXPECT_EQ(w.frequencies.size(), 300u);
  for (const auto& [item, value] : w.frequencies) {
    EXPECT_GE(value, 10);
    EXPECT_LE(value, 20);
  }
}

TEST(GeneratorsTest, HistogramExactCounts) {
  Rng rng(17);
  const std::vector<HistogramBucket> buckets = {
      {100, 3}, {7, 10}, {-5, 2}};
  const Workload w =
      MakeHistogramWorkload(1 << 10, buckets, StreamShapeOptions{}, rng);
  ExpectStreamMatchesFrequencies(w);
  size_t at_100 = 0, at_7 = 0, at_minus5 = 0;
  for (const auto& [item, value] : w.frequencies) {
    if (value == 100) ++at_100;
    if (value == 7) ++at_7;
    if (value == -5) ++at_minus5;
  }
  EXPECT_EQ(at_100, 3u);
  EXPECT_EQ(at_7, 10u);
  EXPECT_EQ(at_minus5, 2u);
}

TEST(GeneratorsTest, PlantedHeavyHitter) {
  Rng rng(19);
  ItemId heavy = 0;
  const Workload w = MakePlantedHeavyHitterWorkload(
      1 << 12, 200, 10, 100000, StreamShapeOptions{}, rng, &heavy);
  ExpectStreamMatchesFrequencies(w);
  EXPECT_EQ(w.frequencies.at(heavy), 100000);
  EXPECT_EQ(w.frequencies.size(), 201u);
  for (const auto& [item, value] : w.frequencies) {
    if (item != heavy) {
      EXPECT_LE(value, 10);
    }
  }
}

TEST(GeneratorsTest, IidSamplesMatchPmfRoughly) {
  Rng rng(23);
  // pmf over {0,1,2} with weights 1:2:1 -> value 1 twice as common as 2.
  const Workload w = MakeIidSampleWorkload(
      20000, 20000, {1.0, 2.0, 1.0}, StreamShapeOptions{}, rng);
  ExpectStreamMatchesFrequencies(w);
  size_t ones = 0, twos = 0;
  for (const auto& [item, value] : w.frequencies) {
    if (value == 1) ++ones;
    if (value == 2) ++twos;
  }
  // Zero-valued samples are absent from the map: about 1/4 of 20000.
  EXPECT_NEAR(static_cast<double>(w.frequencies.size()), 15000.0, 500.0);
  EXPECT_NEAR(static_cast<double>(ones) / static_cast<double>(twos), 2.0,
              0.2);
}

TEST(GeneratorsTest, DistinctIdsDenseRequest) {
  Rng rng(29);
  // num_items == domain forces the dense id-sampling path.
  const Workload w =
      MakeUniformWorkload(256, 256, 1, 1, StreamShapeOptions{}, rng);
  EXPECT_EQ(w.frequencies.size(), 256u);
}

TEST(GeneratorsDeathTest, MoreItemsThanDomainRejected) {
  Rng rng(31);
  EXPECT_DEATH(
      MakeUniformWorkload(8, 9, 1, 2, StreamShapeOptions{}, rng),
      "GSTREAM_CHECK");
}

}  // namespace
}  // namespace gstream
