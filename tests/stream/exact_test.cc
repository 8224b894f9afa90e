#include "stream/exact.h"

#include <gtest/gtest.h>

#include <cmath>

namespace gstream {
namespace {

TEST(ExactGSumTest, SumsAbsoluteFrequencies) {
  const FrequencyMap freq{{0, 3}, {1, -4}, {2, 5}};
  const double sum = ExactGSum(freq, [](int64_t x) {
    return static_cast<double>(x) * static_cast<double>(x);
  });
  EXPECT_DOUBLE_EQ(sum, 9.0 + 16.0 + 25.0);
}

TEST(ExactGSumTest, EmptyVectorIsZero) {
  EXPECT_DOUBLE_EQ(ExactGSum({}, [](int64_t x) {
                     return static_cast<double>(x);
                   }),
                   0.0);
}

TEST(ExactGSumTest, SkipsZeroEntries) {
  const FrequencyMap freq{{0, 0}, {1, 2}};
  const double sum =
      ExactGSum(freq, [](int64_t) { return 1.0; });  // F0-style count
  EXPECT_DOUBLE_EQ(sum, 1.0);
}

TEST(ExactMomentTest, KnownMoments) {
  const FrequencyMap freq{{0, 1}, {1, -2}, {2, 3}};
  EXPECT_DOUBLE_EQ(ExactMoment(freq, 0.0), 3.0);        // F0
  EXPECT_DOUBLE_EQ(ExactMoment(freq, 1.0), 6.0);        // F1 of |v|
  EXPECT_DOUBLE_EQ(ExactMoment(freq, 2.0), 14.0);       // F2
  EXPECT_NEAR(ExactMoment(freq, 0.5),
              1.0 + std::sqrt(2.0) + std::sqrt(3.0), 1e-12);
}

TEST(ExactGHeavyHittersTest, DefinitionEleven) {
  // g = x^2: frequencies 10, 3, 1 -> g values 100, 9, 1, total 110.
  // Item 0: 100 >= lambda * 10 for lambda <= 10 -> heavy at 0.5.
  // Item 1: 9 >= 0.5 * 101 is false.
  const FrequencyMap freq{{0, 10}, {1, 3}, {2, 1}};
  auto g = [](int64_t x) {
    return static_cast<double>(x) * static_cast<double>(x);
  };
  const auto heavy = ExactGHeavyHitters(freq, g, 0.5);
  ASSERT_EQ(heavy.size(), 1u);
  EXPECT_EQ(heavy[0].first, 0u);
  EXPECT_EQ(heavy[0].second, 10);
}

TEST(ExactGHeavyHittersTest, TinyLambdaReturnsAllSorted) {
  const FrequencyMap freq{{0, 2}, {1, 9}, {2, 5}};
  auto g = [](int64_t x) { return static_cast<double>(x); };
  const auto heavy = ExactGHeavyHitters(freq, g, 1e-9);
  ASSERT_EQ(heavy.size(), 3u);
  EXPECT_EQ(heavy[0].first, 1u);  // sorted by decreasing g
  EXPECT_EQ(heavy[1].first, 2u);
  EXPECT_EQ(heavy[2].first, 0u);
}

TEST(ExactGHeavyHittersTest, NegativeFrequencyUsesAbs) {
  const FrequencyMap freq{{0, -100}, {1, 1}};
  auto g = [](int64_t x) { return static_cast<double>(x); };
  const auto heavy = ExactGHeavyHitters(freq, g, 0.5);
  ASSERT_EQ(heavy.size(), 1u);
  EXPECT_EQ(heavy[0].first, 0u);
  EXPECT_EQ(heavy[0].second, -100);  // reports the signed frequency
}

TEST(ExactGHeavyHittersTest, SingletonIsAlwaysHeavy) {
  const FrequencyMap freq{{5, 7}};
  auto g = [](int64_t x) { return static_cast<double>(x); };
  // Rest-sum is 0, so the single item is heavy for any lambda.
  EXPECT_EQ(ExactGHeavyHitters(freq, g, 1e9).size(), 1u);
}

TEST(ExactFrequencySketchTest, TracksAndPrunesZeros) {
  ExactFrequencySketch sketch;
  sketch.Update(1, 5);
  sketch.Update(2, 3);
  sketch.Update(2, -3);  // cancels to zero: pruned from Frequencies()
  sketch.Update(7, -4);
  const FrequencyMap freq = sketch.Frequencies();
  EXPECT_EQ(freq, (FrequencyMap{{1, 5}, {7, -4}}));
  EXPECT_EQ(sketch.SpaceBytes(),
            3 * (sizeof(ItemId) + sizeof(int64_t)));  // zero entry retained
}

TEST(ExactFrequencySketchTest, MergeSumsShards) {
  // No fingerprint guard: the exact sketch has no hash functions, so any
  // two instances merge, and the merge equals the concatenated stream.
  ExactFrequencySketch a, b;
  a.Update(1, 10);
  a.Update(2, -3);
  b.Update(2, 3);  // cancels a's entry after the merge
  b.Update(9, 7);
  a.MergeFrom(b);
  EXPECT_EQ(a.Frequencies(), (FrequencyMap{{1, 10}, {9, 7}}));
}

TEST(ExactFrequencySketchTest, MatchesExactFrequenciesOnAStream) {
  Stream stream(64);
  stream.Append(3, 2);
  stream.Append(3, 2);
  stream.Append(4, -1);
  stream.Append(5, 9);
  stream.Append(5, -9);
  ExactFrequencySketch sketch;
  ProcessStream(sketch, stream);
  EXPECT_EQ(sketch.Frequencies(), ExactFrequencies(stream));
}

}  // namespace
}  // namespace gstream
