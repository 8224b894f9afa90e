#include "sketch/ams.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <vector>

#include "stream/exact.h"
#include "stream/generators.h"
#include "util/hash.h"

namespace gstream {
namespace {

TEST(AmsTest, SingleItemF2Exact) {
  Rng rng(1);
  AmsSketch ams(AmsOptions{8, 5}, rng);
  ams.Update(3, 100);
  // One item: every estimator holds +-100, squares to exactly 10000.
  EXPECT_DOUBLE_EQ(ams.EstimateF2(), 10000.0);
}

TEST(AmsTest, DeletionsCancel) {
  Rng rng(2);
  AmsSketch ams(AmsOptions{8, 5}, rng);
  ams.Update(3, 100);
  ams.Update(3, -100);
  EXPECT_DOUBLE_EQ(ams.EstimateF2(), 0.0);
}

// Accuracy sweep: relative error shrinks as group_size grows.
class AmsAccuracySweep : public ::testing::TestWithParam<size_t> {};

TEST_P(AmsAccuracySweep, MedianWithinExpectedBand) {
  const size_t group_size = GetParam();
  Rng data_rng(77);
  const Workload w = MakeZipfWorkload(1 << 12, 1500, 1.0, 5000,
                                      StreamShapeOptions{}, data_rng);
  const double truth = ExactMoment(w.frequencies, 2.0);
  // Median over independent sketch draws should concentrate within
  // ~3/sqrt(group_size) relative error.
  Rng sketch_rng(88);
  std::vector<double> errors;
  for (int trial = 0; trial < 9; ++trial) {
    AmsSketch ams(AmsOptions{group_size, 5}, sketch_rng);
    ProcessStream(ams, w.stream);
    errors.push_back(std::fabs(ams.EstimateF2() - truth) / truth);
  }
  std::sort(errors.begin(), errors.end());
  const double median_err = errors[errors.size() / 2];
  EXPECT_LT(median_err, 3.0 / std::sqrt(static_cast<double>(group_size)));
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, AmsAccuracySweep,
                         ::testing::Values(4, 16, 64, 256));

TEST(AmsTest, TurnstileChurnDoesNotBias) {
  Rng rng(3);
  StreamShapeOptions options;
  options.churn_pairs = 2000;
  options.churn_magnitude = 50;
  const Workload w =
      MakeUniformWorkload(1 << 10, 400, 1, 100, options, rng);
  const double truth = ExactMoment(w.frequencies, 2.0);
  AmsSketch ams(AmsOptions{64, 7}, rng);
  ProcessStream(ams, w.stream);
  EXPECT_NEAR(ams.EstimateF2() / truth, 1.0, 0.5);
}

TEST(AmsTest, SpaceBytesAccounted) {
  Rng rng(4);
  AmsSketch ams(AmsOptions{16, 5}, rng);
  // 80 counters + ceil(80 / 56) = 2 sign rows (4 words each).
  EXPECT_EQ(ams.SpaceBytes(),
            80 * sizeof(int64_t) + 2 * 4 * sizeof(uint64_t));
  Rng rng2(4);
  AmsSketch wide(AmsOptions{32, 5}, rng2);
  EXPECT_EQ(wide.SpaceBytes(),
            160 * sizeof(int64_t) + 3 * 4 * sizeof(uint64_t));
}

// The constructor draws and drops the coefficients of the rows the bit
// signs retired, so the draw after it is the one a sketch with one 4-wise
// row per estimator left behind (the constants were recorded from that
// layout).
TEST(AmsTest, DrawsMatchOneRowPerEstimator) {
  Rng wide(0xa115);
  AmsSketch a(AmsOptions{32, 5}, wide);
  EXPECT_EQ(wide.NextUint64(), 0x8b54539e64a610f8ULL);
  Rng narrow(0xa115);
  AmsSketch b(AmsOptions{16, 5}, narrow);
  EXPECT_EQ(narrow.NextUint64(), 0xdef0625360bc2ae6ULL);
}

// The sign derivation itself: estimator e holds +delta exactly when bit
// e % 56 of row e / 56's hash is set, with the rows drawn first from the
// sketch's Rng.  Checked against an independently drawn bank, for a single
// update and for a batch.
TEST(AmsTest, SignsAreRowHashBits) {
  constexpr size_t kEstimators = 32 * 5;
  Rng bank_rng(6);
  const KWiseHashBank bank(4, 3, bank_rng);
  const ItemId items[] = {12345, 0, ~ItemId{0}};
  std::vector<Update> batch;
  std::vector<int64_t> want(kEstimators, 0);
  for (size_t k = 0; k < std::size(items); ++k) {
    const int64_t delta = static_cast<int64_t>(k) * 4 - 3;
    batch.push_back({items[k], delta});
    for (size_t e = 0; e < kEstimators; ++e) {
      const uint64_t h = bank.EvalRow(e / AmsSketch::kSignsPerRow,
                                      ReduceToField(items[k]));
      want[e] += ((h >> (e % AmsSketch::kSignsPerRow)) & 1) ? delta : -delta;
    }
  }
  Rng r1(6), r2(6);
  AmsSketch single(AmsOptions{32, 5}, r1), batched(AmsOptions{32, 5}, r2);
  for (const Update& u : batch) single.Update(u.item, u.delta);
  batched.UpdateBatch(batch.data(), batch.size());
  EXPECT_EQ(std::vector<int64_t>(single.sums().begin(), single.sums().end()),
            want);
  EXPECT_EQ(batched.sums(), single.sums());
}

TEST(AmsTest, UpdateAndMergeWrapAtInt64Edge) {
  // Sums are mod 2^64: Update, UpdateBatch and MergeFrom all wrap at the
  // int64 edge to the same sums (the sanitizer leg sees no signed
  // overflow).  A unit-delta probe shows each estimator's sign per item.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<Update> ups = {
      {1, kMax}, {1, kMax}, {2, kMin}, {3, kMin}, {2, 5}, {3, kMax}};
  const AmsOptions options{4, 2};
  const auto make = [&options] {
    Rng rng(15);
    return AmsSketch(options, rng);
  };
  std::vector<uint64_t> expected(make().sums().size(), 0);
  for (const Update& u : ups) {
    AmsSketch probe = make();
    probe.Update(u.item, 1);
    for (size_t j = 0; j < expected.size(); ++j) {
      expected[j] += static_cast<uint64_t>(probe.sums()[j]) *
                     static_cast<uint64_t>(u.delta);
    }
  }
  AmsSketch single = make();
  for (const Update& u : ups) single.Update(u.item, u.delta);
  AmsSketch batched = make();
  batched.UpdateBatch(ups.data(), ups.size());
  for (size_t j = 0; j < expected.size(); ++j) {
    EXPECT_EQ(static_cast<uint64_t>(single.sums()[j]), expected[j]);
    EXPECT_EQ(batched.sums()[j], single.sums()[j]);
  }
  single.MergeFrom(batched);
  for (size_t j = 0; j < expected.size(); ++j) {
    EXPECT_EQ(static_cast<uint64_t>(single.sums()[j]), 2 * expected[j]);
  }
}

TEST(AmsTest, DeterministicGivenSeed) {
  Rng r1(5), r2(5);
  AmsSketch a(AmsOptions{16, 5}, r1), b(AmsOptions{16, 5}, r2);
  for (ItemId i = 0; i < 200; ++i) {
    a.Update(i, static_cast<int64_t>(i % 13));
    b.Update(i, static_cast<int64_t>(i % 13));
  }
  EXPECT_DOUBLE_EQ(a.EstimateF2(), b.EstimateF2());
}

}  // namespace
}  // namespace gstream
