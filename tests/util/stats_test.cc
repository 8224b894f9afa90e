#include "util/stats.h"

#include <gtest/gtest.h>

namespace gstream {
namespace {

TEST(StatsTest, MeanBasic) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({-5.0, 5.0}), 0.0);
}

TEST(StatsTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({9.0}), 9.0);
}

TEST(StatsTest, QuantileEndpointsAndInterpolation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 2.0);
}

TEST(StatsTest, QuantileUnsortedInput) {
  EXPECT_DOUBLE_EQ(Quantile({5.0, 1.0, 3.0}, 1.0), 5.0);
}

TEST(StatsTest, RelativeErrorBasic) {
  EXPECT_DOUBLE_EQ(RelativeError(110.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(90.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(100.0, 100.0), 0.0);
}

TEST(StatsTest, RelativeErrorZeroTruth) {
  EXPECT_DOUBLE_EQ(RelativeError(3.0, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(RelativeError(-3.0, 0.0), 3.0);
}

TEST(StatsTest, RelativeErrorNegativeTruth) {
  EXPECT_DOUBLE_EQ(RelativeError(-90.0, -100.0), 0.1);
}

TEST(StatsTest, SummarizeErrors) {
  const ErrorSummary s =
      SummarizeErrors({0.05, 0.10, 0.20, 0.40, 0.01}, /*target=*/0.15);
  EXPECT_EQ(s.trials, 5u);
  EXPECT_NEAR(s.mean_rel_error, 0.152, 1e-9);
  EXPECT_DOUBLE_EQ(s.median_rel_error, 0.10);
  EXPECT_DOUBLE_EQ(s.max_rel_error, 0.40);
  EXPECT_DOUBLE_EQ(s.fraction_within_target, 0.6);
}

TEST(StatsTest, SummarizeErrorsEmpty) {
  const ErrorSummary s = SummarizeErrors({}, 0.1);
  EXPECT_EQ(s.trials, 0u);
  EXPECT_DOUBLE_EQ(s.fraction_within_target, 0.0);
}

}  // namespace
}  // namespace gstream
