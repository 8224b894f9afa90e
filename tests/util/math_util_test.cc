#include "util/math_util.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace gstream {
namespace {

TEST(MinimalCombinationTest, DirectHit) {
  // d equals 2 * u_0.
  const auto combo = MinimalCombination({3}, 6);
  ASSERT_TRUE(combo.has_value());
  EXPECT_EQ(combo->l1_norm, 2);
  EXPECT_EQ(combo->coefficients[0], 2);
}

TEST(MinimalCombinationTest, TwoFrequencyClassic) {
  // 2*3 - 1*5 = 1: minimal L1 norm 3.
  const auto combo = MinimalCombination({5, 3}, 1);
  ASSERT_TRUE(combo.has_value());
  EXPECT_EQ(combo->l1_norm, 3);
  EXPECT_EQ(combo->coefficients[0] * 5 + combo->coefficients[1] * 3, 1);
}

TEST(MinimalCombinationTest, NegativeCoefficientNeeded) {
  // 7 - 4 = 3.
  const auto combo = MinimalCombination({7, 4}, 3);
  ASSERT_TRUE(combo.has_value());
  EXPECT_EQ(combo->l1_norm, 2);
  EXPECT_EQ(combo->coefficients[0] * 7 + combo->coefficients[1] * 4, 3);
}

TEST(MinimalCombinationTest, InfeasibleWhenGcdDoesNotDivide) {
  EXPECT_FALSE(MinimalCombination({4, 6}, 3).has_value());
  EXPECT_FALSE(MinimalCombination({10}, 5, /*max_terms=*/8).has_value());
}

TEST(MinimalCombinationTest, RespectsMaxTerms) {
  // Needs 5 terms of 2 to reach 10.
  EXPECT_TRUE(MinimalCombination({2}, 10, /*max_terms=*/5).has_value());
  EXPECT_FALSE(MinimalCombination({2}, 10, /*max_terms=*/4).has_value());
}

TEST(MinimalCombinationTest, LargerGapMeansLargerNorm) {
  // (a, b) = (2k+1, 2): reaching 1 costs k+1 terms (k*2 - (2k+1) = -1; or
  // (2k+1) - k*2 = 1).  The norm grows with k -- the knob experiment E6
  // turns.
  for (int64_t k = 1; k <= 8; ++k) {
    const auto combo = MinimalCombination({2 * k + 1, 2}, 1);
    ASSERT_TRUE(combo.has_value());
    EXPECT_EQ(combo->l1_norm, k + 1) << "k=" << k;
  }
}

TEST(MinimalCombinationTest, CoefficientsReconstructTarget) {
  Rng rng(43);
  for (int i = 0; i < 200; ++i) {
    const int64_t a = rng.UniformInt(2, 30);
    const int64_t b = rng.UniformInt(2, 30);
    const int64_t d = rng.UniformInt(1, 40);
    const auto combo = MinimalCombination({a, b}, d, /*max_terms=*/32);
    if (!combo.has_value()) continue;  // absence is allowed
    EXPECT_EQ(combo->coefficients[0] * a + combo->coefficients[1] * b, d);
    int64_t norm = 0;
    for (int64_t c : combo->coefficients) norm += std::abs(c);
    EXPECT_EQ(norm, combo->l1_norm);
  }
}

}  // namespace
}  // namespace gstream
