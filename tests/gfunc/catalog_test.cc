#include "gfunc/catalog.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace gstream {
namespace {

// Class-G normalization: every catalog function has g(0) = 0, g(1) = 1 and
// g(x) > 0 elsewhere.
TEST(CatalogTest, AllEntriesNormalized) {
  for (const CatalogEntry& entry : BuiltinCatalog()) {
    SCOPED_TRACE(entry.g->name());
    EXPECT_DOUBLE_EQ(entry.g->Value(0), 0.0);
    EXPECT_DOUBLE_EQ(entry.g->Value(1), 1.0);
    for (int64_t x : {2, 3, 5, 17, 100, 1000}) {
      EXPECT_GT(entry.g->Value(x), 0.0) << "x=" << x;
    }
  }
}

TEST(CatalogTest, NamesAreUnique) {
  std::set<std::string> names;
  for (const CatalogEntry& entry : BuiltinCatalog()) {
    EXPECT_TRUE(names.insert(entry.g->name()).second) << entry.g->name();
  }
}

TEST(CatalogTest, ValueAbsIsSymmetricExtension) {
  const GFunctionPtr g = MakePower(2.0);
  EXPECT_DOUBLE_EQ(g->ValueAbs(-5), g->Value(5));
  EXPECT_DOUBLE_EQ(g->ValueAbs(5), 25.0);
}

TEST(CatalogTest, PowerValues) {
  const GFunctionPtr sq = MakePower(2.0);
  EXPECT_DOUBLE_EQ(sq->Value(3), 9.0);
  EXPECT_DOUBLE_EQ(sq->Value(10), 100.0);
  const GFunctionPtr p15 = MakePower(1.5);
  EXPECT_NEAR(p15->Value(4), 8.0, 1e-12);
}

TEST(CatalogTest, IndicatorIsF0) {
  const GFunctionPtr ind = MakeIndicator();
  EXPECT_DOUBLE_EQ(ind->Value(0), 0.0);
  for (int64_t x : {1, 2, 1000000}) EXPECT_DOUBLE_EQ(ind->Value(x), 1.0);
}

TEST(CatalogTest, X2LogValues) {
  const GFunctionPtr g = MakeX2Log();
  // raw(1) = lg 2 = 1 so no rescale: g(3) = 9 * lg 4 = 18.
  EXPECT_NEAR(g->Value(3), 18.0, 1e-9);
}

TEST(CatalogTest, GnpMatchesDefinition52) {
  const GFunctionPtr g = MakeGnp();
  EXPECT_DOUBLE_EQ(g->Value(1), 1.0);
  EXPECT_DOUBLE_EQ(g->Value(2), 0.5);
  EXPECT_DOUBLE_EQ(g->Value(3), 1.0);
  EXPECT_DOUBLE_EQ(g->Value(4), 0.25);
  EXPECT_DOUBLE_EQ(g->Value(6), 0.5);
  EXPECT_DOUBLE_EQ(g->Value(1024), std::exp2(-10.0));
  EXPECT_DOUBLE_EQ(g->Value(1025), 1.0);
}

TEST(CatalogTest, GnpNearPeriodicityAnecdote) {
  // The paper's example: g_np(2^k + 1) = g_np(1) despite g_np(2^k) = 2^-k.
  const GFunctionPtr g = MakeGnp();
  for (int k = 3; k <= 16; ++k) {
    const int64_t period = int64_t{1} << k;
    EXPECT_DOUBLE_EQ(g->Value(period + 1), g->Value(1));
    EXPECT_DOUBLE_EQ(g->Value(period), std::exp2(-k));
  }
}

TEST(CatalogTest, SpamClickFeeShape) {
  const GFunctionPtr g = MakeSpamClickFee(16);
  EXPECT_DOUBLE_EQ(g->Value(1), 1.0);
  EXPECT_DOUBLE_EQ(g->Value(16), 16.0);   // peak at the threshold
  EXPECT_DOUBLE_EQ(g->Value(20), 12.0);   // discounted
  EXPECT_DOUBLE_EQ(g->Value(31), 1.0);    // floor reached
  EXPECT_DOUBLE_EQ(g->Value(1000), 1.0);  // stays at the floor
}

TEST(CatalogTest, SpamClickFeeNonMonotone) {
  const GFunctionPtr g = MakeSpamClickFee(16);
  EXPECT_GT(g->Value(16), g->Value(24));
  EXPECT_GT(g->Value(24), g->Value(40));
}

TEST(CatalogTest, PoissonMixtureNonMonotone) {
  // lambda=0.95, alpha=0.5, beta=8: the second mixture mode creates a dip
  // in -log p around x = 8.
  const GFunctionPtr g = MakePoissonMixtureNll(0.95, 0.5, 8.0);
  EXPECT_GT(g->Value(4), g->Value(8));
  EXPECT_GT(g->Value(20), g->Value(8));
}

TEST(CatalogTest, PoissonMixtureLogPmfNormalizes) {
  // The pmf over a generous support should sum to ~1.
  double total = 0.0;
  for (int64_t x = 0; x <= 200; ++x) {
    total += std::exp(PoissonMixtureLogPmf(0.95, 0.5, 8.0, x));
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(CatalogTest, ExponentialSaturates) {
  const GFunctionPtr g = MakeExponential();
  EXPECT_DOUBLE_EQ(g->Value(10), 512.0);  // 2^10 / 2^1
  EXPECT_LT(g->Value(5000), 1e301);       // saturated, finite
  EXPECT_GT(g->Value(5000), 0.0);
}

TEST(CatalogTest, InverseFunctionsDecrease) {
  const GFunctionPtr inv = MakeInversePoly(1.0);
  EXPECT_DOUBLE_EQ(inv->Value(2), 0.5);
  EXPECT_DOUBLE_EQ(inv->Value(10), 0.1);
  const GFunctionPtr invlog = MakeInverseLog();
  EXPECT_GT(invlog->Value(10), invlog->Value(1000));
  // Sub-polynomial decay: much slower than 1/x.
  EXPECT_GT(invlog->Value(1000), inv->Value(1000) * 10);
}

TEST(CatalogTest, SinModulatedWithinEnvelope) {
  for (const GFunctionPtr& g :
       {MakeSinModulated(), MakeSinSqrtModulated(), MakeSinLogModulated()}) {
    SCOPED_TRACE(g->name());
    for (int64_t x : {2, 10, 100, 5000, 100000}) {
      const double xd = static_cast<double>(x);
      const double v = g->Value(x);
      // Raw shape lies in [x^2, 3 x^2]; normalization divides by raw(1)
      // which is in [1, 3].
      EXPECT_GE(v, xd * xd / 3.0);
      EXPECT_LE(v, 3.0 * xd * xd);
    }
  }
}

TEST(CatalogTest, ExpSqrtLogSubPolynomialGrowth) {
  const GFunctionPtr g = MakeExpSqrtLog();
  // Grows without bound but slower than any polynomial: g(x) / x^0.25
  // shrinks between two large probes.
  const double a = g->Value(1 << 10) / std::pow(2.0, 10.0 * 0.25);
  const double b = g->Value(int64_t{1} << 40) / std::pow(2.0, 40.0 * 0.25);
  EXPECT_GT(g->Value(int64_t{1} << 40), g->Value(1 << 10));
  EXPECT_LT(b, a);
}

TEST(CatalogTest, EvaluateTableMatchesPointQueries) {
  const GFunctionPtr g = MakeX2Log();
  const std::vector<double> table = EvaluateTable(*g, 100);
  ASSERT_EQ(table.size(), 101u);
  for (int64_t x = 0; x <= 100; ++x) {
    EXPECT_DOUBLE_EQ(table[static_cast<size_t>(x)], g->Value(x));
  }
}

TEST(CatalogTest, VerdictNames) {
  EXPECT_EQ(VerdictName(Verdict::kOnePassTractable), "1-pass");
  EXPECT_EQ(VerdictName(Verdict::kTwoPassTractable), "2-pass");
  EXPECT_EQ(VerdictName(Verdict::kIntractable), "intractable");
  EXPECT_EQ(VerdictName(Verdict::kNearlyPeriodic), "nearly-periodic");
}

TEST(CatalogDeathTest, PoissonMixtureRequiresModeAtZero) {
  // alpha large makes p(1) > p(0): the shifted NLL would go negative.
  EXPECT_DEATH(MakePoissonMixtureNll(0.5, 4.0, 8.0), "GSTREAM_CHECK");
}

}  // namespace
}  // namespace gstream
