#include "core/one_pass_hh.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <unordered_set>
#include <vector>

#include "gfunc/catalog.h"
#include "gfunc/envelope.h"
#include "stream/exact.h"
#include "stream/generators.h"

namespace gstream {
namespace {

OnePassHHOptions DefaultOptions() {
  OnePassHHOptions options;
  options.count_sketch = {5, 1024};
  options.ams = {32, 5};
  options.candidates = 32;
  options.epsilon = 0.25;
  options.h_envelope = 1.0;
  return options;
}

TEST(OnePassHHTest, FindsPlantedHeavyHitterForQuadratic) {
  Rng rng(1);
  ItemId heavy = 0;
  const Workload w = MakePlantedHeavyHitterWorkload(
      1 << 12, 300, 10, 50000, StreamShapeOptions{}, rng, &heavy);
  OnePassHeavyHitter hh(DefaultOptions(), rng);
  ProcessStream(hh, w.stream);
  const GFunctionPtr g = MakePower(2.0);
  const GCover cover = hh.Cover(*g);
  bool found = false;
  for (const GCoverEntry& e : cover) {
    if (e.item == heavy) {
      found = true;
      // Weight within (1 +- eps) of the truth (Definition 12 condition 1).
      EXPECT_NEAR(e.g_value, g->ValueAbs(w.frequencies.at(heavy)),
                  0.25 * g->ValueAbs(w.frequencies.at(heavy)));
    }
  }
  EXPECT_TRUE(found);
}

TEST(OnePassHHTest, StableFunctionSurvivesPruning) {
  // g = x^2 is predictable: estimates near a large frequency survive.
  const GFunctionPtr g = MakePower(2.0);
  EXPECT_TRUE(OnePassHeavyHitter::SurvivesPruning(*g, /*v_hat=*/10000,
                                                  /*e=*/100, /*epsilon=*/0.25,
                                                  /*probe_points=*/24));
}

TEST(OnePassHHTest, VariableFunctionPrunedAtVolatileScale) {
  // (2+sin x) x^2 swings by a factor 3 within +-2: any estimate with error
  // radius >= 2 must be pruned under a tight epsilon.
  const GFunctionPtr g = MakeSinModulated();
  EXPECT_FALSE(OnePassHeavyHitter::SurvivesPruning(*g, /*v_hat=*/10000,
                                                   /*e=*/8, /*epsilon=*/0.1,
                                                   /*probe_points=*/24));
}

TEST(OnePassHHTest, CoverOfInt64EdgeEstimatesIsDefined) {
  // Counters wrap mod 2^64, so a tracker can hold an INT64_MIN estimate
  // (ranked strongest) and an INT64_MAX one.  One row of two buckets, an
  // item in each, so each item's estimate is its one delta.  Cover must
  // saturate |INT64_MIN|, not CHECK-fail on a negative magnitude; and at
  // a radius near the int64 range every probe v_hat + y crosses the edge,
  // where the pruning test must saturate too.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  OnePassHHOptions options;
  options.count_sketch = {1, 2};
  options.ams = {4, 2};
  options.candidates = 2;
  const auto make = [&options] {
    Rng rng(16);
    return OnePassHeavyHitter(options, rng);
  };
  const auto bucket = [&make](ItemId item) {
    OnePassHeavyHitter probe = make();
    probe.Update(item, 1);
    return probe.tracker().sketch().counters()[0] != 0 ? 0 : 1;
  };
  const ItemId a = 0;
  ItemId b = 1;
  while (bucket(b) == bucket(a)) ++b;
  OnePassHeavyHitter hh = make();
  hh.Update(a, kMin);
  hh.Update(b, kMax);
  ASSERT_EQ(hh.tracker().sketch().Estimate(a), kMin);
  ASSERT_EQ(hh.tracker().sketch().Estimate(b), kMax);

  const GFunctionPtr g = MakePower(2.0);
  const GCover cover = hh.Cover(*g);
  EXPECT_EQ(cover.size(), 2u);
  for (const GCoverEntry& entry : cover) {
    EXPECT_EQ(entry.g_value, g->Value(kMax)) << "item " << entry.item;
  }
  for (const int64_t e : {int64_t{4'000'000'000'000'000'000}, kMax}) {
    for (const int64_t v_hat : {kMin, kMin + 1, kMax}) {
      EXPECT_FALSE(OnePassHeavyHitter::SurvivesPruning(*g, v_hat, e, 0.25, 24))
          << "v_hat " << v_hat << ", E " << e;
    }
  }
}

TEST(OnePassHHTest, ZeroRadiusAlwaysSurvives) {
  const GFunctionPtr g = MakeSinModulated();
  EXPECT_TRUE(OnePassHeavyHitter::SurvivesPruning(*g, 10000, 0, 0.1, 24));
}

TEST(OnePassHHTest, IndicatorSurvivesAnyRadiusAboveIt) {
  // 1(x>0) is constant for x > 0; pruning at radius below v_hat passes.
  const GFunctionPtr g = MakeIndicator();
  EXPECT_TRUE(OnePassHeavyHitter::SurvivesPruning(*g, 1000, 500, 0.1, 24));
  // Radius that reaches 0 (where g drops to 0) fails the stability test.
  EXPECT_FALSE(OnePassHeavyHitter::SurvivesPruning(*g, 100, 200, 0.1, 24));
}

// The probe grid as a std::unordered_set, the form SurvivesPruning had
// before its magnitudes moved to a stack array: the reference the
// allocation-free version must agree with on every input.
bool SurvivesPruningOnSetGrid(const GFunction& g, int64_t v_hat, int64_t e,
                              double epsilon, size_t probe_points) {
  if (e <= 0) return true;
  const double g_hat = g.ValueAbs(v_hat);
  auto stable_at = [&](int64_t y) {
    const double g_shift = g.ValueAbs(v_hat + y);
    return std::fabs(g_hat - g_shift) <= epsilon * g_shift;
  };
  std::unordered_set<int64_t> magnitudes;
  for (int64_t m = 1; m <= std::min<int64_t>(8, e); ++m) magnitudes.insert(m);
  for (int64_t m = 16; m < e && magnitudes.size() < probe_points; m *= 2) {
    magnitudes.insert(m);
  }
  const int64_t step = std::max<int64_t>(1, e / 8);
  for (int64_t m = step; m < e; m += step) magnitudes.insert(m);
  magnitudes.insert(e);
  for (const int64_t m : magnitudes) {
    if (!stable_at(m) || !stable_at(-m)) return false;
  }
  return true;
}

TEST(OnePassHHTest, SurvivesPruningMatchesSetBasedGrid) {
  const std::vector<GFunctionPtr> functions = {
      MakePower(2.0), MakeSinModulated(), MakeSinLogModulated(),
      MakeIndicator(), MakeX2Log(), MakeInversePoly(1.0)};
  const double epsilons[] = {0.01, 0.1, 0.25, 0.5};
  const size_t probe_budgets[] = {1, 4, 9, 24, 64, 200};
  Rng rng(0x9a1e);
  size_t survived = 0;
  size_t pruned = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const GFunction& g = *functions[rng.NextUint64() % functions.size()];
    // Log-uniform radius in [1, 4e18] (PruningRadius's cap), plus the
    // small radii where the exhaustive and linear grids overlap.
    const int64_t e =
        trial % 4 == 0
            ? static_cast<int64_t>(rng.NextUint64() % 40)
            : static_cast<int64_t>(std::exp(rng.UniformDouble() *
                                            std::log(4.0e18)));
    const int64_t v_hat =
        static_cast<int64_t>(std::exp(rng.UniformDouble() * std::log(1e15))) *
        (rng.Bernoulli(0.5) ? 1 : -1);
    const double epsilon = epsilons[rng.NextUint64() % std::size(epsilons)];
    const size_t probes =
        probe_budgets[rng.NextUint64() % std::size(probe_budgets)];
    const bool want = SurvivesPruningOnSetGrid(g, v_hat, e, epsilon, probes);
    ASSERT_EQ(OnePassHeavyHitter::SurvivesPruning(g, v_hat, e, epsilon, probes),
              want)
        << "v_hat=" << v_hat << " e=" << e << " epsilon=" << epsilon
        << " probes=" << probes;
    (want ? survived : pruned) += 1;
  }
  // Both outcomes are exercised.
  EXPECT_GT(survived, 100u);
  EXPECT_GT(pruned, 100u);
}

TEST(OnePassHHTest, PruningRadiusPaperTermGoverns) {
  Rng rng(2);
  OnePassHHOptions options = DefaultOptions();
  options.epsilon = 0.5;
  options.h_envelope = 1.0;
  // Few buckets: the CountSketch error bound sqrt(F2/8) ~ 354 exceeds the
  // paper interval (0.5/2) * 1000 = 250, so the paper term governs.
  options.count_sketch = {5, 8};
  OnePassHeavyHitter hh(options, rng);
  hh.Update(1, 1000);  // F2 = 10^6 exactly (single item)
  EXPECT_EQ(hh.PruningRadius(), 250);
}

TEST(OnePassHHTest, PruningRadiusSketchTermGoverns) {
  Rng rng(2);
  OnePassHHOptions options = DefaultOptions();
  options.epsilon = 0.5;
  options.h_envelope = 1.0;
  // Many buckets: sqrt(10^6 / 4096) ~ 15.6 < 250.
  options.count_sketch = {5, 4096};
  OnePassHeavyHitter hh(options, rng);
  hh.Update(1, 1000);
  EXPECT_NEAR(static_cast<double>(hh.PruningRadius()), 15.6, 1.0);
}

TEST(OnePassHHTest, LargerEnvelopeShrinksRadius) {
  Rng rng(3);
  OnePassHHOptions small = DefaultOptions();
  small.h_envelope = 1.0;
  OnePassHHOptions big = DefaultOptions();
  big.h_envelope = 100.0;
  OnePassHeavyHitter hh_small(small, rng);
  OnePassHeavyHitter hh_big(big, rng);
  hh_small.Update(1, 10000);
  hh_big.Update(1, 10000);
  // h=1: radius = min(1250, sqrt(1e8/1024)) = 312; h=100: 12.
  EXPECT_GT(hh_small.PruningRadius(), hh_big.PruningRadius() * 20);
}

TEST(OnePassHHTest, CoverRespectsEpsilonOnZipf) {
  Rng rng(4);
  const Workload w = MakeZipfWorkload(1 << 12, 500, 1.4, 100000,
                                      StreamShapeOptions{}, rng);
  OnePassHHOptions options = DefaultOptions();
  options.count_sketch = {7, 4096};
  OnePassHeavyHitter hh(options, rng);
  ProcessStream(hh, w.stream);
  const GFunctionPtr g = MakeX2Log();
  for (const GCoverEntry& e : hh.Cover(*g)) {
    ASSERT_TRUE(w.frequencies.contains(e.item));
    const double truth = g->ValueAbs(w.frequencies.at(e.item));
    EXPECT_LE(std::fabs(e.g_value - truth), 0.3 * truth)
        << "item " << e.item;
  }
}

TEST(OnePassHHDeathTest, NoSecondPass) {
  Rng rng(5);
  OnePassHeavyHitter hh(DefaultOptions(), rng);
  EXPECT_DEATH(hh.AdvancePass(), "GSTREAM_CHECK");
}

TEST(OnePassHHDeathTest, RejectsEnvelopeBelowOne) {
  Rng rng(6);
  OnePassHHOptions options = DefaultOptions();
  options.h_envelope = 0.5;
  EXPECT_DEATH(OnePassHeavyHitter(options, rng), "GSTREAM_CHECK");
}

}  // namespace
}  // namespace gstream
