#include "comm/disjointness.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "gfunc/catalog.h"
#include "stream/exact.h"

namespace gstream {
namespace {

size_t TotalElements(const DisjInstance& inst) {
  size_t total = 0;
  for (const auto& set : inst.sets) total += set.size();
  return total;
}

TEST(DisjInstanceTest, RespectsDisjointnessPromise) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const DisjInstance inst = MakeDisjInstance(512, 4, 0.5, rng);
    std::unordered_set<ItemId> seen;
    size_t common_count = 0;
    for (const auto& set : inst.sets) {
      for (const ItemId i : set) {
        if (i == inst.common) {
          ++common_count;
          continue;
        }
        EXPECT_TRUE(seen.insert(i).second)
            << "element " << i << " in two sets";
      }
    }
    EXPECT_EQ(common_count, inst.intersecting ? inst.sets.size() : 0u);
  }
}

TEST(DisjInstanceTest, BothClassesAppear) {
  Rng rng(2);
  int intersecting = 0;
  for (int t = 0; t < 100; ++t) {
    if (MakeDisjInstance(128, 3, 0.5, rng).intersecting) ++intersecting;
  }
  EXPECT_GT(intersecting, 25);
  EXPECT_LT(intersecting, 75);
}

TEST(DisjReductionTest, StreamRealizesLemma24Frequencies) {
  Rng rng(3);
  const size_t players = 4;
  const DisjInstance inst = MakeDisjInstance(256, players, 0.4, rng);
  const DisjPlusIndShape shape{/*per_player_frequency=*/10,
                               /*index_frequency=*/3};
  const Stream stream = BuildDisjPlusIndStream(inst, shape);
  const FrequencyMap freq = ExactFrequencies(stream);
  const int64_t expected_common =
      inst.intersecting
          ? 10 * static_cast<int64_t>(players) + 3
          : 3;
  EXPECT_EQ(freq.at(inst.common), expected_common);
  for (const auto& set : inst.sets) {
    for (const ItemId i : set) {
      if (i != inst.common) {
        EXPECT_EQ(freq.at(i), 10);
      }
    }
  }
}

TEST(DisjReductionTest, OutcomesMatchExactGSum) {
  Rng rng(4);
  const GFunctionPtr g = MakePower(3.0);  // Lemma 24's target class
  const size_t players = 4;
  const DisjPlusIndShape shape{/*per_player_frequency=*/16,
                               /*index_frequency=*/5};
  for (int trial = 0; trial < 20; ++trial) {
    const DisjInstance inst = MakeDisjInstance(512, players, 0.5, rng);
    const Stream stream = BuildDisjPlusIndStream(inst, shape);
    const double actual =
        ExactGSum(ExactFrequencies(stream), g->AsCallable());
    const DisjOutcomes o =
        DisjPlusIndOutcomes(*g, TotalElements(inst), players, shape);
    const double expected =
        inst.intersecting ? o.value_if_intersecting : o.value_if_disjoint;
    EXPECT_NEAR(actual, expected, 1e-9 * expected);
  }
}

TEST(DisjReductionTest, CubicGapDominatedByIntersection) {
  // Lemma 24's point: g(y) = g(t*x + r) dwarfs n' g(x) for g = x^3 because
  // the function jumps faster than quadratically.
  const GFunctionPtr g = MakePower(3.0);
  const size_t players = 8;
  const DisjPlusIndShape shape{/*per_player_frequency=*/64,
                               /*index_frequency=*/1};
  // n' = players * per-player set size; say 8 * 50 = 400 elements.
  const DisjOutcomes o = DisjPlusIndOutcomes(*g, 400, players, shape);
  EXPECT_GT(o.relative_gap, 0.3);
}

TEST(DisjReductionTest, QuadraticGapSmall) {
  const GFunctionPtr g = MakePower(2.0);
  const size_t players = 8;
  const DisjPlusIndShape shape{64, 1};
  const DisjOutcomes o = DisjPlusIndOutcomes(*g, 400, players, shape);
  EXPECT_LT(o.relative_gap, 0.15);
}

TEST(DecideDisjTest, NearestOutcomeWins) {
  DisjOutcomes o;
  o.value_if_disjoint = 10.0;
  o.value_if_intersecting = 50.0;
  EXPECT_FALSE(DecideDisjIntersecting(15.0, o));
  EXPECT_TRUE(DecideDisjIntersecting(45.0, o));
}

}  // namespace
}  // namespace gstream
