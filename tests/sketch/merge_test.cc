// Mergeability of the linear sketches: the distributed-aggregation story
// (map shards independently, merge, decode once).  Linearity means a
// merged sketch must be *identical* to one that saw the concatenated
// stream -- these tests check bit-exact agreement.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "core/gnp_sketch.h"
#include "sketch/ams.h"
#include "sketch/count_sketch.h"
#include "stream/exact.h"
#include "stream/generators.h"

namespace gstream {
namespace {

constexpr uint64_t kSeed = 0x3e46e;

Workload ShardableWorkload() {
  Rng rng(11);
  return MakeUniformWorkload(1 << 12, 2000, 1, 500, StreamShapeOptions{},
                             rng);
}

TEST(MergeTest, CountSketchShardedEqualsMonolithic) {
  const Workload w = ShardableWorkload();
  const CountSketchOptions geometry{5, 512};

  Rng mono_rng(kSeed);
  CountSketch monolithic(geometry, mono_rng);
  ProcessStream(monolithic, w.stream);

  // Four shards, same seed (hence same hash functions), disjoint slices.
  std::vector<CountSketch> shards;
  for (int s = 0; s < 4; ++s) {
    Rng rng(kSeed);
    shards.emplace_back(geometry, rng);
  }
  const auto& updates = w.stream.updates();
  for (size_t i = 0; i < updates.size(); ++i) {
    shards[i % 4].Update(updates[i].item, updates[i].delta);
  }
  for (int s = 1; s < 4; ++s) shards[0].MergeFrom(shards[s]);

  for (const auto& [item, value] : w.frequencies) {
    EXPECT_EQ(shards[0].Estimate(item), monolithic.Estimate(item));
  }
  EXPECT_DOUBLE_EQ(shards[0].EstimateF2(), monolithic.EstimateF2());
}

TEST(MergeTest, AmsShardedEqualsMonolithic) {
  const Workload w = ShardableWorkload();
  const AmsOptions geometry{16, 5};

  Rng mono_rng(kSeed);
  AmsSketch monolithic(geometry, mono_rng);
  ProcessStream(monolithic, w.stream);

  Rng r1(kSeed), r2(kSeed);
  AmsSketch a(geometry, r1), b(geometry, r2);
  const auto& updates = w.stream.updates();
  for (size_t i = 0; i < updates.size(); ++i) {
    (i % 2 == 0 ? a : b).Update(updates[i].item, updates[i].delta);
  }
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.EstimateF2(), monolithic.EstimateF2());
}

TEST(MergeTest, MergeIsCommutativeInEffect) {
  const CountSketchOptions geometry{3, 64};
  Rng r1(kSeed), r2(kSeed), r3(kSeed), r4(kSeed);
  CountSketch ab(geometry, r1), ba(geometry, r2);
  CountSketch a(geometry, r3), b(geometry, r4);
  a.Update(1, 10);
  b.Update(2, 20);
  ab.Update(1, 10);
  ab.MergeFrom(b);
  ba.Update(2, 20);
  ba.MergeFrom(a);
  for (ItemId i : {1u, 2u, 3u}) {
    EXPECT_EQ(ab.Estimate(i), ba.Estimate(i));
  }
}

TEST(MergeDeathTest, CountSketchRejectsDifferentSeeds) {
  const CountSketchOptions geometry{3, 64};
  Rng r1(1), r2(2);
  CountSketch a(geometry, r1), b(geometry, r2);
  EXPECT_DEATH(a.MergeFrom(b), "GSTREAM_CHECK");
}

TEST(MergeDeathTest, CountSketchRejectsDifferentGeometry) {
  Rng r1(kSeed), r2(kSeed);
  CountSketch a(CountSketchOptions{3, 64}, r1);
  CountSketch b(CountSketchOptions{3, 128}, r2);
  EXPECT_DEATH(a.MergeFrom(b), "GSTREAM_CHECK");
}

TEST(MergeDeathTest, AmsRejectsDifferentSeeds) {
  const AmsOptions geometry{8, 3};
  Rng r1(1), r2(2);
  AmsSketch a(geometry, r1), b(geometry, r2);
  EXPECT_DEATH(a.MergeFrom(b), "GSTREAM_CHECK");
}

TEST(MergeDeathTest, AmsRejectsDifferentGeometry) {
  Rng r1(kSeed), r2(kSeed);
  AmsSketch a(AmsOptions{8, 3}, r1);
  AmsSketch b(AmsOptions{8, 5}, r2);
  EXPECT_DEATH(a.MergeFrom(b), "GSTREAM_CHECK");
}

// The candidate-union merge property: merging CountSketchTopK shards must
// leave (1) the inner counters bit-identical to a monolithic sketch
// (linearity) and (2) the candidate set equal to the k strongest of the
// candidate union under EstimateAll against the merged counters -- the
// documented merge rule, recomputed here independently through the public
// decode so any drift in MergeFrom's internals is caught.  Random shard
// splits; merges are folded left, maintaining the expected set by the same
// rule at every step.
TEST(MergeTest, TopKCandidateUnionMergeMatchesEstimateAllOverUnion) {
  const CountSketchOptions geometry{5, 512};
  constexpr size_t kK = 16;
  for (uint64_t trial = 0; trial < 8; ++trial) {
    Rng workload_rng(9100 + trial);
    StreamShapeOptions shape;
    shape.churn_pairs = 200;
    const Workload w = MakeZipfWorkload(1 << 12, 600, 1.2, 8000, shape,
                                        workload_rng);
    const size_t num_shards = 2 + trial % 4;  // 2..5 shards

    std::vector<CountSketchTopK> shards;
    for (size_t s = 0; s < num_shards; ++s) {
      Rng rng(kSeed);
      shards.emplace_back(geometry, kK, rng);
    }
    // Random split of the stream across the shards.
    Rng split_rng(7700 + trial);
    for (const Update& u : w.stream.updates()) {
      shards[split_rng.UniformUint64(num_shards)].Update(u.item, u.delta);
    }
    Rng mono_rng(kSeed);
    CountSketch monolithic(geometry, mono_rng);
    ProcessStream(monolithic, w.stream);

    // Fold-merge, maintaining the expected candidate set independently:
    // after each merge it must equal the k strongest of (previous expected
    // set union incoming shard's set) under merged-counter estimates.
    std::vector<ItemId> expected = shards[0].CandidateItems();
    for (size_t s = 1; s < num_shards; ++s) {
      std::vector<ItemId> unioned = expected;
      const std::vector<ItemId> incoming = shards[s].CandidateItems();
      unioned.insert(unioned.end(), incoming.begin(), incoming.end());
      std::sort(unioned.begin(), unioned.end());
      unioned.erase(std::unique(unioned.begin(), unioned.end()),
                    unioned.end());

      shards[0].MergeFrom(shards[s]);

      const std::vector<int64_t> estimates =
          shards[0].sketch().EstimateAll(unioned);
      std::vector<std::pair<ItemId, int64_t>> ranked;
      for (size_t i = 0; i < unioned.size(); ++i) {
        ranked.emplace_back(unioned[i], estimates[i]);
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) {
                  const int64_t aa = std::llabs(a.second);
                  const int64_t bb = std::llabs(b.second);
                  if (aa != bb) return aa > bb;
                  return a.first < b.first;
                });
      if (ranked.size() > kK) ranked.resize(kK);
      expected.clear();
      for (const auto& [item, est] : ranked) expected.push_back(item);
      std::sort(expected.begin(), expected.end());

      EXPECT_EQ(shards[0].CandidateItems(), expected)
          << "trial " << trial << " after merging shard " << s;
      // TopK must agree entry-for-entry with the independently ranked
      // union decode (same estimates, same order, same truncation).
      const auto top = shards[0].TopK();
      ASSERT_EQ(top.size(), ranked.size());
      for (size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i].first, ranked[i].first);
        EXPECT_EQ(top[i].second, ranked[i].second);
      }
    }
    // Linearity: merged counters == monolithic counters, so the final
    // estimates are whole-stream estimates.
    EXPECT_EQ(shards[0].sketch().counters(), monolithic.counters())
        << "trial " << trial;
  }
}

TEST(MergeDeathTest, TopKRejectsMismatchedK) {
  const CountSketchOptions geometry{3, 64};
  Rng r1(kSeed), r2(kSeed);  // same seed: the sketches themselves match
  CountSketchTopK a(geometry, /*k=*/8, r1);
  CountSketchTopK b(geometry, /*k=*/16, r2);
  EXPECT_DEATH(a.MergeFrom(b), "GSTREAM_CHECK");
}

TEST(MergeDeathTest, TopKRejectsDifferentSeeds) {
  const CountSketchOptions geometry{3, 64};
  Rng r1(1), r2(2);
  CountSketchTopK a(geometry, 8, r1), b(geometry, 8, r2);
  EXPECT_DEATH(a.MergeFrom(b), "GSTREAM_CHECK");
}

TEST(MergeDeathTest, TopKRejectsDifferentGeometry) {
  Rng r1(kSeed), r2(kSeed);
  CountSketchTopK a(CountSketchOptions{3, 64}, 8, r1);
  CountSketchTopK b(CountSketchOptions{3, 128}, 8, r2);
  EXPECT_DEATH(a.MergeFrom(b), "GSTREAM_CHECK");
}

// The g_np sketch's signed-bit sums are linear per trial, so same-seed
// shards must merge to exactly the monolithic counter state -- pinned by
// independent recomputation (elementwise shard sum) AND against a
// monolithic sketch, over random shard splits and fold-merges, mirroring
// the candidate-union property test below.
TEST(MergeTest, GnpShardedEqualsMonolithicOverRandomSplits) {
  GnpSketchOptions geometry;
  geometry.substreams = 32;
  geometry.trials = 12;
  geometry.id_bits = 12;
  for (uint64_t trial = 0; trial < 4; ++trial) {
    Rng workload_rng(9300 + trial);
    StreamShapeOptions shape;
    shape.churn_pairs = 150;
    const Workload w = MakeZipfWorkload(1 << 12, 400, 1.2, 4000, shape,
                                        workload_rng);
    const size_t num_shards = 2 + trial % 4;  // 2..5 shards

    Rng mono_rng(kSeed);
    GnpHeavyHitter monolithic(geometry, mono_rng);
    ProcessStream(monolithic, w.stream);

    std::vector<GnpHeavyHitter> shards;
    for (size_t s = 0; s < num_shards; ++s) {
      Rng rng(kSeed);
      shards.emplace_back(geometry, rng);
    }
    Rng split_rng(8800 + trial);
    for (const Update& u : w.stream.updates()) {
      shards[split_rng.UniformUint64(num_shards)].Update(u.item, u.delta);
    }
    // Independent recomputation: the shard counters must sum, elementwise,
    // to the monolithic counters (linearity) before any merge runs.
    std::vector<int64_t> summed(monolithic.counters().size(), 0);
    for (const GnpHeavyHitter& shard : shards) {
      for (size_t i = 0; i < summed.size(); ++i) {
        summed[i] += shard.counters()[i];
      }
    }
    EXPECT_EQ(summed, monolithic.counters()) << "trial " << trial;

    for (size_t s = 1; s < num_shards; ++s) shards[0].MergeFrom(shards[s]);
    EXPECT_EQ(shards[0].counters(), monolithic.counters())
        << "trial " << trial;
    EXPECT_EQ(shards[0].Fingerprint(), monolithic.Fingerprint());
  }
}

TEST(MergeDeathTest, GnpRejectsDifferentSeeds) {
  GnpSketchOptions geometry;
  geometry.substreams = 16;
  geometry.trials = 8;
  geometry.id_bits = 10;
  Rng r1(1), r2(2);
  GnpHeavyHitter a(geometry, r1), b(geometry, r2);
  EXPECT_DEATH(a.MergeFrom(b), "GSTREAM_CHECK");
}

TEST(MergeDeathTest, GnpRejectsDifferentSubstreams) {
  GnpSketchOptions narrow, wide;
  narrow.substreams = 16;
  wide.substreams = 32;
  Rng r1(kSeed), r2(kSeed);
  GnpHeavyHitter a(narrow, r1), b(wide, r2);
  EXPECT_DEATH(a.MergeFrom(b), "GSTREAM_CHECK");
}

TEST(MergeDeathTest, GnpRejectsDifferentTrials) {
  GnpSketchOptions few, many;
  few.trials = 8;
  many.trials = 16;
  Rng r1(kSeed), r2(kSeed);
  GnpHeavyHitter a(few, r1), b(many, r2);
  EXPECT_DEATH(a.MergeFrom(b), "GSTREAM_CHECK");
}

TEST(MergeDeathTest, GnpTypeErasedMergeRejectsForeignType) {
  // The GHeavyHitterSketch-level merge must die on a dynamic-type
  // mismatch, not reinterpret another sketch's counters.
  GnpSketchOptions geometry;
  Rng r1(kSeed);
  GnpHeavyHitter gnp(geometry, r1);
  ExactHeavyHitterSketch exact;
  GHeavyHitterSketch& erased = gnp;
  EXPECT_DEATH(erased.MergeFrom(exact), "GSTREAM_CHECK");
}

}  // namespace
}  // namespace gstream
