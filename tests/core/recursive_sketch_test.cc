#include "core/recursive_sketch.h"

#include <gtest/gtest.h>

#include "core/one_pass_hh.h"
#include "core/two_pass_hh.h"
#include "gfunc/catalog.h"
#include "stream/exact.h"
#include "stream/generators.h"
#include "util/stats.h"

namespace gstream {
namespace {

GHeavyHitterFactory ExactFactory() {
  return [](int /*level*/, Rng& /*rng*/) {
    return std::make_unique<ExactHeavyHitterSketch>();
  };
}

// The telescoping identity: with complete, exact covers at every level, the
// recursive estimator X_0 equals the exact g-SUM *identically* -- every
// 2*(X_{l+1} - overlap) term cancels.  This pins the estimator algebra.
TEST(RecursiveSketchTest, ExactCoversGiveExactSum) {
  Rng data_rng(1);
  const Workload w = MakeZipfWorkload(1 << 10, 300, 1.1, 1000,
                                      StreamShapeOptions{}, data_rng);
  const GFunctionPtr g = MakeX2Log();
  for (const int levels : {0, 1, 4, 8}) {
    Rng rng(42);
    RecursiveGSum sketch(levels, ExactFactory(), rng);
    for (const Update& u : w.stream.updates()) sketch.Update(u.item, u.delta);
    EXPECT_NEAR(sketch.Estimate(*g),
                ExactGSum(w.frequencies, g->AsCallable()),
                1e-6 * ExactGSum(w.frequencies, g->AsCallable()))
        << "levels=" << levels;
  }
}

TEST(RecursiveSketchTest, ExactCoversExactForSeveralFunctions) {
  Rng data_rng(2);
  const Workload w = MakeUniformWorkload(1 << 10, 400, 1, 500,
                                         StreamShapeOptions{}, data_rng);
  Rng rng(7);
  RecursiveGSum sketch(6, ExactFactory(), rng);
  for (const Update& u : w.stream.updates()) sketch.Update(u.item, u.delta);
  for (const GFunctionPtr& g :
       {MakePower(1.0), MakePower(2.0), MakeIndicator(), MakeSpamClickFee(16),
        MakeGnp()}) {
    SCOPED_TRACE(g->name());
    const double truth = ExactGSum(w.frequencies, g->AsCallable());
    EXPECT_NEAR(sketch.Estimate(*g), truth, 1e-6 * truth);
  }
}

TEST(RecursiveSketchTest, EstimateIsNonNegative) {
  Rng rng(3);
  RecursiveGSum sketch(4, ExactFactory(), rng);
  // Empty stream: estimate must clamp to 0, not drift negative.
  EXPECT_DOUBLE_EQ(sketch.Estimate(*MakePower(2.0)), 0.0);
}

TEST(RecursiveSketchTest, RoutesUpdatesToNestedLevels) {
  Rng rng(4);
  RecursiveGSum sketch(3, ExactFactory(), rng);
  sketch.Update(5, 10);
  // Level 0 always sees the item, so even a 1-item stream estimates g
  // exactly regardless of the deeper levels' sampling.
  const GFunctionPtr g = MakePower(2.0);
  EXPECT_DOUBLE_EQ(sketch.Estimate(*g), 100.0);
}

// End-to-end with the real two-pass heavy hitter subroutine: the estimate
// concentrates around the truth on a skewed workload.
TEST(RecursiveSketchTest, TwoPassSubroutineConcentrates) {
  Rng data_rng(5);
  const Workload w = MakeZipfWorkload(1 << 12, 1000, 1.3, 50000,
                                      StreamShapeOptions{}, data_rng);
  const GFunctionPtr g = MakePower(2.0);
  const double truth = ExactGSum(w.frequencies, g->AsCallable());

  TwoPassHHOptions hh;
  hh.count_sketch = {5, 1024};
  hh.candidates = 48;
  const GHeavyHitterFactory factory = [hh](int /*level*/, Rng& rng) {
    return std::make_unique<TwoPassHeavyHitter>(hh, rng);
  };

  Rng rng(6);
  std::vector<double> errors;
  for (int trial = 0; trial < 7; ++trial) {
    RecursiveGSum sketch(6, factory, rng);
    for (const Update& u : w.stream.updates()) sketch.Update(u.item, u.delta);
    sketch.AdvancePass();
    for (const Update& u : w.stream.updates()) sketch.Update(u.item, u.delta);
    errors.push_back(RelativeError(sketch.Estimate(*g), truth));
  }
  EXPECT_LE(Median(errors), 0.25);
}

// Merging same-seed stacks that processed a random split of the stream
// must reproduce the monolithic estimate: with exact covers the per-level
// merges are exact frequency sums, so the telescoping identity still
// cancels and the merged estimate equals the exact g-SUM.
TEST(RecursiveSketchTest, MergedShardsReproduceMonolithicEstimate) {
  Rng data_rng(11);
  const Workload w = MakeUniformWorkload(1 << 10, 300, 1, 200,
                                         StreamShapeOptions{}, data_rng);
  const GFunctionPtr g = MakePower(2.0);
  const double truth = ExactGSum(w.frequencies, g->AsCallable());
  constexpr int kLevels = 5;
  constexpr size_t kShards = 3;

  Rng proto_rng(77);
  RecursiveGSum prototype(kLevels, ExactFactory(), proto_rng);
  std::vector<RecursiveGSum> shards;
  for (size_t s = 0; s < kShards; ++s) shards.push_back(prototype.Replicate());
  Rng split_rng(78);
  for (const Update& u : w.stream.updates()) {
    shards[split_rng.UniformUint64(kShards)].Update(u.item, u.delta);
  }
  for (size_t s = 1; s < kShards; ++s) shards[0].MergeFrom(shards[s]);
  EXPECT_NEAR(shards[0].Estimate(*g), truth, 1e-6 * truth);
  // Replicas share the prototype's randomness.
  EXPECT_EQ(shards[0].Fingerprint(), prototype.Fingerprint());
}

TEST(RecursiveSketchDeathTest, MergeRejectsDifferentSeeds) {
  // Different-seed stacks subsample the domain differently; the
  // subsampler-fingerprint guard must refuse to fold their levels.
  Rng r1(1), r2(2);
  RecursiveGSum a(4, ExactFactory(), r1);
  RecursiveGSum b(4, ExactFactory(), r2);
  EXPECT_DEATH(a.MergeFrom(b), "GSTREAM_CHECK");
}

TEST(RecursiveSketchDeathTest, MergeRejectsDifferentDepths) {
  Rng r1(1), r2(1);
  RecursiveGSum shallow(2, ExactFactory(), r1);
  RecursiveGSum deep(4, ExactFactory(), r2);
  EXPECT_DEATH(shallow.MergeFrom(deep), "GSTREAM_CHECK");
}

TEST(RecursiveSketchTest, SpaceSumsOverLevels) {
  Rng rng(8);
  RecursiveGSum shallow(1, ExactFactory(), rng);
  RecursiveGSum deep(9, ExactFactory(), rng);
  shallow.Update(1, 5);
  deep.Update(1, 5);
  EXPECT_GT(deep.SpaceBytes(), shallow.SpaceBytes());
}

TEST(RecursiveSketchTest, PassesReflectSubroutine) {
  Rng rng(9);
  RecursiveGSum exact(2, ExactFactory(), rng);
  EXPECT_EQ(exact.passes(), 1);
  TwoPassHHOptions hh;
  const GHeavyHitterFactory factory = [hh](int, Rng& r) {
    return std::make_unique<TwoPassHeavyHitter>(hh, r);
  };
  RecursiveGSum two(2, factory, rng);
  EXPECT_EQ(two.passes(), 2);
}

// A stack shaped like the gsum_replay benchmark's (15 levels, CountSketch
// 5x1024, AMS 32x5, 48 candidates).  Each level's AMS draws and drops the
// coefficients its bit signs retired, so every level's tracker is drawn
// from the Rng state it had when each estimator owned a 4-wise row; the
// fingerprints were recorded from that layout.
TEST(RecursiveSketchTest, AmsBitSignsLeaveLaterDrawsUnchanged) {
  constexpr uint64_t kTrackerFingerprints[] = {
      0xb189fff751424f97ULL, 0x56a2afefc5d68553ULL, 0xa32944a397e07c65ULL,
      0x57708d24543f8d05ULL, 0x67de9711152b1048ULL, 0x31553c8937ae7d93ULL,
      0x46b8324fd5ec7926ULL, 0x51df6e06ab925665ULL, 0xe5d341951c7d009fULL,
      0x699ec2f8a01d08fdULL, 0x5e181d91bf48215bULL, 0xf6ff4e02db40a00bULL,
      0xb258394776788e21ULL, 0xfcd1f9632dc74e25ULL, 0x2818a23bea8b2166ULL,
      0x7a199bb81ed285a7ULL,
  };
  OnePassHHOptions level;
  level.count_sketch = CountSketchOptions{5, 1024};
  level.ams = AmsOptions{32, 5};
  level.candidates = 48;
  Rng rng(0x5eed);
  const RecursiveGSum stack(
      15,
      [level](int, Rng& r) {
        return std::make_unique<OnePassHeavyHitter>(level, r);
      },
      rng);
  ASSERT_EQ(static_cast<size_t>(stack.levels()) + 1,
            std::size(kTrackerFingerprints));
  for (int l = 0; l <= stack.levels(); ++l) {
    const auto& hh =
        dynamic_cast<const OnePassHeavyHitter&>(stack.level_sketch(l));
    EXPECT_EQ(hh.tracker().Fingerprint(), kTrackerFingerprints[l])
        << "level " << l;
  }
  EXPECT_EQ(rng.NextUint64(), 0x65456e8ee9785c39ULL);
}

}  // namespace
}  // namespace gstream
