#include "core/gnp_sketch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/recursive_sketch.h"
#include "gfunc/catalog.h"
#include "stream/exact.h"
#include "stream/generators.h"
#include "util/stats.h"

namespace gstream {
namespace {

GnpSketchOptions TestOptions() {
  GnpSketchOptions options;
  options.substreams = 64;
  options.trials = 32;
  options.id_bits = 16;
  return options;
}

TEST(GnpSketchTest, RecoversSingleItem) {
  Rng rng(1);
  GnpHeavyHitter hh(TestOptions(), rng);
  hh.Update(/*item=*/12345, /*delta=*/48);  // 48 = 16*3: i_v = 4
  const GCover cover = hh.Cover(*MakeGnp());
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].item, 12345u);
  EXPECT_FALSE(cover[0].has_frequency);
  EXPECT_DOUBLE_EQ(cover[0].g_value, std::exp2(-4.0));
}

TEST(GnpSketchTest, RecoversGnpValueNotFrequency) {
  Rng rng(2);
  for (const int64_t freq : {1, 2, 3, 12, 40, 1024, 999}) {
    GnpHeavyHitter hh(TestOptions(), rng);
    hh.Update(777, freq);
    const GCover cover = hh.Cover(*MakeGnp());
    ASSERT_EQ(cover.size(), 1u) << "freq=" << freq;
    EXPECT_DOUBLE_EQ(cover[0].g_value, MakeGnp()->Value(freq))
        << "freq=" << freq;
  }
}

TEST(GnpSketchTest, NegativeFrequencySameGnpValue) {
  Rng rng(3);
  GnpHeavyHitter hh(TestOptions(), rng);
  hh.Update(555, -48);
  const GCover cover = hh.Cover(*MakeGnp());
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_DOUBLE_EQ(cover[0].g_value, std::exp2(-4.0));
}

TEST(GnpSketchTest, SeparatedItemsAllRecovered) {
  Rng rng(4);
  GnpHeavyHitter hh(TestOptions(), rng);
  // A handful of items with distinct low-bit structure; with 64 substreams
  // they land in distinct substreams with high probability for this seed.
  const std::vector<std::pair<ItemId, int64_t>> items = {
      {10, 5}, {200, 6}, {3000, 40}, {40000, 1024}};
  for (const auto& [id, freq] : items) hh.Update(id, freq);
  const GCover cover = hh.Cover(*MakeGnp());
  EXPECT_GE(cover.size(), 3u);  // allow one collision casualty
  for (const GCoverEntry& e : cover) {
    bool known = false;
    for (const auto& [id, freq] : items) {
      if (e.item == id) {
        known = true;
        EXPECT_DOUBLE_EQ(e.g_value, MakeGnp()->Value(freq));
      }
    }
    EXPECT_TRUE(known) << "spurious item " << e.item;
  }
}

TEST(GnpSketchTest, NoFalseReportsOnCancelledStream) {
  Rng rng(5);
  GnpHeavyHitter hh(TestOptions(), rng);
  for (ItemId i = 0; i < 50; ++i) {
    hh.Update(i, 64);
    hh.Update(i, -64);
  }
  EXPECT_TRUE(hh.Cover(*MakeGnp()).empty());
}

TEST(GnpSketchTest, ReportedEntriesAreNeverWrong) {
  // Even under heavy collision pressure (few substreams), the consistency
  // checks mean reported (item, value) pairs are correct -- failures
  // manifest as omissions, not fabrications.
  Rng data_rng(6);
  const Workload w = MakeUniformWorkload(1 << 14, 200, 1, 2000,
                                         StreamShapeOptions{}, data_rng);
  Rng rng(7);
  GnpSketchOptions options = TestOptions();
  options.substreams = 16;  // deliberately undersized
  GnpHeavyHitter hh(options, rng);
  ProcessStream(hh, w.stream);
  const GFunctionPtr gnp = MakeGnp();
  for (const GCoverEntry& e : hh.Cover(*gnp)) {
    ASSERT_TRUE(w.frequencies.contains(e.item)) << "item " << e.item;
    EXPECT_DOUBLE_EQ(e.g_value,
                     gnp->ValueAbs(w.frequencies.at(e.item)));
  }
}

// End-to-end Proposition 54: the g_np sketch plugged into the recursive
// sketch (Theorem 13) estimates g_np-SUM in one pass.
TEST(GnpSketchTest, GnpSumThroughRecursiveSketch) {
  Rng data_rng(8);
  const Workload w = MakeUniformWorkload(1 << 14, 256, 1, 4096,
                                         StreamShapeOptions{}, data_rng);
  const GFunctionPtr gnp = MakeGnp();
  const double truth = ExactGSum(w.frequencies, gnp->AsCallable());

  GnpSketchOptions options = TestOptions();
  options.substreams = 128;
  const GHeavyHitterFactory factory = [options](int /*level*/, Rng& rng) {
    return std::make_unique<GnpHeavyHitter>(options, rng);
  };
  Rng rng(9);
  std::vector<double> errors;
  for (int trial = 0; trial < 5; ++trial) {
    RecursiveGSum sketch(/*levels=*/5, factory, rng);
    for (const Update& u : w.stream.updates()) sketch.Update(u.item, u.delta);
    errors.push_back(RelativeError(sketch.Estimate(*gnp), truth));
  }
  EXPECT_LE(Median(errors), 0.4);
}

TEST(GnpSketchTest, SpaceAccountsCountersAndHashes) {
  Rng rng(10);
  GnpSketchOptions options = TestOptions();
  GnpHeavyHitter hh(options, rng);
  const size_t counters =
      options.substreams * options.trials *
      (static_cast<size_t>(options.id_bits) + 1) * sizeof(int64_t);
  EXPECT_GE(hh.SpaceBytes(), counters);
}

TEST(GnpSketchTest, UpdateAndMergeWrapAtInt64Edge) {
  // Counters are sums mod 2^64: Update, UpdateBatch and MergeFrom all
  // wrap at the int64 edge to the same counters (the sanitizer leg sees
  // no signed overflow).  A unit-delta probe shows which counters each
  // update touches.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<Update> ups = {
      {1, kMax}, {1, kMax}, {2, kMin}, {3, kMin}, {2, 5}, {3, kMax}};
  GnpSketchOptions options;
  options.substreams = 2;
  options.trials = 8;
  options.id_bits = 2;
  const auto make = [&options] {
    Rng rng(15);
    return GnpHeavyHitter(options, rng);
  };
  std::vector<uint64_t> expected(make().counters().size(), 0);
  for (const Update& u : ups) {
    GnpHeavyHitter probe = make();
    probe.Update(u.item, 1);
    for (size_t c = 0; c < expected.size(); ++c) {
      expected[c] += static_cast<uint64_t>(probe.counters()[c]) *
                     static_cast<uint64_t>(u.delta);
    }
  }
  GnpHeavyHitter single = make();
  for (const Update& u : ups) single.Update(u.item, u.delta);
  GnpHeavyHitter batched = make();
  batched.UpdateBatch(ups.data(), ups.size());
  for (size_t c = 0; c < expected.size(); ++c) {
    EXPECT_EQ(static_cast<uint64_t>(single.counters()[c]), expected[c]);
    EXPECT_EQ(batched.counters()[c], single.counters()[c]);
  }
  single.MergeFrom(batched);
  for (size_t c = 0; c < expected.size(); ++c) {
    EXPECT_EQ(static_cast<uint64_t>(single.counters()[c]), 2 * expected[c]);
  }
}

TEST(GnpSketchDeathTest, SinglePassOnly) {
  Rng rng(11);
  GnpHeavyHitter hh(TestOptions(), rng);
  EXPECT_DEATH(hh.AdvancePass(), "GSTREAM_CHECK");
}

}  // namespace
}  // namespace gstream
