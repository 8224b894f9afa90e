// Tier-equivalence pins for the runtime-dispatched SIMD hash kernels
// (util/simd/): every ISA tier must agree with the scalar reference tier
// bit-for-bit -- raw kernel outputs, sketch counters, estimates,
// fingerprints, and the merge pins -- because Mersenne-61 arithmetic is
// exact in every tier and all outputs are canonicalized.  Tiers the
// build or host cannot run are skipped, so the suite passes on scalar-only
// hosts and degrades to the scalar-vs-scalar case under
// -DGSTREAM_SIMD=OFF.  ForceIsaTier overrides the GSTREAM_FORCE_ISA
// environment variable, so this file always exercises every runnable
// tier; the CI forced-scalar leg additionally re-runs the batch
// equivalence / merge / engine pins with the env override active, which
// is what pins the dispatcher's override path end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/gnp_sketch.h"
#include "sketch/ams.h"
#include "sketch/count_sketch.h"
#include "sketch/linear_sketch.h"
#include "stream/generators.h"
#include "util/simd/simd_dispatch.h"
#include "util/simd/simd_scalar_ref.h"

namespace gstream {
namespace {

using simd::IsaTier;

Stream MakeTurnstileStream(uint64_t seed, uint64_t domain = 1 << 12,
                           size_t items = 800) {
  Rng rng(seed);
  StreamShapeOptions shape;
  shape.churn_pairs = 400;
  return MakeZipfWorkload(domain, items, 1.1, 6000, shape, rng).stream;
}

class SimdDispatchTest : public ::testing::TestWithParam<IsaTier> {
 protected:
  void SetUp() override {
    if (!simd::IsaTierAvailable(GetParam())) {
      GTEST_SKIP() << "tier " << simd::IsaTierName(GetParam())
                   << " not available on this build/host";
    }
  }
  // Restore CPUID dispatch so later tests see the production
  // configuration.
  void TearDown() override { simd::ClearForcedIsaTier(); }
};

TEST_P(SimdDispatchTest, ForceAndClearRoundTrip) {
  ASSERT_TRUE(simd::ForceIsaTier(GetParam()));
  EXPECT_EQ(simd::ActiveIsaTier(), GetParam());
  simd::ClearForcedIsaTier();
  // After clearing, the active tier is whatever detection (plus any
  // GSTREAM_FORCE_ISA override) picks -- it must at least be available.
  EXPECT_TRUE(simd::IsaTierAvailable(simd::ActiveIsaTier()));
}

// Raw kernel outputs against the scalar reference functions, on sizes that
// exercise the lane tails (n % 8 != 0) and both bucket-range forms
// (power-of-two and general ranges).
TEST_P(SimdDispatchTest, KernelOpsMatchScalarReference) {
  ASSERT_TRUE(simd::ForceIsaTier(GetParam()));
  const simd::SimdOps& ops = simd::Ops();
  Rng rng(0x5eed);
  const size_t n = 517;  // odd: every kernel runs its tail path
  std::vector<Update> ups(n);
  for (Update& u : ups) {
    u.item = rng.UniformUint64(~uint64_t{0});  // full 64-bit keys
    u.delta = static_cast<int64_t>(rng.UniformInt(-5, 5));
  }
  const uint64_t c0 = rng.UniformUint64(kMersenne61);
  const uint64_t c1 = rng.UniformUint64(kMersenne61);
  const uint64_t c2 = rng.UniformUint64(kMersenne61);
  const uint64_t c3 = rng.UniformUint64(kMersenne61);

  // Reference powers and hashes from the scalar functions.
  std::vector<uint64_t> rxm(n), rx2(n), rx3(n), rh(n);
  std::vector<int64_t> rdelta(n);
  simd::ScalarPrepareBatch(ups.data(), n, rxm.data(), rx2.data(), rx3.data(),
                           rdelta.data());
  simd::ScalarEval4Row(c0, c1, c2, c3, rxm.data(), rx2.data(), rx3.data(), n,
                       rh.data());

  // Tier powers: lazy representatives may differ, canonical hashes must
  // not.
  std::vector<uint64_t> xm(n), x2(n), x3(n), h(n);
  std::vector<int64_t> delta(n);
  ops.prepare_batch(ups.data(), n, xm.data(), x2.data(), x3.data(),
                    delta.data());
  EXPECT_EQ(delta, rdelta);
  ops.eval4_row(c0, c1, c2, c3, xm.data(), x2.data(), x3.data(), n, h.data());
  EXPECT_EQ(h, rh);

  // prepare_batch2 feeds the 2-wise kernels below, as in gnp;
  // field_powers feeds the same canonical 4-wise chain as prepare_batch.
  std::vector<uint64_t> xm2(n);
  ops.prepare_batch2(ups.data(), n, xm2.data(), delta.data());
  EXPECT_EQ(delta, rdelta);
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = ups[i].item;
  ops.field_powers(keys.data(), n, xm.data(), x2.data(), x3.data());
  ops.eval4_row(c0, c1, c2, c3, xm.data(), x2.data(), x3.data(), n, h.data());
  EXPECT_EQ(h, rh);

  for (const uint64_t range : {uint64_t{1024}, uint64_t{997}, uint64_t{1}}) {
    std::vector<uint32_t> idx(n), ridx(n);
    std::vector<int64_t> sd(n), rsd(n);
    ops.eval4_bucket(c0, c1, c2, c3, xm.data(), x2.data(), x3.data(),
                     delta.data(), range, n, idx.data(), sd.data());
    simd::ScalarEval4Bucket(c0, c1, c2, c3, rxm.data(), rx2.data(),
                            rx3.data(), delta.data(), range, n, ridx.data(),
                            rsd.data());
    EXPECT_EQ(idx, ridx) << "range " << range;
    EXPECT_EQ(sd, rsd) << "range " << range;

    ops.eval2_bucket(c0, c1, xm2.data(), range, n, idx.data());
    simd::ScalarEval2Bucket(c0, c1, rxm.data(), range, n, ridx.data());
    EXPECT_EQ(idx, ridx) << "range " << range;
  }

  std::vector<uint64_t> masks(n, 0), rmasks(n, 0);
  for (unsigned bit : {0u, 7u, 63u}) {
    ops.eval2_parity_or(c0, c1, xm2.data(), n, bit, masks.data());
    simd::ScalarEval2ParityOr(c0, c1, rxm.data(), n, bit, rmasks.data());
  }
  EXPECT_EQ(masks, rmasks);
}

// The AMS accumulation against the scalar reference: every count the
// kernel accepts (1..64, so every partial lane group), full 64-bit hash
// words, blocks of 0, 1, 7 and 517 items, and deltas at the int64
// extremes, where only wraparound arithmetic is exact.  A sentinel past
// `count` must come back untouched.
TEST_P(SimdDispatchTest, BitSignedSumsMatchScalarReference) {
  ASSERT_TRUE(simd::ForceIsaTier(GetParam()));
  const simd::SimdOps& ops = simd::Ops();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kSentinel = 0x5a5a5a5a5a5a5a5aLL;
  Rng rng(0xb175);
  const size_t n_max = 517;
  std::vector<uint64_t> h(n_max);
  std::vector<int64_t> small(n_max), extreme(n_max);
  for (size_t i = 0; i < n_max; ++i) {
    h[i] = rng.NextUint64();
    small[i] = static_cast<int64_t>(rng.UniformInt(-5, 5));
    const int64_t picks[] = {kMin, kMax, kMin + 1, -1, 1};
    extreme[i] = picks[rng.UniformUint64(5)];
  }
  for (const std::vector<int64_t>* delta : {&small, &extreme}) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, n_max}) {
      for (size_t count = 1; count <= 64; ++count) {
        SCOPED_TRACE(testing::Message() << "n " << n << " count " << count);
        std::vector<int64_t> sums(count + 8, kSentinel), ref(count + 8);
        for (size_t j = 0; j < count; ++j) {
          sums[j] = static_cast<int64_t>(rng.NextUint64());
        }
        ref = sums;
        ops.bit_signed_sums(h.data(), delta->data(), n, count, sums.data());
        simd::ScalarBitSignedSums(h.data(), delta->data(), n, count,
                                  ref.data());
        ASSERT_EQ(sums, ref);
        for (size_t j = count; j < sums.size(); ++j) {
          ASSERT_EQ(sums[j], kSentinel);
        }
      }
    }
  }
}

// Whole-sketch states: counters, estimates, and fingerprints after a
// batched pass must be bit-identical to the same pass under the scalar
// tier.
TEST_P(SimdDispatchTest, SketchStatesMatchScalarTier) {
  const Stream stream = MakeTurnstileStream(0xd15b);
  std::vector<ItemId> probes;
  for (ItemId i = 0; i < 64; ++i) probes.push_back(i * 61 + 3);

  // Reference pass under the scalar tier.
  ASSERT_TRUE(simd::ForceIsaTier(IsaTier::kScalar));
  Rng r1(31);
  CountSketch cs_ref(CountSketchOptions{5, 320}, r1);  // non-pow-2 buckets
  ProcessStream(cs_ref, stream);
  const std::vector<int64_t> cs_est_ref = cs_ref.EstimateAll(probes);
  Rng r3(33);
  AmsSketch ams_ref(AmsOptions{16, 5}, r3);
  ProcessStream(ams_ref, stream);
  GnpSketchOptions gnp_options;
  gnp_options.substreams = 24;
  gnp_options.trials = 10;
  gnp_options.id_bits = 12;
  Rng r4(34);
  GnpHeavyHitter gnp_ref(gnp_options, r4);
  ProcessStream(gnp_ref, stream);

  // Same-seed pass under the tier being tested.
  ASSERT_TRUE(simd::ForceIsaTier(GetParam()));
  Rng t1(31);
  CountSketch cs(CountSketchOptions{5, 320}, t1);
  ProcessStream(cs, stream);
  EXPECT_EQ(cs.Fingerprint(), cs_ref.Fingerprint());
  EXPECT_EQ(cs.counters(), cs_ref.counters());
  EXPECT_EQ(cs.EstimateAll(probes), cs_est_ref);
  EXPECT_DOUBLE_EQ(cs.EstimateF2(), cs_ref.EstimateF2());

  Rng t3(33);
  AmsSketch ams(AmsOptions{16, 5}, t3);
  ProcessStream(ams, stream);
  EXPECT_EQ(ams.Fingerprint(), ams_ref.Fingerprint());
  EXPECT_EQ(ams.sums(), ams_ref.sums());
  EXPECT_DOUBLE_EQ(ams.EstimateF2(), ams_ref.EstimateF2());

  Rng t4(34);
  GnpHeavyHitter gnp(gnp_options, t4);
  ProcessStream(gnp, stream);
  EXPECT_EQ(gnp.Fingerprint(), gnp_ref.Fingerprint());
  EXPECT_EQ(gnp.counters(), gnp_ref.counters());
}

// The batch/single pin under a forced tier: the vector UpdateBatch must
// leave exactly the state of the scalar per-update loop, for uneven
// chunkings.
TEST_P(SimdDispatchTest, BatchSingleEquivalenceUnderForcedTier) {
  ASSERT_TRUE(simd::ForceIsaTier(GetParam()));
  const Stream stream = MakeTurnstileStream(0xbeef);
  Rng r1(7), r2(7);
  CountSketch single(CountSketchOptions{4, 256}, r1);
  CountSketch batched(CountSketchOptions{4, 256}, r2);
  for (const Update& u : stream.updates()) single.Update(u.item, u.delta);
  const auto& ups = stream.updates();
  size_t consumed = 0, chunk = 3;
  while (consumed < ups.size()) {
    const size_t m = std::min(chunk, ups.size() - consumed);
    batched.UpdateBatch(ups.data() + consumed, m);
    consumed += m;
    chunk = chunk * 2 + 1;  // 3, 7, 15, ... never lane-aligned
  }
  EXPECT_EQ(single.counters(), batched.counters());
}

// The merge pin under a forced tier: shard + merge == monolithic, both
// linear counters and the candidate-union top-k decode.
TEST_P(SimdDispatchTest, MergePinsHoldUnderForcedTier) {
  ASSERT_TRUE(simd::ForceIsaTier(GetParam()));
  const Stream left = MakeTurnstileStream(0xaaa1);
  const Stream right = MakeTurnstileStream(0xaaa2);
  Stream both(left.domain());
  both.AppendStream(left);
  both.AppendStream(right);

  Rng ra(21), rb(21), rc(21);
  CountSketch shard_a(CountSketchOptions{5, 512}, ra);
  CountSketch shard_b(CountSketchOptions{5, 512}, rb);
  CountSketch reference(CountSketchOptions{5, 512}, rc);
  ProcessStream(shard_a, left);
  ProcessStream(shard_b, right);
  ProcessStream(reference, both);
  shard_a.MergeFrom(shard_b);
  EXPECT_EQ(shard_a.counters(), reference.counters());

  // Same-seed trackers (the inner sketch consumes the Rng exactly like a
  // bare CountSketch, so a seed-22 CountSketch is the monolithic
  // reference for seed-22 trackers).
  Rng rd(22), re(22), rf(22);
  CountSketchTopK topk_a(CountSketchOptions{5, 512}, 12, rd);
  CountSketchTopK topk_b(CountSketchOptions{5, 512}, 12, re);
  CountSketch topk_reference(CountSketchOptions{5, 512}, rf);
  ProcessStream(topk_a, left);
  ProcessStream(topk_b, right);
  ProcessStream(topk_reference, both);
  topk_a.MergeFrom(topk_b);
  // The merged counters are whole-stream counters, so the re-estimated
  // survivors must match a monolithic decode of the same candidate union.
  EXPECT_EQ(topk_a.sketch().counters(), topk_reference.counters());
  const std::vector<ItemId> candidates = topk_a.CandidateItems();
  const std::vector<int64_t> estimates =
      topk_reference.EstimateAll(candidates);
  const std::vector<int64_t> merged_estimates =
      topk_a.sketch().EstimateAll(candidates);
  EXPECT_EQ(merged_estimates, estimates);
}

// Whole-sketch conflict storms: streams whose batches are adversarial
// duplicate-bucket patterns, pinned batch == single under the forced tier.
// This drives every duplicate fold through CountSketch's signed scatter
// pass and the duplicate-probe decode.
TEST_P(SimdDispatchTest, SketchConflictStormBatchSinglePin) {
  ASSERT_TRUE(simd::ForceIsaTier(GetParam()));
  Rng srng(0x5701);
  std::vector<Update> ups;
  // Deltas at the int64 extremes on one key first, while every counter is
  // still zero: each partial sum stays in range, so the duplicate fold is
  // exact.  Then one hot key for a full block, two alternating keys, runs
  // of kSimdBlock duplicates of rotating keys, and a skewed-random coda.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  for (size_t i = 0; i < 32; ++i) {
    ups.push_back(Update{5, (i & 1) ? kMax : kMin + 7});
  }
  for (size_t i = 0; i < simd::kSimdBlock; ++i) {
    ups.push_back(Update{42, (i & 1) ? int64_t{3} : int64_t{-2}});
  }
  for (size_t i = 0; i < simd::kSimdBlock; ++i) {
    ups.push_back(Update{(i & 1) ? ItemId{17} : ItemId{4099}, int64_t{1}});
  }
  for (size_t run = 0; run < 3; ++run) {
    for (size_t i = 0; i < simd::kSimdBlock; ++i) {
      ups.push_back(Update{ItemId{1000 + run},
                           static_cast<int64_t>(srng.UniformInt(-4, 4))});
    }
  }
  for (size_t i = 0; i < 700; ++i) {
    ups.push_back(Update{static_cast<ItemId>(srng.UniformInt(0, 7)),
                         static_cast<int64_t>(srng.UniformInt(-9, 9))});
  }

  Rng r1(77), r2(77);
  CountSketch cs_single(CountSketchOptions{4, 320}, r1);
  CountSketch cs_batched(CountSketchOptions{4, 320}, r2);
  for (const Update& u : ups) cs_single.Update(u.item, u.delta);
  // Deliberately uneven chunking so block boundaries cut duplicate runs.
  size_t consumed = 0, chunk = 5;
  while (consumed < ups.size()) {
    const size_t m = std::min(chunk, ups.size() - consumed);
    cs_batched.UpdateBatch(ups.data() + consumed, m);
    consumed += m;
    chunk = chunk * 2 + 1;
  }
  EXPECT_EQ(cs_single.counters(), cs_batched.counters());

  // The gather_signed decode path: duplicate probes in one batch.
  std::vector<ItemId> probes(130, ItemId{42});
  for (size_t i = 0; i < probes.size(); i += 3) probes[i] = 17;
  EXPECT_EQ(cs_single.EstimateAll(probes), cs_batched.EstimateAll(probes));
}

// Regression for the >64-trial gnp geometry: the batched path packs trial
// indicators into ceil(trials/64) mask words per item instead of falling
// back to the per-update loop, and must stay bit-identical to Update().
TEST_P(SimdDispatchTest, GnpManyTrialsBatchedMatchesSingle) {
  ASSERT_TRUE(simd::ForceIsaTier(GetParam()));
  const Stream stream = MakeTurnstileStream(0x9b9b, 1 << 10, 600);
  for (const size_t trials : {size_t{70}, size_t{130}}) {
    GnpSketchOptions options;
    options.substreams = 16;
    options.trials = trials;  // 2 and 3 mask words
    options.id_bits = 10;
    Rng r1(55), r2(55);
    GnpHeavyHitter single(options, r1);
    GnpHeavyHitter batched(options, r2);
    ASSERT_EQ(single.Fingerprint(), batched.Fingerprint());
    const auto& ups = stream.updates();
    for (const Update& u : ups) single.Update(u.item, u.delta);
    size_t consumed = 0, chunk = 3;
    while (consumed < ups.size()) {
      const size_t m = std::min(chunk, ups.size() - consumed);
      batched.UpdateBatch(ups.data() + consumed, m);
      consumed += m;
      chunk = chunk * 2 + 1;
    }
    EXPECT_EQ(single.counters(), batched.counters())
        << "trials = " << trials;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, SimdDispatchTest,
    ::testing::Values(IsaTier::kScalar, IsaTier::kAvx2, IsaTier::kAvx512),
    [](const ::testing::TestParamInfo<IsaTier>& info) {
      return simd::IsaTierName(info.param);
    });

}  // namespace
}  // namespace gstream
