// Batch/single equivalence: UpdateBatch must leave every sketch's linear
// state bit-identical to the equivalent sequence of Update calls, for any
// chunking of the stream.  This is the contract that lets ProcessStream
// drive whole passes through the batched kernels (linear_sketch.h), and it
// must survive any future kernel rewrite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/gnp_sketch.h"
#include "core/gsum.h"
#include "core/one_pass_hh.h"
#include "core/recursive_sketch.h"
#include "core/two_pass_hh.h"
#include "gfunc/catalog.h"
#include "sketch/ams.h"
#include "sketch/count_sketch.h"
#include "sketch/linear_sketch.h"
#include "sketch/subsampler.h"
#include "stream/exact.h"
#include "stream/generators.h"

namespace gstream {
namespace {

// A random turnstile stream: Zipf base frequencies plus churn (matched
// +d/-d pairs), shuffled.
Stream MakeTurnstileStream(uint64_t seed, uint64_t domain = 1 << 12,
                           size_t items = 800) {
  Rng rng(seed);
  StreamShapeOptions shape;
  shape.churn_pairs = 400;
  return MakeZipfWorkload(domain, items, 1.1, 5000, shape, rng).stream;
}

// Feeds `stream` through sketch `a` one update at a time and through `b` in
// chunks of every size in `chunks`.
template <typename SketchT>
void DriveBoth(SketchT& single, SketchT& batched, const Stream& stream) {
  for (const Update& u : stream.updates()) single.Update(u.item, u.delta);
  size_t chunk = 1;
  size_t consumed = 0;
  const std::vector<Update>& ups = stream.updates();
  // Varying chunk sizes (1, 2, 4, ... then the tail) exercises every batch
  // boundary case, including n == 0 at the end.
  while (consumed < ups.size()) {
    const size_t n = std::min(chunk, ups.size() - consumed);
    batched.UpdateBatch(ups.data() + consumed, n);
    consumed += n;
    chunk *= 2;
  }
  batched.UpdateBatch(ups.data(), 0);  // empty batch is a no-op
}

TEST(BatchEquivalenceTest, CountSketchCountersBitIdentical) {
  const Stream stream = MakeTurnstileStream(101);
  Rng r1(7), r2(7);
  CountSketch single(CountSketchOptions{5, 256}, r1);
  CountSketch batched(CountSketchOptions{5, 256}, r2);
  DriveBoth(single, batched, stream);
  EXPECT_EQ(single.counters(), batched.counters());
}

TEST(BatchEquivalenceTest, AmsSumsBitIdentical) {
  const Stream stream = MakeTurnstileStream(103);
  Rng r1(9), r2(9);
  AmsSketch single(AmsOptions{16, 5}, r1);
  AmsSketch batched(AmsOptions{16, 5}, r2);
  DriveBoth(single, batched, stream);
  EXPECT_EQ(single.sums(), batched.sums());
}

TEST(BatchEquivalenceTest, GnpCountersBitIdentical) {
  const Stream stream = MakeTurnstileStream(104);
  GnpSketchOptions options;
  options.substreams = 16;
  options.trials = 8;
  options.id_bits = 12;
  Rng r1(10), r2(10);
  GnpHeavyHitter single(options, r1);
  GnpHeavyHitter batched(options, r2);
  DriveBoth(single, batched, stream);
  EXPECT_EQ(single.counters(), batched.counters());
}

TEST(BatchEquivalenceTest, TopKInnerCountersBitIdentical) {
  const Stream stream = MakeTurnstileStream(105);
  Rng r1(11), r2(11);
  CountSketchTopK single(CountSketchOptions{5, 256}, 16, r1);
  CountSketchTopK batched(CountSketchOptions{5, 256}, 16, r2);
  DriveBoth(single, batched, stream);
  // The linear state must match exactly; the candidate set is maintenance
  // metadata and may legitimately differ by refresh timing, but both
  // decodes read the same counters.
  EXPECT_EQ(single.sketch().counters(), batched.sketch().counters());
}

TEST(BatchEquivalenceTest, TopKBatchedStillFindsPlantedHeavyHitter) {
  Rng rng(106);
  ItemId heavy = 0;
  const Workload w = MakePlantedHeavyHitterWorkload(
      1 << 12, 500, 20, 100000, StreamShapeOptions{}, rng, &heavy);
  Rng r1(12);
  CountSketchTopK topk(CountSketchOptions{5, 512}, 10, r1);
  ProcessStream(topk, w.stream);  // batched path
  const auto top = topk.TopK();
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].first, heavy);
}

TEST(BatchEquivalenceTest, DefaultUpdateBatchForwardsToUpdate) {
  // A sketch without an override gets the base-class loop.
  const Stream stream = MakeTurnstileStream(107, 1 << 8, 50);
  ExactHeavyHitterSketch single, batched;
  DriveBoth(single, batched, stream);
  const GFunctionPtr g = MakePower(2.0);
  EXPECT_EQ(single.Cover(*g).size(), batched.Cover(*g).size());
}

TEST(BatchEquivalenceTest, RecursiveSketchLevelRoutingMatches) {
  const Stream stream = MakeTurnstileStream(108);
  GHeavyHitterFactory factory = [](int /*level*/, Rng& /*rng*/) {
    return std::make_unique<ExactHeavyHitterSketch>();
  };
  Rng r1(13), r2(13);
  RecursiveGSum single(6, factory, r1);
  RecursiveGSum batched(6, factory, r2);
  for (const Update& u : stream.updates()) single.Update(u.item, u.delta);
  stream.ForEachBatch(64, [&](const Update* ups, size_t n) {
    batched.UpdateBatch(ups, n);
  });
  const GFunctionPtr g = MakePower(2.0);
  EXPECT_DOUBLE_EQ(single.Estimate(*g), batched.Estimate(*g));
}

TEST(BatchEquivalenceTest, MergeFromAfterBatchMatchesConcatenatedStream) {
  // Shard the stream, feed each shard through the batched path into its own
  // same-seed sketch, merge, and compare against one sketch that processed
  // the concatenation -- linearity end to end.
  const Stream left = MakeTurnstileStream(109);
  const Stream right = MakeTurnstileStream(110);
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

  Rng rd(22), re(22), rf(22);
  AmsSketch ams_a(AmsOptions{8, 5}, rd);
  AmsSketch ams_b(AmsOptions{8, 5}, re);
  AmsSketch ams_ref(AmsOptions{8, 5}, rf);
  ProcessStream(ams_a, left);
  ProcessStream(ams_b, right);
  ProcessStream(ams_ref, both);
  ams_a.MergeFrom(ams_b);
  EXPECT_EQ(ams_a.sums(), ams_ref.sums());
}

TEST(BatchEquivalenceTest, TwoPassTabulationBatchMatchesSingle) {
  // Pass 2 of the two-pass algorithm is a linear tabulator over the frozen
  // candidate list; its batched kernel (run-cached binary search) must
  // leave the exact counts bit-identical to the per-update loop for any
  // chunking.  Both instances see the identical pass-1 stream through the
  // batched path so their frozen candidate lists agree, then pass 2 is
  // driven single vs chunked.
  const Stream stream = MakeTurnstileStream(112);
  TwoPassHHOptions options;
  options.count_sketch = {5, 512};
  options.candidates = 24;
  Rng r1(14), r2(14);
  TwoPassHeavyHitter single(options, r1);
  TwoPassHeavyHitter batched(options, r2);
  ProcessStream(single, stream);
  ProcessStream(batched, stream);
  single.AdvancePass();
  batched.AdvancePass();
  ASSERT_EQ(single.candidate_ids(), batched.candidate_ids());
  DriveBoth(single, batched, stream);  // pass-2 tabulation, single vs chunks
  const GFunctionPtr g = MakePower(2.0);
  const GCover cs = single.Cover(*g);
  const GCover cb = batched.Cover(*g);
  ASSERT_EQ(cs.size(), cb.size());
  for (size_t i = 0; i < cs.size(); ++i) {
    EXPECT_EQ(cs[i].item, cb[i].item);
    EXPECT_EQ(cs[i].frequency, cb[i].frequency);
    EXPECT_DOUBLE_EQ(cs[i].g_value, cb[i].g_value);
  }
}

TEST(BatchEquivalenceTest, ExactFrequencySketchBitIdentical) {
  // The exact baseline's batched kernel (run-cached hash slot) must agree
  // with the sequential loop, including zero-pruning of cancelled items.
  const Stream stream = MakeTurnstileStream(113);
  ExactFrequencySketch single, batched;
  DriveBoth(single, batched, stream);
  EXPECT_EQ(single.Frequencies(), batched.Frequencies());
  // And the free function (now routed through the batched sketch) agrees.
  EXPECT_EQ(ExactFrequencies(stream), batched.Frequencies());
}

TEST(BatchEquivalenceTest, GSumBatchedPipelineMatchesSequential) {
  // End-to-end: the one-pass g-sum estimator fed via Update versus
  // UpdateBatch must produce the identical estimate (same covers from the
  // same counters; TopK refresh timing differences may only affect which
  // borderline candidates survive, so compare the final estimates loosely
  // and the sketch spaces exactly).
  const Stream stream = MakeTurnstileStream(111, 1 << 10, 300);
  GSumOptions options;
  options.passes = 1;
  options.cs_buckets = 512;
  options.candidates = 48;
  options.repetitions = 3;
  GSumEstimator sequential(MakePower(2.0), 1 << 10, options);
  GSumEstimator batched(MakePower(2.0), 1 << 10, options);
  for (const Update& u : stream.updates()) {
    sequential.Update(u.item, u.delta);
  }
  stream.ForEachBatch(kStreamBatchSize, [&](const Update* ups, size_t n) {
    batched.UpdateBatch(ups, n);
  });
  const double a = sequential.Estimate();
  const double b = batched.Estimate();
  EXPECT_NEAR(a, b, 0.05 * std::abs(a) + 1e-9);
}

// ---------------------------------------------------------------------------
// Chunk coalescing.  UpdateBatch on a tracker, a one-pass heavy hitter and
// a recursive stack coalesces each chunk (CoalesceChunk), scatters each
// distinct item once and refreshes candidates from the scatter's recorded
// hashes.  These pins hold the result to references built independently:
// counters and AMS sums from per-update Update calls, candidate sets from
// a std::map model of the documented refresh rule.
// ---------------------------------------------------------------------------

// The refresh rule, modeled on a std::map: after each chunk every distinct
// touched item, in ascending id order, takes its post-chunk estimate, and
// an insert that takes the set past 2k cuts it to the k strongest
// (|estimate| desc, id asc).  Entries not yet refreshed keep their earlier
// estimates into that cut.
class RefreshModel {
 public:
  explicit RefreshModel(size_t k) : k_(k) {}

  void AfterChunk(const std::vector<Update>& chunk, const CountSketch& post) {
    std::set<ItemId> touched;
    for (const Update& u : chunk) touched.insert(u.item);
    for (const ItemId item : touched) {
      set_[item] = post.Estimate(item);
      if (set_.size() > 2 * k_) {
        std::vector<std::pair<ItemId, int64_t>> ranked = Ranked();
        ranked.resize(k_);
        set_ = std::map<ItemId, int64_t>(ranked.begin(), ranked.end());
      }
    }
  }

  std::vector<ItemId> Items() const {
    std::vector<ItemId> items;
    for (const auto& [item, est] : set_) items.push_back(item);
    return items;
  }

  std::vector<std::pair<ItemId, int64_t>> TopK() const {
    std::vector<std::pair<ItemId, int64_t>> ranked = Ranked();
    if (ranked.size() > k_) ranked.resize(k_);
    return ranked;
  }

 private:
  std::vector<std::pair<ItemId, int64_t>> Ranked() const {
    std::vector<std::pair<ItemId, int64_t>> ranked(set_.begin(), set_.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (std::llabs(a.second) != std::llabs(b.second)) {
        return std::llabs(a.second) > std::llabs(b.second);
      }
      return a.first < b.first;
    });
    return ranked;
  }

  size_t k_;
  std::map<ItemId, int64_t> set_;
};

// Deltas this close to the int64 limits still leave headroom for the small
// counters the other chunks build (|counter| < 2^20).
constexpr int64_t kNearMax = std::numeric_limits<int64_t>::max() - (1 << 20);
constexpr int64_t kNearMin = std::numeric_limits<int64_t>::min() + (1 << 20);

std::vector<Update> RandomChunk(Rng& rng, size_t n, uint64_t items) {
  std::vector<Update> chunk(n);
  for (Update& u : chunk) {
    u.item = rng.NextUint64() % items;
    u.delta = static_cast<int64_t>(rng.NextUint64() % 7) - 3;
  }
  return chunk;
}

// Chunks built to break a coalescing scatter, applied in order.
std::vector<std::vector<Update>> AdversarialChunks() {
  Rng rng(0xad5e);
  std::vector<std::vector<Update>> chunks;
  chunks.push_back({});           // n = 0
  chunks.push_back({{77, 5}});    // n = 1
  chunks.push_back(std::vector<Update>(512, Update{9, 3}));  // one item 512x
  // +d and -d for item 40: its net delta is zero, yet it was touched and
  // must still be refreshed into the candidates.
  chunks.push_back({{40, 1000}, {12, 2}, {40, -1000}, {13, -1}});
  // Items 500, 600, 700 carry deltas near the int64 limits, each cancelled
  // right after it arrives (so the per-update references never overflow)
  // with small items between.  The coalescer's sort may regroup a run of
  // equal items in any order, so its partial sums can wrap mod 2^64.
  std::vector<Update> wrap;
  for (int r = 0; r < 8; ++r) {
    const ItemId small = 1000 + static_cast<ItemId>(r % 3);
    wrap.insert(wrap.end(), {{500, kNearMax}, {small, 1}, {500, -kNearMax},
                             {600, kNearMin}, {small, -2}, {600, -kNearMin},
                             {700, kNearMax}, {700, -kNearMax + 1}});
  }
  chunks.push_back(wrap);
  chunks.push_back(RandomChunk(rng, 1500, 300));  // several SIMD blocks
  std::vector<Update> ascending;
  for (ItemId i = 0; i < 600; ++i) {
    ascending.push_back({i, static_cast<int64_t>(i % 5) - 2});
  }
  chunks.push_back(ascending);
  std::vector<Update> descending;
  for (ItemId i = 800; i >= 100; i -= 7) descending.push_back({i, 1});
  chunks.push_back(descending);
  chunks.push_back(RandomChunk(rng, 1500, 2000));
  chunks.push_back(RandomChunk(rng, 37, 40));
  return chunks;
}

constexpr size_t kPinK = 4;  // 2k = 8: prunes fire mid-chunk
const CountSketchOptions kPinSketch{5, 64};

OnePassHHOptions PinLevelOptions() {
  OnePassHHOptions options;
  options.count_sketch = kPinSketch;
  options.ams = AmsOptions{8, 3};
  options.candidates = kPinK;
  return options;
}

void ExpectTrackerMatches(const CountSketchTopK& batched,
                          const CountSketch& reference,
                          const RefreshModel& model) {
  EXPECT_EQ(batched.sketch().counters(), reference.counters());
  EXPECT_EQ(batched.CandidateItems(), model.Items());
  EXPECT_EQ(batched.TopK(), model.TopK());
}

TEST(BatchEquivalenceTest, CoalescedTrackerMatchesPerUpdateAndRefreshModel) {
  Rng r1(31), r2(31);
  CountSketchTopK batched(kPinSketch, kPinK, r1);
  CountSketch reference(kPinSketch, r2);
  RefreshModel model(kPinK);
  size_t index = 0;
  for (const std::vector<Update>& chunk : AdversarialChunks()) {
    SCOPED_TRACE(index++);
    batched.UpdateBatch(chunk.data(), chunk.size());
    for (const Update& u : chunk) reference.Update(u.item, u.delta);
    model.AfterChunk(chunk, reference);
    ExpectTrackerMatches(batched, reference, model);
    if (index == 4) {
      // The +d/-d chunk: item 40's net delta is zero, and it is refreshed.
      const std::vector<ItemId> items = batched.CandidateItems();
      EXPECT_TRUE(std::find(items.begin(), items.end(), 40u) != items.end());
    }
  }
}

TEST(BatchEquivalenceTest, CoalescedOnePassMatchesPerUpdateAndRefreshModel) {
  Rng r1(32), r2(32);
  OnePassHeavyHitter batched(PinLevelOptions(), r1);
  OnePassHeavyHitter reference(PinLevelOptions(), r2);
  RefreshModel model(kPinK);
  size_t index = 0;
  for (const std::vector<Update>& chunk : AdversarialChunks()) {
    SCOPED_TRACE(index++);
    batched.UpdateBatch(chunk.data(), chunk.size());
    for (const Update& u : chunk) reference.Update(u.item, u.delta);
    model.AfterChunk(chunk, reference.tracker().sketch());
    ExpectTrackerMatches(batched.tracker(), reference.tracker().sketch(),
                         model);
    EXPECT_EQ(batched.ams().sums(), reference.ams().sums());
  }
}

TEST(BatchEquivalenceTest, CoalescedRecursiveLevelsMatchPerUpdateReferences) {
  // The stack draws its subsampler first, then one level per depth, from
  // one Rng: the same draws rebuild the references level by level.
  constexpr int kDepth = 4;
  const GHeavyHitterFactory factory = [](int, Rng& rng) {
    return std::make_unique<OnePassHeavyHitter>(PinLevelOptions(), rng);
  };
  Rng r1(33), r2(33);
  RecursiveGSum batched(kDepth, factory, r1);
  const NestedSubsampler subsampler(kDepth, r2);
  std::vector<OnePassHeavyHitter> levels;
  std::vector<RefreshModel> models;
  for (int l = 0; l <= kDepth; ++l) {
    levels.emplace_back(PinLevelOptions(), r2);
    models.emplace_back(kPinK);
  }
  size_t index = 0;
  for (const std::vector<Update>& chunk : AdversarialChunks()) {
    SCOPED_TRACE(index++);
    batched.UpdateBatch(chunk.data(), chunk.size());
    for (int l = 0; l <= kDepth; ++l) {
      SCOPED_TRACE(l);
      std::vector<Update> routed;
      for (const Update& u : chunk) {
        if (std::min(subsampler.LevelOf(u.item), kDepth) >= l) {
          routed.push_back(u);
        }
      }
      OnePassHeavyHitter& reference = levels[static_cast<size_t>(l)];
      for (const Update& u : routed) reference.Update(u.item, u.delta);
      RefreshModel& model = models[static_cast<size_t>(l)];
      model.AfterChunk(routed, reference.tracker().sketch());
      const auto& level =
          dynamic_cast<const OnePassHeavyHitter&>(batched.level_sketch(l));
      ExpectTrackerMatches(level.tracker(), reference.tracker().sketch(),
                           model);
      EXPECT_EQ(level.ams().sums(), reference.ams().sums());
    }
  }
}

TEST(BatchEquivalenceTest, CopiedTrackerContinuesBitIdentically) {
  // A copy carries the candidates but not the per-chunk scratch (the
  // candidate index included); it must rebuild what it needs and continue
  // exactly like the original.
  const Stream stream = MakeTurnstileStream(114);
  Rng r1(34);
  CountSketchTopK original(kPinSketch, kPinK, r1);
  const std::vector<Update>& ups = stream.updates();
  const size_t half = ups.size() / 2;
  for (size_t i = 0; i < half; i += 300) {
    original.UpdateBatch(ups.data() + i, std::min<size_t>(300, half - i));
  }
  CountSketchTopK copy = original;
  for (CountSketchTopK* t : {&original, &copy}) {
    for (size_t i = half; i < ups.size(); i += 300) {
      t->UpdateBatch(ups.data() + i, std::min<size_t>(300, ups.size() - i));
    }
  }
  EXPECT_EQ(copy.sketch().counters(), original.sketch().counters());
  EXPECT_EQ(copy.TopK(), original.TopK());
  EXPECT_EQ(copy.CandidateItems(), original.CandidateItems());
}

}  // namespace
}  // namespace gstream
