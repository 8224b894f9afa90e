// Determinism of the sharded ingestion engine: for every shard count,
// sharded ingestion followed by the fingerprint-
// guarded merge must leave the sketch state *bit-identical* to a
// sequential UpdateBatch pass -- the engine-level extension of the pinning
// discipline in tests/sketch/batch_equivalence_test.cc.  Linearity over
// int64 counters makes this exact, not approximate, so any drift here is a
// real bug (lost chunk, double delivery, racy merge).

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/gnp_sketch.h"
#include "core/gsum.h"
#include "core/one_pass_hh.h"
#include "core/recursive_sketch.h"
#include "core/two_pass_hh.h"
#include "engine/ingest_engine.h"
#include "engine/sharded_ingestor.h"
#include "gfunc/catalog.h"
#include "obs/json_min.h"
#include "sketch/ams.h"
#include "sketch/count_sketch.h"
#include "sketch/linear_sketch.h"
#include "stream/exact.h"
#include "stream/generators.h"
#include "util/aligned.h"

namespace gstream {
namespace {

constexpr uint64_t kSeed = 0x5eed;

// A turnstile stream whose length is deliberately not a multiple of the
// chunk size, so the final partial chunk is exercised.
Stream MakeTurnstileStream(uint64_t seed, size_t churn_pairs = 700) {
  Rng rng(seed);
  StreamShapeOptions shape;
  shape.churn_pairs = churn_pairs;
  return MakeZipfWorkload(1 << 12, 900, 1.1, 4000, shape, rng).stream;
}

// Submits `stream` in irregular run lengths (1, 3, 7, ... then the tail) so
// framing sees every boundary case, not just whole-stream submission.
template <typename IngestorT>
void SubmitIrregular(IngestorT& ingest, const Stream& stream) {
  const std::vector<Update>& ups = stream.updates();
  size_t run = 1;
  size_t consumed = 0;
  while (consumed < ups.size()) {
    const size_t n = std::min(run, ups.size() - consumed);
    ingest.Submit(ups.data() + consumed, n);
    consumed += n;
    run = run * 2 + 1;
  }
  ingest.Submit(ups.data(), 0);  // empty submit is a no-op
}

const std::vector<PartitionPolicy> kMergePolicies = {
    PartitionPolicy::kRoundRobinChunks};
const std::vector<size_t> kShardCounts = {1, 2, 3, 4, 8};

TEST(IngestEngineTest, CountSketchShardedBitIdenticalToSequential) {
  const Stream stream = MakeTurnstileStream(201);
  Rng seq_rng(kSeed);
  CountSketch sequential(CountSketchOptions{5, 256}, seq_rng);
  ProcessStream(sequential, stream);

  for (const PartitionPolicy policy : kMergePolicies) {
    for (const size_t shards : kShardCounts) {
      IngestEngineOptions options;
      options.policy = policy;
      ShardedIngestor<CountSketch> ingest(options, [](size_t) {
        Rng rng(kSeed);
        return CountSketch(CountSketchOptions{5, 256}, rng);
      });
      ingest.Open(shards);
      SubmitIrregular(ingest, stream);
      const CountSketch& merged = ingest.Close();
      EXPECT_EQ(merged.counters(), sequential.counters())
          << "policy=" << static_cast<int>(policy) << " shards=" << shards;
    }
  }
}

TEST(IngestEngineTest, AmsShardedBitIdenticalToSequential) {
  const Stream stream = MakeTurnstileStream(203);
  Rng seq_rng(kSeed);
  AmsSketch sequential(AmsOptions{16, 5}, seq_rng);
  ProcessStream(sequential, stream);

  for (const PartitionPolicy policy : kMergePolicies) {
    for (const size_t shards : kShardCounts) {
      IngestEngineOptions options;
      options.policy = policy;
      ShardedIngestor<AmsSketch> ingest(options, [](size_t) {
        Rng rng(kSeed);
        return AmsSketch(AmsOptions{16, 5}, rng);
      });
      ingest.Open(shards);
      SubmitIrregular(ingest, stream);
      EXPECT_EQ(ingest.Close().sums(), sequential.sums())
          << "policy=" << static_cast<int>(policy) << " shards=" << shards;
    }
  }
}

TEST(IngestEngineTest, ProcessStreamShardedMatchesProcessStream) {
  const Stream stream = MakeTurnstileStream(204);
  Rng seq_rng(kSeed);
  CountSketch sequential(CountSketchOptions{5, 512}, seq_rng);
  ProcessStream(sequential, stream);

  IngestEngineOptions options;
  options.shards = 4;
  const CountSketch merged =
      ProcessStreamSharded(stream, options, [](size_t) {
        Rng rng(kSeed);
        return CountSketch(CountSketchOptions{5, 512}, rng);
      });
  EXPECT_EQ(merged.counters(), sequential.counters());
}

TEST(IngestEngineTest, RoundRobinBalancesUpdatesAcrossShards) {
  const Stream stream = MakeTurnstileStream(206);
  IngestEngineOptions options;
  ShardedIngestor<CountSketch> ingest(options, [](size_t) {
    Rng rng(kSeed);
    return CountSketch(CountSketchOptions{5, 256}, rng);
  });
  ingest.Open(4);
  ingest.SubmitStream(stream);  // whole-stream submit => full chunks
  ingest.Close();

  const IngestStats& stats = ingest.stats();
  uint64_t lo = stats.shard_updates[0], hi = stats.shard_updates[0];
  for (const uint64_t u : stats.shard_updates) {
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  // Whole-stream submission differs by at most one chunk per shard.
  EXPECT_LE(hi - lo, kStreamBatchSize);
  EXPECT_EQ(stats.updates_submitted, stream.length());
  EXPECT_GE(stats.chunks_committed,
            stream.length() / kStreamBatchSize);
}

TEST(IngestEngineTest, BackpressureBoundsMemoryAndLosesNothing) {
  // A tiny ring with a deliberately slow consumer forces producer stalls;
  // every update must still arrive exactly once.
  const Stream stream = MakeTurnstileStream(208);
  uint64_t delivered = 0;
  std::vector<BatchSink> sinks;
  sinks.push_back(
      [&delivered](const Update* /*ups*/, size_t n) { delivered += n; });
  IngestEngineOptions options;
  options.shards = 1;
  options.ring_chunks = 2;  // minimum ring: back-to-back chunks collide
  options.chunk_updates = 16;
  IngestEngine engine(options, std::move(sinks));
  engine.SubmitStream(stream);
  engine.Close();
  EXPECT_EQ(delivered, stream.length());
  EXPECT_EQ(engine.stats().updates_submitted, stream.length());
}

TEST(IngestEngineTest, StallAccountingRecordsTimeNotJustCount) {
  // A deliberately slow consumer on a minimum ring guarantees stalls; the
  // stats must then carry both the stall count and the nanoseconds the
  // producer actually spent blocked (stall *time* is what quantifies
  // backpressure -- a thousand 1us stalls and one 1ms stall are different
  // problems).
  const Stream stream = MakeTurnstileStream(209);
  std::vector<BatchSink> sinks;
  sinks.push_back([](const Update* /*ups*/, size_t /*n*/) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  IngestEngineOptions options;
  options.shards = 1;
  options.ring_chunks = 2;
  options.chunk_updates = 16;
  IngestEngine engine(options, std::move(sinks));
  engine.SubmitStream(stream);
  engine.Close();
  const IngestStats& stats = engine.stats();
  ASSERT_GT(stats.producer_stalls, 0u);
  EXPECT_GT(stats.producer_stall_ns, 0u);
  // Sanity: total blocked time is at least one sink-sleep per stall is too
  // strict under scheduler noise, but it cannot exceed minutes.
  EXPECT_LT(stats.producer_stall_ns, uint64_t{60} * 1000 * 1000 * 1000);
}

TEST(IngestEngineTest, RingHighwaterTracksOccupancyWithinCapacity) {
  const Stream stream = MakeTurnstileStream(210);
  std::vector<BatchSink> sinks;
  sinks.push_back([](const Update* /*ups*/, size_t /*n*/) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  });
  IngestEngineOptions options;
  options.shards = 1;
  options.ring_chunks = 4;
  options.chunk_updates = 16;
  IngestEngine engine(options, std::move(sinks));
  engine.SubmitStream(stream);
  engine.Close();
  const IngestStats& stats = engine.stats();
  ASSERT_EQ(stats.shard_ring_highwater.size(), 1u);
  // A slow consumer must have let the ring back up at least once, and the
  // high-water can never exceed the ring's (power-of-two) capacity.
  EXPECT_GE(stats.shard_ring_highwater[0], 1u);
  EXPECT_LE(stats.shard_ring_highwater[0], 4u);
}

TEST(IngestEngineTest, RestoreToleratesCheckpointsWithoutTelemetry) {
  // Snapshots carry no shard_ring_highwater (wall-clock telemetry is not
  // persisted); restoring one must leave the vector sized for this engine
  // so subsequent routing can track occupancy.
  const Stream stream = MakeTurnstileStream(211);
  auto make_sinks = [] {
    std::vector<BatchSink> sinks;
    for (size_t s = 0; s < 2; ++s) {
      sinks.push_back([](const Update*, size_t) {});
    }
    return sinks;
  };
  IngestEngineOptions options;
  options.shards = 2;
  IngestEngine first(options, make_sinks());
  first.Submit(stream.updates().data(), stream.length() / 2);
  first.Flush();
  IngestProducerState state = first.SnapshotProducerState();
  first.Close();

  IngestEngine resumed(options, make_sinks());
  resumed.RestoreProducerState(state);
  resumed.Submit(stream.updates().data() + stream.length() / 2,
                 stream.length() - stream.length() / 2);
  resumed.Close();
  EXPECT_EQ(resumed.stats().shard_ring_highwater.size(), 2u);
  EXPECT_EQ(resumed.stats().updates_submitted, stream.length());
}

TEST(IngestEngineTest, StatsJsonHasOneKeyPerField) {
  // IngestStatsJson is what the bench and the tools print: a flat object
  // whose keys are the IngestStats fields and whose values are this
  // engine's numbers.
  const Stream stream = MakeTurnstileStream(213);
  std::vector<BatchSink> sinks;
  for (size_t s = 0; s < 3; ++s) sinks.push_back([](const Update*, size_t) {});
  IngestEngineOptions options;
  options.shards = 3;
  IngestEngine engine(options, std::move(sinks));
  engine.SubmitStream(stream);
  engine.Close();
  const IngestStats stats = engine.stats();
  const auto json = obs::ParseJson(IngestStatsJson(stats));
  ASSERT_TRUE(json.has_value() && json->is_object());
  ASSERT_EQ(json->object.size(), 11u);
  const auto scalar = [&](const char* key) {
    const obs::JsonValue* v = json->Find(key);
    return v != nullptr && v->is_number() ? static_cast<uint64_t>(v->number)
                                          : ~uint64_t{0};
  };
  const auto array = [&](const char* key) {
    std::vector<uint64_t> out;
    const obs::JsonValue* v = json->Find(key);
    if (v == nullptr || !v->is_array()) return out;
    for (const obs::JsonValue& e : v->array) {
      out.push_back(static_cast<uint64_t>(e.number));
    }
    return out;
  };
  EXPECT_EQ(scalar("updates_submitted"), stream.length());
  EXPECT_EQ(scalar("updates_applied"), stats.updates_applied);
  EXPECT_EQ(scalar("updates_shed"), 0u);
  EXPECT_EQ(scalar("deadline_timeouts"), 0u);
  EXPECT_EQ(scalar("chunks_committed"), stats.chunks_committed);
  EXPECT_EQ(scalar("producer_stalls"), stats.producer_stalls);
  EXPECT_EQ(scalar("producer_stall_ns"), stats.producer_stall_ns);
  EXPECT_EQ(array("shard_updates"), stats.shard_updates);
  EXPECT_EQ(array("shard_updates_applied"), stats.shard_updates_applied);
  EXPECT_EQ(array("shard_updates_shed"), stats.shard_updates_shed);
  EXPECT_EQ(array("shard_ring_highwater"), stats.shard_ring_highwater);
}

TEST(IngestEngineTest, CloseIsIdempotentAndFlushesPartialChunks) {
  // Seven updates frame one partial chunk, which must reach a shard.
  Rng seq_rng(kSeed);
  CountSketch sequential(CountSketchOptions{3, 64}, seq_rng);
  Stream tiny(1 << 8);
  for (int i = 0; i < 7; ++i) tiny.Append(static_cast<ItemId>(i), i + 1);
  ProcessStream(sequential, tiny);

  IngestEngineOptions options;
  ShardedIngestor<CountSketch> ingest(options, [](size_t) {
    Rng rng(kSeed);
    return CountSketch(CountSketchOptions{3, 64}, rng);
  });
  ingest.Open(3);
  ingest.SubmitStream(tiny);
  const CountSketch& merged = ingest.Close();
  EXPECT_EQ(merged.counters(), sequential.counters());
  EXPECT_EQ(ingest.Close().counters(), sequential.counters());  // idempotent
}

TEST(IngestEngineTest, DrainAllowsPerShardQueriesBeforeMerge) {
  // Drain() joins the workers without merging: the replicas then hold
  // exactly the per-shard partition of the sequential state (their
  // counter-wise sum), and a subsequent Close() still merges correctly.
  const Stream stream = MakeTurnstileStream(210);
  Rng seq_rng(kSeed);
  CountSketch sequential(CountSketchOptions{5, 256}, seq_rng);
  ProcessStream(sequential, stream);

  IngestEngineOptions options;
  ShardedIngestor<CountSketch> ingest(options, [](size_t) {
    Rng rng(kSeed);
    return CountSketch(CountSketchOptions{5, 256}, rng);
  });
  ingest.Open(3);
  ingest.SubmitStream(stream);
  ingest.Drain();

  AlignedI64Vector summed(sequential.counters().size(), 0);
  for (CountSketch& replica : ingest.replicas()) {
    for (size_t i = 0; i < summed.size(); ++i) {
      summed[i] += replica.counters()[i];
    }
  }
  EXPECT_EQ(summed, sequential.counters());
  EXPECT_EQ(ingest.Close().counters(), sequential.counters());
}

TEST(IngestEngineTest, RecursiveGSumShardedBitIdenticalToSequential) {
  // The whole Theorem-13 stack through the engine: N shards each run the
  // *entire* recursion (subsampler + every level sketch) on their stream
  // partition and fold at close.  With a candidate budget at least the
  // distinct-item count no level ever prunes, so not just the per-level
  // linear state (tracker counters, AMS sums) but the estimate itself must
  // be bit-identical to the sequential batched pass, at every shard count.
  Rng workload_rng(215);
  StreamShapeOptions shape;
  shape.churn_pairs = 300;
  const Workload w =
      MakeUniformWorkload(1 << 10, 100, 1, 400, shape, workload_rng);
  const GFunctionPtr g = MakePower(2.0);

  OnePassHHOptions level_options;
  level_options.count_sketch = {5, 256};
  level_options.ams = {8, 3};
  level_options.candidates = 128;  // >= distinct items: no pruning anywhere
  const GHeavyHitterFactory factory = [level_options](int /*level*/,
                                                      Rng& rng) {
    return std::make_unique<OnePassHeavyHitter>(level_options, rng);
  };
  constexpr int kLevels = 4;

  Rng seq_rng(kSeed);
  RecursiveGSum sequential(kLevels, factory, seq_rng);
  w.stream.ForEachBatch(kStreamBatchSize, [&](const Update* ups, size_t n) {
    sequential.UpdateBatch(ups, n);
  });
  const double seq_estimate = sequential.Estimate(*g);

  for (const PartitionPolicy policy : kMergePolicies) {
    for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      IngestEngineOptions options;
      options.policy = policy;
      ShardedIngestor<RecursiveGSum> ingest(options, [&factory](size_t) {
        Rng rng(kSeed);  // same seed per shard => shared subsampler + hashes
        return RecursiveGSum(kLevels, factory, rng);
      });
      ingest.Open(shards);
      SubmitIrregular(ingest, w.stream);
      const RecursiveGSum& merged = ingest.Close();
      ASSERT_EQ(merged.Fingerprint(), sequential.Fingerprint());
      for (int l = 0; l <= kLevels; ++l) {
        const auto& seq_level =
            dynamic_cast<const OnePassHeavyHitter&>(sequential.level_sketch(l));
        const auto& mrg_level =
            dynamic_cast<const OnePassHeavyHitter&>(merged.level_sketch(l));
        EXPECT_EQ(mrg_level.tracker().sketch().counters(),
                  seq_level.tracker().sketch().counters())
            << "level " << l << " policy " << static_cast<int>(policy)
            << " shards " << shards;
        EXPECT_EQ(mrg_level.ams().sums(), seq_level.ams().sums())
            << "level " << l << " policy " << static_cast<int>(policy)
            << " shards " << shards;
      }
      EXPECT_DOUBLE_EQ(merged.Estimate(*g), seq_estimate)
          << "policy " << static_cast<int>(policy) << " shards " << shards;
    }
  }
}

TEST(IngestEngineTest, GnpRecursiveStackShardedBitIdenticalToSequential) {
  // The gnp-backed 1-pass g_np-SUM: every level's state is purely linear
  // (signed-bit sums), so sharded == sequential holds bit-exactly with no
  // candidate-budget caveat, on a fully turnstile stream.  The shard
  // replicas here come from Replicate() of one prototype stack, pinning
  // the Clone()-based replication path the estimator uses.
  const Stream stream = MakeTurnstileStream(216);
  GnpSketchOptions gnp_options;
  gnp_options.substreams = 32;
  gnp_options.trials = 12;
  gnp_options.id_bits = 12;
  const GHeavyHitterFactory factory = [gnp_options](int /*level*/, Rng& rng) {
    return std::make_unique<GnpHeavyHitter>(gnp_options, rng);
  };
  constexpr int kLevels = 5;
  const GFunctionPtr g = MakeGnp();

  Rng seq_rng(kSeed);
  RecursiveGSum sequential(kLevels, factory, seq_rng);
  stream.ForEachBatch(kStreamBatchSize, [&](const Update* ups, size_t n) {
    sequential.UpdateBatch(ups, n);
  });

  Rng proto_rng(kSeed);
  const RecursiveGSum prototype(kLevels, factory, proto_rng);
  for (const PartitionPolicy policy : kMergePolicies) {
    for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      IngestEngineOptions options;
      options.policy = policy;
      ShardedIngestor<RecursiveGSum> ingest(
          options, [&prototype](size_t) { return prototype.Replicate(); });
      ingest.Open(shards);
      SubmitIrregular(ingest, stream);
      const RecursiveGSum& merged = ingest.Close();
      for (int l = 0; l <= kLevels; ++l) {
        const auto& seq_level =
            dynamic_cast<const GnpHeavyHitter&>(sequential.level_sketch(l));
        const auto& mrg_level =
            dynamic_cast<const GnpHeavyHitter&>(merged.level_sketch(l));
        EXPECT_EQ(mrg_level.counters(), seq_level.counters())
            << "level " << l << " policy " << static_cast<int>(policy)
            << " shards " << shards;
      }
      EXPECT_DOUBLE_EQ(merged.Estimate(*g), sequential.Estimate(*g))
          << "policy " << static_cast<int>(policy) << " shards " << shards;
    }
  }
}

TEST(IngestEngineTest, GSumEstimatorShardedProcessMatchesSequential) {
  // The whole estimator as a shardable unit, one- and two-pass:
  // ProcessStreamSharded runs every repetition's full recursive stack
  // across the engine (pass 2 replicating the frozen candidate tables),
  // and in the no-pruning regime the median estimate is bit-identical to
  // the sequential Process() at every shard count.
  Rng workload_rng(217);
  StreamShapeOptions shape;
  shape.churn_pairs = 200;
  const Workload w =
      MakeUniformWorkload(1 << 8, 100, 1, 300, shape, workload_rng);

  for (const int passes : {1, 2}) {
    GSumOptions options;
    options.passes = passes;
    options.cs_buckets = 256;
    options.candidates = 256;  // >= distinct items: no pruning anywhere
    options.repetitions = 3;
    GSumEstimator sequential(MakePower(2.0), w.stream.domain(), options);
    const double seq = sequential.Process(w.stream);

    for (const PartitionPolicy policy : kMergePolicies) {
      for (const size_t shards :
           {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
        IngestEngineOptions engine_options;
        engine_options.shards = shards;
        engine_options.policy = policy;
        const GSumEstimator parallel = ProcessStreamSharded(
            w.stream, engine_options, [&](size_t) {
              return GSumEstimator(MakePower(2.0), w.stream.domain(),
                                   options);
            });
        const double par = parallel.Estimate();
        EXPECT_DOUBLE_EQ(seq, par)
            << "passes " << passes << " policy " << static_cast<int>(policy)
            << " shards " << shards;
        EXPECT_EQ(sequential.SpaceBytes(), parallel.SpaceBytes());
      }
    }
  }
}

TEST(IngestEngineDeathTest, GSumEstimatorMergeRejectsDifferentSeed) {
  // Different seeds draw different subsamplers, so the level partitions
  // disagree and the per-rep stack merge must refuse.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  GSumOptions options;
  options.repetitions = 3;
  GSumEstimator a(MakePower(2.0), 1 << 10, options);
  options.seed += 1;
  const GSumEstimator b(MakePower(2.0), 1 << 10, options);
  ASSERT_DEATH(a.MergeFrom(b), "subsampler_.Fingerprint\\(\\)");
}

TEST(IngestEngineDeathTest, GSumEstimatorMergeRejectsDifferentRepetitions) {
  // Same seed, so the shared repetitions would merge; the count must
  // still agree or the median would mix unmerged repetitions.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  GSumOptions options;
  options.repetitions = 3;
  GSumEstimator a(MakePower(2.0), 1 << 10, options);
  options.repetitions = 5;
  const GSumEstimator b(MakePower(2.0), 1 << 10, options);
  ASSERT_DEATH(a.MergeFrom(b), "reps_.size\\(\\)");
}

TEST(IngestEngineTest, ExactFrequencySketchShardedBitIdenticalToSequential) {
  // The exact tabulator is linear with a trivial merge, so the engine must
  // reproduce ExactFrequencies() exactly at every shard count.
  const Stream stream = MakeTurnstileStream(211);
  const FrequencyMap expected = ExactFrequencies(stream);
  for (const PartitionPolicy policy : kMergePolicies) {
    for (const size_t shards : kShardCounts) {
      IngestEngineOptions options;
      options.policy = policy;
      ShardedIngestor<ExactFrequencySketch> ingest(
          options, [](size_t) { return ExactFrequencySketch(); });
      ingest.Open(shards);
      SubmitIrregular(ingest, stream);
      EXPECT_EQ(ingest.Close().Frequencies(), expected)
          << "policy=" << static_cast<int>(policy) << " shards=" << shards;
    }
  }
}

TEST(IngestEngineTest, OnePassHHShardedBitIdenticalToSequential) {
  // The full one-pass heavy hitter (CountSketchTopK tracker + AMS) through
  // the engine: the merged linear state -- tracker counters and AMS sums --
  // must be bit-identical to the sequential batched pass at every shard
  // count.  (The candidate set is maintenance
  // metadata re-derived from those counters at merge; its decode-level
  // contract is pinned by MergeTest.TopKCandidateUnionMerge... and the
  // tests/verify/ statistical suite.)
  const Stream stream = MakeTurnstileStream(212);
  OnePassHHOptions options;
  options.count_sketch = {5, 256};
  options.ams = {16, 5};
  options.candidates = 32;
  const OnePassHeavyHitter sequential =
      ProcessOnePassHH(options, kSeed, stream);

  for (const PartitionPolicy policy : kMergePolicies) {
    for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      IngestEngineOptions engine_options;
      engine_options.shards = shards;
      engine_options.policy = policy;
      const OnePassHeavyHitter sharded =
          ProcessStreamSharded(stream, engine_options, [&](size_t) {
            Rng rng(kSeed);  // same seed per shard => shared hashes
            return OnePassHeavyHitter(options, rng);
          });
      EXPECT_EQ(sharded.tracker().sketch().counters(),
                sequential.tracker().sketch().counters())
          << "policy=" << static_cast<int>(policy) << " shards=" << shards;
      EXPECT_EQ(sharded.ams().sums(), sequential.ams().sums())
          << "policy=" << static_cast<int>(policy) << " shards=" << shards;
      EXPECT_EQ(sharded.PruningRadius(), sequential.PruningRadius());
    }
  }
}

TEST(IngestEngineTest, TwoPassHHShardedCoverIdenticalToSequential) {
  // With candidates >= distinct items the tracker never prunes, so the
  // frozen candidate list is the full item set in both the sequential and
  // every sharded run -- making the *entire* two-pass decode (candidate
  // list, exact counts, cover) comparable bit-for-bit, not just the
  // counters.  This pins the whole sharded pass-1 -> AdvancePass ->
  // sharded pass-2 pipeline.
  Rng workload_rng(213);
  StreamShapeOptions shape;
  shape.churn_pairs = 300;
  const Workload w =
      MakeUniformWorkload(128, 100, 1, 400, shape, workload_rng);
  TwoPassHHOptions options;
  options.count_sketch = {5, 256};
  options.candidates = 128;  // >= distinct items: no pruning anywhere
  const TwoPassHeavyHitter sequential =
      ProcessTwoPassHH(options, kSeed, w.stream);
  const GFunctionPtr g = MakePower(2.0);
  const GCover seq_cover = sequential.Cover(*g);

  for (const PartitionPolicy policy : kMergePolicies) {
    for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      IngestEngineOptions engine_options;
      engine_options.shards = shards;
      engine_options.policy = policy;
      const TwoPassHeavyHitter sharded =
          ProcessStreamSharded(w.stream, engine_options, [&](size_t) {
            Rng rng(kSeed);  // same seed per shard => shared hashes
            return TwoPassHeavyHitter(options, rng);
          });
      EXPECT_EQ(sharded.tracker().sketch().counters(),
                sequential.tracker().sketch().counters());
      ASSERT_EQ(sharded.candidate_ids(), sequential.candidate_ids())
          << "policy=" << static_cast<int>(policy) << " shards=" << shards;
      const GCover cover = sharded.Cover(*g);
      ASSERT_EQ(cover.size(), seq_cover.size());
      for (size_t i = 0; i < cover.size(); ++i) {
        EXPECT_EQ(cover[i].item, seq_cover[i].item);
        EXPECT_EQ(cover[i].frequency, seq_cover[i].frequency);
        EXPECT_DOUBLE_EQ(cover[i].g_value, seq_cover[i].g_value);
      }
    }
  }
}

TEST(IngestEngineTest, TwoPassHHShardedFindsPlantedHeaviesUnderPruning) {
  // With a small candidate budget the sequential and sharded candidate
  // sets may legitimately differ on borderline background items (different
  // maintenance trajectories), but both must carry every clearly dominant
  // item into pass 2 and tabulate it exactly.
  Rng workload_rng(214);
  FrequencyMap freq;
  for (ItemId i = 0; i < 300; ++i) freq[i] = 1 + static_cast<int64_t>(i % 7);
  freq[2000] = 30000;
  freq[2001] = 22000;
  freq[2002] = 15000;
  const Workload w = MakeStreamFromFrequencies(1 << 12, freq,
                                               StreamShapeOptions{},
                                               workload_rng);
  TwoPassHHOptions options;
  options.count_sketch = {5, 1024};
  options.candidates = 16;
  IngestEngineOptions engine_options;
  engine_options.shards = 4;
  const TwoPassHeavyHitter sharded =
      ProcessStreamSharded(w.stream, engine_options, [&](size_t) {
        Rng rng(kSeed);
        return TwoPassHeavyHitter(options, rng);
      });
  const GCover cover = sharded.Cover(*MakePower(2.0));
  for (const ItemId heavy : {ItemId{2000}, ItemId{2001}, ItemId{2002}}) {
    bool found = false;
    for (const GCoverEntry& e : cover) {
      if (e.item == heavy) {
        found = true;
        EXPECT_EQ(e.frequency, freq.at(heavy));  // pass 2 is exact
      }
    }
    EXPECT_TRUE(found) << "missed planted heavy " << heavy;
  }
}

TEST(IngestEngineDeathTest, MergeOfDifferentSeedReplicasTripsFingerprint) {
  // A factory that (incorrectly) seeds each shard differently builds
  // replicas with different hash functions; the Close()-time merge must
  // die on the fingerprint guard instead of silently summing mismatched
  // counters.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        IngestEngineOptions options;
        ShardedIngestor<CountSketch> ingest(options, [](size_t shard) {
          Rng rng(kSeed + shard);  // WRONG: per-shard seeds
          return CountSketch(CountSketchOptions{3, 64}, rng);
        });
        ingest.Open(2);
        Stream tiny(16);
        tiny.Append(1, 1);
        tiny.Append(2, 1);
        ingest.SubmitStream(tiny);
        ingest.Close();
      },
      "GSTREAM_CHECK");
}

TEST(IngestEngineTest, FlushAfterCloseIsANoOp) {
  // A closed engine is already quiescent -- every committed chunk was
  // applied before the workers joined -- so a quiesce barrier on it is
  // trivially satisfied.  This used to GSTREAM_CHECK-abort, crashing
  // callers that layer checkpoint/serving logic over a finished ingest.
  const Stream stream = MakeTurnstileStream(216);
  uint64_t delivered = 0;
  std::vector<BatchSink> sinks;
  sinks.push_back(
      [&delivered](const Update* /*ups*/, size_t n) { delivered += n; });
  IngestEngineOptions options;
  options.shards = 1;
  IngestEngine engine(options, std::move(sinks));
  engine.SubmitStream(stream);
  engine.Close();
  engine.Flush();  // must not abort
  engine.Flush();  // and stays idempotent
  EXPECT_EQ(delivered, stream.length());
  EXPECT_EQ(engine.stats().updates_submitted, stream.length());
}

TEST(IngestEngineTest, RestoreZerosNonPersistedTelemetry) {
  // The stats contract: producer_stall_ns and shard_ring_highwater are
  // wall-clock telemetry of *this* process, never persisted, and a resumed
  // engine restarts them at zero.  A snapshot carries only the routing
  // counters, so neither restore path can adopt the live values.
  const Stream stream = MakeTurnstileStream(217);
  auto make_sinks = [] {
    std::vector<BatchSink> sinks;
    sinks.push_back([](const Update* /*ups*/, size_t /*n*/) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
    return sinks;
  };
  IngestEngineOptions options;
  options.shards = 1;
  options.ring_chunks = 2;
  options.chunk_updates = 16;
  IngestEngine first(options, make_sinks());
  first.SubmitStream(stream);
  first.Flush();
  const IngestProducerState state = first.SnapshotProducerState();
  first.Close();
  // The slow consumer guaranteed live telemetry in the source engine.
  const IngestStats live = first.stats();
  ASSERT_GT(live.producer_stall_ns, 0u);
  ASSERT_GT(live.shard_ring_highwater[0], 0u);

  IngestEngine resumed(options, make_sinks());
  resumed.RestoreProducerState(state);
  const IngestStats& restored = resumed.stats();
  // Routing state survives; telemetry restarts.
  EXPECT_EQ(restored.updates_submitted, state.stats.updates_submitted);
  EXPECT_EQ(restored.chunks_committed, state.stats.chunks_committed);
  EXPECT_EQ(restored.producer_stalls, state.stats.producer_stalls);
  EXPECT_EQ(restored.producer_stall_ns, 0u);
  ASSERT_EQ(restored.shard_ring_highwater.size(), 1u);
  EXPECT_EQ(restored.shard_ring_highwater[0], 0u);
  resumed.Close();
}

TEST(IngestEngineTest, MultiProducerDisjointSlicesBitIdenticalToSequential) {
  // Smoke pin for the multi-producer front end in the main engine suite:
  // three producer threads submitting disjoint thirds of the stream
  // through their own ProducerHandles, merged state bit-identical to one
  // sequential pass.  tests/engine/multi_producer_test.cc runs the full
  // 1-8 shards x 1-4 producers matrix over every sketch family.
  const Stream stream = MakeTurnstileStream(218);
  Rng seq_rng(kSeed);
  CountSketch sequential(CountSketchOptions{5, 256}, seq_rng);
  ProcessStream(sequential, stream);

  for (const PartitionPolicy policy : kMergePolicies) {
    IngestEngineOptions options;
    options.policy = policy;
    options.max_producers = 3;
    ShardedIngestor<CountSketch> ingest(options, [](size_t) {
      Rng rng(kSeed);
      return CountSketch(CountSketchOptions{5, 256}, rng);
    });
    ingest.Open(4);
    const std::vector<Update>& ups = stream.updates();
    std::vector<std::thread> producers;
    for (size_t p = 0; p < 3; ++p) {
      const size_t begin = p * ups.size() / 3;
      const size_t end = (p + 1) * ups.size() / 3;
      producers.emplace_back([&ingest, &ups, begin, end] {
        ProducerHandle* handle = ingest.AddProducer();
        handle->Submit(ups.data() + begin, end - begin);
        handle->Close();
      });
    }
    for (std::thread& t : producers) t.join();
    EXPECT_EQ(ingest.Close().counters(), sequential.counters())
        << "policy=" << static_cast<int>(policy);
  }
}

}  // namespace
}  // namespace gstream
