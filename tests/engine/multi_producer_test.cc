// Determinism and accounting of the multi-producer ingest front end
// (ProducerHandle): N producer threads submitting disjoint slices of a
// stream through their own per-shard SPSC lanes must leave the merged
// sketch state *bit-identical* to one sequential pass over the whole
// stream -- each producer's chunk framing is deterministic, and merge
// order across lanes is irrelevant by linearity (docs/engine.md).  Runs
// under the TSan CI leg: any ordering bug in the lane commit protocol or
// the close/aggregate handshake surfaces here as a data race, any lost or
// doubled chunk as a counter mismatch.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/one_pass_hh.h"
#include "core/recursive_sketch.h"
#include "engine/ingest_engine.h"
#include "engine/sharded_ingestor.h"
#include "gfunc/catalog.h"
#include "sketch/ams.h"
#include "sketch/count_sketch.h"
#include "sketch/linear_sketch.h"
#include "stream/generators.h"

namespace gstream {
namespace {

constexpr uint64_t kSeed = 0x5eed;

// Turnstile stream whose length is not a multiple of the chunk size, so
// final partial chunks are exercised on every producer.
Stream MakeTurnstileStream(uint64_t seed, size_t churn_pairs = 700) {
  Rng rng(seed);
  StreamShapeOptions shape;
  shape.churn_pairs = churn_pairs;
  return MakeZipfWorkload(1 << 12, 900, 1.1, 4000, shape, rng).stream;
}

const std::vector<PartitionPolicy> kMergePolicies = {
    PartitionPolicy::kRoundRobinChunks};

// Splits the stream into `producers` contiguous slices and feeds slice p
// from its own thread through its own ProducerHandle, in irregular run
// lengths (1, 3, 7, ... then the tail) so framing sees every boundary
// case.  Each handle is closed on its owning thread, as the contract
// requires.  Returns the handles so callers can assert per-producer stats
// (safe to read once the threads are joined: Close() published them).
template <typename IngestorT>
std::vector<ProducerHandle*> FeedConcurrently(IngestorT& ingest,
                                              const Stream& stream,
                                              size_t producers) {
  const std::vector<Update>& ups = stream.updates();
  std::vector<ProducerHandle*> handles(producers, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (size_t p = 0; p < producers; ++p) {
    const size_t begin = p * ups.size() / producers;
    const size_t end = (p + 1) * ups.size() / producers;
    threads.emplace_back([&ingest, &ups, &handles, p, begin, end] {
      ProducerHandle* handle = ingest.AddProducer();
      handles[p] = handle;
      size_t run = 1;
      size_t consumed = begin;
      while (consumed < end) {
        const size_t n = std::min(run, end - consumed);
        handle->Submit(ups.data() + consumed, n);
        consumed += n;
        run = run * 2 + 1;
      }
      handle->Submit(ups.data(), 0);  // empty submit is a no-op
      handle->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  return handles;
}

// The central pin: every shard count x producer count, bit-identical to
// sequential.
TEST(MultiProducerTest, CountSketchBitIdenticalToSequential) {
  const Stream stream = MakeTurnstileStream(301);
  Rng seq_rng(kSeed);
  CountSketch sequential(CountSketchOptions{5, 256}, seq_rng);
  ProcessStream(sequential, stream);

  for (const PartitionPolicy policy : kMergePolicies) {
    for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      for (const size_t producers :
           {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
        IngestEngineOptions options;
        options.policy = policy;
        options.max_producers = producers;
        ShardedIngestor<CountSketch> ingest(options, [](size_t) {
          Rng rng(kSeed);
          return CountSketch(CountSketchOptions{5, 256}, rng);
        });
        ingest.Open(shards);
        FeedConcurrently(ingest, stream, producers);
        EXPECT_EQ(ingest.Close().counters(), sequential.counters())
            << "policy=" << static_cast<int>(policy) << " shards=" << shards
            << " producers=" << producers;
      }
    }
  }
}

TEST(MultiProducerTest, AmsBitIdenticalToSequential) {
  const Stream stream = MakeTurnstileStream(303);
  Rng seq_rng(kSeed);
  AmsSketch sequential(AmsOptions{16, 5}, seq_rng);
  ProcessStream(sequential, stream);

  for (const PartitionPolicy policy : kMergePolicies) {
    for (const size_t shards : {size_t{1}, size_t{4}, size_t{8}}) {
      for (const size_t producers : {size_t{2}, size_t{4}}) {
        IngestEngineOptions options;
        options.policy = policy;
        options.max_producers = producers;
        ShardedIngestor<AmsSketch> ingest(options, [](size_t) {
          Rng rng(kSeed);
          return AmsSketch(AmsOptions{16, 5}, rng);
        });
        ingest.Open(shards);
        FeedConcurrently(ingest, stream, producers);
        EXPECT_EQ(ingest.Close().sums(), sequential.sums())
            << "policy=" << static_cast<int>(policy) << " shards=" << shards
            << " producers=" << producers;
      }
    }
  }
}

TEST(MultiProducerTest, RecursiveGSumStackBitIdenticalToSequential) {
  // The whole Theorem-13 stack fed by concurrent producers.  With a
  // candidate budget at least the distinct-item count no level prunes, so
  // per-level linear state (tracker counters, AMS sums) and the estimate
  // itself stay bit-identical regardless of the producer interleave.
  Rng workload_rng(304);
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
    for (const size_t producers : {size_t{2}, size_t{4}}) {
      IngestEngineOptions options;
      options.policy = policy;
      options.max_producers = producers;
      ShardedIngestor<RecursiveGSum> ingest(options, [&factory](size_t) {
        Rng rng(kSeed);  // same seed per shard => shared subsampler + hashes
        return RecursiveGSum(kLevels, factory, rng);
      });
      ingest.Open(4);
      FeedConcurrently(ingest, w.stream, producers);
      const RecursiveGSum& merged = ingest.Close();
      ASSERT_EQ(merged.Fingerprint(), sequential.Fingerprint());
      EXPECT_DOUBLE_EQ(merged.Estimate(*g), seq_estimate)
          << "policy=" << static_cast<int>(policy)
          << " producers=" << producers;
    }
  }
}

TEST(MultiProducerTest, ConcurrentProducerStatsConservation) {
  // Four producers into two shards over minimum rings with a slow
  // consumer: stalls are guaranteed, and every accounting identity must
  // survive the contention -- producer-side routing sums equal the
  // worker-side delivery counts, per-producer stats sum to the aggregate,
  // stall count and stall time agree, and no lane's high-water exceeds
  // its ring capacity.
  const Stream stream = MakeTurnstileStream(305, 900);
  constexpr size_t kShards = 2;
  constexpr size_t kProducers = 4;
  std::vector<uint64_t> delivered(kShards, 0);
  std::vector<BatchSink> sinks;
  for (size_t s = 0; s < kShards; ++s) {
    sinks.push_back([&delivered, s](const Update* /*ups*/, size_t n) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      delivered[s] += n;
    });
  }
  IngestEngineOptions options;
  options.shards = kShards;
  options.ring_chunks = 2;  // minimum ring: back-to-back chunks collide
  options.chunk_updates = 16;
  options.max_producers = kProducers;
  IngestEngine engine(options, std::move(sinks));

  const std::vector<Update>& ups = stream.updates();
  std::vector<ProducerHandle*> handles(kProducers, nullptr);
  std::vector<std::thread> threads;
  for (size_t p = 0; p < kProducers; ++p) {
    const size_t begin = p * ups.size() / kProducers;
    const size_t end = (p + 1) * ups.size() / kProducers;
    threads.emplace_back([&engine, &ups, &handles, p, begin, end] {
      ProducerHandle* handle = engine.AddProducer();
      handles[p] = handle;
      handle->Submit(ups.data() + begin, end - begin);
      handle->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  engine.Close();

  const IngestStats& stats = engine.stats();
  EXPECT_EQ(stats.updates_submitted, stream.length());
  uint64_t routed = 0;
  uint64_t received = 0;
  for (size_t s = 0; s < kShards; ++s) {
    routed += stats.shard_updates[s];
    received += delivered[s];
    EXPECT_EQ(delivered[s], stats.shard_updates[s]) << "shard " << s;
    EXPECT_GE(stats.shard_ring_highwater[s], 1u) << "shard " << s;
    EXPECT_LE(stats.shard_ring_highwater[s], 2u) << "shard " << s;
  }
  EXPECT_EQ(routed, stats.updates_submitted);
  EXPECT_EQ(received, stream.length());
  // The slow consumer on a 2-slot ring must have blocked someone, and the
  // stall count and stall time must agree that it happened.
  EXPECT_GT(stats.producer_stalls, 0u);
  EXPECT_GT(stats.producer_stall_ns, 0u);
  // Per-producer stats sum to the aggregate.
  uint64_t per_producer_updates = 0;
  uint64_t per_producer_stall_ns = 0;
  for (const ProducerHandle* handle : handles) {
    ASSERT_NE(handle, nullptr);
    EXPECT_TRUE(handle->closed());
    per_producer_updates += handle->stats().updates_submitted;
    per_producer_stall_ns += handle->stats().producer_stall_ns;
  }
  EXPECT_EQ(per_producer_updates, stats.updates_submitted);
  EXPECT_EQ(per_producer_stall_ns, stats.producer_stall_ns);
}

TEST(MultiProducerTest, EngineSubmitCoexistsWithExternalProducer) {
  // The single-producer convenience (IngestEngine::Submit via the internal
  // handle) and an external ProducerHandle feeding concurrently: still one
  // lane each, still bit-exact.
  const Stream stream = MakeTurnstileStream(306);
  Rng seq_rng(kSeed);
  CountSketch sequential(CountSketchOptions{5, 256}, seq_rng);
  ProcessStream(sequential, stream);

  IngestEngineOptions options;
  options.max_producers = 2;
  ShardedIngestor<CountSketch> ingest(options, [](size_t) {
    Rng rng(kSeed);
    return CountSketch(CountSketchOptions{5, 256}, rng);
  });
  ingest.Open(3);
  const std::vector<Update>& ups = stream.updates();
  const size_t half = ups.size() / 2;
  std::thread external([&ingest, &ups, half] {
    ProducerHandle* handle = ingest.AddProducer();
    handle->Submit(ups.data() + half, ups.size() - half);
    handle->Close();
  });
  ingest.Submit(ups.data(), half);
  external.join();
  EXPECT_EQ(ingest.Close().counters(), sequential.counters());
}

TEST(MultiProducerDeathTest, AddProducerBeyondMaxProducersChecks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        std::vector<BatchSink> sinks;
        sinks.push_back([](const Update*, size_t) {});
        IngestEngineOptions options;
        options.shards = 1;
        options.max_producers = 1;
        IngestEngine engine(options, std::move(sinks));
        engine.AddProducer();
        engine.AddProducer();  // second claim exceeds the lane pool
      },
      "GSTREAM_CHECK");
}

TEST(MultiProducerDeathTest, CloseWithOpenExternalProducerChecks) {
  // Only the owning thread may mark its lanes done, so an external handle
  // left open at engine Close() is a contract violation, not a silent
  // data loss.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        std::vector<BatchSink> sinks;
        sinks.push_back([](const Update*, size_t) {});
        IngestEngineOptions options;
        options.shards = 1;
        options.max_producers = 1;
        IngestEngine engine(options, std::move(sinks));
        ProducerHandle* handle = engine.AddProducer();
        Update u;
        u.item = 1;
        u.delta = 1;
        handle->Submit(&u, 1);
        engine.Close();  // handle never closed
      },
      "GSTREAM_CHECK");
}

}  // namespace
}  // namespace gstream
