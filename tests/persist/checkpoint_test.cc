// Engine checkpoint/restart: the bit-exact resume pin, torn-write kill
// points at every phase of the atomic checkpoint sequence, and the
// checkpoint decoder's own corruption sweep.
//
// The resume pin is deliberately run on CountSketchTopK -- a *composite*
// sink whose candidate metadata observes chunk framing and routing order,
// not just the multiset of updates -- so the round-robin cursor must be
// restored.  If a checkpoint carried only the stream cursor and counters,
// these tests would fail.

#include "persist/checkpoint.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/two_pass_hh.h"
#include "sketch/count_sketch.h"
#include "stream/generators.h"
#include "util/fault.h"

namespace gstream {
namespace {

constexpr uint64_t kSeed = 0x5eedULL;

Stream MakeTestStream() {
  Rng rng(17);
  StreamShapeOptions shape;
  shape.churn_pairs = 500;
  Workload w = MakeZipfWorkload(1 << 16, 2500, 1.2, 20000, shape, rng);
  return std::move(w.stream);
}

ShardedIngestor<CountSketchTopK> MakeIngestor(uint64_t seed = kSeed) {
  IngestEngineOptions options;
  options.shards = 3;
  return ShardedIngestor<CountSketchTopK>(options, [seed](size_t) {
    Rng rng(seed);
    return CountSketchTopK(CountSketchOptions{4, 128}, 16, rng);
  });
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// The torn-write test arms atomic-write kill points on the process-wide
// fault registry; TearDown disarms it, so no test inherits an armed site.
class CheckpointTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Registry::Get().Disarm(); }
};

// Arms `site` (a kAtomicWriteSites entry) to fire on its next evaluation.
void ArmOnce(const char* site) {
  fault::Registry::Get().Arm(/*seed=*/0, {{site, 1.0, 0, /*max_fires=*/1}});
}

// Runs the whole stream with checkpointing enabled, never interrupted, and
// returns the merged sketch's blob -- the reference the resumed runs must
// hit byte-for-byte.
std::string UninterruptedRun(const CheckpointOptions& options) {
  const Stream stream = MakeTestStream();
  ShardedIngestor<CountSketchTopK> ingest = MakeIngestor();
  ingest.Open(3);
  const uint64_t end =
      RunWithCheckpoints<CountSketchTopK>(ingest, stream, 0, options);
  EXPECT_EQ(end, stream.length());
  return SerializeSketch(ingest.Close());
}

TEST_F(CheckpointTest, ResumeIsBitExactRoundRobin) {
  CheckpointOptions ckpt;
  ckpt.interval_updates = 2 * kStreamBatchSize;
  ckpt.path = TempPath("ckpt_ref.gckp");
  const std::string reference = UninterruptedRun(ckpt);
  const std::string ref_path = ckpt.path;

  // Interrupted run: stop right after the second checkpoint lands ("the
  // process dies"), then restore into a brand-new ingestor and finish.
  const Stream stream = MakeTestStream();
  ckpt.path = TempPath("ckpt_resume.gckp");
  uint64_t died_at = 0;
  {
    ShardedIngestor<CountSketchTopK> ingest = MakeIngestor();
    ingest.Open(3);
    RunWithCheckpoints<CountSketchTopK>(ingest, stream, 0, ckpt,
                                        [&died_at](uint64_t cursor) {
                                          died_at = cursor;
                                          return cursor < 4 * kStreamBatchSize;
                                        });
    // The "crashed" ingestor is dropped here with state beyond the
    // checkpoint; only the file survives.
  }
  ASSERT_GT(died_at, 0u);
  ASSERT_LT(died_at, stream.length());

  CheckpointImage image;
  LoadStatus status = LoadCheckpoint(ckpt.path, &image);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(image.cursor, died_at);

  ShardedIngestor<CountSketchTopK> resumed = MakeIngestor();
  resumed.Open(3);
  status = RestoreIngestor(image, &resumed);
  ASSERT_TRUE(status.ok()) << status.message;
  const uint64_t end = RunWithCheckpoints<CountSketchTopK>(
      resumed, stream, image.cursor, ckpt);
  ASSERT_EQ(end, stream.length());
  EXPECT_EQ(SerializeSketch(resumed.Close()), reference);

  std::remove(ref_path.c_str());
  std::remove(ckpt.path.c_str());
}

TEST_F(CheckpointTest, ResumePreservesIngestStats) {
  CheckpointOptions ckpt;
  ckpt.interval_updates = 2 * kStreamBatchSize;
  ckpt.path = TempPath("ckpt_stats.gckp");
  const Stream stream = MakeTestStream();

  ShardedIngestor<CountSketchTopK> full = MakeIngestor();
  full.Open(3);
  RunWithCheckpoints<CountSketchTopK>(full, stream, 0, ckpt);
  full.Drain();
  const IngestStats full_stats = full.stats();

  CheckpointImage image;
  ASSERT_TRUE(LoadCheckpoint(ckpt.path, &image).ok());
  // The final checkpoint sits at end-of-stream: restoring it yields the
  // full run's producer accounting exactly.
  EXPECT_EQ(image.cursor, stream.length());
  EXPECT_EQ(image.producer.stats.updates_submitted,
            full_stats.updates_submitted);
  EXPECT_EQ(image.producer.stats.shard_updates, full_stats.shard_updates);
  std::remove(ckpt.path.c_str());
}

TEST_F(CheckpointTest, RestoredStatsAgreeBetweenDecodedAndInProcessSnapshots) {
  // Neither the GCKP wire format nor an in-process snapshot carries
  // producer_stall_ns or shard_ring_highwater (wall-clock telemetry), even
  // when the source engine's are nonzero: a resumed engine reports
  // identical stats whether its state came through the wire or stayed in
  // memory.
  auto make_sinks = [] {
    std::vector<BatchSink> sinks;
    sinks.push_back([](const Update* /*ups*/, size_t /*n*/) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
    return sinks;
  };
  IngestEngineOptions options;
  options.shards = 1;
  options.ring_chunks = 2;  // minimum ring + slow sink: stalls guaranteed
  options.chunk_updates = 16;
  const Stream stream = MakeTestStream();

  IngestEngine live(options, make_sinks());
  live.Submit(stream.updates().data(), 2000);
  live.Flush();
  const IngestProducerState snapshot = live.SnapshotProducerState();
  live.Close();
  const IngestStats live_stats = live.stats();
  ASSERT_GT(live_stats.producer_stall_ns, 0u);
  ASSERT_EQ(live_stats.shard_ring_highwater.size(), 1u);
  ASSERT_GT(live_stats.shard_ring_highwater[0], 0u);

  CheckpointImage image;
  image.cursor = 2000;
  image.producer = snapshot;
  image.shard_blobs = {"opaque shard blob"};
  CheckpointImage decoded;
  ASSERT_TRUE(DecodeCheckpoint(EncodeCheckpoint(image), &decoded).ok());

  const auto restore_and_read = [&](const IngestProducerState& state) {
    IngestEngine engine(options, make_sinks());
    engine.RestoreProducerState(state);
    const IngestStats stats = engine.stats();
    engine.Close();
    return stats;
  };
  const IngestStats in_process = restore_and_read(snapshot);
  const IngestStats from_wire = restore_and_read(decoded.producer);
  EXPECT_EQ(in_process.updates_submitted, from_wire.updates_submitted);
  EXPECT_EQ(in_process.chunks_committed, from_wire.chunks_committed);
  EXPECT_EQ(in_process.producer_stalls, from_wire.producer_stalls);
  EXPECT_EQ(in_process.producer_stall_ns, from_wire.producer_stall_ns);
  EXPECT_EQ(in_process.shard_updates, from_wire.shard_updates);
  EXPECT_EQ(in_process.shard_ring_highwater, from_wire.shard_ring_highwater);
  // And both restart the telemetry at zero, per the stats contract.
  EXPECT_EQ(in_process.producer_stall_ns, 0u);
  EXPECT_EQ(in_process.shard_ring_highwater, std::vector<uint64_t>{0});
}

TEST_F(CheckpointTest, ResumedEngineConservesRoutedUpdates) {
  // Routed counts adopted at restore span the whole logical run, so the
  // applied counts must too: after a mid-stream snapshot, a restore and
  // the rest of the stream, every shard still satisfies
  // routed == applied + shed.
  IngestEngineOptions options;
  options.shards = 3;
  auto make_sinks = [] {
    return std::vector<BatchSink>(
        3, [](const Update* /*ups*/, size_t /*n*/) {});
  };
  const Stream stream = MakeTestStream();
  const size_t cut = 3 * kStreamBatchSize + 100;
  ASSERT_LT(cut, stream.length());

  IngestEngine first(options, make_sinks());
  first.Submit(stream.updates().data(), cut);
  first.Flush();
  const IngestProducerState snapshot = first.SnapshotProducerState();
  first.Close();

  IngestEngine resumed(options, make_sinks());
  resumed.RestoreProducerState(snapshot);
  resumed.Submit(stream.updates().data() + cut, stream.length() - cut);
  ASSERT_TRUE(resumed.Close().ok());
  const IngestStats stats = resumed.stats();
  EXPECT_EQ(stats.updates_submitted, stream.length());
  EXPECT_EQ(stats.updates_applied + stats.updates_shed,
            stats.updates_submitted);
  EXPECT_EQ(stats.updates_shed, 0u);
  for (size_t s = 0; s < options.shards; ++s) {
    EXPECT_EQ(stats.shard_updates[s],
              stats.shard_updates_applied[s] + stats.shard_updates_shed[s])
        << "shard " << s;
  }
}

TEST_F(CheckpointTest, ImageEncodeDecodeRoundtrip) {
  CheckpointImage image;
  image.cursor = 12345;
  image.producer.round_robin_next = 2;
  image.producer.stats.updates_submitted = 999;
  image.producer.stats.chunks_committed = 7;
  image.producer.stats.producer_stalls = 3;
  image.producer.stats.shard_updates = {500, 499};
  image.shard_blobs = {"first shard blob", "second"};
  const std::string bytes = EncodeCheckpoint(image);

  CheckpointImage decoded;
  const LoadStatus status = DecodeCheckpoint(bytes, &decoded);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(decoded.cursor, image.cursor);
  EXPECT_EQ(decoded.producer.round_robin_next,
            image.producer.round_robin_next);
  EXPECT_EQ(decoded.producer.stats.shard_updates,
            image.producer.stats.shard_updates);
  EXPECT_EQ(decoded.shard_blobs, image.shard_blobs);
}

TEST_F(CheckpointTest, DecoderRejectsCorruption) {
  CheckpointImage image;
  image.cursor = 42;
  image.producer.round_robin_next = 1;
  image.producer.stats.shard_updates = {21, 21};
  image.shard_blobs = {"blob a", "blob b"};
  const std::string bytes = EncodeCheckpoint(image);

  CheckpointImage out;
  EXPECT_EQ(DecodeCheckpoint("", &out).error, LoadError::kBadMagic);
  EXPECT_EQ(DecodeCheckpoint("not a checkpoint at all", &out).error,
            LoadError::kBadMagic);

  // Version skew, checksum repaired so the version check is what fires.
  std::string skewed = bytes;
  skewed[4] = static_cast<char>(kCheckpointFormatVersion + 1);
  skewed.resize(skewed.size() - 8);
  const uint64_t checksum = persist::Checksum64(skewed);
  for (int i = 0; i < 8; ++i) {
    skewed.push_back(static_cast<char>(checksum >> (8 * i)));
  }
  EXPECT_EQ(DecodeCheckpoint(skewed, &out).error, LoadError::kVersionSkew);

  // Every byte flip is caught (magic or checksum), every truncation fails.
  for (size_t pos = 0; pos < bytes.size(); pos += 3) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    const LoadStatus status = DecodeCheckpoint(corrupt, &out);
    ASSERT_FALSE(status.ok()) << "flip at " << pos;
    EXPECT_TRUE(status.error == LoadError::kBadMagic ||
                status.error == LoadError::kChecksumMismatch)
        << "flip at " << pos << ": " << LoadErrorName(status.error);
  }
  for (size_t len = 0; len < bytes.size(); ++len) {
    ASSERT_FALSE(
        DecodeCheckpoint(std::string_view(bytes).substr(0, len), &out).ok())
        << "truncation at " << len;
  }
}

TEST_F(CheckpointTest, TornWriteAtEveryPhaseKeepsPreviousCheckpoint) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with GSTREAM_FAULTS=OFF";
  const std::string path = TempPath("ckpt_torn.gckp");
  CheckpointImage v1;
  v1.cursor = 1024;
  v1.producer.stats.shard_updates = {512, 512};
  v1.shard_blobs = {"v1 shard 0", "v1 shard 1"};
  ASSERT_TRUE(SaveCheckpoint(v1, path));

  CheckpointImage v2 = v1;
  v2.cursor = 2048;
  // The three phases before the rename.
  for (const char* site : {kAtomicWriteSites[0], kAtomicWriteSites[1],
                           kAtomicWriteSites[2]}) {
    ArmOnce(site);
    ASSERT_FALSE(SaveCheckpoint(v2, path));
    CheckpointImage loaded;
    const LoadStatus status = LoadCheckpoint(path, &loaded);
    ASSERT_TRUE(status.ok()) << site << ": " << status.message;
    EXPECT_EQ(loaded.cursor, v1.cursor) << "fault leaked a partial v2";
  }
  // before-dirsync is the one phase past the rename: the NEW complete
  // checkpoint is at `path` (the crash merely left its rename not yet
  // durable), so recovery resumes from v2, never from a torn mix.
  {
    ArmOnce(kAtomicWriteSites[3]);
    ASSERT_FALSE(SaveCheckpoint(v2, path));
    CheckpointImage loaded;
    const LoadStatus status = LoadCheckpoint(path, &loaded);
    ASSERT_TRUE(status.ok()) << status.message;
    EXPECT_EQ(loaded.cursor, v2.cursor);
    // Reset to v1 so the final production-path assertion below still
    // demonstrates the v1 -> v2 replacement.
    ASSERT_TRUE(SaveCheckpoint(v1, path));
  }
  ASSERT_TRUE(SaveCheckpoint(v2, path));
  CheckpointImage loaded;
  ASSERT_TRUE(LoadCheckpoint(path, &loaded).ok());
  EXPECT_EQ(loaded.cursor, v2.cursor);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST_F(CheckpointTest, RestoreRejectsShardCountMismatch) {
  const Stream stream = MakeTestStream();
  ShardedIngestor<CountSketchTopK> source = MakeIngestor();
  source.Open(3);
  source.Submit(stream.updates().data(), 2 * kStreamBatchSize);
  const CheckpointImage image =
      SnapshotIngestor(source, 2 * kStreamBatchSize);
  source.Drain();

  IngestEngineOptions options;
  options.shards = 2;
  ShardedIngestor<CountSketchTopK> two_shards(options, [](size_t) {
    Rng rng(kSeed);
    return CountSketchTopK(CountSketchOptions{4, 128}, 16, rng);
  });
  two_shards.Open(2);
  const LoadStatus status = RestoreIngestor(image, &two_shards);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error, LoadError::kGeometryMismatch);
  two_shards.Drain();
}

TEST_F(CheckpointTest, RestoreRejectsWrongSeedReplicas) {
  const Stream stream = MakeTestStream();
  ShardedIngestor<CountSketchTopK> source = MakeIngestor();
  source.Open(3);
  source.Submit(stream.updates().data(), 2 * kStreamBatchSize);
  const CheckpointImage image =
      SnapshotIngestor(source, 2 * kStreamBatchSize);
  source.Drain();

  ShardedIngestor<CountSketchTopK> other = MakeIngestor(/*seed=*/0xdeadULL);
  other.Open(3);
  const LoadStatus status = RestoreIngestor(image, &other);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error, LoadError::kFingerprintMismatch);
  EXPECT_NE(status.message.find("shard"), std::string::npos);
  other.Drain();
}

// A checkpoint is checksummed, not trusted: routing state the engine never
// writes passes DecodeCheckpoint, so RestoreIngestor must reject it --
// with a named error and before any replica is touched -- rather than let
// the next Submit route past the last shard or CHECK-fail the restore.
// `corrupt` edits a 2-shard image; the message must name `field`.
void ExpectRestoreRejects(const std::function<void(CheckpointImage*)>& corrupt,
                          const std::string& field) {
  const Stream stream = MakeTestStream();
  ShardedIngestor<CountSketchTopK> source = MakeIngestor();
  source.Open(2);
  source.Submit(stream.updates().data(), 2 * kStreamBatchSize);
  CheckpointImage image = SnapshotIngestor(source, 2 * kStreamBatchSize);
  source.Drain();
  corrupt(&image);
  ASSERT_TRUE(DecodeCheckpoint(EncodeCheckpoint(image), &image).ok());

  ShardedIngestor<CountSketchTopK> fresh = MakeIngestor();
  fresh.Open(2);
  const std::string untouched = SerializeSketch(fresh.replicas()[0]);
  const LoadStatus status = RestoreIngestor(image, &fresh);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error, LoadError::kDomainError);
  EXPECT_NE(status.message.find(field), std::string::npos) << status.message;
  EXPECT_EQ(SerializeSketch(fresh.replicas()[0]), untouched);
  fresh.Drain();
}

TEST_F(CheckpointTest, RestoreRejectsRoundRobinCursorPastShards) {
  ExpectRestoreRejects(
      [](CheckpointImage* image) { image->producer.round_robin_next = 7; },
      "round_robin_next 7");
}

// A checkpoint records no pass index, so a two-pass sink is refused both
// when checkpointing starts and when an image is restored into it.
ShardedIngestor<TwoPassHeavyHitter> MakeTwoPassIngestor() {
  IngestEngineOptions options;
  options.shards = 2;
  return ShardedIngestor<TwoPassHeavyHitter>(options, [](size_t) {
    TwoPassHHOptions two_pass;
    two_pass.count_sketch = {4, 64};
    two_pass.candidates = 8;
    Rng rng(kSeed);
    return TwoPassHeavyHitter(two_pass, rng);
  });
}

TEST(CheckpointDeathTest, RunWithCheckpointsRefusesTwoPassSink) {
  const Stream stream = MakeTestStream();
  ShardedIngestor<TwoPassHeavyHitter> ingest = MakeTwoPassIngestor();
  CheckpointOptions ckpt;
  ckpt.interval_updates = 2 * kStreamBatchSize;
  ckpt.path = TempPath("ckpt_two_pass.gckp");
  EXPECT_DEATH(
      {
        ingest.Open(2);
        RunWithCheckpoints<TwoPassHeavyHitter>(ingest, stream, 0, ckpt);
      },
      "no pass index");
}

TEST_F(CheckpointTest, RestoreRefusesTwoPassSink) {
  const Stream stream = MakeTestStream();
  ShardedIngestor<TwoPassHeavyHitter> source = MakeTwoPassIngestor();
  source.Open(2);
  source.Submit(stream.updates().data(), 2 * kStreamBatchSize);
  const CheckpointImage image =
      SnapshotIngestor(source, 2 * kStreamBatchSize);
  source.Drain();

  ShardedIngestor<TwoPassHeavyHitter> fresh = MakeTwoPassIngestor();
  fresh.Open(2);
  const std::string untouched = SerializeSketch(fresh.replicas()[0]);
  const LoadStatus status = RestoreIngestor(image, &fresh);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error, LoadError::kDomainError);
  EXPECT_EQ(status.message,
            "a checkpoint records no pass index, so a 2-pass sink cannot be "
            "restored");
  EXPECT_EQ(SerializeSketch(fresh.replicas()[0]), untouched);
  fresh.Drain();
}

}  // namespace
}  // namespace gstream
