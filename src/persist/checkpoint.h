// Crash-consistent checkpoint/restart for the sharded ingestion engine.
//
// A checkpoint captures a running ingestion at a chunk boundary:
// the stream cursor, the producer routing state (round-robin position and
// stats -- see IngestProducerState), and one
// serialized sketch blob per shard.  The file is written with the
// write-tmp / fsync / rename / fsync-parent sequence (WriteFileAtomic), so
// a crash at any instant leaves either the previous complete checkpoint or
// the new complete checkpoint, never a torn mix; the torn-write tests
// inject a fault at every phase and assert exactly that.
//
// Restart contract (the bit-exactness pin): Open() a fresh ingestor with
// the writer's factory (same seed), shard count and chunk framing;
// RestoreIngestor() the image; resume submitting at image.cursor in slices
// that are multiples of chunk_updates (RunWithCheckpoints does this).  The
// final merged sketch -- including candidate metadata of composite sinks,
// which observes chunk framing and routing, not just the update multiset
// -- is then bit-identical to an uninterrupted run.  That is why the
// checkpoint carries the round-robin cursor rather than merely an update
// count, and why CheckpointOptions::interval_updates must be a multiple of
// the engine's chunk_updates (checked).
//
// File layout (little-endian, version 4, sharing the persist byte
// primitives):
//
//   bytes 0-3   magic "GCKP"
//   u32         checkpoint format version
//   u64         shards
//   u64         cursor (updates of the input stream consumed)
//   u64         round_robin_next
//   u64 x3      stats: updates_submitted, chunks_committed, producer_stalls
//   u64 x S     stats: shard_updates
//   per shard   length-prefixed sketch blob (self-validating, sketch_io.h)
//   u64         XXH64 (seed 0) of every preceding byte
//
// Version history: 1 = FNV-1a trailer, 2 = XXH64 trailer and per-shard
// staged partial chunks before the blobs, 3 = no staged chunks, 4 = the
// same layout around GSKB version 3 shard blobs (counters at their
// width), so a version 3 file is refused when it is decoded rather than
// shard by shard when it is restored.  Versions 1-3 are retired and
// reported as version skew.

#ifndef GSTREAM_PERSIST_CHECKPOINT_H_
#define GSTREAM_PERSIST_CHECKPOINT_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/sharded_ingestor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/sketch_io.h"
#include "stream/stream.h"
#include "util/logging.h"
#include "util/status.h"

namespace gstream {

inline constexpr uint32_t kCheckpointFormatVersion = 4;

// In-memory image of one checkpoint.
struct CheckpointImage {
  uint64_t cursor = 0;  // updates of the input stream consumed so far
  IngestProducerState producer;
  std::vector<std::string> shard_blobs;  // one wire blob per shard replica
};

std::string EncodeCheckpoint(const CheckpointImage& image);

// Total over arbitrary bytes, like DeserializeSketch: magic, truncation,
// checksum, and version failures come back as a clean LoadStatus and the
// image is untouched.  An intact file of a retired version is reported as
// version skew, not as corruption.
// Shard blobs are only framed here; their contents self-validate when
// RestoreIngestor feeds them to DeserializeSketch.
LoadStatus DecodeCheckpoint(std::string_view bytes, CheckpointImage* image);

// Encode + WriteFileAtomic (its kAtomicWriteSites kill points included).
bool SaveCheckpoint(const CheckpointImage& image, const std::string& path);

// ReadFileBytes + Decode.
LoadStatus LoadCheckpoint(const std::string& path, CheckpointImage* image);

// The passes a sink declares; a sink without passes() is one-pass.  A
// checkpoint records a cursor but no pass index, so only a one-pass sink
// can be checkpointed (RunWithCheckpoints) and restored (RestoreIngestor).
template <typename SketchT>
int SinkPasses(const SketchT& sink) {
  if constexpr (requires { sink.passes(); }) {
    return sink.passes();
  } else {
    return 1;
  }
}

// Captures a running ingestion with a barrier snapshot
// (ShardedIngestor::Barrier): each shard's worker serializes its own
// replica, in parallel, at a marker behind every chunk submitted so far;
// the producer waits for all of them, then snapshots its routing state.
// `cursor` is the caller's position in the input stream.  The ingestor
// stays live, and its replicas are race-free to read until the next
// Submit.
//
// `error`, if given, receives the engine's error.  A degraded engine (a
// poisoned or wedged shard) yields an error, and then the image is no
// checkpoint: a failed shard's blob is empty, so it cannot restore.
template <typename SketchT>
CheckpointImage SnapshotIngestor(ShardedIngestor<SketchT>& ingest,
                                 uint64_t cursor,
                                 EngineError* error = nullptr) {
  obs::TraceSpan span("persist/snapshot", "persist");
  obs::Registry& registry = obs::Registry::Get();
  // The producer's wait, which spans the slowest shard's serialize, and
  // each shard's serialize on its own worker.
  obs::Histogram* const serialize_ns =
      registry.GetHistogram("persist/ckpt_serialize_ns");
  CheckpointImage image;
  image.cursor = cursor;
  image.shard_blobs.resize(ingest.replicas().size());
  EngineError status;
  {
    obs::ScopedTimer quiesce(registry.GetHistogram("persist/ckpt_quiesce_ns"));
    status = ingest.Barrier([&](size_t shard, const SketchT& replica) {
      obs::ScopedTimer serialize(serialize_ns);
      image.shard_blobs[shard] = SerializeSketch(replica);
    });
  }
  image.producer = ingest.SnapshotProducerState();
  if (error != nullptr) *error = std::move(status);
  return image;
}

// Restores an image into a freshly Open()ed ingestor built from the
// writer's factory and options.  On any failure (a multi-pass sink,
// shard-count mismatch, producer state no engine of this shape writes, a
// shard blob rejecting the replica) the report names the field or shard
// and the ingestor must be discarded; on success the caller resumes
// submitting at image.cursor.
template <typename SketchT>
LoadStatus RestoreIngestor(const CheckpointImage& image,
                           ShardedIngestor<SketchT>* ingest) {
  for (const SketchT& replica : ingest->replicas()) {
    if (SinkPasses(replica) > 1) {
      return LoadStatus::Fail(LoadError::kDomainError,
                              "a checkpoint records no pass index, so a " +
                                  std::to_string(SinkPasses(replica)) +
                                  "-pass sink cannot be restored");
    }
  }
  const size_t shards = ingest->replicas().size();
  if (image.shard_blobs.size() != shards) {
    return LoadStatus::Fail(
        LoadError::kGeometryMismatch,
        "checkpoint has " + std::to_string(image.shard_blobs.size()) +
            " shards, ingestor opened with " + std::to_string(shards));
  }
  // The checksum does not vouch for the producer state; check it before
  // any replica is touched.
  const IngestProducerState& producer = image.producer;
  if (producer.round_robin_next >= shards) {
    return LoadStatus::Fail(
        LoadError::kDomainError,
        "round_robin_next " + std::to_string(producer.round_robin_next) +
            " is past the last of " + std::to_string(shards) + " shards");
  }
  for (size_t s = 0; s < image.shard_blobs.size(); ++s) {
    LoadStatus status =
        DeserializeSketch(image.shard_blobs[s], &ingest->replicas()[s]);
    if (!status.ok()) {
      status.message = "shard " + std::to_string(s) + ": " + status.message;
      return status;
    }
  }
  ingest->RestoreProducerState(image.producer);
  return LoadStatus::Ok();
}

struct CheckpointOptions {
  std::string path;
  // Updates between checkpoints; must be a multiple of the engine's
  // chunk_updates so resumed chunk framing matches an uninterrupted run
  // (checked in RunWithCheckpoints).
  uint64_t interval_updates = 1 << 16;
};

// Feeds `stream` from update `start`, checkpointing every interval (and
// once at end-of-stream).  `after_checkpoint`, if set, runs after each
// successful save with the current cursor; returning false stops the feed
// there (the kill-point hook the crash tests use).  Returns the cursor
// reached: stream.length() on completion, earlier if stopped by the hook,
// by a failed save (an injected fault "crashed" the writer) or by an
// engine error at a snapshot, which saves nothing (ingest.error() names
// it; the last saved checkpoint predates the fault).  A multi-pass sink
// is refused (CHECK): its checkpoints could not be restored.
template <typename SketchT>
uint64_t RunWithCheckpoints(
    ShardedIngestor<SketchT>& ingest, const Stream& stream, uint64_t start,
    const CheckpointOptions& options,
    const std::function<bool(uint64_t)>& after_checkpoint = nullptr) {
  for (const SketchT& replica : ingest.replicas()) {
    GSTREAM_CHECK(SinkPasses(replica) == 1 &&
                  "a checkpoint records no pass index: multi-pass sinks "
                  "cannot be checkpointed");
  }
  const uint64_t chunk = ingest.engine_options().chunk_updates;
  GSTREAM_CHECK_GE(options.interval_updates, chunk);
  GSTREAM_CHECK_EQ(options.interval_updates % chunk, 0u);
  GSTREAM_CHECK_EQ(start % chunk, 0u);
  const Update* updates = stream.updates().data();
  const uint64_t total = stream.length();
  GSTREAM_CHECK_LE(start, total);
  uint64_t cursor = start;
  while (cursor < total) {
    const uint64_t n = std::min(options.interval_updates, total - cursor);
    ingest.Submit(updates + cursor, n);
    cursor += n;
    EngineError error;
    const CheckpointImage image = SnapshotIngestor(ingest, cursor, &error);
    if (!error.ok() || !SaveCheckpoint(image, options.path)) return cursor;
    if (after_checkpoint != nullptr && !after_checkpoint(cursor)) {
      return cursor;
    }
  }
  return cursor;
}

}  // namespace gstream

#endif  // GSTREAM_PERSIST_CHECKPOINT_H_
