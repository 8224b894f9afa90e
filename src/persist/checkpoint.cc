#include "persist/checkpoint.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace gstream {

namespace {

// magic + version + shards + cursor + round_robin + three stat words.
constexpr persist::Envelope kCheckpointEnvelope = {
    "GCKP", 4 + 4 + 8 + 8 + 8 + 3 * 8, kCheckpointFormatVersion, "checkpoint"};

LoadStatus Truncated(const std::string& what) {
  return LoadStatus::Fail(LoadError::kTruncated,
                          "checkpoint ends inside " + what);
}

}  // namespace

std::string EncodeCheckpoint(const CheckpointImage& image) {
  const size_t shards = image.shard_blobs.size();
  GSTREAM_CHECK_EQ(image.producer.stats.shard_updates.size(), shards);
  // The header, the shard counts and the checksum, then the blobs.
  size_t total = kCheckpointEnvelope.header_bytes + 8 * shards + 8;
  for (const std::string& blob : image.shard_blobs) total += 8 + blob.size();
  persist::ByteWriter w;
  w.Reserve(total);
  w.PutBytes(kCheckpointEnvelope.magic);
  w.PutU32(kCheckpointEnvelope.version);
  w.PutU64(shards);
  w.PutU64(image.cursor);
  w.PutU64(image.producer.round_robin_next);
  w.PutU64(image.producer.stats.updates_submitted);
  w.PutU64(image.producer.stats.chunks_committed);
  w.PutU64(image.producer.stats.producer_stalls);
  for (const uint64_t u : image.producer.stats.shard_updates) w.PutU64(u);
  for (const std::string& blob : image.shard_blobs) w.PutBlob(blob);
  w.PutChecksum(0);
  return w.Take();
}

LoadStatus DecodeCheckpoint(std::string_view bytes, CheckpointImage* image) {
  persist::ByteReader r{std::string_view()};
  if (LoadStatus s = persist::OpenEnvelope(bytes, kCheckpointEnvelope, &r);
      !s.ok()) {
    return s;
  }
  CheckpointImage out;
  uint64_t shards = 0;
  r.GetU64(&shards);
  r.GetU64(&out.cursor);
  uint64_t round_robin = 0;
  r.GetU64(&round_robin);
  out.producer.round_robin_next = static_cast<size_t>(round_robin);
  r.GetU64(&out.producer.stats.updates_submitted);
  r.GetU64(&out.producer.stats.chunks_committed);
  r.GetU64(&out.producer.stats.producer_stalls);
  // Every per-shard record is at least 8 bytes, so this bound rejects a
  // corrupt shard count before any allocation sized by it.
  if (shards > r.remaining() / 8) return Truncated("the shard table");
  out.producer.stats.shard_updates.resize(static_cast<size_t>(shards));
  for (uint64_t& u : out.producer.stats.shard_updates) {
    if (!r.GetU64(&u)) return Truncated("shard update counts");
  }
  out.shard_blobs.resize(static_cast<size_t>(shards));
  for (uint64_t s = 0; s < shards; ++s) {
    std::string_view blob;
    if (!r.GetBlob(&blob)) {
      return Truncated("shard " + std::to_string(s) + "'s sketch blob");
    }
    out.shard_blobs[static_cast<size_t>(s)] = std::string(blob);
  }
  if (r.remaining() != 0) {
    return LoadStatus::Fail(LoadError::kTrailingData,
                            std::to_string(r.remaining()) +
                                " trailing bytes after the shard blobs");
  }
  *image = std::move(out);
  return LoadStatus::Ok();
}

bool SaveCheckpoint(const CheckpointImage& image, const std::string& path) {
  obs::TraceSpan span("persist/save_checkpoint", "persist");
  obs::Registry& registry = obs::Registry::Get();
  obs::ScopedTimer timer(registry.GetHistogram("persist/ckpt_write_ns"));
  const std::string bytes = EncodeCheckpoint(image);
  const bool ok = WriteFileAtomic(path, bytes);
  if (ok) {
    registry.GetCounter("persist/ckpt_saves")->Increment();
    registry.GetCounter("persist/ckpt_bytes_written")->Add(bytes.size());
  } else {
    registry.GetCounter("persist/ckpt_save_failures")->Increment();
  }
  return ok;
}

LoadStatus LoadCheckpoint(const std::string& path, CheckpointImage* image) {
  LoadStatus status;
  const std::optional<std::string> bytes = ReadFileBytes(path, &status);
  if (!bytes.has_value()) return status;
  return DecodeCheckpoint(*bytes, image);
}

}  // namespace gstream
