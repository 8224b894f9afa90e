#include "persist/checkpoint.h"

#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace gstream {

namespace {

constexpr char kCheckpointMagic[4] = {'G', 'C', 'K', 'P'};
// magic + version + shards + cursor + round_robin + three stat words.
constexpr size_t kCheckpointHeaderBytes = 4 + 4 + 8 + 8 + 8 + 3 * 8;
constexpr size_t kChecksumBytes = 8;

LoadStatus Truncated(const std::string& what) {
  return LoadStatus::Fail(LoadError::kTruncated,
                          "checkpoint ends inside " + what);
}

}  // namespace

std::string EncodeCheckpoint(const CheckpointImage& image) {
  const size_t shards = image.shard_blobs.size();
  GSTREAM_CHECK_EQ(image.producer.staged.size(), shards);
  GSTREAM_CHECK_EQ(image.producer.stats.shard_updates.size(), shards);
  size_t total = kCheckpointHeaderBytes + 8 * shards + kChecksumBytes;
  for (const auto& staged : image.producer.staged) {
    total += 8 + 16 * staged.size();
  }
  for (const std::string& blob : image.shard_blobs) total += 8 + blob.size();
  persist::ByteWriter w;
  w.Reserve(total);
  w.PutBytes(std::string_view(kCheckpointMagic, sizeof(kCheckpointMagic)));
  w.PutU32(kCheckpointFormatVersion);
  w.PutU64(shards);
  w.PutU64(image.cursor);
  w.PutU64(image.producer.round_robin_next);
  w.PutU64(image.producer.stats.updates_submitted);
  w.PutU64(image.producer.stats.chunks_committed);
  w.PutU64(image.producer.stats.producer_stalls);
  for (const uint64_t u : image.producer.stats.shard_updates) w.PutU64(u);
  for (const auto& staged : image.producer.staged) {
    w.PutU64(staged.size());
    for (const Update& u : staged) {
      w.PutU64(u.item);
      w.PutI64(u.delta);
    }
  }
  for (const std::string& blob : image.shard_blobs) w.PutBlob(blob);
  w.PutU64(persist::Checksum64(w.bytes()));
  return w.Take();
}

LoadStatus DecodeCheckpoint(std::string_view bytes, CheckpointImage* image) {
  if (bytes.size() < sizeof(kCheckpointMagic) ||
      std::memcmp(bytes.data(), kCheckpointMagic,
                  sizeof(kCheckpointMagic)) != 0) {
    return LoadStatus::Fail(LoadError::kBadMagic,
                            "not a gstream checkpoint (bad magic)");
  }
  if (bytes.size() < kCheckpointHeaderBytes + kChecksumBytes) {
    return Truncated("the header");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - kChecksumBytes);
  persist::ByteReader tail(bytes.substr(bytes.size() - kChecksumBytes));
  uint64_t stored_checksum = 0;
  tail.GetU64(&stored_checksum);
  persist::ByteReader r(body);
  std::string_view magic;
  r.GetBytes(sizeof(kCheckpointMagic), &magic);
  uint32_t version = 0;
  r.GetU32(&version);
  // A retired version carries another checksum, which cannot verify here:
  // it is reported as version skew rather than as a corrupt file.
  const bool retired = version >= 1 && version < kCheckpointFormatVersion;
  if (!retired && persist::Checksum64(body) != stored_checksum) {
    return LoadStatus::Fail(LoadError::kChecksumMismatch,
                            "whole-file checksum mismatch (corrupt or torn "
                            "checkpoint)");
  }
  if (version != kCheckpointFormatVersion) {
    return LoadStatus::Fail(
        LoadError::kVersionSkew,
        "checkpoint version " + std::to_string(version) +
            ", this build reads " + std::to_string(kCheckpointFormatVersion));
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
  out.producer.staged.resize(static_cast<size_t>(shards));
  for (auto& staged : out.producer.staged) {
    uint64_t n = 0;
    if (!r.GetU64(&n)) return Truncated("staged chunk counts");
    if (n > r.remaining() / 16) return Truncated("staged updates");
    staged.resize(static_cast<size_t>(n));
    for (Update& u : staged) {
      if (!r.GetU64(&u.item) || !r.GetI64(&u.delta)) {
        return Truncated("staged updates");
      }
    }
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
