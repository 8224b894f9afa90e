// Golden wire vectors for the persisted formats.  Every live SketchKind and
// one two-shard GCKP image is built from a fixed seed and stream at a small
// geometry and pinned by (size, digest).  The digest is an FNV-1a written
// here, independent of persist::Checksum64, so a change to the writer, the
// reader primitives or the trailer checksum that moves a single byte shows
// up as a digest change.  On a mismatch the failure prints the
// replacement table row.  Committed version-1 vectors, the last version-2
// sketch blob and the last version-2 and version-3 checkpoints pin the
// retired-version rule; a committed blob of retired tag 2 pins its
// refusal.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/gnp_sketch.h"
#include "core/heavy_hitters.h"
#include "core/one_pass_hh.h"
#include "core/recursive_sketch.h"
#include "core/two_pass_hh.h"
#include "persist/checkpoint.h"
#include "persist/sketch_io.h"
#include "sketch/ams.h"
#include "sketch/count_sketch.h"
#include "stream/exact.h"

namespace gstream {
namespace {

constexpr uint64_t kSeed = 0x901dULL;

// FNV-1a 64, the digest of the golden table (not the wire checksum).
uint64_t TestDigest(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::string FromHex(std::string_view hex) {
  auto nibble = [](char c) {
    return c <= '9' ? c - '0' : c - 'a' + 10;
  };
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

template <typename SketchT>
void Feed(SketchT& sketch, uint64_t seed = 11, size_t n = 300) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    sketch.Update(rng.NextUint64() % 512, static_cast<int64_t>(i % 5) - 2);
  }
}

OnePassHHOptions OnePassOptions() {
  OnePassHHOptions options;
  options.count_sketch = {2, 8};
  options.ams = {4, 2};
  options.candidates = 4;
  return options;
}

// One seeded blob per live SketchKind, in tag order.
std::vector<std::pair<std::string, std::string>> GoldenBlobs() {
  std::vector<std::pair<std::string, std::string>> blobs;
  {
    Rng rng(kSeed);
    CountSketch s(CountSketchOptions{2, 8}, rng);
    Feed(s);
    blobs.emplace_back("count_sketch", SerializeSketch(s));
  }
  {
    Rng rng(kSeed);
    AmsSketch s(AmsOptions{4, 2}, rng);
    Feed(s);
    blobs.emplace_back("ams", SerializeSketch(s));
  }
  {
    Rng rng(kSeed);
    GnpSketchOptions options;
    options.substreams = 4;
    options.trials = 2;
    options.id_bits = 9;
    GnpHeavyHitter s(options, rng);
    Feed(s);
    blobs.emplace_back("gnp", SerializeSketch(s));
  }
  {
    ExactFrequencySketch s;
    Feed(s, 11, 40);
    blobs.emplace_back("exact_frequency", SerializeSketch(s));
  }
  {
    Rng rng(kSeed);
    CountSketchTopK s(CountSketchOptions{2, 8}, 4, rng);
    Feed(s);
    blobs.emplace_back("count_sketch_topk", SerializeSketch(s));
  }
  {
    ExactHeavyHitterSketch s;
    Feed(s, 11, 40);
    blobs.emplace_back("exact_heavy_hitter", SerializeSketch(s));
  }
  {
    Rng rng(kSeed);
    OnePassHeavyHitter s(OnePassOptions(), rng);
    Feed(s);
    blobs.emplace_back("one_pass_hh", SerializeSketch(s));
  }
  {
    Rng rng(kSeed);
    TwoPassHHOptions options;
    options.count_sketch = {2, 8};
    options.candidates = 4;
    TwoPassHeavyHitter s(options, rng);
    Feed(s);
    s.AdvancePass();
    Feed(s, 12, 100);
    blobs.emplace_back("two_pass_hh", SerializeSketch(s));
  }
  {
    Rng rng(kSeed);
    const OnePassHHOptions hh = OnePassOptions();
    RecursiveGSum s(
        2,
        [hh](int, Rng& r) {
          return std::make_unique<OnePassHeavyHitter>(hh, r);
        },
        rng);
    Feed(s);
    blobs.emplace_back("recursive_gsum", SerializeSketch(s));
  }
  return blobs;
}

// A two-shard image of seeded CountSketch replicas.
CheckpointImage GoldenImage() {
  CheckpointImage image;
  image.cursor = 4096;
  image.producer.round_robin_next = 1;
  image.producer.stats.updates_submitted = 4096;
  image.producer.stats.chunks_committed = 7;
  image.producer.stats.producer_stalls = 2;
  image.producer.stats.shard_updates = {2050, 2043};
  for (const uint64_t stream_seed : {21, 22}) {
    Rng rng(kSeed);
    CountSketch s(CountSketchOptions{2, 8}, rng);
    Feed(s, stream_seed);
    image.shard_blobs.push_back(SerializeSketch(s));
  }
  return image;
}

struct Golden {
  const char* name;
  size_t size;
  uint64_t digest;
};

void ExpectGolden(const Golden& want, std::string_view blob) {
  char row[128];
  std::snprintf(row, sizeof(row), "{\"%s\", %zu, 0x%016llxULL},", want.name,
                blob.size(),
                static_cast<unsigned long long>(TestDigest(blob)));
  EXPECT_EQ(blob.size(), want.size) << "re-pin as: " << row;
  EXPECT_EQ(TestDigest(blob), want.digest) << "re-pin as: " << row;
}

struct SketchGolden {
  SketchKind kind;
  Golden golden;
};

// Version 3 (counter arrays at their width).  Version 2 wrote every
// counter as an i64: the kinds with counter arrays were larger (count_sketch
// 176, ams 112, gnp 696, count_sketch_topk 328, one_pass_hh 488,
// two_pass_hh 444, recursive_gsum 1548 bytes), and the two exact kinds
// differed only in the version word and so in their digests.  Tag 2 is
// retired; a test below pins its refusal.
constexpr SketchGolden kSketchGoldens[] = {
    {SketchKind::kCountSketch, {"count_sketch", 68, 0x3d362767fcec3703ULL}},
    {SketchKind::kAms, {"ams", 60, 0xe08ccfd23e9331eeULL}},
    {SketchKind::kGnp, {"gnp", 140, 0xfa6a3cc27a4094d2ULL}},
    {SketchKind::kExactFrequency,
     {"exact_frequency", 648, 0xcf46f2bad10f770aULL}},
    {SketchKind::kCountSketchTopK,
     {"count_sketch_topk", 220, 0x30cc957f6250c5abULL}},
    {SketchKind::kExactHeavyHitter,
     {"exact_heavy_hitter", 688, 0xeabf19863ec02749ULL}},
    {SketchKind::kOnePassHH, {"one_pass_hh", 328, 0x222e1c72dfc0cae0ULL}},
    {SketchKind::kTwoPassHH, {"two_pass_hh", 336, 0x6d36ceebc5b7acaaULL}},
    {SketchKind::kRecursiveGSum,
     {"recursive_gsum", 1068, 0x3fb380444698465aULL}},
};

// GCKP version 4: the v3 golden (kV3CheckpointHex below, 448 bytes) with
// its shard blobs at GSKB version 3.
constexpr Golden kCheckpointGolden = {"gckp_two_shards", 232,
                                      0xfb0ae1c0d8b34016ULL};

TEST(SketchIoGoldenTest, EveryKindMatchesItsPinnedBytes) {
  const auto blobs = GoldenBlobs();
  ASSERT_EQ(blobs.size(), std::size(kSketchGoldens));
  for (size_t i = 0; i < blobs.size(); ++i) {
    SCOPED_TRACE(blobs[i].first);
    ASSERT_EQ(blobs[i].first, kSketchGoldens[i].golden.name);
    ASSERT_EQ(PeekSketchKind(blobs[i].second), kSketchGoldens[i].kind);
    ExpectGolden(kSketchGoldens[i].golden, blobs[i].second);
  }
}

TEST(CheckpointGoldenTest, TwoShardImageMatchesItsPinnedBytes) {
  ExpectGolden(kCheckpointGolden, EncodeCheckpoint(GoldenImage()));
}

// ---------------------------------------------------------------------------
// Committed retired vectors: a v1 1x4 CountSketch blob and the same
// sketch's v2 blob, a v1 two-shard GCKP whose shards both hold the v1
// blob, the last v2 GCKP golden (it carried per-shard staged partial
// chunks) and the last v3 GCKP golden (its shard blobs are GSKB v2).
// ---------------------------------------------------------------------------

constexpr std::string_view kV1CountSketchHex =
    "47534b4201000000010000000000000047dad39d7f422c4d0100000000000000"
    "0400000000000000fffffffffffffffffaffffffffffffff0300000000000000"
    "0200000000000000c481f3b3c67a7757";

constexpr std::string_view kV1CheckpointHex =
    "47434b5001000000020000000000000000040000000000000000000000000000"
    "0004000000000000020000000000000000000000000000000002000000000000"
    "0002000000000000010000000000000009000000000000000300000000000000"
    "0000000000000000500000000000000047534b42010000000100000000000000"
    "47dad39d7f422c4d01000000000000000400000000000000ffffffffffffffff"
    "faffffffffffffff03000000000000000200000000000000c481f3b3c67a7757"
    "500000000000000047534b4201000000010000000000000047dad39d7f422c4d"
    "01000000000000000400000000000000fffffffffffffffffaffffffffffffff"
    "03000000000000000200000000000000c481f3b3c67a775706147b71da7fce93";

constexpr std::string_view kV2CheckpointHex =
    "47434b5002000000020000000000000000100000000000000100000000000000"
    "0010000000000000070000000000000002000000000000000208000000000000"
    "fb0700000000000003000000000000001100000000000000ffffffffffffffff"
    "2c01000000000000040000000000000011000000000000000200000000000000"
    "0000000000000000b00000000000000047534b42020000000100000000000000"
    "51398475980b3af6020000000000000008000000000000000100000000000000"
    "06000000000000000e00000000000000fcfffffffffffffff6ffffffffffffff"
    "0000000000000000010000000000000002000000000000000700000000000000"
    "0e0000000000000001000000000000000f000000000000000500000000000000"
    "f7fffffffffffffff4ffffffffffffff0b00000000000000bf884e0f835018f3"
    "b00000000000000047534b4202000000010000000000000051398475980b3af6"
    "020000000000000008000000000000001200000000000000f9ffffffffffffff"
    "f8ffffffffffffff0000000000000000f1ffffffffffffff0300000000000000"
    "f8fffffffffffffffffffffffffffffffbffffffffffffff0000000000000000"
    "0200000000000000fafffffffffffffff4fffffffffffffffeffffffffffffff"
    "10000000000000000100000000000000cfbd8298afe594c2f0160438c932cbb3";

constexpr std::string_view kV2CountSketchHex =
    "47534b4202000000010000000000000047dad39d7f422c4d0100000000000000"
    "0400000000000000fffffffffffffffffaffffffffffffff0300000000000000"
    "0200000000000000989c8fd49e08270a";

constexpr std::string_view kV3CheckpointHex =
    "47434b5003000000020000000000000000100000000000000100000000000000"
    "0010000000000000070000000000000002000000000000000208000000000000"
    "fb07000000000000b00000000000000047534b42020000000100000000000000"
    "51398475980b3af6020000000000000008000000000000000100000000000000"
    "06000000000000000e00000000000000fcfffffffffffffff6ffffffffffffff"
    "0000000000000000010000000000000002000000000000000700000000000000"
    "0e0000000000000001000000000000000f000000000000000500000000000000"
    "f7fffffffffffffff4ffffffffffffff0b00000000000000bf884e0f835018f3"
    "b00000000000000047534b4202000000010000000000000051398475980b3af6"
    "020000000000000008000000000000001200000000000000f9ffffffffffffff"
    "f8ffffffffffffff0000000000000000f1ffffffffffffff0300000000000000"
    "f8fffffffffffffffffffffffffffffffbffffffffffffff0000000000000000"
    "0200000000000000fafffffffffffffff4fffffffffffffffeffffffffffffff"
    "10000000000000000100000000000000cfbd8298afe594c24fa2439d332328cc";

CountSketch FedTinyCountSketch() {
  Rng rng(kSeed);
  CountSketch s(CountSketchOptions{1, 4}, rng);
  Feed(s, 5, 40);
  return s;
}

// Replaces a blob's version word and strips its checksum trailer.
std::string BodyAsVersion(std::string blob, uint32_t version) {
  for (int i = 0; i < 4; ++i) {
    blob[4 + i] = static_cast<char>(version >> (8 * i));
  }
  blob.resize(blob.size() - 8);
  return blob;
}

// Stamps a retired blob with this build's version and re-seals its
// checksum, so a loader reads past the version check.  Only the envelope
// changes: checks that come before the payload (kind, geometry,
// fingerprint) then see the blob as written.
std::string Restamped(std::string_view hex) {
  std::string blob = BodyAsVersion(FromHex(hex), kSketchFormatVersion);
  const uint64_t checksum = persist::Checksum64(blob);
  for (int i = 0; i < 8; ++i) {
    blob.push_back(static_cast<char>(checksum >> (8 * i)));
  }
  return blob;
}

// A retired sketch blob is refused by version, and the destination is
// untouched.
void ExpectRetiredBlob(std::string_view hex, uint32_t version) {
  CountSketch dst = FedTinyCountSketch();
  dst.Update(77, 5);
  const std::string before = SerializeSketch(dst);
  const LoadStatus status = DeserializeSketch(FromHex(hex), &dst);
  EXPECT_EQ(status.error, LoadError::kVersionSkew) << status.message;
  EXPECT_EQ(status.message, "format version " + std::to_string(version) +
                                ", this build reads " +
                                std::to_string(kSketchFormatVersion));
  EXPECT_EQ(SerializeSketch(dst), before);
}

// Format version 1 is retired: its FNV-1a trailer cannot verify as XXH64,
// and the loaders name the version instead of reporting corruption.
TEST(SketchIoGoldenTest, RetiredV1BlobIsVersionSkew) {
  ExpectRetiredBlob(kV1CountSketchHex, 1);
}

// Version 2 wrote every counter as an i64.  Its XXH64 trailer verifies, so
// the blob is named by its version.  Its body is the v1 blob's: v2 changed
// only the trailer.
TEST(SketchIoGoldenTest, RetiredV2BlobIsVersionSkew) {
  ExpectGolden({"count_sketch_1x4_v2", 80, 0xa65cc32b1a304f63ULL},
               FromHex(kV2CountSketchHex));
  ExpectRetiredBlob(kV2CountSketchHex, 2);
  EXPECT_EQ(ToHex(BodyAsVersion(FromHex(kV2CountSketchHex), 1)),
            ToHex(BodyAsVersion(FromHex(kV1CountSketchHex), 1)));
}

// A retired checkpoint is refused by version, and the image is untouched.
void ExpectRetiredCheckpoint(std::string_view hex, uint32_t version) {
  CheckpointImage image = GoldenImage();
  const std::string before = EncodeCheckpoint(image);
  const LoadStatus status = DecodeCheckpoint(FromHex(hex), &image);
  EXPECT_EQ(status.error, LoadError::kVersionSkew) << status.message;
  EXPECT_EQ(status.message, "checkpoint version " + std::to_string(version) +
                                ", this build reads " +
                                std::to_string(kCheckpointFormatVersion));
  EXPECT_EQ(EncodeCheckpoint(image), before);
}

TEST(CheckpointGoldenTest, RetiredV1CheckpointIsVersionSkew) {
  ExpectRetiredCheckpoint(kV1CheckpointHex, 1);
}

TEST(CheckpointGoldenTest, RetiredV2CheckpointIsVersionSkew) {
  ExpectGolden({"gckp_two_shards_v2", 512, 0xb979eba373c24e14ULL},
               FromHex(kV2CheckpointHex));
  ExpectRetiredCheckpoint(kV2CheckpointHex, 2);
}

// Version 3 framed GSKB version 2 shard blobs; it is refused at decode,
// before any shard blob reaches a loader.
TEST(CheckpointGoldenTest, RetiredV3CheckpointIsVersionSkew) {
  ExpectGolden({"gckp_two_shards_v3", 448, 0x64716fe6db864277ULL},
               FromHex(kV3CheckpointHex));
  ExpectRetiredCheckpoint(kV3CheckpointHex, 3);
}

// ---------------------------------------------------------------------------
// The last count_min blob, written before tag 2 was retired: the old
// "count_min" golden (2x8, the golden seed and stream).  No sketch reads
// tag 2 any more and no new kind may take it.
// ---------------------------------------------------------------------------

constexpr std::string_view kRetiredCountMinHex =
    "47534b42020000000200000000000000e77b8ef855a88f3e0200000000000000"
    "08000000000000000300000000000000faffffffffffffff0800000000000000"
    "f7ffffffffffffff0a00000000000000effffffffffffffffeffffffffffffff"
    "0d000000000000000000000000000000ffffffffffffffff0200000000000000"
    "fdffffffffffffff0100000000000000fdffffffffffffff0100000000000000"
    "0300000000000000477662a799747383";

// The blob is GSKB version 2, so as committed the version check refuses
// it.  Stamped with this build's version it is intact, so the loader gets
// as far as the tag and names what the blob holds.  The destination is
// left untouched either way.
TEST(SketchIoGoldenTest, RetiredCountMinBlobIsTypeMismatch) {
  const std::string blob = FromHex(kRetiredCountMinHex);
  ExpectGolden({"count_min", 176, 0xdb1de15eb6a9cff8ULL}, blob);
  ASSERT_EQ(PeekSketchKind(blob), SketchKind::kRetiredCountMin);
  Rng rng(kSeed);
  CountSketch dst(CountSketchOptions{2, 8}, rng);
  Feed(dst);
  const std::string before = SerializeSketch(dst);
  EXPECT_EQ(DeserializeSketch(blob, &dst).error, LoadError::kVersionSkew);
  const LoadStatus status =
      DeserializeSketch(Restamped(kRetiredCountMinHex), &dst);
  EXPECT_EQ(status.error, LoadError::kTypeMismatch) << status.message;
  EXPECT_EQ(status.message,
            "blob holds count_min, destination is count_sketch");
  EXPECT_EQ(SerializeSketch(dst), before);
}

// ---------------------------------------------------------------------------
// A committed AMS blob from when each estimator had a 4-wise sign row of
// its own: the "ams" golden's seed, geometry and stream.
// ---------------------------------------------------------------------------

constexpr std::string_view kRowSignAmsHex =
    "47534b42020000000300000000000000a9c0bbe96431c2ae0400000000000000"
    "02000000000000002c0000000000000000000000000000002a00000000000000"
    "0400000000000000ccfffffffffffffff2fffffffffffffffcffffffffffffff"
    "beffffffffffffff7081d78b919004d3";

// The blob is GSKB version 2, so as committed it now meets the version
// check first.  Stamped with this build's version, it parses as far as the
// fingerprint, which comes before the counters; the sign derivation
// changed, so a same-seed shell refuses it instead of adding in sums
// signed by other hashes.
TEST(SketchIoGoldenTest, RowSignAmsBlobIsFingerprintMismatch) {
  Rng rng(kSeed);
  AmsSketch dst(AmsOptions{4, 2}, rng);
  Feed(dst);
  const std::string before = SerializeSketch(dst);
  EXPECT_EQ(DeserializeSketch(FromHex(kRowSignAmsHex), &dst).error,
            LoadError::kVersionSkew);
  const LoadStatus status = DeserializeSketch(Restamped(kRowSignAmsHex), &dst);
  EXPECT_EQ(status.error, LoadError::kFingerprintMismatch) << status.message;
  EXPECT_EQ(SerializeSketch(dst), before);
}

// XXH64 reference values (seed 0), computed independently of this
// implementation.
TEST(SketchIoChecksumTest, Xxh64KnownAnswers) {
  EXPECT_EQ(persist::Checksum64(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(persist::Checksum64("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(persist::Checksum64("abc"), 0x44bc2cf5ad770999ULL);
  std::string ramp;
  for (int i = 0; i < 1000; ++i) {
    ramp.push_back(static_cast<char>((i * 31 + 7) & 0xff));
  }
  EXPECT_EQ(persist::Checksum64(ramp), 0x99594f4828043d35ULL);
}

}  // namespace
}  // namespace gstream
