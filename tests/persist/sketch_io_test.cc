// The durable wire format: roundtrips for every sketch type, and the
// robustness contract -- Deserialize is a total function over arbitrary
// bytes.  The corruption sweeps flip every byte and truncate at every
// length and assert (a) a clean failure with the *right* reason class and
// (b) the destination sketch bit-unchanged on every failure path.  The
// death tests mirror the in-memory MergeFrom guards: feeding an
// incompatible blob through the OrDie path (what the cross-process reducer
// uses) aborts with the load reason, exactly like merging incompatible
// in-memory sketches aborts with GSTREAM_CHECK.

#include "persist/sketch_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "core/gnp_sketch.h"
#include "core/heavy_hitters.h"
#include "core/one_pass_hh.h"
#include "core/recursive_sketch.h"
#include "core/two_pass_hh.h"
#include "sketch/ams.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "stream/exact.h"
#include "stream/generators.h"
#include "util/fault.h"

namespace gstream {
namespace {

constexpr uint64_t kSeed = 0xfeedULL;
constexpr uint64_t kOtherSeed = 0xbeefULL;

// Small geometries keep the full byte-flip / truncation sweeps fast.
CountSketch MakeCountSketch(uint64_t seed = kSeed) {
  Rng rng(seed);
  return CountSketch(CountSketchOptions{3, 64}, rng);
}

CountSketchTopK MakeTopK(uint64_t seed = kSeed) {
  Rng rng(seed);
  return CountSketchTopK(CountSketchOptions{3, 64}, 8, rng);
}

AmsSketch MakeAms(uint64_t seed = kSeed) {
  Rng rng(seed);
  return AmsSketch(AmsOptions{8, 3}, rng);
}

CountMinSketch MakeCountMin(uint64_t seed = kSeed) {
  Rng rng(seed);
  return CountMinSketch(CountMinOptions{3, 64}, rng);
}

GnpHeavyHitter MakeGnp(uint64_t seed = kSeed) {
  Rng rng(seed);
  GnpSketchOptions options;
  options.substreams = 8;
  options.trials = 6;
  options.id_bits = 12;
  return GnpHeavyHitter(options, rng);
}

OnePassHeavyHitter MakeOnePass(uint64_t seed = kSeed) {
  Rng rng(seed);
  OnePassHHOptions options;
  options.count_sketch = {3, 64};
  options.ams = {8, 3};
  options.candidates = 8;
  return OnePassHeavyHitter(options, rng);
}

TwoPassHeavyHitter MakeTwoPass(uint64_t seed = kSeed) {
  Rng rng(seed);
  TwoPassHHOptions options;
  options.count_sketch = {3, 64};
  options.candidates = 8;
  return TwoPassHeavyHitter(options, rng);
}

RecursiveGSum MakeRecursive(uint64_t seed = kSeed) {
  Rng rng(seed);
  OnePassHHOptions hh;
  hh.count_sketch = {3, 32};
  hh.ams = {4, 3};
  hh.candidates = 6;
  return RecursiveGSum(
      2, [hh](int, Rng& r) { return std::make_unique<OnePassHeavyHitter>(hh, r); },
      rng);
}

// The torn-write tests arm atomic-write kill points on the process-wide
// fault registry; TearDown disarms it, so no test inherits an armed site.
class SketchIoTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Registry::Get().Disarm(); }
};

// Arms `site` (a kAtomicWriteSites entry) to fire on its next evaluation.
void ArmOnce(const char* site) {
  fault::Registry::Get().Arm(/*seed=*/0, {{site, 1.0, 0, /*max_fires=*/1}});
}

// A small deterministic turnstile stream.
template <typename SketchT>
void Feed(SketchT& sketch, uint64_t seed = 3, size_t n = 2000) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    sketch.Update(rng.NextUint64() % 4096,
                  static_cast<int64_t>(i % 7) - 3);
  }
}

// Recomputes the trailing checksum after a surgical body edit, so crafted
// blobs fail on the *semantic* check under test, not on the checksum.
std::string RewriteWithValidChecksum(std::string blob) {
  blob.resize(blob.size() - 8);  // strip old checksum
  const uint64_t checksum = persist::Checksum64(blob);
  for (int i = 0; i < 8; ++i) {
    blob.push_back(static_cast<char>(checksum >> (8 * i)));
  }
  return blob;
}

// Asserts a failed load reported `want` and left `dst` bit-unchanged.
template <typename SketchT>
void ExpectLoadFails(std::string_view blob, SketchT* dst, LoadError want) {
  const std::string before = SerializeSketch(*dst);
  const LoadStatus status = DeserializeSketch(blob, dst);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error, want) << status.message;
  EXPECT_FALSE(status.message.empty());
  EXPECT_EQ(SerializeSketch(*dst), before)
      << "failed load mutated the destination";
}

// ---------------------------------------------------------------------------
// Roundtrips: serialize -> deserialize into a fresh same-seed shell -> the
// shell re-serializes to the identical bytes (deterministic format) and
// answers queries identically.
// ---------------------------------------------------------------------------

template <typename SketchT, typename MakeFn>
void RoundtripCase(MakeFn make) {
  SketchT original = make(kSeed);
  Feed(original);
  const std::string blob = SerializeSketch(original);
  SketchT restored = make(kSeed);
  const LoadStatus status = DeserializeSketch(blob, &restored);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(SerializeSketch(restored), blob);
}

TEST_F(SketchIoTest, RoundtripCountSketch) {
  RoundtripCase<CountSketch>(MakeCountSketch);
  // Behavioral spot check on top of the byte pin.
  CountSketch original = MakeCountSketch();
  Feed(original);
  CountSketch restored = MakeCountSketch();
  ASSERT_TRUE(DeserializeSketch(SerializeSketch(original), &restored).ok());
  for (ItemId item = 0; item < 64; ++item) {
    EXPECT_EQ(restored.Estimate(item), original.Estimate(item));
  }
}

TEST_F(SketchIoTest, RoundtripCountMin) { RoundtripCase<CountMinSketch>(MakeCountMin); }
TEST_F(SketchIoTest, RoundtripAms) { RoundtripCase<AmsSketch>(MakeAms); }
TEST_F(SketchIoTest, RoundtripGnp) { RoundtripCase<GnpHeavyHitter>(MakeGnp); }
TEST_F(SketchIoTest, RoundtripTopK) { RoundtripCase<CountSketchTopK>(MakeTopK); }
TEST_F(SketchIoTest, RoundtripOnePassHH) {
  RoundtripCase<OnePassHeavyHitter>(MakeOnePass);
}

TEST_F(SketchIoTest, RoundtripExactFrequency) {
  ExactFrequencySketch original;
  Feed(original);
  const std::string blob = SerializeSketch(original);
  ExactFrequencySketch restored;
  ASSERT_TRUE(DeserializeSketch(blob, &restored).ok());
  EXPECT_EQ(SerializeSketch(restored), blob);
  EXPECT_EQ(restored.Frequencies(), original.Frequencies());
}

TEST_F(SketchIoTest, RoundtripExactHeavyHitter) {
  ExactHeavyHitterSketch original;
  Feed(original);
  const std::string blob = SerializeSketch(original);
  ExactHeavyHitterSketch restored;
  ASSERT_TRUE(DeserializeSketch(blob, &restored).ok());
  EXPECT_EQ(SerializeSketch(restored), blob);
}

TEST_F(SketchIoTest, RoundtripTwoPassBothPasses) {
  // Mid-pass-1 state.
  RoundtripCase<TwoPassHeavyHitter>(MakeTwoPass);
  // Frozen-candidates pass-2 state: the restored sketch must carry the
  // candidate table and exact counts, not just the tracker.
  TwoPassHeavyHitter original = MakeTwoPass();
  Feed(original);
  original.AdvancePass();
  Feed(original, /*seed=*/4, /*n=*/800);
  const std::string blob = SerializeSketch(original);
  TwoPassHeavyHitter restored = MakeTwoPass();
  ASSERT_TRUE(DeserializeSketch(blob, &restored).ok());
  EXPECT_EQ(SerializeSketch(restored), blob);
  EXPECT_EQ(restored.candidate_ids(), original.candidate_ids());
}

TEST_F(SketchIoTest, RoundtripRecursiveGSumStack) {
  RecursiveGSum original = MakeRecursive();
  Feed(original);
  const std::string blob = SerializeSketch(original);
  RecursiveGSum restored = MakeRecursive();
  const LoadStatus status = DeserializeSketch(blob, &restored);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(SerializeSketch(restored), blob);
  EXPECT_EQ(restored.Fingerprint(), original.Fingerprint());
}

TEST_F(SketchIoTest, PolymorphicHeavyHitterDispatch) {
  OnePassHeavyHitter original = MakeOnePass();
  Feed(original);
  const GHeavyHitterSketch& base = original;
  const std::string blob = SerializeHeavyHitter(base);
  EXPECT_EQ(PeekSketchKind(blob), SketchKind::kOnePassHH);
  OnePassHeavyHitter restored = MakeOnePass();
  GHeavyHitterSketch* base_dst = &restored;
  ASSERT_TRUE(DeserializeHeavyHitter(blob, base_dst).ok());
  EXPECT_EQ(SerializeSketch(restored), blob);
  // Blob kind vs destination dynamic type mismatch is detected.
  TwoPassHeavyHitter wrong = MakeTwoPass();
  GHeavyHitterSketch* wrong_dst = &wrong;
  const LoadStatus status = DeserializeHeavyHitter(blob, wrong_dst);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error, LoadError::kTypeMismatch);
}

// ---------------------------------------------------------------------------
// The totality contract: corruption sweeps.
// ---------------------------------------------------------------------------

TEST_F(SketchIoTest, ByteFlipSweepFailsCleanlyAtEveryPosition) {
  CountSketch original = MakeCountSketch();
  Feed(original);
  const std::string blob = SerializeSketch(original);
  CountSketch dst = MakeCountSketch();
  for (size_t pos = 0; pos < blob.size(); ++pos) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string corrupt = blob;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ mask);
      const std::string before = SerializeSketch(dst);
      const LoadStatus status = DeserializeSketch(corrupt, &dst);
      ASSERT_FALSE(status.ok()) << "flip at " << pos << " was accepted";
      // A flip lands in the magic (detected as not-this-format) or
      // anywhere else (caught by the whole-blob checksum).
      EXPECT_TRUE(status.error == LoadError::kBadMagic ||
                  status.error == LoadError::kChecksumMismatch)
          << "flip at " << pos << ": " << LoadErrorName(status.error);
      ASSERT_EQ(SerializeSketch(dst), before) << "flip at " << pos;
    }
  }
}

TEST_F(SketchIoTest, TruncationSweepFailsCleanlyAtEveryLength) {
  CountSketch original = MakeCountSketch();
  Feed(original);
  const std::string blob = SerializeSketch(original);
  CountSketch dst = MakeCountSketch();
  for (size_t len = 0; len < blob.size(); ++len) {
    const std::string before = SerializeSketch(dst);
    ExpectLoadFails(std::string_view(blob).substr(0, len), &dst,
                    len < 4 ? LoadError::kBadMagic
                    : len < 32 ? LoadError::kTruncated  // header + checksum
                               : LoadError::kChecksumMismatch);
    ASSERT_EQ(SerializeSketch(dst), before) << "truncation at " << len;
  }
}

TEST_F(SketchIoTest, NestedBlobTruncationSweep) {
  // Composite blob (nested children): coarser sweep, exercising the
  // length-prefixed child framing paths.
  RecursiveGSum original = MakeRecursive();
  Feed(original, /*seed=*/3, /*n=*/500);
  const std::string blob = SerializeSketch(original);
  RecursiveGSum dst = MakeRecursive();
  for (size_t len = 0; len < blob.size(); len += 7) {
    const std::string before = SerializeSketch(dst);
    const LoadStatus status =
        DeserializeSketch(std::string_view(blob).substr(0, len), &dst);
    ASSERT_FALSE(status.ok()) << "truncation at " << len;
    ASSERT_EQ(SerializeSketch(dst), before) << "truncation at " << len;
  }
}

TEST_F(SketchIoTest, EmptyAndForeignBytesAreBadMagic) {
  CountSketch dst = MakeCountSketch();
  ExpectLoadFails("", &dst, LoadError::kBadMagic);
  ExpectLoadFails("GSK", &dst, LoadError::kBadMagic);
  ExpectLoadFails("#!/bin/sh\necho not a sketch\n", &dst,
                  LoadError::kBadMagic);
  EXPECT_EQ(PeekSketchKind(""), std::nullopt);
  EXPECT_EQ(PeekSketchKind("garbage bytes here"), std::nullopt);
}

// ---------------------------------------------------------------------------
// Mismatch reasons: each incompatibility reports its own code.
// ---------------------------------------------------------------------------

TEST_F(SketchIoTest, VersionSkewIsReported) {
  CountSketch original = MakeCountSketch();
  Feed(original);
  std::string blob = SerializeSketch(original);
  blob[4] = static_cast<char>(kSketchFormatVersion + 1);  // u32 version LSB
  blob = RewriteWithValidChecksum(std::move(blob));
  CountSketch dst = MakeCountSketch();
  ExpectLoadFails(blob, &dst, LoadError::kVersionSkew);
}

TEST_F(SketchIoTest, TypeMismatchIsReported) {
  CountMinSketch original = MakeCountMin();
  Feed(original);
  const std::string blob = SerializeSketch(original);
  CountSketch dst = MakeCountSketch();
  ExpectLoadFails(blob, &dst, LoadError::kTypeMismatch);
}

TEST_F(SketchIoTest, FingerprintMismatchIsReported) {
  CountSketch original = MakeCountSketch(kSeed);
  Feed(original);
  const std::string blob = SerializeSketch(original);
  CountSketch dst = MakeCountSketch(kOtherSeed);  // same geometry, new seed
  ExpectLoadFails(blob, &dst, LoadError::kFingerprintMismatch);
}

TEST_F(SketchIoTest, GeometryMismatchIsReported) {
  CountSketch original = MakeCountSketch();
  Feed(original);
  const std::string blob = SerializeSketch(original);
  Rng rng(kSeed);
  CountSketch dst(CountSketchOptions{3, 128}, rng);  // same seed, wider
  ExpectLoadFails(blob, &dst, LoadError::kGeometryMismatch);
}

TEST_F(SketchIoTest, TrailingDataIsReported) {
  CountSketch original = MakeCountSketch();
  Feed(original);
  std::string blob = SerializeSketch(original);
  blob.resize(blob.size() - 8);
  blob.append(4, '\0');  // well-formed payload, then garbage
  const uint64_t checksum = persist::Checksum64(blob);
  for (int i = 0; i < 8; ++i) {
    blob.push_back(static_cast<char>(checksum >> (8 * i)));
  }
  CountSketch dst = MakeCountSketch();
  ExpectLoadFails(blob, &dst, LoadError::kTrailingData);
}

TEST_F(SketchIoTest, DomainErrorIsReported) {
  TwoPassHeavyHitter original = MakeTwoPass();
  Feed(original);
  std::string blob = SerializeSketch(original);
  blob[24] = 3;  // the u32 pass field right after the header; {1,2} only
  blob = RewriteWithValidChecksum(std::move(blob));
  TwoPassHeavyHitter dst = MakeTwoPass();
  ExpectLoadFails(blob, &dst, LoadError::kDomainError);
}

// ---------------------------------------------------------------------------
// Death tests: the OrDie path the cross-process reducer uses mirrors the
// in-memory MergeFrom guards (tests/sketch/merge_test.cc) -- incompatible
// serialized sketches abort with the load reason.
// ---------------------------------------------------------------------------

TEST(SketchIoDeathTest, MergingWrongSeedBlobDies) {
  CountSketch original = MakeCountSketch(kSeed);
  Feed(original);
  const std::string blob = SerializeSketch(original);
  CountSketch dst = MakeCountSketch(kOtherSeed);
  EXPECT_DEATH(DeserializeSketchOrDie(blob, &dst), "fingerprint_mismatch");
}

TEST(SketchIoDeathTest, MergingWrongTypeBlobDies) {
  CountMinSketch original = MakeCountMin();
  Feed(original);
  const std::string blob = SerializeSketch(original);
  CountSketch dst = MakeCountSketch();
  EXPECT_DEATH(DeserializeSketchOrDie(blob, &dst), "type_mismatch");
}

TEST(SketchIoDeathTest, MergingWrongGeometryBlobDies) {
  CountSketch original = MakeCountSketch();
  Feed(original);
  const std::string blob = SerializeSketch(original);
  Rng rng(kSeed);
  CountSketch dst(CountSketchOptions{5, 64}, rng);
  EXPECT_DEATH(DeserializeSketchOrDie(blob, &dst), "geometry_mismatch");
}

TEST(SketchIoDeathTest, MergingFutureVersionBlobDies) {
  CountSketch original = MakeCountSketch();
  Feed(original);
  std::string blob = SerializeSketch(original);
  blob[4] = static_cast<char>(kSketchFormatVersion + 1);
  blob = RewriteWithValidChecksum(std::move(blob));
  CountSketch dst = MakeCountSketch();
  EXPECT_DEATH(DeserializeSketchOrDie(blob, &dst), "version_skew");
}

// ---------------------------------------------------------------------------
// Crash-consistent file I/O.
// ---------------------------------------------------------------------------

TEST_F(SketchIoTest, SaveLoadRoundtripThroughFile) {
  const std::string path = testing::TempDir() + "/sketch_io_roundtrip.gskb";
  CountSketch original = MakeCountSketch();
  Feed(original);
  ASSERT_TRUE(SaveSketch(original, path));
  CountSketch restored = MakeCountSketch();
  const LoadStatus status = LoadSketch(path, &restored);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(SerializeSketch(restored), SerializeSketch(original));
  std::remove(path.c_str());
}

TEST_F(SketchIoTest, MissingFileIsIoError) {
  CountSketch dst = MakeCountSketch();
  const LoadStatus status =
      LoadSketch(testing::TempDir() + "/no_such_sketch.gskb", &dst);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error, LoadError::kIoError);
}

TEST_F(SketchIoTest, AtomicWriteSurvivesEveryInjectedFault) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with GSTREAM_FAULTS=OFF";
  const std::string path = testing::TempDir() + "/sketch_io_atomic.gskb";
  CountSketch v1 = MakeCountSketch();
  Feed(v1, /*seed=*/3);
  ASSERT_TRUE(SaveSketch(v1, path));
  const std::string v1_blob = SerializeSketch(v1);

  CountSketch v2 = MakeCountSketch();
  Feed(v2, /*seed=*/9);
  const std::string v2_blob = SerializeSketch(v2);
  for (const char* site : kAtomicWriteSites) {
    // Rewrite v1 so every phase starts from the same previous version
    // (the before-dirsync iteration, below, replaces the file).
    ASSERT_TRUE(WriteFileAtomic(path, v1_blob));
    ArmOnce(site);
    ASSERT_FALSE(WriteFileAtomic(path, v2_blob));
    // A complete version survives a crash at any phase: the previous one
    // for the pre-rename phases; for before-dirsync the rename already
    // happened, so the NEW complete file is in place (merely not yet
    // durable against power loss) -- either way, never a torn mix.
    CountSketch restored = MakeCountSketch();
    const LoadStatus status = LoadSketch(path, &restored);
    ASSERT_TRUE(status.ok()) << site << ": " << status.message;
    const std::string restored_blob = SerializeSketch(restored);
    if (site == kAtomicWriteSites[3]) {  // before-dirsync
      EXPECT_EQ(restored_blob, v2_blob) << site;
    } else {
      EXPECT_EQ(restored_blob, v1_blob) << site;
    }
  }
  // The production path replaces it.
  ASSERT_TRUE(WriteFileAtomic(path, v2_blob));
  CountSketch restored = MakeCountSketch();
  ASSERT_TRUE(LoadSketch(path, &restored).ok());
  EXPECT_EQ(SerializeSketch(restored), v2_blob);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST_F(SketchIoTest, AtomicWriteSiteNamesAreStable) {
  // The phases are a CLI/JSON surface (tools/ckpt_ingest --fault=,
  // "fault_phase" in its --stats=json), and the site names are what a
  // chaos schedule arms: renaming one is a breaking change.
  const std::vector<std::string> sites(std::begin(kAtomicWriteSites),
                                       std::end(kAtomicWriteSites));
  EXPECT_EQ(sites, (std::vector<std::string>{
                       "persist/atomic_write/before-tmp",
                       "persist/atomic_write/mid-tmp",
                       "persist/atomic_write/before-rename",
                       "persist/atomic_write/before-dirsync"}));
}

TEST_F(SketchIoTest, TornTmpWithoutPreviousVersionIsCleanAbsence) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with GSTREAM_FAULTS=OFF";
  const std::string path = testing::TempDir() + "/sketch_io_torn.gskb";
  std::remove(path.c_str());
  CountSketch v1 = MakeCountSketch();
  Feed(v1);
  ArmOnce(kAtomicWriteSites[1]);  // mid-tmp
  ASSERT_FALSE(WriteFileAtomic(path, SerializeSketch(v1)));
  // No rename happened: the target path simply does not exist, and the torn
  // .tmp is never read by the loader.
  CountSketch dst = MakeCountSketch();
  const LoadStatus status = LoadSketch(path, &dst);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error, LoadError::kIoError);
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace gstream
