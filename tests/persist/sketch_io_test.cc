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

GnpHeavyHitter MakeGnp(uint64_t seed = kSeed, size_t substreams = 8,
                       size_t trials = 6, int id_bits = 12) {
  Rng rng(seed);
  GnpSketchOptions options;
  options.substreams = substreams;
  options.trials = trials;
  options.id_bits = id_bits;
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

RecursiveGSum MakeRecursive(uint64_t seed = kSeed, int levels = 2) {
  Rng rng(seed);
  OnePassHHOptions hh;
  hh.count_sketch = {3, 32};
  hh.ams = {4, 3};
  hh.candidates = 6;
  return RecursiveGSum(
      levels,
      [hh](int, Rng& r) { return std::make_unique<OnePassHeavyHitter>(hh, r); },
      rng);
}

// A sketch built from Rng(seed) with constructor arguments `args`.
template <typename SketchT, typename... Args>
SketchT Seeded(uint64_t seed, const Args&... args) {
  Rng rng(seed);
  return SketchT(args..., rng);
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

TEST_F(SketchIoTest, RoundtripAms) { RoundtripCase<AmsSketch>(MakeAms); }
TEST_F(SketchIoTest, RoundtripGnp) {
  RoundtripCase<GnpHeavyHitter>([](uint64_t seed) { return MakeGnp(seed); });
}
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
  // A GSKB header whose tag names no SketchKind peeks as nothing.
  std::string blob = SerializeSketch(dst);
  for (const char tag : {0, 11}) {
    blob[8] = tag;  // the u32 kind tag's low byte; the rest are zero
    EXPECT_EQ(PeekSketchKind(blob), std::nullopt) << int{tag};
  }
  EXPECT_STREQ(SketchKindName(static_cast<SketchKind>(11)), "unknown");
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
  AmsSketch original = MakeAms();
  Feed(original);
  const std::string blob = SerializeSketch(original);
  CountSketch dst = MakeCountSketch();
  ExpectLoadFails(blob, &dst, LoadError::kTypeMismatch);
}

// Loads the blob of `original`, fed, into `dst`, fed with another stream,
// and expects `want` with `dst` unchanged.
template <typename SketchT>
void ExpectMismatch(const char* name, SketchT original, SketchT dst,
                    LoadError want) {
  SCOPED_TRACE(name);
  Feed(original);
  Feed(dst, /*seed=*/5);
  ExpectLoadFails(SerializeSketch(original), &dst, want);
}

// Same geometry, another seed: every kind whose fingerprint hashes seeds.
TEST_F(SketchIoTest, FingerprintMismatchIsReported) {
  constexpr LoadError kWant = LoadError::kFingerprintMismatch;
  ExpectMismatch("count_sketch", MakeCountSketch(kSeed),
                 MakeCountSketch(kOtherSeed), kWant);
  ExpectMismatch("ams", MakeAms(kSeed), MakeAms(kOtherSeed), kWant);
  ExpectMismatch("gnp", MakeGnp(kSeed), MakeGnp(kOtherSeed), kWant);
  ExpectMismatch("count_sketch_topk", MakeTopK(kSeed), MakeTopK(kOtherSeed),
                 kWant);
  ExpectMismatch("one_pass_hh", MakeOnePass(kSeed), MakeOnePass(kOtherSeed),
                 kWant);
  ExpectMismatch("two_pass_hh", MakeTwoPass(kSeed), MakeTwoPass(kOtherSeed),
                 kWant);
  ExpectMismatch("recursive_gsum", MakeRecursive(kSeed),
                 MakeRecursive(kOtherSeed), kWant);
}

// Same seed, one geometry word changed.  A different geometry also draws
// different randomness, so this passes only if geometry is checked before
// the fingerprint.
TEST_F(SketchIoTest, GeometryMismatchIsReported) {
  constexpr LoadError kWant = LoadError::kGeometryMismatch;
  ExpectMismatch("count_sketch rows", MakeCountSketch(),
                 Seeded<CountSketch>(kSeed, CountSketchOptions{5, 64}), kWant);
  ExpectMismatch("count_sketch buckets", MakeCountSketch(),
                 Seeded<CountSketch>(kSeed, CountSketchOptions{3, 128}), kWant);
  ExpectMismatch("ams group_size", MakeAms(),
                 Seeded<AmsSketch>(kSeed, AmsOptions{16, 3}), kWant);
  ExpectMismatch("ams groups", MakeAms(),
                 Seeded<AmsSketch>(kSeed, AmsOptions{8, 5}), kWant);
  ExpectMismatch("gnp substreams", MakeGnp(), MakeGnp(kSeed, 16), kWant);
  ExpectMismatch("gnp trials", MakeGnp(), MakeGnp(kSeed, 8, 8), kWant);
  ExpectMismatch("gnp id_bits", MakeGnp(), MakeGnp(kSeed, 8, 6, 13), kWant);
  ExpectMismatch("count_sketch_topk k", MakeTopK(),
                 Seeded<CountSketchTopK>(kSeed, CountSketchOptions{3, 64},
                                         size_t{16}),
                 kWant);
  ExpectMismatch("recursive_gsum levels", MakeRecursive(),
                 MakeRecursive(kSeed, /*levels=*/3), kWant);
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

// Exact-frequency entries load only as the writer emits them: ids strictly
// ascending.  A duplicate or a descending id once loaded (a duplicate kept
// its last value) and re-serialized to other bytes.
constexpr size_t kFirstEntry = 24 + 8;  // header, then the entry count

std::string ExactFrequencyBlob() {
  ExactFrequencySketch original;
  Feed(original);
  return SerializeSketch(original);
}

TEST_F(SketchIoTest, DuplicateExactFrequencyIdIsDomainError) {
  std::string blob = ExactFrequencyBlob();
  blob.replace(kFirstEntry + 16, 8, blob, kFirstEntry, 8);  // entry 1 := 0
  ExactFrequencySketch dst;
  Feed(dst, 9, 50);
  ExpectLoadFails(RewriteWithValidChecksum(std::move(blob)), &dst,
                  LoadError::kDomainError);
}

TEST_F(SketchIoTest, DescendingExactFrequencyIdIsDomainError) {
  std::string blob = ExactFrequencyBlob();
  const std::string first = blob.substr(kFirstEntry, 16);
  blob.replace(kFirstEntry, 16, blob, kFirstEntry + 16, 16);  // swap 0, 1
  blob.replace(kFirstEntry + 16, 16, first);
  ExactFrequencySketch dst;
  Feed(dst, 9, 50);
  ExpectLoadFails(RewriteWithValidChecksum(std::move(blob)), &dst,
                  LoadError::kDomainError);
}

// The reserved flags word (bytes 12-15) must be zero: a blob with a flag
// set was written by no build of this format.
TEST_F(SketchIoTest, NonzeroFlagsWordIsDomainError) {
  for (const uint8_t flag : {0x01, 0x80}) {
    for (const size_t byte : {12, 15}) {
      CountSketch original = MakeCountSketch();
      Feed(original);
      std::string blob = SerializeSketch(original);
      blob[byte] = static_cast<char>(flag);
      CountSketch dst = MakeCountSketch();
      Feed(dst, 9, 50);
      ExpectLoadFails(RewriteWithValidChecksum(blob), &dst,
                      LoadError::kDomainError);
      std::string exact = ExactFrequencyBlob();
      exact[byte] = static_cast<char>(flag);
      ExactFrequencySketch exact_dst;
      ExpectLoadFails(RewriteWithValidChecksum(std::move(exact)), &exact_dst,
                      LoadError::kDomainError);
    }
  }
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
  AmsSketch original = MakeAms();
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
