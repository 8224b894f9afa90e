// Structure-aware mutation fuzzing of the GSKB and GCKP loaders.
//
// The byte-flip and truncation sweeps in sketch_io_test.cc and
// checkpoint_test.cc mostly stop at the checksum.  This suite walks a
// valid blob's layout -- the envelope, the length-prefixed child blobs
// (recursively) and, for a GCKP, the shard table -- and mutates one
// semantic field at a time: child lengths, entry and shard counts,
// geometry words, kind and version tags, the reserved flags word, and the
// sorted entry lists -- top-k candidates and exact frequencies (a
// duplicated id, two entries out of order, or, for a tracker, more than 2k
// entries: lists the writer never emits).  It then re-seals every checksum
// innermost first, so the mutant reaches the parser behind the checksum.
// Mutants are drawn from SplitMix64 with a fixed budget.
//
// The oracle: every mutant either loads, re-serializes to exactly its own
// bytes and keeps every top-k tracker within its 2k-candidate bound, or
// fails with a named LoadError and a message and leaves the destination
// bit-unchanged.  A decoded GCKP mutant must also either restore into a
// fresh ingestor and then take a chunk, or fail the restore with a named
// LoadError.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
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
#include "util/random.h"

namespace gstream {
namespace {

constexpr uint64_t kSeed = 0xf022ULL;

// ---------------------------------------------------------------------------
// The layout walker.
// ---------------------------------------------------------------------------

enum class FieldClass {
  kVersion,
  kKind,
  kGeometry,
  kCount,
  kChildLength,
  kFlags,
  kEntryList,  // a sorted (id, value) list; `offset` is its count word
};

struct Field {
  size_t offset;
  size_t width;  // 4 or 8
  FieldClass cls;
  size_t k_offset = 0;  // kEntryList of a tracker: its k word (0: unbounded)
};

// A checksummed envelope [begin, end); its checksum is the last 8 bytes.
struct Seal {
  size_t begin;
  size_t end;
  int depth;
};

struct WireMap {
  std::vector<Field> fields;
  std::vector<Seal> seals;  // innermost (deepest) first after Walk*()
};

uint64_t ReadLe(std::string_view bytes, size_t offset, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[offset + i]))
         << (8 * i);
  }
  return v;
}

void WriteLe(std::string* bytes, size_t offset, size_t width, uint64_t v) {
  for (size_t i = 0; i < width; ++i) {
    (*bytes)[offset + i] = static_cast<char>(v >> (8 * i));
  }
}

// Walks a *valid* blob; the layouts mirror sketch_io.cc and checkpoint.cc.
class Walker {
 public:
  explicit Walker(std::string_view bytes) : bytes_(bytes) {}

  WireMap WalkSketch() {
    Blob(0, bytes_.size(), 0);
    return Finish();
  }

  WireMap WalkCheckpoint() {
    map_.seals.push_back({0, bytes_.size(), 0});
    Add(4, 4, FieldClass::kVersion);
    Add(8, 8, FieldClass::kCount);   // shards
    Add(24, 8, FieldClass::kCount);  // round-robin position
    const uint64_t shards = ReadLe(bytes_, 8, 8);
    // cursor, round-robin position, three stat words, per-shard counts.
    size_t pos = 16 + 5 * 8 + 8 * shards;
    for (uint64_t s = 0; s < shards; ++s) pos = Child(pos, 1);
    return Finish();
  }

 private:
  void Add(size_t offset, size_t width, FieldClass cls, size_t k_offset = 0) {
    map_.fields.push_back({offset, width, cls, k_offset});
  }

  // A length-prefixed child blob at `pos`; returns the offset past it.
  size_t Child(size_t pos, int depth) {
    Add(pos, 8, FieldClass::kChildLength);
    const size_t len = ReadLe(bytes_, pos, 8);
    Blob(pos + 8, pos + 8 + len, depth);
    return pos + 8 + len;
  }

  void Blob(size_t begin, size_t end, int depth) {
    map_.seals.push_back({begin, end, depth});
    Add(begin + 4, 4, FieldClass::kVersion);
    Add(begin + 8, 4, FieldClass::kKind);
    Add(begin + 12, 4, FieldClass::kFlags);
    size_t pos = begin + 24;
    auto geometry = [&](int words) {
      for (int i = 0; i < words; ++i, pos += 8) {
        Add(pos, 8, FieldClass::kGeometry);
      }
    };
    switch (static_cast<SketchKind>(ReadLe(bytes_, begin + 8, 4))) {
      case SketchKind::kCountSketch:
      case SketchKind::kAms:
        geometry(2);
        break;
      case SketchKind::kGnp:
        geometry(3);
        break;
      case SketchKind::kExactFrequency:
        Add(pos, 8, FieldClass::kCount);
        Add(pos, 8, FieldClass::kEntryList);
        break;
      case SketchKind::kCountSketchTopK: {
        const size_t k_offset = pos;
        geometry(1);
        pos = Child(pos, depth + 1);
        Add(pos, 8, FieldClass::kCount);
        Add(pos, 8, FieldClass::kEntryList, k_offset);
        break;
      }
      case SketchKind::kExactHeavyHitter:
        Child(pos, depth + 1);
        break;
      case SketchKind::kOnePassHH:
        Child(Child(pos, depth + 1), depth + 1);
        break;
      case SketchKind::kTwoPassHH:
        Add(pos, 4, FieldClass::kGeometry);  // pass
        pos = Child(pos + 4, depth + 1);
        Add(pos, 8, FieldClass::kCount);
        break;
      case SketchKind::kRecursiveGSum: {
        pos += 8;  // subsampler fingerprint
        const uint64_t levels = ReadLe(bytes_, pos, 8);
        Add(pos, 8, FieldClass::kCount);
        pos += 8;
        for (uint64_t l = 0; l < levels; ++l) {
          Add(pos, 4, FieldClass::kKind);
          pos = Child(pos + 4, depth + 1);
        }
        break;
      }
      default:  // tag 2 is retired: no target writes it
        break;
    }
  }

  WireMap Finish() {
    std::stable_sort(map_.seals.begin(), map_.seals.end(),
                     [](const Seal& a, const Seal& b) {
                       return a.depth > b.depth;
                     });
    return std::move(map_);
  }

  std::string_view bytes_;
  WireMap map_;
};

// Recomputes every checksum, innermost first, so an outer checksum covers
// the re-sealed inner bytes.
void Reseal(const WireMap& map, std::string* bytes) {
  for (const Seal& seal : map.seals) {
    const std::string_view body(bytes->data() + seal.begin,
                                seal.end - seal.begin - 8);
    WriteLe(bytes, seal.end - 8, 8, persist::Checksum64(body));
  }
}

// A value for `field` other than `v`, from the edge-heavy menu below.
uint64_t MutateValue(const Field& field, uint64_t v, uint64_t& rng) {
  const uint64_t mask = field.width == 4 ? 0xffffffffULL
                                         : std::numeric_limits<uint64_t>::max();
  const uint64_t r = SplitMix64(rng);
  uint64_t out = v;
  switch (field.cls) {
    case FieldClass::kVersion: {
      constexpr uint64_t kVersions[] = {0, 1, 2, 3, 0x80, 0xffffffffULL};
      out = kVersions[r % std::size(kVersions)];
      break;
    }
    case FieldClass::kKind:
      out = r % 13;  // every tag, plus 0, 11 and 12
      break;
    default: {
      const uint64_t menu[] = {0,
                               1,
                               v + 1,
                               v - 1,
                               v + 8,
                               v - 8,
                               v * 2,
                               v / 2,
                               mask,
                               mask / 16 + 1,  // 16-byte entries overflow
                               mask / 8 + 1,   // 8-byte counters overflow
                               uint64_t{1} << 32,
                               SplitMix64(rng) % 64,
                               SplitMix64(rng)};
      out = menu[r % std::size(menu)];
      break;
    }
  }
  out &= mask;
  return out == v ? (v ^ 1) & mask : out;
}

// Inserts `extra` at offset `at`, grows every child length whose blob
// encloses `at`, and re-seals every envelope (shifted or grown) -- a
// mutant one size larger than its pristine blob.
std::string Splice(std::string bytes, const WireMap& map, size_t at,
                   std::string_view extra) {
  const size_t n = extra.size();
  std::vector<std::pair<size_t, uint64_t>> grown_lengths;
  for (const Field& field : map.fields) {
    if (field.cls != FieldClass::kChildLength) continue;
    const uint64_t len = ReadLe(bytes, field.offset, 8);
    if (field.offset + 8 <= at && at < field.offset + 8 + len) {
      grown_lengths.emplace_back(field.offset, len + n);
    }
  }
  bytes.insert(at, extra);
  // Enclosing length words precede `at`, so their offsets do not move.
  for (const auto& [offset, len] : grown_lengths) {
    WriteLe(&bytes, offset, 8, len);
  }
  WireMap grown = map;
  for (Seal& seal : grown.seals) {
    if (seal.begin >= at) seal.begin += n;
    if (seal.end > at) seal.end += n;
  }
  Reseal(grown, &bytes);
  return bytes;
}

// An entry list the writer never emits: entry i + 1 takes entry i's id,
// entries i and i + 1 swap, or a tracker's list grows to 2k + 1 entries
// with fresh ascending ids (the only choice for lists shorter than two).
// An exact-frequency list shorter than two has no such mutant and stays
// pristine.
std::string EntryListMutant(std::string_view pristine, const WireMap& map,
                            const Field& list, uint64_t& rng) {
  std::string bytes(pristine);
  const uint64_t count = ReadLe(bytes, list.offset, 8);
  const size_t entries = list.offset + 8;
  const bool bounded = list.k_offset != 0;
  const uint64_t op = SplitMix64(rng) % (bounded ? 3 : 2);
  if (!bounded && count < 2) return bytes;
  if (count >= 2 && op < 2) {
    const size_t a = entries + 16 * (SplitMix64(rng) % (count - 1));
    const size_t b = a + 16;
    if (op == 0) {
      bytes.replace(b, 8, bytes, a, 8);
    } else {
      std::swap_ranges(bytes.begin() + static_cast<ptrdiff_t>(a),
                       bytes.begin() + static_cast<ptrdiff_t>(b),
                       bytes.begin() + static_cast<ptrdiff_t>(b));
    }
    Reseal(map, &bytes);
    return bytes;
  }
  const uint64_t k = ReadLe(bytes, list.k_offset, 8);
  uint64_t next =
      count == 0 ? 0 : ReadLe(bytes, entries + 16 * (count - 1), 8) + 1;
  std::string extra(16 * (2 * k + 1 - count), '\0');
  for (size_t e = 0; e < extra.size(); e += 16, ++next) {
    WriteLe(&extra, e, 8, next);
    WriteLe(&extra, e + 8, 8, next * 3);
  }
  WriteLe(&bytes, list.offset, 8, 2 * k + 1);
  return Splice(std::move(bytes), map, entries + 16 * count, extra);
}

// One mutant: a single field of `pristine` replaced, checksums re-sealed.
std::string Mutant(std::string_view pristine, const WireMap& map,
                   uint64_t& rng) {
  const Field& field = map.fields[SplitMix64(rng) % map.fields.size()];
  if (field.cls == FieldClass::kEntryList) {
    return EntryListMutant(pristine, map, field, rng);
  }
  std::string bytes(pristine);
  const uint64_t v = ReadLe(bytes, field.offset, field.width);
  WriteLe(&bytes, field.offset, field.width, MutateValue(field, v, rng));
  Reseal(map, &bytes);
  return bytes;
}

// ---------------------------------------------------------------------------
// Targets: a seeded blob plus a same-seed shell it must load into.
// ---------------------------------------------------------------------------

template <typename SketchT>
void Feed(SketchT& sketch, uint64_t seed = 7, size_t n = 600) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    sketch.Update(rng.NextUint64() % 1024, static_cast<int64_t>(i % 7) - 3);
  }
}

OnePassHeavyHitter MakeOnePass(uint64_t seed = kSeed) {
  Rng rng(seed);
  OnePassHHOptions options;
  options.count_sketch = {2, 16};
  options.ams = {4, 2};
  options.candidates = 4;
  return OnePassHeavyHitter(options, rng);
}

// The state a load must never produce even when the bytes round-trip:
// every top-k tracker holds at most 2k candidates.
bool WithinCapacity(const CountSketchTopK& s) {
  return s.CandidateItems().size() <= 2 * s.k();
}
bool WithinCapacity(const OnePassHeavyHitter& s) {
  return WithinCapacity(s.tracker());
}
bool WithinCapacity(const TwoPassHeavyHitter& s) {
  return WithinCapacity(s.tracker());
}
bool WithinCapacity(const RecursiveGSum& s) {
  for (int l = 0; l <= s.levels(); ++l) {
    const auto* level =
        dynamic_cast<const OnePassHeavyHitter*>(&s.level_sketch(l));
    if (level != nullptr && !WithinCapacity(*level)) return false;
  }
  return true;
}
template <typename SketchT>
bool WithinCapacity(const SketchT&) {
  return true;
}

// A loader under test: `load` deserializes into a persistent same-seed
// shell, `save` serializes it, `bounded` checks its tracker bounds, and
// `reset` empties it again -- so a failed load that half-commits the
// blob's state is visible.
struct Target {
  std::string name;
  std::string blob;
  std::function<LoadStatus(std::string_view)> load;
  std::function<std::string()> save;
  std::function<bool()> bounded;
  std::function<void()> reset;
};

template <typename SketchT, typename MakeFn, typename PrepFn>
Target MakeTarget(std::string name, MakeFn make, PrepFn prep) {
  SketchT original = make();
  prep(original);
  auto shell = std::make_shared<SketchT>(make());
  return Target{
      std::move(name), SerializeSketch(original),
      [shell](std::string_view b) { return DeserializeSketch(b, shell.get()); },
      [shell] { return SerializeSketch(*shell); },
      [shell] { return WithinCapacity(*shell); },
      [shell, make] { *shell = make(); }};
}

std::vector<Target> AllTargets() {
  auto fed = [](auto& s) { Feed(s); };
  std::vector<Target> targets;
  targets.push_back(MakeTarget<CountSketch>(
      "count_sketch",
      [] {
        Rng rng(kSeed);
        return CountSketch(CountSketchOptions{2, 16}, rng);
      },
      fed));
  targets.push_back(MakeTarget<AmsSketch>(
      "ams", [] { Rng rng(kSeed); return AmsSketch(AmsOptions{4, 2}, rng); },
      fed));
  targets.push_back(MakeTarget<GnpHeavyHitter>(
      "gnp",
      [] {
        Rng rng(kSeed);
        GnpSketchOptions options;
        options.substreams = 4;
        options.trials = 2;
        options.id_bits = 10;
        return GnpHeavyHitter(options, rng);
      },
      fed));
  targets.push_back(MakeTarget<ExactFrequencySketch>(
      "exact_frequency", [] { return ExactFrequencySketch(); },
      [](auto& s) { Feed(s, 7, 60); }));
  targets.push_back(MakeTarget<CountSketchTopK>(
      "count_sketch_topk",
      [] {
        Rng rng(kSeed);
        return CountSketchTopK(CountSketchOptions{2, 16}, 4, rng);
      },
      fed));
  targets.push_back(MakeTarget<ExactHeavyHitterSketch>(
      "exact_heavy_hitter", [] { return ExactHeavyHitterSketch(); },
      [](auto& s) { Feed(s, 7, 60); }));
  targets.push_back(MakeTarget<OnePassHeavyHitter>(
      "one_pass_hh", [] { return MakeOnePass(); }, fed));
  targets.push_back(MakeTarget<TwoPassHeavyHitter>(
      "two_pass_hh",
      [] {
        Rng rng(kSeed);
        TwoPassHHOptions options;
        options.count_sketch = {2, 16};
        options.candidates = 4;
        return TwoPassHeavyHitter(options, rng);
      },
      [](auto& s) {
        Feed(s);
        s.AdvancePass();
        Feed(s, 8, 200);
      }));
  targets.push_back(MakeTarget<RecursiveGSum>(
      "recursive_gsum",
      [] {
        Rng rng(kSeed);
        return RecursiveGSum(
            2,
            [](int, Rng& r) {
              return std::make_unique<OnePassHeavyHitter>(
                  MakeOnePass(r.NextUint64()));
            },
            rng);
      },
      fed));
  return targets;
}

// The oracle for one load attempt.
void CheckOutcome(const Target& target, std::string_view mutant,
                  const std::string& before, const LoadStatus& status,
                  size_t index) {
  if (status.ok()) {
    ASSERT_EQ(target.save(), mutant)
        << target.name << " mutant " << index
        << " loaded but does not re-serialize to its own bytes";
    ASSERT_TRUE(target.bounded())
        << target.name << " mutant " << index
        << " loaded a tracker with more than 2k candidates";
    target.reset();
    return;
  }
  ASSERT_NE(std::string(LoadErrorName(status.error)), "unknown")
      << target.name << " mutant " << index;
  ASSERT_FALSE(status.message.empty()) << target.name << " mutant " << index;
  ASSERT_EQ(target.save(), before)
      << target.name << " mutant " << index << " ("
      << LoadErrorName(status.error) << ": " << status.message
      << ") mutated the destination";
}

constexpr size_t kMutantsPerKind = 1000;

TEST(SketchIoFuzzTest, EveryKindsMutantsLoadOrFailCleanly) {
  uint64_t rng = 0x5eed0f22ULL;
  for (const Target& target : AllTargets()) {
    SCOPED_TRACE(target.name);
    const WireMap map = Walker(target.blob).WalkSketch();
    ASSERT_FALSE(map.fields.empty());
    // The pristine blob loads (the walker and the re-seal agree with the
    // format).
    std::string resealed = target.blob;
    Reseal(map, &resealed);
    ASSERT_EQ(resealed, target.blob);
    ASSERT_TRUE(target.load(target.blob).ok());
    target.reset();
    size_t rejected = 0;
    for (size_t i = 0; i < kMutantsPerKind; ++i) {
      const std::string mutant = Mutant(target.blob, map, rng);
      const std::string before = target.save();
      const LoadStatus status = target.load(mutant);
      rejected += !status.ok();
      ASSERT_NO_FATAL_FAILURE(CheckOutcome(target, mutant, before, status, i));
    }
    // The mutants do reach the parser: most fail behind a valid checksum.
    EXPECT_GT(rejected, kMutantsPerKind / 2);
  }
}

TEST(CheckpointFuzzTest, TwoShardMutantsDecodeAndRestoreOrFailCleanly) {
  CheckpointImage pristine;
  pristine.cursor = 2048;
  pristine.producer.round_robin_next = 1;
  pristine.producer.stats.updates_submitted = 2048;
  pristine.producer.stats.chunks_committed = 3;
  pristine.producer.stats.shard_updates = {1030, 1018};
  for (const uint64_t stream_seed : {31, 32}) {
    OnePassHeavyHitter s = MakeOnePass();
    Feed(s, stream_seed);
    pristine.shard_blobs.push_back(SerializeSketch(s));
  }
  const std::string bytes = EncodeCheckpoint(pristine);
  const WireMap map = Walker(bytes).WalkCheckpoint();

  auto shell = std::make_shared<OnePassHeavyHitter>(MakeOnePass());
  const Target shard{
      "shard", "",
      [shell](std::string_view b) { return DeserializeSketch(b, shell.get()); },
      [shell] { return SerializeSketch(*shell); },
      [shell] { return WithinCapacity(*shell); },
      [shell] { *shell = MakeOnePass(); }};

  std::vector<Update> chunk(kStreamBatchSize);
  for (size_t j = 0; j < chunk.size(); ++j) chunk[j] = {j % 97, 1};

  uint64_t rng = 0xc4ec9017ULL;
  size_t decoded = 0;
  for (size_t i = 0; i < 5000; ++i) {
    const std::string mutant = Mutant(bytes, map, rng);
    CheckpointImage image = pristine;
    const LoadStatus status = DecodeCheckpoint(mutant, &image);
    if (!status.ok()) {
      ASSERT_NE(std::string(LoadErrorName(status.error)), "unknown");
      ASSERT_FALSE(status.message.empty());
      ASSERT_EQ(EncodeCheckpoint(image), bytes)
          << "mutant " << i << " (" << status.message
          << ") mutated the image";
      continue;
    }
    ++decoded;
    ASSERT_EQ(EncodeCheckpoint(image), mutant) << "mutant " << i;
    // Decode only frames the shard blobs; the restore path validates them.
    for (const std::string& blob : image.shard_blobs) {
      const std::string before = shard.save();
      ASSERT_NO_FATAL_FAILURE(
          CheckOutcome(shard, blob, before, shard.load(blob), i));
    }
    // The restore path also validates the producer state, which the
    // checksum does not: the round-robin cursor.
    ShardedIngestor<OnePassHeavyHitter> ingest(
        IngestEngineOptions{}, [](size_t) { return MakeOnePass(); });
    ingest.Open(2);
    const LoadStatus restored = RestoreIngestor(image, &ingest);
    if (restored.ok()) {
      ingest.Submit(chunk.data(), chunk.size());
      ingest.Close();
      continue;
    }
    ASSERT_NE(std::string(LoadErrorName(restored.error)), "unknown")
        << "mutant " << i;
    ASSERT_FALSE(restored.message.empty()) << "mutant " << i;
    ingest.Drain();
  }
  // Shard-internal mutations pass the outer decode and reach the shard
  // loader.
  EXPECT_GT(decoded, 0u);
}

}  // namespace
}  // namespace gstream
