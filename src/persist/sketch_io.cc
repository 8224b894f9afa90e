#include "persist/sketch_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <concepts>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/gnp_sketch.h"
#include "obs/metrics.h"
#include "core/heavy_hitters.h"
#include "core/one_pass_hh.h"
#include "core/recursive_sketch.h"
#include "core/two_pass_hh.h"
#include "sketch/ams.h"
#include "sketch/count_sketch.h"
#include "stream/exact.h"
#include "util/fault.h"
#include "util/logging.h"

namespace gstream {
namespace persist {

// The wire format is little-endian and the byte primitives below copy
// host words as-is; a big-endian port would need byte-swapping readers
// and writers, so it is refused here rather than left untested.
static_assert(std::endian::native == std::endian::little,
              "the GSKB/GCKP byte primitives assume a little-endian host");

namespace {

constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

uint64_t Load64(const char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Load32(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Round(uint64_t acc, uint64_t lane) {
  return std::rotl(acc + lane * kPrime2, 31) * kPrime1;
}

uint64_t MergeRound(uint64_t h, uint64_t acc) {
  return (h ^ Round(0, acc)) * kPrime1 + kPrime4;
}

}  // namespace

uint64_t Checksum64(std::string_view bytes) {
  // XXH64 with seed 0: four independent lanes over 32-byte stripes, then
  // the 8-, 4- and 1-byte tails, then the avalanche.
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  uint64_t h = kPrime5;
  if (bytes.size() >= 32) {
    uint64_t v1 = kPrime1 + kPrime2, v2 = kPrime2, v3 = 0, v4 = -kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeRound(MergeRound(MergeRound(MergeRound(h, v1), v2), v3), v4);
  }
  h += bytes.size();
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ Round(0, Load64(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ Load32(p) * kPrime1, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = std::rotl(h ^ static_cast<unsigned char>(*p) * kPrime5, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

void ByteWriter::PutU32(uint32_t v) {
  buf_.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void ByteWriter::PutU64(uint64_t v) {
  buf_.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void ByteWriter::PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

void ByteWriter::PutBytes(std::string_view bytes) {
  buf_.append(bytes.data(), bytes.size());
}

uint32_t PackedWidth(const int64_t* values, size_t n) {
  // A value fits in w bytes iff its bits 8w - 1 .. 63 are all equal, that
  // is iff bits 8w .. 63 of v ^ (v << 1) are zero.  OR-ing those tests
  // every value at once, with a shift and an xor that vectorize.
  uint64_t bits = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto v = static_cast<uint64_t>(values[i]);
    bits |= v ^ (v << 1);
  }
  if (bits < 0x100) return 1;
  if (bits < 0x10000) return 2;
  if (bits < 0x100000000) return 4;
  return 8;
}

namespace {

template <typename Narrow>
void Pack(const int64_t* values, size_t n, char* out) {
  for (size_t i = 0; i < n; ++i) {
    const auto v = static_cast<Narrow>(values[i]);
    std::memcpy(out + i * sizeof(Narrow), &v, sizeof(Narrow));
  }
}

template <typename Narrow>
void Unpack(const char* in, size_t n, int64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    Narrow v;
    std::memcpy(&v, in + i * sizeof(Narrow), sizeof(Narrow));
    out[i] = v;
  }
}

}  // namespace

void ByteWriter::PutPacked(const int64_t* values, size_t n, uint32_t width) {
  if (n == 0) return;
  const size_t at = buf_.size();
  buf_.resize(at + width * n);
  char* out = buf_.data() + at;
  switch (width) {
    case 1: Pack<int8_t>(values, n, out); break;
    case 2: Pack<int16_t>(values, n, out); break;
    case 4: Pack<int32_t>(values, n, out); break;
    default: std::memcpy(out, values, 8 * n); break;
  }
}

void ByteWriter::PutBlob(std::string_view blob) {
  PutU64(blob.size());
  PutBytes(blob);
}

bool ByteReader::GetU32(uint32_t* v) {
  if (remaining() < sizeof(*v)) return false;
  std::memcpy(v, bytes_.data() + pos_, sizeof(*v));
  pos_ += sizeof(*v);
  return true;
}

bool ByteReader::GetU64(uint64_t* v) {
  if (remaining() < sizeof(*v)) return false;
  std::memcpy(v, bytes_.data() + pos_, sizeof(*v));
  pos_ += sizeof(*v);
  return true;
}

bool ByteReader::GetI64(int64_t* v) {
  uint64_t u = 0;
  if (!GetU64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool ByteReader::GetI64Array(int64_t* out, size_t n) {
  // Divide rather than multiply: n * 8 may overflow for a corrupt count.
  if (n > remaining() / sizeof(int64_t)) return false;
  if (n == 0) return true;
  std::memcpy(out, bytes_.data() + pos_, n * sizeof(int64_t));
  pos_ += n * sizeof(int64_t);
  return true;
}

bool ByteReader::GetPacked(uint32_t width, int64_t* out, size_t n) {
  if (std::popcount(width) != 1 || width > 8) return false;
  if (n > remaining() / width) return false;
  const char* in = bytes_.data() + pos_;
  switch (width) {
    case 1: Unpack<int8_t>(in, n, out); break;
    case 2: Unpack<int16_t>(in, n, out); break;
    case 4: Unpack<int32_t>(in, n, out); break;
    default: if (n != 0) std::memcpy(out, in, 8 * n); break;
  }
  pos_ += width * n;
  return true;
}

bool ByteReader::GetBytes(size_t n, std::string_view* out) {
  if (remaining() < n) return false;
  *out = bytes_.substr(pos_, n);
  pos_ += n;
  return true;
}

bool ByteReader::GetBlob(std::string_view* out) {
  uint64_t len = 0;
  if (!GetU64(&len)) return false;
  if (len > remaining()) return false;
  return GetBytes(static_cast<size_t>(len), out);
}
void ByteWriter::PatchU64(size_t pos, uint64_t v) {
  std::memcpy(buf_.data() + pos, &v, sizeof(v));
}

void ByteWriter::PutChecksum(size_t begin) {
  PutU64(Checksum64(std::string_view(buf_).substr(begin)));
}

LoadStatus OpenEnvelope(std::string_view bytes, const Envelope& envelope,
                        ByteReader* body) {
  const std::string magic(envelope.magic);
  if (!bytes.starts_with(magic)) {
    return LoadStatus::Fail(LoadError::kBadMagic,
                            "not a " + magic + " image (bad magic)");
  }
  if (bytes.size() < envelope.header_bytes + 8) {
    return LoadStatus::Fail(LoadError::kTruncated,
                            magic + " image ends inside its header");
  }
  const std::string_view payload = bytes.substr(0, bytes.size() - 8);
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, bytes.data() + payload.size(), 8);
  *body = ByteReader(payload.substr(magic.size()));
  uint32_t version = 0;
  body->GetU32(&version);
  // Version 1 of both formats ended in an FNV-1a trailer, which cannot
  // verify here: it is reported as version skew rather than as corrupt
  // bytes.  Every later version ends in this XXH64, so a retired one is
  // named only once its bytes verify.
  if (version != 1 && Checksum64(payload) != stored_checksum) {
    return LoadStatus::Fail(LoadError::kChecksumMismatch,
                            "whole-image checksum mismatch (corrupt or torn " +
                                magic + " bytes)");
  }
  if (version != envelope.version) {
    return LoadStatus::Fail(
        LoadError::kVersionSkew,
        std::string(envelope.noun) + " version " + std::to_string(version) +
            ", this build reads " + std::to_string(envelope.version));
  }
  return LoadStatus::Ok();
}

}  // namespace persist

namespace {

// Indexed by SketchKind tag; tag 0 names no kind.  A retired tag keeps its
// name, so a refusal says what the blob holds.
constexpr const char* kKindNames[] = {
    nullptr, "count_sketch", "count_min", "ams", "gnp", "exact_frequency",
    "count_sketch_topk", "exact_heavy_hitter", "one_pass_hh", "two_pass_hh",
    "recursive_gsum"};

bool NamesKind(uint32_t tag) { return tag != 0 && tag < std::size(kKindNames); }

}  // namespace

const char* SketchKindName(SketchKind kind) {
  const auto tag = static_cast<uint32_t>(kind);
  return NamesKind(tag) ? kKindNames[tag] : "unknown";
}

namespace persist {
namespace {

std::string NameOf(SketchKind kind) { return SketchKindName(kind); }

LoadStatus Truncated(const std::string& what) {
  return LoadStatus::Fail(LoadError::kTruncated, "blob ends inside " + what);
}

[[noreturn]] void AbortUnknownHeavyHitter() {
  std::fprintf(stderr,
               "sketch_io: the wire format knows no such GHeavyHitterSketch "
               "subclass\n");
  std::abort();
}

// `S` is `T` or `const T`: a declaration serves the writer and the reader.
template <typename S, typename T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

// A (u64, i64) wire entry: a tracker candidate or an exact frequency.
using Entry = CandidateTable::Entry;

}  // namespace

// Declares sketch type T's state: KindOf maps T to its wire tag, and the
// Visit body that follows lists T's payload in wire order.
#define GSTREAM_SKETCH_STATE(T, tag)                                      \
  static constexpr SketchKind KindOf(const T&) { return SketchKind::tag; } \
  static void Visit(auto& v, Is<T> auto& s)

// Friend of every sketch.  Each kind declares once, in wire order, what it
// puts on the wire; one Writer and one Reader walk those declarations, so
// no kind has a writer or reader of its own.  Fingerprint(), MergeFrom and
// SpaceBytes stay in the sketch classes (docs/persistence.md says why).
struct SketchSerde {
  class Writer;
  class Reader;

  // --- The declarations.  Visit lists the payload in wire order:
  //   Geometry         u64 words that must equal the destination's;
  //   FingerprintWord  a u64 that must equal it, checked with the envelope's
  //                    fingerprint;
  //   Counters         an i64 array sized by the geometry: a u32 width,
  //                    then every counter in that many bytes;
  //   Entries,         a u64 count, then (u64, i64) entries, item ids
  //   Candidates       strictly ascending;
  //   Children         nested blobs, each a length-prefixed envelope;
  //   Pass, Tabulation the two-pass state;
  //   Levels           the stack's (u32 kind tag, blob) levels.

  GSTREAM_SKETCH_STATE(CountSketch, kCountSketch) {
    v.Geometry("rows", s.options_.rows);
    v.Geometry("buckets", s.options_.buckets);
    v.Counters(s.counters_);
  }

  GSTREAM_SKETCH_STATE(AmsSketch, kAms) {
    v.Geometry("group_size", s.options_.group_size);
    v.Geometry("groups", s.options_.groups);
    v.Counters(s.sums_);
  }

  GSTREAM_SKETCH_STATE(GnpHeavyHitter, kGnp) {
    v.Geometry("substreams", s.options_.substreams);
    v.Geometry("trials", s.options_.trials);
    v.Geometry("id_bits", static_cast<uint64_t>(s.options_.id_bits));
    v.Counters(s.counters_);
  }

  GSTREAM_SKETCH_STATE(ExactFrequencySketch, kExactFrequency) {
    v.Entries(s.freq_);
  }

  GSTREAM_SKETCH_STATE(CountSketchTopK, kCountSketchTopK) {
    v.Geometry("k", s.k_);
    v.Children(s.sketch_);
    v.Candidates(s.candidates_, 2 * s.k_);
  }

  GSTREAM_SKETCH_STATE(ExactHeavyHitterSketch, kExactHeavyHitter) {
    v.Children(s.freq_);
  }

  GSTREAM_SKETCH_STATE(OnePassHeavyHitter, kOnePassHH) {
    v.Children(s.tracker_, s.ams_);
  }

  GSTREAM_SKETCH_STATE(TwoPassHeavyHitter, kTwoPassHH) {
    v.Pass(s.current_pass_);
    v.Children(s.tracker_);
    v.Tabulation(s.candidate_ids_, s.exact_counts_);
  }

  GSTREAM_SKETCH_STATE(RecursiveGSum, kRecursiveGSum) {
    v.FingerprintWord(s.subsampler_.Fingerprint());
    v.Geometry("levels", s.sketches_.size());
    v.Levels(s.sketches_);
  }

#undef GSTREAM_SKETCH_STATE

  // --- Walking them.

  static uint64_t FingerprintOf(const auto& sketch) {
    if constexpr (requires { sketch.Fingerprint(); }) {
      return sketch.Fingerprint();
    }
    return 0;  // exact frequencies hash nothing
  }

  // The one dispatch over GHeavyHitterSketch: calls `fn` with `sketch` as
  // its concrete type; false for a subclass no SketchKind names.
  template <typename Base>
  static bool AsWireType(Base& sketch, auto fn) {
    return [&]<typename... Ts>(std::type_identity<Ts>...) {
      return (... || [&] {
        using T = std::conditional_t<std::is_const_v<Base>, const Ts, Ts>;
        T* concrete = dynamic_cast<T*>(&sketch);
        if (concrete != nullptr) fn(*concrete);
        return concrete != nullptr;
      }());
    }(std::type_identity<OnePassHeavyHitter>{},
      std::type_identity<TwoPassHeavyHitter>{},
      std::type_identity<GnpHeavyHitter>{},
      std::type_identity<ExactHeavyHitterSketch>{});
  }

  template <typename T>
  static std::string Write(const T& sketch);
  template <typename T>
  static LoadStatus Load(std::string_view blob, T* sketch);

  // Loads into a copy of `dst` and commits it with one move, so a failed
  // load leaves `dst` bit-identical to its prior state.
  template <typename T>
  static LoadStatus Read(std::string_view blob, T* dst) {
    T copy = Copy(*dst);
    LoadStatus status = Load(blob, &copy);
    if (status.ok()) *dst = std::move(copy);
    return status;
  }
  template <typename T>
  static T Copy(const T& s) { return s; }
  static RecursiveGSum Copy(const RecursiveGSum& s) { return s.Replicate(); }
};

// Walks a declaration with no output to size a blob, then again into a
// buffer reserved to that size.  Each child is written in place: its
// length word is back-patched and its checksum covers its own region, so
// every counter array is packed once.  The sizing walk measures each
// counter array's width and the writing walk reuses it, in walk order.
class SketchSerde::Writer {
 public:
  Writer() = default;
  // Writes into `out` at the widths `sizer` measured.
  Writer(ByteWriter* out, const Writer& sizer)
      : out_(out), widths_(sizer.widths_) {}

  size_t bytes() const { return bytes_; }

  void Blob(const auto& s) {
    const size_t begin = bytes_;
    Put(kSketchEnvelope.magic.data(), kSketchEnvelope.magic.size());
    U32(kSketchFormatVersion);
    U32(static_cast<uint32_t>(KindOf(s)));
    U32(0);  // flags, reserved
    U64(FingerprintOf(s));
    Visit(*this, s);
    if (out_ != nullptr) out_->PutChecksum(begin);
    bytes_ += 8;
  }

  void Geometry(const char*, uint64_t value) { U64(value); }
  void FingerprintWord(uint64_t value) { U64(value); }
  void Counters(const auto& counters) {
    if (out_ == nullptr) {
      widths_.push_back(PackedWidth(counters.data(), counters.size()));
    }
    const uint32_t width = widths_[next_width_++];
    U32(width);
    if (out_ != nullptr) {
      out_->PutPacked(counters.data(), counters.size(), width);
    }
    bytes_ += width * counters.size();
  }

  void Children(const auto&... children) { (Child(children), ...); }

  void Entries(const FrequencyMap& freq) {
    SortedEntries(freq.size(), [&](std::vector<Entry>* out) {
      for (const auto& [item, value] : freq) out->push_back({item, value});
    });
  }

  void Candidates(const CandidateTable& table, size_t) {
    SortedEntries(table.size(),
                  [&](std::vector<Entry>* out) { *out = table.entries(); });
  }

  void Pass(int pass) { U32(static_cast<uint32_t>(pass)); }

  void Tabulation(const std::vector<ItemId>& ids,
                  const std::vector<int64_t>& counts) {
    U64(ids.size());
    Put(ids.data(), 8 * ids.size());
    Put(counts.data(), 8 * counts.size());
  }

  void Levels(const std::vector<std::unique_ptr<GHeavyHitterSketch>>& levels) {
    for (const auto& level : levels) {
      const bool known = AsWireType(*level, [&](const auto& s) {
        U32(static_cast<uint32_t>(KindOf(s)));
        Child(s);
      });
      if (!known) AbortUnknownHeavyHitter();
    }
  }

 private:
  void Child(const auto& child) {
    const size_t length_at = bytes_;
    U64(0);
    Blob(child);
    if (out_ != nullptr) out_->PatchU64(length_at, bytes_ - length_at - 8);
  }

  // A u64 count, then the entries `fill` lists, in item order; `fill`
  // runs only when writing.
  void SortedEntries(size_t n, auto fill) {
    U64(n);
    if (out_ == nullptr) {
      bytes_ += 16 * n;
      return;
    }
    std::vector<Entry> entries;
    entries.reserve(n);
    fill(&entries);
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.item < b.item; });
    for (const Entry& e : entries) {
      U64(e.item);
      U64(static_cast<uint64_t>(e.estimate));
    }
  }

  // Host bytes are wire bytes: the format is little-endian.  An empty
  // array may have a null data(), so it appends nothing.
  void Put(const void* bytes, size_t n) {
    if (out_ != nullptr && n != 0) {
      out_->PutBytes({static_cast<const char*>(bytes), n});
    }
    bytes_ += n;
  }
  void U32(uint32_t v) { Put(&v, sizeof(v)); }
  void U64(uint64_t v) { Put(&v, sizeof(v)); }

  ByteWriter* out_ = nullptr;  // null while sizing
  size_t bytes_ = 0;
  std::vector<uint32_t> widths_;  // per counter array, in walk order
  size_t next_width_ = 0;
};

// Walks a declaration over a blob's payload into the loader's private copy
// of the destination, applying checks 6-9 of docs/persistence.md: every
// header word is read, then the geometry words are compared, then the
// fingerprints, then the payload is read (each count bounded before it
// sizes anything), then the end must be exact.  The first failure is kept
// and every later field is skipped.
class SketchSerde::Reader {
 public:
  Reader(ByteReader* in, SketchKind kind, bool fingerprint_ok)
      : in_(in), kind_(NameOf(kind) + " "), fingerprint_ok_(fingerprint_ok) {}

  void Geometry(const char* name, uint64_t want) {
    uint64_t got = 0;
    if (!Word(&got) || got == want || !geometry_.ok()) return;
    geometry_ = LoadStatus::Fail(
        LoadError::kGeometryMismatch,
        std::string(name) + " " + std::to_string(got) +
            " in blob, destination has " + std::to_string(want));
  }

  void FingerprintWord(uint64_t want) {
    uint64_t got = 0;
    if (Word(&got) && got != want) fingerprint_ok_ = false;
  }

  // A width the writer would not pick for the values it holds is refused,
  // so every array that loads re-serializes to its own bytes.
  void Counters(auto& counters) {
    uint32_t width = 0;
    if (!Ready()) return;
    if (!in_->GetU32(&width)) {
      Note(Truncated(kind_ + "counter width"));
    } else if (width != 1 && width != 2 && width != 4 && width != 8) {
      Note(LoadStatus::Fail(LoadError::kDomainError,
                            kind_ + "counter width " + std::to_string(width) +
                                " outside {1, 2, 4, 8}"));
    } else if (!in_->GetPacked(width, counters.data(), counters.size())) {
      Note(Truncated(kind_ + "counters"));
    } else if (const uint32_t need =
                   PackedWidth(counters.data(), counters.size());
               need != width) {
      Note(LoadStatus::Fail(LoadError::kDomainError,
                            kind_ + "counters at width " +
                                std::to_string(width) + ", their values " +
                                "pack at width " + std::to_string(need)));
    }
  }

  // A run of adjacent children is framed before any of them is parsed.
  void Children(auto&... children) {
    std::string_view blobs[sizeof...(children)];
    const SketchKind kinds[] = {KindOf(children)...};
    for (size_t i = 0; i < std::size(blobs); ++i) {
      if (Ready() && !in_->GetBlob(&blobs[i])) {
        Note(Truncated(kind_ + NameOf(kinds[i]) + " child"));
      }
    }
    size_t i = 0;
    auto parse = [&](auto& child) {
      if (Ready()) Note(Load(blobs[i], &child));
      ++i;
    };
    (parse(children), ...);
  }

  void Entries(FrequencyMap& freq) {
    std::vector<Entry> entries;
    if (!SortedEntries(&entries, UINT64_MAX)) return;
    freq.clear();
    freq.reserve(entries.size());
    for (const Entry& e : entries) freq.emplace(e.item, e.estimate);
  }

  void Candidates(CandidateTable& table, size_t capacity) {
    std::vector<Entry> entries;
    if (SortedEntries(&entries, capacity)) table.Assign(std::move(entries));
  }

  void Pass(int& pass) {
    uint32_t wire = 0;
    if (!Ready()) return;
    if (!in_->GetU32(&wire)) {
      Note(Truncated(kind_ + "pass"));
    } else if (wire != 1 && wire != 2) {
      Note(LoadStatus::Fail(LoadError::kDomainError,
                            kind_ + "pass " + std::to_string(wire) +
                                " outside {1, 2}"));
    } else {
      pass = static_cast<int>(wire);
    }
  }

  void Tabulation(std::vector<ItemId>& ids, std::vector<int64_t>& counts) {
    uint64_t n = 0;
    if (!Count(&n, UINT64_MAX)) return;
    ids.resize(static_cast<size_t>(n));
    counts.resize(static_cast<size_t>(n));
    in_->GetI64Array(reinterpret_cast<int64_t*>(ids.data()), ids.size());
    in_->GetI64Array(counts.data(), counts.size());
  }

  // Each level loads in place into the copy's clone of that level.
  void Levels(std::vector<std::unique_ptr<GHeavyHitterSketch>>& levels) {
    for (size_t l = 0; l < levels.size() && Ready(); ++l) {
      const std::string level = "level " + std::to_string(l);
      uint32_t tag = 0;
      std::string_view blob;
      if (!in_->GetU32(&tag) || !in_->GetBlob(&blob)) {
        Note(Truncated(kind_ + level));
        return;
      }
      const bool known = AsWireType(*levels[l], [&](auto& s) {
        if (tag != static_cast<uint32_t>(KindOf(s))) {
          Note(LoadStatus::Fail(
              LoadError::kTypeMismatch,
              level + " holds " + NameOf(static_cast<SketchKind>(tag)) +
                  ", destination level is " + NameOf(KindOf(s))));
          return;
        }
        LoadStatus status = Load(blob, &s);
        if (!status.ok()) status.message = level + ": " + status.message;
        Note(status);
      });
      if (!known) AbortUnknownHeavyHitter();
    }
  }

  LoadStatus Finish() {
    if (Ready() && in_->remaining() != 0) {
      Note(LoadStatus::Fail(LoadError::kTrailingData,
                            std::to_string(in_->remaining()) +
                                " trailing bytes after the payload"));
    }
    return status_;
  }

 private:
  // A header word; false once the header ran out.
  bool Word(uint64_t* v) {
    header_truncated_ = header_truncated_ || !in_->GetU64(v);
    return !header_truncated_;
  }

  // Closes the header before the first payload field: truncation, then
  // geometry, then fingerprint.  False once anything has failed.
  bool Ready() {
    if (!header_closed_) {
      header_closed_ = true;
      if (header_truncated_) {
        Note(Truncated(kind_ + "header"));
      } else if (!geometry_.ok()) {
        Note(geometry_);
      } else if (!fingerprint_ok_) {
        Note(LoadStatus::Fail(LoadError::kFingerprintMismatch,
                              "sketch fingerprint differs from the "
                              "destination's (different seed or "
                              "randomness)"));
      }
    }
    return status_.ok();
  }

  // Keeps the first failure; returns whether `status` is ok.
  bool Note(const LoadStatus& status) {
    if (status_.ok()) status_ = status;
    return status.ok();
  }

  // The mirror of the writer's SortedEntries: at most `capacity` entries
  // with ids strictly ascending, so only lists the writer emits load (and
  // re-serialize to their own bytes).
  bool SortedEntries(std::vector<Entry>* entries, uint64_t capacity) {
    uint64_t n = 0;
    if (!Count(&n, capacity)) return false;
    entries->resize(static_cast<size_t>(n));
    for (size_t i = 0; i < entries->size(); ++i) {
      Entry& e = (*entries)[i];
      in_->GetU64(&e.item);
      in_->GetI64(&e.estimate);
      if (i > 0 && e.item <= (*entries)[i - 1].item) {
        return Note(LoadStatus::Fail(
            LoadError::kDomainError, kind_ + "entry ids not strictly "
                                             "ascending at entry " +
                                             std::to_string(i)));
      }
    }
    return true;
  }

  // A u64 count of 16-byte entries: above `cap` is a domain error, more
  // than the bytes left hold is truncation, so a corrupt count never sizes
  // an allocation.
  bool Count(uint64_t* n, uint64_t cap) {
    if (!Ready()) return false;
    if (!in_->GetU64(n)) return Note(Truncated(kind_ + "entry count"));
    if (*n > cap) {
      return Note(LoadStatus::Fail(
          LoadError::kDomainError, kind_ + "entry count " +
                                       std::to_string(*n) + " exceeds " +
                                       std::to_string(cap)));
    }
    if (*n > in_->remaining() / 16) return Note(Truncated(kind_ + "entries"));
    return true;
  }

  ByteReader* in_;
  std::string kind_;  // "<kind name> ", prefixing field names in messages
  bool fingerprint_ok_;
  bool header_truncated_ = false;
  bool header_closed_ = false;
  LoadStatus geometry_ = LoadStatus::Ok();
  LoadStatus status_ = LoadStatus::Ok();
};

template <typename T>
std::string SketchSerde::Write(const T& sketch) {
  Writer sizer;
  sizer.Blob(sketch);
  ByteWriter out;
  out.Reserve(sizer.bytes());
  Writer(&out, sizer).Blob(sketch);
  GSTREAM_CHECK_EQ(out.bytes().size(), sizer.bytes());
  return out.Take();
}

// Envelope (checks 1-4), kind and flags (5), then the declaration (6-9).
template <typename T>
LoadStatus SketchSerde::Load(std::string_view blob, T* sketch) {
  ByteReader in{std::string_view()};
  if (LoadStatus s = OpenEnvelope(blob, kSketchEnvelope, &in); !s.ok()) {
    return s;
  }
  uint32_t tag = 0, flags = 0;
  uint64_t fingerprint = 0;
  in.GetU32(&tag);
  in.GetU32(&flags);
  in.GetU64(&fingerprint);
  if (tag != static_cast<uint32_t>(KindOf(*sketch))) {
    return LoadStatus::Fail(LoadError::kTypeMismatch,
                            "blob holds " +
                                NameOf(static_cast<SketchKind>(tag)) +
                                ", destination is " + NameOf(KindOf(*sketch)));
  }
  // No writer sets a flag; a nonzero word is not a blob this format wrote.
  if (flags != 0) {
    return LoadStatus::Fail(LoadError::kDomainError,
                            "reserved flags word is " + std::to_string(flags) +
                                ", must be 0");
  }
  Reader reader(&in, KindOf(*sketch), fingerprint == FingerprintOf(*sketch));
  Visit(reader, *sketch);
  return reader.Finish();
}

}  // namespace persist

// ---------------------------------------------------------------------------
// Public surface: one Serialize/Deserialize pair per live SketchKind.
// ---------------------------------------------------------------------------

#define GSTREAM_SKETCH_IO(T)                                    \
  std::string SerializeSketch(const T& sketch) {                \
    return persist::SketchSerde::Write(sketch);                 \
  }                                                             \
  LoadStatus DeserializeSketch(std::string_view blob, T* dst) { \
    return persist::SketchSerde::Read(blob, dst);               \
  }
GSTREAM_SKETCH_IO(CountSketch)
GSTREAM_SKETCH_IO(AmsSketch)
GSTREAM_SKETCH_IO(GnpHeavyHitter)
GSTREAM_SKETCH_IO(ExactFrequencySketch)
GSTREAM_SKETCH_IO(CountSketchTopK)
GSTREAM_SKETCH_IO(ExactHeavyHitterSketch)
GSTREAM_SKETCH_IO(OnePassHeavyHitter)
GSTREAM_SKETCH_IO(TwoPassHeavyHitter)
GSTREAM_SKETCH_IO(RecursiveGSum)
#undef GSTREAM_SKETCH_IO

std::string SerializeHeavyHitter(const GHeavyHitterSketch& sketch) {
  std::string blob;
  if (!persist::SketchSerde::AsWireType(
          sketch, [&](const auto& s) { blob = SerializeSketch(s); })) {
    persist::AbortUnknownHeavyHitter();
  }
  return blob;
}

LoadStatus DeserializeHeavyHitter(std::string_view blob,
                                  GHeavyHitterSketch* dst) {
  LoadStatus status = LoadStatus::Fail(
      LoadError::kTypeMismatch,
      "destination is a GHeavyHitterSketch subclass the wire format does "
      "not know");
  persist::SketchSerde::AsWireType(
      *dst, [&](auto& s) { status = DeserializeSketch(blob, &s); });
  return status;
}

std::optional<SketchKind> PeekSketchKind(std::string_view blob) {
  persist::ByteReader r(blob);
  std::string_view magic;
  uint32_t version = 0, tag = 0;
  if (!r.GetBytes(persist::kSketchEnvelope.magic.size(), &magic) ||
      magic != persist::kSketchEnvelope.magic || !r.GetU32(&version) ||
      !r.GetU32(&tag) || !NamesKind(tag)) {
    return std::nullopt;
  }
  return static_cast<SketchKind>(tag);
}

// ---------------------------------------------------------------------------
// Crash-consistent file I/O.
// ---------------------------------------------------------------------------

namespace {

bool FsyncFd(int fd) { return ::fsync(fd) == 0; }

// fsync the directory containing `path` so the rename itself is durable.
bool FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = FsyncFd(fd);
  ::close(fd);
  return ok;
}

}  // namespace

bool WriteFileAtomic(const std::string& path, std::string_view bytes) {
  // Kill-point handles are process-lifetime, fetched once.
  static fault::FaultPoint* const kBeforeTmp =
      fault::Registry::Get().GetPoint(kAtomicWriteSites[0]);
  static fault::FaultPoint* const kMidTmp =
      fault::Registry::Get().GetPoint(kAtomicWriteSites[1]);
  static fault::FaultPoint* const kBeforeRename =
      fault::Registry::Get().GetPoint(kAtomicWriteSites[2]);
  static fault::FaultPoint* const kBeforeDirFsync =
      fault::Registry::Get().GetPoint(kAtomicWriteSites[3]);
  obs::Registry& registry = obs::Registry::Get();
  obs::ScopedTimer timer(
      registry.GetHistogram("persist/atomic_write_ns"));
  if (kBeforeTmp->ShouldFire()) return false;
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool crash_mid_tmp = kMidTmp->ShouldFire();
  const std::string_view to_write =
      crash_mid_tmp ? bytes.substr(0, bytes.size() / 2) : bytes;
  size_t written = 0;
  while (written < to_write.size()) {
    const ssize_t n =
        ::write(fd, to_write.data() + written, to_write.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    written += static_cast<size_t>(n);
  }
  if (crash_mid_tmp) {
    // A crash mid-write: the tmp file holds a prefix, never fsynced, never
    // renamed.  The target path is untouched.
    ::close(fd);
    return false;
  }
  const bool synced = FsyncFd(fd);
  ::close(fd);
  if (!synced) return false;
  if (kBeforeRename->ShouldFire()) return false;
  if (::rename(tmp.c_str(), path.c_str()) != 0) return false;
  // The one phase where "return false" coexists with a loadable new image.
  if (kBeforeDirFsync->ShouldFire()) return false;
  // Persist the rename: without the directory fsync a crash can roll the
  // directory entry back to the old file even though the data blocks of
  // the new one are on disk.
  if (!FsyncParentDir(path)) return false;
  registry.GetCounter("persist/files_written")->Increment();
  registry.GetCounter("persist/bytes_written")->Add(bytes.size());
  return true;
}

std::optional<std::string> ReadFileBytes(const std::string& path,
                                         LoadStatus* status) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    ReportStatus(LoadStatus::Fail(LoadError::kIoError,
                                  "cannot open " + path + ": " +
                                      std::strerror(errno) + " (errno " +
                                      std::to_string(errno) + ")"),
                 status);
    return std::nullopt;
  }
  std::string bytes;
  char buffer[1 << 14];
  size_t got = 0;
  errno = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.append(buffer, got);
  }
  const bool read_error = std::ferror(f) != 0;
  const int read_errno = errno;
  std::fclose(f);
  if (read_error) {
    ReportStatus(
        LoadStatus::Fail(LoadError::kIoError,
                         "read error on " + path + ": " +
                             std::strerror(read_errno) + " (errno " +
                             std::to_string(read_errno) + ")"),
        status);
    return std::nullopt;
  }
  ReportStatus(LoadStatus::Ok(), status);
  return bytes;
}

}  // namespace gstream
