#include "persist/sketch_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "core/gnp_sketch.h"
#include "obs/metrics.h"
#include "core/heavy_hitters.h"
#include "core/one_pass_hh.h"
#include "core/recursive_sketch.h"
#include "core/two_pass_hh.h"
#include "sketch/ams.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "stream/exact.h"
#include "util/aligned.h"
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

void ByteWriter::PutI64Array(const int64_t* values, size_t n) {
  if (n == 0) return;
  buf_.append(reinterpret_cast<const char*>(values), n * sizeof(int64_t));
}

void ByteWriter::PutBytes(std::string_view bytes) {
  buf_.append(bytes.data(), bytes.size());
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

namespace {

constexpr char kBlobMagic[4] = {'G', 'S', 'K', 'B'};
// magic + version + kind + flags + fingerprint.
constexpr size_t kBlobHeaderBytes = 4 + 4 + 4 + 4 + 8;
constexpr size_t kChecksumBytes = 8;

const char* KindName(SketchKind kind) {
  switch (kind) {
    case SketchKind::kCountSketch: return "count_sketch";
    case SketchKind::kCountMin: return "count_min";
    case SketchKind::kAms: return "ams";
    case SketchKind::kGnp: return "gnp";
    case SketchKind::kExactFrequency: return "exact_frequency";
    case SketchKind::kCountSketchTopK: return "count_sketch_topk";
    case SketchKind::kExactHeavyHitter: return "exact_heavy_hitter";
    case SketchKind::kOnePassHH: return "one_pass_hh";
    case SketchKind::kTwoPassHH: return "two_pass_hh";
    case SketchKind::kRecursiveGSum: return "recursive_gsum";
  }
  return "unknown";
}

LoadStatus Truncated(const std::string& what) {
  return LoadStatus::Fail(LoadError::kTruncated,
                          "blob ends inside " + what);
}

// Starts a blob of `payload_bytes` kind-specific bytes: reserves the
// exact blob size and writes the header (the checksum is appended by
// FinishBlob over everything written so far).
void BeginBlob(ByteWriter* w, SketchKind kind, uint64_t fingerprint,
               size_t payload_bytes) {
  w->Reserve(kBlobHeaderBytes + payload_bytes + kChecksumBytes);
  w->PutBytes(std::string_view(kBlobMagic, sizeof(kBlobMagic)));
  w->PutU32(kSketchFormatVersion);
  w->PutU32(static_cast<uint32_t>(kind));
  w->PutU32(0);  // flags, reserved
  w->PutU64(fingerprint);
}

std::string FinishBlob(ByteWriter* w) {
  w->PutU64(Checksum64(w->bytes()));
  return w->Take();
}

// Validates the envelope (magic, length, checksum, version, kind) and
// positions `reader` at the payload; the payload region excludes the
// trailing checksum, so a fully-consumed reader means no trailing bytes.
LoadStatus OpenBlob(std::string_view blob, SketchKind want_kind,
                    ByteReader* reader, uint64_t* fingerprint) {
  if (blob.size() < sizeof(kBlobMagic) ||
      std::memcmp(blob.data(), kBlobMagic, sizeof(kBlobMagic)) != 0) {
    return LoadStatus::Fail(LoadError::kBadMagic,
                            "not a gstream sketch blob (bad magic)");
  }
  if (blob.size() < kBlobHeaderBytes + kChecksumBytes) {
    return Truncated("the blob header");
  }
  const std::string_view body = blob.substr(0, blob.size() - kChecksumBytes);
  ByteReader tail(blob.substr(blob.size() - kChecksumBytes));
  uint64_t stored_checksum = 0;
  tail.GetU64(&stored_checksum);
  *reader = ByteReader(body);
  std::string_view magic;
  reader->GetBytes(sizeof(kBlobMagic), &magic);
  uint32_t version = 0, kind = 0, flags = 0;
  reader->GetU32(&version);
  // A retired version carries another checksum, which cannot verify here:
  // it is reported as version skew rather than as corrupt bytes.
  const bool retired = version >= 1 && version < kSketchFormatVersion;
  if (!retired && Checksum64(body) != stored_checksum) {
    return LoadStatus::Fail(LoadError::kChecksumMismatch,
                            "whole-blob checksum mismatch (corrupt bytes)");
  }
  if (version != kSketchFormatVersion) {
    return LoadStatus::Fail(
        LoadError::kVersionSkew,
        "format version " + std::to_string(version) + ", this build reads " +
            std::to_string(kSketchFormatVersion));
  }
  reader->GetU32(&kind);
  reader->GetU32(&flags);
  reader->GetU64(fingerprint);
  if (kind != static_cast<uint32_t>(want_kind)) {
    return LoadStatus::Fail(
        LoadError::kTypeMismatch,
        std::string("blob holds ") +
            KindName(static_cast<SketchKind>(kind)) + ", destination is " +
            KindName(want_kind));
  }
  return LoadStatus::Ok();
}

LoadStatus GeometryMismatch(const std::string& what, uint64_t got,
                            uint64_t want) {
  return LoadStatus::Fail(LoadError::kGeometryMismatch,
                          what + " " + std::to_string(got) +
                              " in blob, destination has " +
                              std::to_string(want));
}

LoadStatus FingerprintMismatch() {
  return LoadStatus::Fail(
      LoadError::kFingerprintMismatch,
      "sketch fingerprint differs from the destination's (different seed "
      "or randomness)");
}

LoadStatus ExpectDrained(const ByteReader& reader) {
  if (reader.remaining() != 0) {
    return LoadStatus::Fail(LoadError::kTrailingData,
                            std::to_string(reader.remaining()) +
                                " trailing bytes after the payload");
  }
  return LoadStatus::Ok();
}

// Wire bytes of `n` i64 counters, or of `n` (u64, i64) entries.
constexpr size_t CounterBytes(size_t n) { return 8 * n; }
constexpr size_t EntryBytes(size_t n) { return 16 * n; }

// Reads counters into `out`; `out` arrives pre-sized to the destination
// geometry, so a corrupt length cannot drive allocation.  Templated over
// the vector type: sketch counter arrays use the 64-byte-aligned
// allocator (util/aligned.h), and the transactional temporaries below
// must match the destination's type to move-assign on commit.
template <typename Vec>
LoadStatus ReadCounters(ByteReader* reader, const char* what, Vec* out) {
  if (!reader->GetI64Array(out->data(), out->size())) return Truncated(what);
  return LoadStatus::Ok();
}

}  // namespace

// Friend of every sketch: restores private counter/candidate state after
// the envelope, geometry, and fingerprint checks pass.  Every Read method
// parses into temporaries and commits only on full success, so a failed
// load leaves the destination bit-identical to its prior state.
struct SketchSerde {
  // --- CountSketch ---------------------------------------------------------
  static std::string WriteCountSketch(const CountSketch& s) {
    ByteWriter w;
    BeginBlob(&w, SketchKind::kCountSketch, s.Fingerprint(),
              16 + CounterBytes(s.counters_.size()));
    w.PutU64(s.rows());
    w.PutU64(s.buckets());
    w.PutI64Array(s.counters_.data(), s.counters_.size());
    return FinishBlob(&w);
  }

  static LoadStatus ReadCountSketch(std::string_view blob, CountSketch* dst) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s = OpenBlob(blob, SketchKind::kCountSketch, &r, &fp);
        !s.ok()) {
      return s;
    }
    uint64_t rows = 0, buckets = 0;
    if (!r.GetU64(&rows) || !r.GetU64(&buckets)) {
      return Truncated("count_sketch geometry");
    }
    if (rows != dst->rows()) return GeometryMismatch("rows", rows, dst->rows());
    if (buckets != dst->buckets()) {
      return GeometryMismatch("buckets", buckets, dst->buckets());
    }
    if (fp != dst->Fingerprint()) return FingerprintMismatch();
    AlignedI64Vector counters(dst->counters_.size());
    if (LoadStatus s = ReadCounters(&r, "count_sketch counters", &counters);
        !s.ok()) {
      return s;
    }
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    dst->counters_ = std::move(counters);
    return LoadStatus::Ok();
  }

  // --- CountMinSketch ------------------------------------------------------
  static std::string WriteCountMin(const CountMinSketch& s) {
    ByteWriter w;
    BeginBlob(&w, SketchKind::kCountMin, s.Fingerprint(),
              16 + CounterBytes(s.counters_.size()));
    w.PutU64(s.options_.rows);
    w.PutU64(s.options_.buckets);
    w.PutI64Array(s.counters_.data(), s.counters_.size());
    return FinishBlob(&w);
  }

  static LoadStatus ReadCountMin(std::string_view blob, CountMinSketch* dst) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s = OpenBlob(blob, SketchKind::kCountMin, &r, &fp);
        !s.ok()) {
      return s;
    }
    uint64_t rows = 0, buckets = 0;
    if (!r.GetU64(&rows) || !r.GetU64(&buckets)) {
      return Truncated("count_min geometry");
    }
    if (rows != dst->options_.rows) {
      return GeometryMismatch("rows", rows, dst->options_.rows);
    }
    if (buckets != dst->options_.buckets) {
      return GeometryMismatch("buckets", buckets, dst->options_.buckets);
    }
    if (fp != dst->Fingerprint()) return FingerprintMismatch();
    AlignedI64Vector counters(dst->counters_.size());
    if (LoadStatus s = ReadCounters(&r, "count_min counters", &counters);
        !s.ok()) {
      return s;
    }
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    dst->counters_ = std::move(counters);
    return LoadStatus::Ok();
  }

  // --- AmsSketch -----------------------------------------------------------
  static std::string WriteAms(const AmsSketch& s) {
    ByteWriter w;
    BeginBlob(&w, SketchKind::kAms, s.Fingerprint(),
              16 + CounterBytes(s.sums_.size()));
    w.PutU64(s.options_.group_size);
    w.PutU64(s.options_.groups);
    w.PutI64Array(s.sums_.data(), s.sums_.size());
    return FinishBlob(&w);
  }

  static LoadStatus ReadAms(std::string_view blob, AmsSketch* dst) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s = OpenBlob(blob, SketchKind::kAms, &r, &fp); !s.ok()) {
      return s;
    }
    uint64_t group_size = 0, groups = 0;
    if (!r.GetU64(&group_size) || !r.GetU64(&groups)) {
      return Truncated("ams geometry");
    }
    if (group_size != dst->options_.group_size) {
      return GeometryMismatch("group_size", group_size,
                              dst->options_.group_size);
    }
    if (groups != dst->options_.groups) {
      return GeometryMismatch("groups", groups, dst->options_.groups);
    }
    if (fp != dst->Fingerprint()) return FingerprintMismatch();
    AlignedI64Vector sums(dst->sums_.size());
    if (LoadStatus s = ReadCounters(&r, "ams sums", &sums); !s.ok()) return s;
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    dst->sums_ = std::move(sums);
    return LoadStatus::Ok();
  }

  // --- GnpHeavyHitter ------------------------------------------------------
  static std::string WriteGnp(const GnpHeavyHitter& s) {
    ByteWriter w;
    BeginBlob(&w, SketchKind::kGnp, s.Fingerprint(),
              24 + CounterBytes(s.counters_.size()));
    w.PutU64(s.options_.substreams);
    w.PutU64(s.options_.trials);
    w.PutU64(static_cast<uint64_t>(s.options_.id_bits));
    w.PutI64Array(s.counters_.data(), s.counters_.size());
    return FinishBlob(&w);
  }

  static LoadStatus ReadGnp(std::string_view blob, GnpHeavyHitter* dst) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s = OpenBlob(blob, SketchKind::kGnp, &r, &fp); !s.ok()) {
      return s;
    }
    uint64_t substreams = 0, trials = 0, id_bits = 0;
    if (!r.GetU64(&substreams) || !r.GetU64(&trials) || !r.GetU64(&id_bits)) {
      return Truncated("gnp geometry");
    }
    if (substreams != dst->options_.substreams) {
      return GeometryMismatch("substreams", substreams,
                              dst->options_.substreams);
    }
    if (trials != dst->options_.trials) {
      return GeometryMismatch("trials", trials, dst->options_.trials);
    }
    if (id_bits != static_cast<uint64_t>(dst->options_.id_bits)) {
      return GeometryMismatch("id_bits", id_bits,
                              static_cast<uint64_t>(dst->options_.id_bits));
    }
    if (fp != dst->Fingerprint()) return FingerprintMismatch();
    std::vector<int64_t> counters(dst->counters_.size());
    if (LoadStatus s = ReadCounters(&r, "gnp counters", &counters); !s.ok()) {
      return s;
    }
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    dst->counters_ = std::move(counters);
    return LoadStatus::Ok();
  }

  // --- ExactFrequencySketch ------------------------------------------------
  static std::string WriteExactFrequency(const ExactFrequencySketch& s) {
    // Sorted by item so equal states serialize to identical bytes (the
    // in-memory map order is not deterministic).
    std::vector<std::pair<ItemId, int64_t>> entries(s.freq_.begin(),
                                                    s.freq_.end());
    std::sort(entries.begin(), entries.end());
    ByteWriter w;
    BeginBlob(&w, SketchKind::kExactFrequency, /*fingerprint=*/0,
              8 + EntryBytes(entries.size()));
    w.PutU64(entries.size());
    for (const auto& [item, value] : entries) {
      w.PutU64(item);
      w.PutI64(value);
    }
    return FinishBlob(&w);
  }

  static LoadStatus ReadExactFrequency(std::string_view blob,
                                       ExactFrequencySketch* dst) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s = OpenBlob(blob, SketchKind::kExactFrequency, &r, &fp);
        !s.ok()) {
      return s;
    }
    if (fp != 0) return FingerprintMismatch();
    uint64_t n = 0;
    if (!r.GetU64(&n)) return Truncated("exact_frequency entry count");
    // Each entry is 16 bytes; bound the count by the remaining bytes so a
    // corrupt length cannot drive allocation.
    if (n > r.remaining() / 16) return Truncated("exact_frequency entries");
    FrequencyMap freq;
    freq.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t item = 0;
      int64_t value = 0;
      if (!r.GetU64(&item) || !r.GetI64(&value)) {
        return Truncated("exact_frequency entries");
      }
      freq[item] = value;
    }
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    dst->freq_ = std::move(freq);
    return LoadStatus::Ok();
  }

  // --- CountSketchTopK -----------------------------------------------------
  static std::string WriteTopK(const CountSketchTopK& s) {
    const std::string sketch = WriteCountSketch(s.sketch_);
    std::vector<CandidateTable::Entry> candidates = s.candidates_.entries();
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) { return a.item < b.item; });
    ByteWriter w;
    BeginBlob(&w, SketchKind::kCountSketchTopK, s.Fingerprint(),
              8 + 8 + sketch.size() + 8 + EntryBytes(candidates.size()));
    w.PutU64(s.k());
    w.PutBlob(sketch);
    w.PutU64(candidates.size());
    for (const CandidateTable::Entry& e : candidates) {
      w.PutU64(e.item);
      w.PutI64(e.estimate);
    }
    return FinishBlob(&w);
  }

  static LoadStatus ReadTopK(std::string_view blob, CountSketchTopK* dst) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s = OpenBlob(blob, SketchKind::kCountSketchTopK, &r, &fp);
        !s.ok()) {
      return s;
    }
    uint64_t k = 0;
    if (!r.GetU64(&k)) return Truncated("topk capacity");
    if (k != dst->k()) return GeometryMismatch("k", k, dst->k());
    if (fp != dst->Fingerprint()) return FingerprintMismatch();
    std::string_view inner;
    if (!r.GetBlob(&inner)) return Truncated("topk inner sketch blob");
    CountSketch sketch = dst->sketch_;
    if (LoadStatus s = ReadCountSketch(inner, &sketch); !s.ok()) return s;
    uint64_t n = 0;
    if (!r.GetU64(&n)) return Truncated("topk candidate count");
    // The writer emits at most 2k candidates, ids strictly ascending; any
    // other list would not re-serialize to its own bytes (or would break
    // the tracker's 2k bound), so it is refused rather than normalized.
    if (n > 2 * k) {
      return LoadStatus::Fail(LoadError::kDomainError,
                              "topk candidate count " + std::to_string(n) +
                                  " exceeds 2k = " + std::to_string(2 * k));
    }
    if (n > r.remaining() / 16) return Truncated("topk candidates");
    std::vector<CandidateTable::Entry> candidates(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      CandidateTable::Entry& e = candidates[i];
      if (!r.GetU64(&e.item) || !r.GetI64(&e.estimate)) {
        return Truncated("topk candidates");
      }
      if (i > 0 && e.item <= candidates[i - 1].item) {
        return LoadStatus::Fail(
            LoadError::kDomainError,
            (e.item == candidates[i - 1].item
                 ? "topk candidate id duplicated at entry "
                 : "topk candidate ids out of ascending order at entry ") +
                std::to_string(i));
      }
    }
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    dst->sketch_ = std::move(sketch);
    dst->candidates_.Assign(std::move(candidates));
    return LoadStatus::Ok();
  }

  // --- ExactHeavyHitterSketch ----------------------------------------------
  static std::string WriteExactHH(const ExactHeavyHitterSketch& s) {
    const std::string freq = WriteExactFrequency(s.freq_);
    ByteWriter w;
    BeginBlob(&w, SketchKind::kExactHeavyHitter, /*fingerprint=*/0,
              8 + freq.size());
    w.PutBlob(freq);
    return FinishBlob(&w);
  }

  static LoadStatus ReadExactHH(std::string_view blob,
                                ExactHeavyHitterSketch* dst) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s = OpenBlob(blob, SketchKind::kExactHeavyHitter, &r, &fp);
        !s.ok()) {
      return s;
    }
    if (fp != 0) return FingerprintMismatch();
    std::string_view inner;
    if (!r.GetBlob(&inner)) return Truncated("exact_hh inner blob");
    ExactFrequencySketch freq = dst->freq_;
    if (LoadStatus s = ReadExactFrequency(inner, &freq); !s.ok()) return s;
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    dst->freq_ = std::move(freq);
    return LoadStatus::Ok();
  }

  // --- OnePassHeavyHitter --------------------------------------------------
  static std::string WriteOnePass(const OnePassHeavyHitter& s) {
    const std::string tracker = WriteTopK(s.tracker_);
    const std::string ams = WriteAms(s.ams_);
    ByteWriter w;
    BeginBlob(&w, SketchKind::kOnePassHH, s.Fingerprint(),
              8 + tracker.size() + 8 + ams.size());
    w.PutBlob(tracker);
    w.PutBlob(ams);
    return FinishBlob(&w);
  }

  static LoadStatus ReadOnePass(std::string_view blob,
                                OnePassHeavyHitter* dst) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s = OpenBlob(blob, SketchKind::kOnePassHH, &r, &fp);
        !s.ok()) {
      return s;
    }
    if (fp != dst->Fingerprint()) return FingerprintMismatch();
    std::string_view tracker_blob, ams_blob;
    if (!r.GetBlob(&tracker_blob)) return Truncated("one_pass_hh tracker");
    if (!r.GetBlob(&ams_blob)) return Truncated("one_pass_hh ams");
    CountSketchTopK tracker = dst->tracker_;
    AmsSketch ams = dst->ams_;
    if (LoadStatus s = ReadTopK(tracker_blob, &tracker); !s.ok()) return s;
    if (LoadStatus s = ReadAms(ams_blob, &ams); !s.ok()) return s;
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    dst->tracker_ = std::move(tracker);
    dst->ams_ = std::move(ams);
    return LoadStatus::Ok();
  }

  // --- TwoPassHeavyHitter --------------------------------------------------
  static std::string WriteTwoPass(const TwoPassHeavyHitter& s) {
    const std::string tracker = WriteTopK(s.tracker_);
    ByteWriter w;
    BeginBlob(&w, SketchKind::kTwoPassHH, s.Fingerprint(),
              4 + 8 + tracker.size() + 8 +
                  CounterBytes(s.candidate_ids_.size()) +
                  CounterBytes(s.exact_counts_.size()));
    w.PutU32(static_cast<uint32_t>(s.current_pass_));
    w.PutBlob(tracker);
    w.PutU64(s.candidate_ids_.size());
    for (const ItemId id : s.candidate_ids_) w.PutU64(id);
    w.PutI64Array(s.exact_counts_.data(), s.exact_counts_.size());
    return FinishBlob(&w);
  }

  static LoadStatus ReadTwoPass(std::string_view blob,
                                TwoPassHeavyHitter* dst) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s = OpenBlob(blob, SketchKind::kTwoPassHH, &r, &fp);
        !s.ok()) {
      return s;
    }
    if (fp != dst->Fingerprint()) return FingerprintMismatch();
    uint32_t pass = 0;
    if (!r.GetU32(&pass)) return Truncated("two_pass_hh pass");
    if (pass != 1 && pass != 2) {
      return LoadStatus::Fail(LoadError::kDomainError,
                              "two_pass_hh pass " + std::to_string(pass) +
                                  " outside {1, 2}");
    }
    std::string_view tracker_blob;
    if (!r.GetBlob(&tracker_blob)) return Truncated("two_pass_hh tracker");
    CountSketchTopK tracker = dst->tracker_;
    if (LoadStatus s = ReadTopK(tracker_blob, &tracker); !s.ok()) return s;
    uint64_t n = 0;
    if (!r.GetU64(&n)) return Truncated("two_pass_hh candidate count");
    if (n > r.remaining() / 16) return Truncated("two_pass_hh candidates");
    std::vector<ItemId> ids(static_cast<size_t>(n));
    std::vector<int64_t> counts(static_cast<size_t>(n));
    for (ItemId& id : ids) {
      if (!r.GetU64(&id)) return Truncated("two_pass_hh candidate ids");
    }
    if (LoadStatus s = ReadCounters(&r, "two_pass_hh exact counts", &counts);
        !s.ok()) {
      return s;
    }
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    dst->current_pass_ = static_cast<int>(pass);
    dst->tracker_ = std::move(tracker);
    dst->candidate_ids_ = std::move(ids);
    dst->exact_counts_ = std::move(counts);
    return LoadStatus::Ok();
  }

  // --- RecursiveGSum -------------------------------------------------------
  static std::string WriteRecursive(const RecursiveGSum& stack) {
    std::vector<std::string> levels;
    levels.reserve(stack.sketches_.size());
    size_t payload = 16;
    for (const auto& sketch : stack.sketches_) {
      levels.push_back(SerializeHeavyHitter(*sketch));
      payload += 4 + 8 + levels.back().size();
    }
    ByteWriter w;
    BeginBlob(&w, SketchKind::kRecursiveGSum, stack.Fingerprint(), payload);
    w.PutU64(stack.subsampler_.Fingerprint());
    w.PutU64(stack.sketches_.size());
    for (size_t l = 0; l < levels.size(); ++l) {
      w.PutU32(static_cast<uint32_t>(KindOfHeavyHitter(*stack.sketches_[l])));
      w.PutBlob(levels[l]);
    }
    return FinishBlob(&w);
  }

  static LoadStatus ReadRecursive(std::string_view blob, RecursiveGSum* dst) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s = OpenBlob(blob, SketchKind::kRecursiveGSum, &r, &fp);
        !s.ok()) {
      return s;
    }
    uint64_t sub_fp = 0, n_levels = 0;
    if (!r.GetU64(&sub_fp) || !r.GetU64(&n_levels)) {
      return Truncated("recursive_gsum header");
    }
    if (n_levels != dst->sketches_.size()) {
      return GeometryMismatch("levels", n_levels, dst->sketches_.size());
    }
    if (sub_fp != dst->subsampler_.Fingerprint() || fp != dst->Fingerprint()) {
      return FingerprintMismatch();
    }
    // Per-level deserialization runs on clones so a failure at level l
    // leaves levels 0..l-1 of the destination untouched.
    std::vector<std::unique_ptr<GHeavyHitterSketch>> levels;
    levels.reserve(dst->sketches_.size());
    for (size_t l = 0; l < dst->sketches_.size(); ++l) {
      uint32_t kind = 0;
      std::string_view level_blob;
      if (!r.GetU32(&kind) || !r.GetBlob(&level_blob)) {
        return Truncated("recursive_gsum level " + std::to_string(l));
      }
      std::unique_ptr<GHeavyHitterSketch> level = dst->sketches_[l]->Clone();
      if (kind != static_cast<uint32_t>(KindOfHeavyHitter(*level))) {
        return LoadStatus::Fail(
            LoadError::kTypeMismatch,
            "level " + std::to_string(l) + " holds " +
                KindName(static_cast<SketchKind>(kind)) +
                ", destination level is " +
                KindName(KindOfHeavyHitter(*level)));
      }
      if (LoadStatus s = DeserializeHeavyHitter(level_blob, level.get());
          !s.ok()) {
        s.message = "level " + std::to_string(l) + ": " + s.message;
        return s;
      }
      levels.push_back(std::move(level));
    }
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    dst->sketches_ = std::move(levels);
    return LoadStatus::Ok();
  }

  static SketchKind KindOfHeavyHitter(const GHeavyHitterSketch& sketch) {
    if (dynamic_cast<const OnePassHeavyHitter*>(&sketch) != nullptr) {
      return SketchKind::kOnePassHH;
    }
    if (dynamic_cast<const TwoPassHeavyHitter*>(&sketch) != nullptr) {
      return SketchKind::kTwoPassHH;
    }
    if (dynamic_cast<const GnpHeavyHitter*>(&sketch) != nullptr) {
      return SketchKind::kGnp;
    }
    if (dynamic_cast<const ExactHeavyHitterSketch*>(&sketch) != nullptr) {
      return SketchKind::kExactHeavyHitter;
    }
    std::fprintf(stderr,
                 "sketch_io: unknown GHeavyHitterSketch subclass cannot be "
                 "serialized\n");
    std::abort();
  }
};

}  // namespace persist

// ---------------------------------------------------------------------------
// Public surface: thin delegation into the friend serde.
// ---------------------------------------------------------------------------

std::string SerializeSketch(const CountSketch& sketch) {
  return persist::SketchSerde::WriteCountSketch(sketch);
}
std::string SerializeSketch(const CountMinSketch& sketch) {
  return persist::SketchSerde::WriteCountMin(sketch);
}
std::string SerializeSketch(const AmsSketch& sketch) {
  return persist::SketchSerde::WriteAms(sketch);
}
std::string SerializeSketch(const GnpHeavyHitter& sketch) {
  return persist::SketchSerde::WriteGnp(sketch);
}
std::string SerializeSketch(const ExactFrequencySketch& sketch) {
  return persist::SketchSerde::WriteExactFrequency(sketch);
}
std::string SerializeSketch(const CountSketchTopK& sketch) {
  return persist::SketchSerde::WriteTopK(sketch);
}
std::string SerializeSketch(const ExactHeavyHitterSketch& sketch) {
  return persist::SketchSerde::WriteExactHH(sketch);
}
std::string SerializeSketch(const OnePassHeavyHitter& sketch) {
  return persist::SketchSerde::WriteOnePass(sketch);
}
std::string SerializeSketch(const TwoPassHeavyHitter& sketch) {
  return persist::SketchSerde::WriteTwoPass(sketch);
}
std::string SerializeSketch(const RecursiveGSum& stack) {
  return persist::SketchSerde::WriteRecursive(stack);
}

LoadStatus DeserializeSketch(std::string_view blob, CountSketch* dst) {
  return persist::SketchSerde::ReadCountSketch(blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob, CountMinSketch* dst) {
  return persist::SketchSerde::ReadCountMin(blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob, AmsSketch* dst) {
  return persist::SketchSerde::ReadAms(blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob, GnpHeavyHitter* dst) {
  return persist::SketchSerde::ReadGnp(blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob,
                             ExactFrequencySketch* dst) {
  return persist::SketchSerde::ReadExactFrequency(blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob, CountSketchTopK* dst) {
  return persist::SketchSerde::ReadTopK(blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob,
                             ExactHeavyHitterSketch* dst) {
  return persist::SketchSerde::ReadExactHH(blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob, OnePassHeavyHitter* dst) {
  return persist::SketchSerde::ReadOnePass(blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob, TwoPassHeavyHitter* dst) {
  return persist::SketchSerde::ReadTwoPass(blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob, RecursiveGSum* dst) {
  return persist::SketchSerde::ReadRecursive(blob, dst);
}

std::string SerializeHeavyHitter(const GHeavyHitterSketch& sketch) {
  if (const auto* s = dynamic_cast<const OnePassHeavyHitter*>(&sketch)) {
    return SerializeSketch(*s);
  }
  if (const auto* s = dynamic_cast<const TwoPassHeavyHitter*>(&sketch)) {
    return SerializeSketch(*s);
  }
  if (const auto* s = dynamic_cast<const GnpHeavyHitter*>(&sketch)) {
    return SerializeSketch(*s);
  }
  if (const auto* s = dynamic_cast<const ExactHeavyHitterSketch*>(&sketch)) {
    return SerializeSketch(*s);
  }
  std::fprintf(stderr,
               "sketch_io: unknown GHeavyHitterSketch subclass cannot be "
               "serialized\n");
  std::abort();
}

LoadStatus DeserializeHeavyHitter(std::string_view blob,
                                  GHeavyHitterSketch* dst) {
  if (auto* s = dynamic_cast<OnePassHeavyHitter*>(dst)) {
    return DeserializeSketch(blob, s);
  }
  if (auto* s = dynamic_cast<TwoPassHeavyHitter*>(dst)) {
    return DeserializeSketch(blob, s);
  }
  if (auto* s = dynamic_cast<GnpHeavyHitter*>(dst)) {
    return DeserializeSketch(blob, s);
  }
  if (auto* s = dynamic_cast<ExactHeavyHitterSketch*>(dst)) {
    return DeserializeSketch(blob, s);
  }
  return LoadStatus::Fail(
      LoadError::kTypeMismatch,
      "destination is a GHeavyHitterSketch subclass the wire format does "
      "not know");
}

std::optional<SketchKind> PeekSketchKind(std::string_view blob) {
  if (blob.size() < 12) return std::nullopt;
  if (std::memcmp(blob.data(), "GSKB", 4) != 0) return std::nullopt;
  persist::ByteReader r(blob.substr(4));
  uint32_t version = 0, kind = 0;
  r.GetU32(&version);
  r.GetU32(&kind);
  return static_cast<SketchKind>(kind);
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
