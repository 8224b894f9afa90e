// Durable sketches: a versioned binary wire format for every mergeable
// sketch in the library, including whole RecursiveGSum Theorem-13 stacks.
//
// Blob layout (little-endian, version 2; docs/persistence.md has the full
// story):
//
//   bytes 0-3   magic "GSKB"
//   u32         format version (kSketchFormatVersion)
//   u32         sketch kind tag (SketchKind)
//   u32         flags (reserved: 0, any other value is refused)
//   u64         Fingerprint() of the serialized sketch
//   ...         kind-specific payload: geometry words, then counter state
//               (counter arrays are copied in bulk; a composite writes each
//               child in place as a length-prefixed blob with its own
//               envelope)
//   u64         XXH64 (seed 0) of every preceding byte
//
// What is serialized is exactly the *state* -- counters, sums, candidate
// sets, pass position -- never the hash coefficients.  A loader must
// construct the destination sketch from the same seed and geometry the
// writer used (the checkpoint/merge workflows already require shared
// randomness for MergeFrom); the wire fingerprint is checked against the
// destination's, so a blob can only land in a sketch that drew identical
// randomness.  This keeps blobs small, keeps the fingerprint guard as the
// single source of merge-compatibility truth, and makes "deserialize into
// the wrong sketch" a detected error rather than silent corruption.
//
// Each kind's payload is declared once in sketch_io.cc, in wire order;
// one writer and one reader walk those declarations, so adding a kind is
// one SketchKind tag (with its name) plus one declaration.  The reader
// enforces the check order of docs/persistence.md for every kind.
//
// Deserialize is a total function over arbitrary bytes: wrong magic,
// version skew, kind/fingerprint/geometry mismatch, truncation, bit flips
// (whole-blob checksum), and trailing garbage all come back as a clean
// LoadStatus with the precise reason, and the destination sketch is left
// untouched on every failure path (the reader fills a copy and commits it
// with one move).  tests/persist/sketch_io_test.cc sweeps byte flips over
// every position and truncations at every length.

#ifndef GSTREAM_PERSIST_SKETCH_IO_H_
#define GSTREAM_PERSIST_SKETCH_IO_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace gstream {

class CountSketch;
class CountSketchTopK;
class AmsSketch;
class GnpHeavyHitter;
class ExactFrequencySketch;
class ExactHeavyHitterSketch;
class OnePassHeavyHitter;
class TwoPassHeavyHitter;
class RecursiveGSum;
class GHeavyHitterSketch;

// Wire type tags.  Append-only: never renumber a released tag, and never
// reuse a retired one.
enum class SketchKind : uint32_t {
  kCountSketch = 1,
  kRetiredCountMin = 2,  // no sketch reads or writes it; blobs are refused
  kAms = 3,
  kGnp = 4,
  kExactFrequency = 5,
  kCountSketchTopK = 6,
  kExactHeavyHitter = 7,
  kOnePassHH = 8,
  kTwoPassHH = 9,
  kRecursiveGSum = 10,
};

// The tag's wire name ("count_sketch", ...), or "unknown" for a tag that
// names no SketchKind.
const char* SketchKindName(SketchKind kind);

// Version history: 1 = FNV-1a trailer (retired, reported as version skew),
// 2 = XXH64 trailer.  The payload layout is the same in both.
inline constexpr uint32_t kSketchFormatVersion = 2;

// ---------------------------------------------------------------------------
// Serialize / Deserialize, one overload pair per mergeable sketch.
// Deserialize requires `dst` constructed with the writer's seed and
// geometry; on any failure `dst` is unchanged and the status says why.
// ---------------------------------------------------------------------------

std::string SerializeSketch(const CountSketch& sketch);
std::string SerializeSketch(const AmsSketch& sketch);
std::string SerializeSketch(const GnpHeavyHitter& sketch);
std::string SerializeSketch(const ExactFrequencySketch& sketch);
std::string SerializeSketch(const CountSketchTopK& sketch);
std::string SerializeSketch(const ExactHeavyHitterSketch& sketch);
std::string SerializeSketch(const OnePassHeavyHitter& sketch);
std::string SerializeSketch(const TwoPassHeavyHitter& sketch);
std::string SerializeSketch(const RecursiveGSum& stack);

LoadStatus DeserializeSketch(std::string_view blob, CountSketch* dst);
LoadStatus DeserializeSketch(std::string_view blob, AmsSketch* dst);
LoadStatus DeserializeSketch(std::string_view blob, GnpHeavyHitter* dst);
LoadStatus DeserializeSketch(std::string_view blob, ExactFrequencySketch* dst);
LoadStatus DeserializeSketch(std::string_view blob, CountSketchTopK* dst);
LoadStatus DeserializeSketch(std::string_view blob,
                             ExactHeavyHitterSketch* dst);
LoadStatus DeserializeSketch(std::string_view blob, OnePassHeavyHitter* dst);
LoadStatus DeserializeSketch(std::string_view blob, TwoPassHeavyHitter* dst);
LoadStatus DeserializeSketch(std::string_view blob, RecursiveGSum* dst);

// Polymorphic dispatch over the GHeavyHitterSketch hierarchy, used for the
// per-level sketches of a RecursiveGSum stack.  Serialize aborts on a
// subclass the wire format does not know (a programming error, like
// merging unrelated types); Deserialize reports kTypeMismatch when the
// blob's tag does not name dst's dynamic type.
std::string SerializeHeavyHitter(const GHeavyHitterSketch& sketch);
LoadStatus DeserializeHeavyHitter(std::string_view blob,
                                  GHeavyHitterSketch* dst);

// The SketchKind a blob claims to hold, if it starts with the GSKB magic
// and a tag that names a kind -- lets tools name what is in a file without
// knowing the destination type.
std::optional<SketchKind> PeekSketchKind(std::string_view blob);

// CHECK-style wrapper mirroring the in-memory MergeFrom contract: feeding
// an incompatible blob (wrong version, kind, fingerprint, geometry, or a
// corrupt file) aborts with the load reason.  The cross-process reducer
// uses this so "merge incompatible serialized sketches" dies exactly like
// "merge incompatible in-memory sketches"; tests/persist/ death-tests it.
template <typename SketchT>
void DeserializeSketchOrDie(std::string_view blob, SketchT* dst) {
  const LoadStatus status = DeserializeSketch(blob, dst);
  if (!status.ok()) {
    std::fprintf(stderr, "DeserializeSketchOrDie: %s: %s\n",
                 LoadErrorName(status.error), status.message.c_str());
    std::abort();
  }
}

// ---------------------------------------------------------------------------
// Crash-consistent file I/O.
// ---------------------------------------------------------------------------

// Kill points of WriteFileAtomic, in sequence order: one util/fault.h site
// per phase, modeling a crash there.  The phase (after the last '/') is
// tools/ckpt_ingest's --fault= spelling.  before-tmp: no tmp file.
// mid-tmp: tmp holds the first half of the bytes.  before-rename: tmp
// complete and fsynced, no rename.  before-dirsync: the NEW complete file
// is renamed into place, but the parent directory was never fsynced, so
// after a power cut it may resolve to the old version.  Never a torn mix.
inline constexpr const char* kAtomicWriteSites[] = {
    "persist/atomic_write/before-tmp", "persist/atomic_write/mid-tmp",
    "persist/atomic_write/before-rename", "persist/atomic_write/before-dirsync"};

// Atomically replaces `path` with `bytes`: writes `path`.tmp, fsyncs it,
// renames over `path`, and fsyncs the parent directory, so a crash at any
// instant leaves either the old complete file or the new complete file --
// never a torn mix.  Returns false on I/O error (and when a kill point
// fires, since the sequence did not complete).
bool WriteFileAtomic(const std::string& path, std::string_view bytes);

// Reads a whole file; nullopt + status on open/read failure.
std::optional<std::string> ReadFileBytes(const std::string& path,
                                         LoadStatus* status = nullptr);

// Serialize + WriteFileAtomic.
template <typename SketchT>
bool SaveSketch(const SketchT& sketch, const std::string& path) {
  return WriteFileAtomic(path, SerializeSketch(sketch));
}

// ReadFileBytes + Deserialize.
template <typename SketchT>
LoadStatus LoadSketch(const std::string& path, SketchT* dst) {
  LoadStatus status;
  const std::optional<std::string> bytes = ReadFileBytes(path, &status);
  if (!bytes.has_value()) return status;
  return DeserializeSketch(*bytes, dst);
}

namespace persist {

// XXH64 (seed 0) over a byte range: the whole-blob checksum.  Not
// cryptographic -- it detects corruption (bit rot, torn writes), not
// adversaries, which is the contract crash consistency needs.
uint64_t Checksum64(std::string_view bytes);

// Little-endian bounds-checked primitives shared by the sketch and
// checkpoint formats.
class ByteWriter {
 public:
  // Writers reserve the exact blob size up front, so appends never
  // reallocate.
  void Reserve(size_t bytes) { buf_.reserve(bytes); }

  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutBytes(std::string_view bytes);
  // Length-prefixed child blob.
  void PutBlob(std::string_view blob);
  // Overwrites the u64 at byte `pos` (a length written before its blob).
  void PatchU64(size_t pos, uint64_t v);
  // Appends the XXH64 of the bytes from `begin` on: an envelope's trailer.
  void PutChecksum(size_t begin);

  const std::string& bytes() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetI64(int64_t* v);
  // `n` i64s in one copy; false, reading nothing, if fewer remain.
  bool GetI64Array(int64_t* out, size_t n);
  bool GetBytes(size_t n, std::string_view* out);
  // Length-prefixed child blob (bounded by the remaining bytes).
  bool GetBlob(std::string_view* out);

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

// The frame both persisted formats share: a 4-byte magic, a u32 version,
// the format's own fixed header words, its payload, then the XXH64 (seed
// 0) of every preceding byte.
struct Envelope {
  std::string_view magic;
  size_t header_bytes;  // the fixed header, magic and version included
  uint32_t version;     // the version this build reads and writes
  const char* noun;     // names the version in messages
};

// magic + version + kind + flags + fingerprint.
inline constexpr Envelope kSketchEnvelope = {"GSKB", 4 + 4 + 4 + 4 + 8,
                                             kSketchFormatVersion, "format"};

// Checks 1-4 of docs/persistence.md's order: magic, minimum size, the
// checksum (unless the version word names a retired version, whose
// trailer is another hash), then the version.  On success `body` reads
// the bytes between the version word and the checksum.
LoadStatus OpenEnvelope(std::string_view bytes, const Envelope& envelope,
                        ByteReader* body);

}  // namespace persist
}  // namespace gstream

#endif  // GSTREAM_PERSIST_SKETCH_IO_H_
