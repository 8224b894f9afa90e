// Cross-process sketch map/reduce driver.
//
// N `shard` invocations each ingest a slice of the same canonical stream
// (regenerated deterministically from --stream-seed) and serialize their
// sketch to a file; one `reduce` invocation loads the blobs into same-seed
// shells, folds them with MergeFrom, and writes the merged blob.  For the
// linear sketches the merged blob is byte-identical to a `single`
// invocation that ingested the whole stream in one process -- linearity
// makes cross-process sharding exact, and deterministic serialization
// (sorted maps) turns that into plain byte equality, which
// tests/persist/kill_resume_test.cc pins end to end.
//
// `reduce` deserializes through DeserializeSketchOrDie: feeding it a blob
// from a different seed, geometry, sketch type, or format version aborts
// with the load reason, exactly like merging incompatible in-memory
// sketches -- the cross-process analogue of the MergeFrom fingerprint
// guard (death-tested in tests/persist/sketch_io_test.cc).
//
//   sketch_merge --mode=shard --shard=2 --shards=4 --out=/tmp/s2.gskb
//   sketch_merge --mode=reduce --out=/tmp/merged.gskb /tmp/s*.gskb
//   sketch_merge --mode=single --out=/tmp/ref.gskb
//   sketch_merge --mode=inspect /tmp/merged.gskb
//
// Common flags: --type=count_sketch|ams|topk|exact, --seed,
// --stream-seed, --domain, --items, --rows, --buckets, --k.  --stats=json
// appends the process-wide metrics-registry snapshot (obs JSON) to stdout
// after a successful run.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/snapshot.h"
#include "persist/sketch_io.h"
#include "sketch/ams.h"
#include "sketch/count_sketch.h"
#include "stream/exact.h"
#include "stream/stream.h"
#include "util/random.h"
#include "tool_common.h"

namespace gstream {
namespace {

struct Flags {
  std::string mode;
  std::string type = "count_sketch";
  std::string out;
  uint64_t seed = 42;         // sketch randomness (shared by all processes)
  uint64_t stream_seed = 7;   // canonical stream
  uint64_t domain = 1 << 20;
  size_t items = 5000;
  size_t rows = 5;
  size_t buckets = 1024;
  size_t k = 32;
  size_t shard = 0;
  size_t shards = 1;
  // --stats=json: dump the final process-wide metrics-registry snapshot
  // (obs JSON schema) to stdout after the mode's own output.
  bool stats_json = false;
  std::vector<std::string> inputs;
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (ParseFlag(a, "--mode", &v)) f.mode = v;
    else if (ParseFlag(a, "--type", &v)) f.type = v;
    else if (ParseFlag(a, "--out", &v)) f.out = v;
    else if (ParseFlag(a, "--seed", &v)) f.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--stream-seed", &v)) f.stream_seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--domain", &v)) f.domain = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--items", &v)) f.items = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--rows", &v)) f.rows = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--buckets", &v)) f.buckets = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--k", &v)) f.k = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--shard", &v)) f.shard = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--shards", &v)) f.shards = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--stats", &v)) {
      if (v == "json") f.stats_json = true;
      else { std::fprintf(stderr, "sketch_merge: unknown --stats=%s\n", v.c_str()); std::exit(2); }
    }
    else if (std::strncmp(a, "--", 2) == 0) {
      std::fprintf(stderr, "sketch_merge: unknown flag %s\n", a);
      std::exit(2);
    } else {
      f.inputs.push_back(a);
    }
  }
  return f;
}

// Feeds updates [begin, end) of the stream through UpdateBatch in
// kStreamBatchSize chunks.
template <typename SketchT>
void IngestSlice(const Stream& stream, size_t begin, size_t end,
                 SketchT* sketch) {
  const Update* updates = stream.updates().data();
  for (size_t i = begin; i < end; i += kStreamBatchSize) {
    const size_t n = std::min(kStreamBatchSize, end - i);
    sketch->UpdateBatch(updates + i, n);
  }
}

template <typename SketchT, typename MakeFn>
int RunTyped(const Flags& f, MakeFn make) {
  if (f.mode == "shard" || f.mode == "single") {
    if (f.out.empty()) {
      std::fprintf(stderr, "sketch_merge: --out required\n");
      return 2;
    }
    const Stream stream = MakeCanonicalStream(f.stream_seed, f.domain, f.items);
    const size_t total = stream.length();
    size_t begin = 0, end = total;
    if (f.mode == "shard") {
      if (f.shard >= f.shards) {
        std::fprintf(stderr, "sketch_merge: --shard out of range\n");
        return 2;
      }
      begin = f.shard * total / f.shards;
      end = (f.shard + 1) * total / f.shards;
    }
    SketchT sketch = make();
    IngestSlice(stream, begin, end, &sketch);
    if (!SaveSketch(sketch, f.out)) {
      std::fprintf(stderr, "sketch_merge: cannot write %s\n", f.out.c_str());
      return 1;
    }
    std::printf("wrote %s (updates [%zu, %zu) of %zu)\n", f.out.c_str(),
                begin, end, total);
    return 0;
  }
  if (f.mode == "reduce") {
    if (f.out.empty() || f.inputs.empty()) {
      std::fprintf(stderr,
                   "sketch_merge: --out and at least one input required\n");
      return 2;
    }
    SketchT merged = make();
    bool first = true;
    for (const std::string& path : f.inputs) {
      LoadStatus status;
      const std::optional<std::string> bytes = ReadFileBytes(path, &status);
      if (!bytes.has_value()) {
        std::fprintf(stderr, "sketch_merge: %s: %s\n", path.c_str(),
                     status.message.c_str());
        return 1;
      }
      if (first) {
        // An incompatible blob aborts with the load reason -- the
        // cross-process MergeFrom guard.
        DeserializeSketchOrDie(*bytes, &merged);
        first = false;
      } else {
        SketchT shard = make();
        DeserializeSketchOrDie(*bytes, &shard);
        merged.MergeFrom(shard);
      }
    }
    if (!SaveSketch(merged, f.out)) {
      std::fprintf(stderr, "sketch_merge: cannot write %s\n", f.out.c_str());
      return 1;
    }
    std::printf("merged %zu shard blobs -> %s\n", f.inputs.size(),
                f.out.c_str());
    return 0;
  }
  std::fprintf(stderr, "sketch_merge: unknown --mode=%s\n", f.mode.c_str());
  return 2;
}

// Names what a blob claims to hold and whether it loads cleanly into a
// shell built from the current flags; exits 1 with the reason otherwise.
int Inspect(const Flags& f) {
  if (f.inputs.size() != 1) {
    std::fprintf(stderr, "sketch_merge: --mode=inspect takes one file\n");
    return 2;
  }
  LoadStatus status;
  const std::optional<std::string> bytes =
      ReadFileBytes(f.inputs[0], &status);
  if (!bytes.has_value()) {
    std::fprintf(stderr, "sketch_merge: %s\n", status.message.c_str());
    return 1;
  }
  const std::optional<SketchKind> kind = PeekSketchKind(*bytes);
  if (!kind.has_value()) {
    std::fprintf(stderr, "sketch_merge: %s: not a sketch blob\n",
                 f.inputs[0].c_str());
    return 1;
  }
  std::printf("%s: %s, %zu bytes\n", f.inputs[0].c_str(), SketchKindName(*kind),
              bytes->size());
  return 0;
}

int RunMode(const Flags& f) {
  if (f.mode == "inspect") return Inspect(f);
  if (f.type == "count_sketch") {
    return RunTyped<CountSketch>(f, [&] {
      Rng rng(f.seed);
      return CountSketch(CountSketchOptions{f.rows, f.buckets}, rng);
    });
  }
  if (f.type == "ams") {
    return RunTyped<AmsSketch>(f, [&] {
      Rng rng(f.seed);
      return AmsSketch(AmsOptions{16, 5}, rng);
    });
  }
  if (f.type == "topk") {
    return RunTyped<CountSketchTopK>(f, [&] {
      Rng rng(f.seed);
      return CountSketchTopK(CountSketchOptions{f.rows, f.buckets}, f.k, rng);
    });
  }
  if (f.type == "exact") {
    return RunTyped<ExactFrequencySketch>(
        f, [&] { return ExactFrequencySketch(); });
  }
  std::fprintf(stderr, "sketch_merge: unknown --type=%s\n", f.type.c_str());
  return 2;
}

int Run(int argc, char** argv) {
  const Flags f = ParseFlags(argc, argv);
  const int status = RunMode(f);
  if (status == 0 && f.stats_json) {
    std::printf("%s\n", obs::CurrentSnapshotJson().c_str());
  }
  return status;
}

}  // namespace
}  // namespace gstream

int main(int argc, char** argv) { return gstream::Run(argc, argv); }
