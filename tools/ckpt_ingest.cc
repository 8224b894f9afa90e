// Checkpointed sharded ingestion runner: the crash/restart integration
// target.
//
// `--mode=run` regenerates the canonical stream from --stream-seed, opens a
// ShardedIngestor of same-seed CountSketchTopK replicas (the composite
// sink whose candidate metadata observes chunk framing -- the hardest case
// for bit-exact resume), and feeds it through RunWithCheckpoints: every
// --interval updates the engine quiesces and the shard sketches + producer
// routing state land in --ckpt via write-tmp-fsync-rename.  At end of
// stream the shards merge and the final sketch is written to --out.
//
// With --resume, an existing checkpoint is loaded first (any corruption is
// reported with its precise reason and the run starts over from zero) and
// the feed continues from the saved cursor.  With --kill-after=N the
// process SIGKILLs itself right after the first checkpoint at cursor >= N
// -- no cleanup, no flushes, exactly like a crash.  The kill/resume
// integration test runs:   run --kill-after=N  ->  (dies)  ->
// run --resume  and pins the final blob byte-identical to an uninterrupted
// run, which is the checkpoint/restart bit-exactness contract.
//
// `--fault=<phase>` arms the fault site persist/atomic_write/<phase>
// (persist/sketch_io.h's kAtomicWriteSites) to fire once: the first
// checkpoint write tears there and the feed stops, as if the process died
// mid-write.  A subsequent --resume must either load a complete checkpoint
// (the previous one -- or, for before-dirsync, the new one, since the
// rename already happened) or report a clean failure -- never parse
// garbage.  --stats=json reports the phase ("fault_phase").  An unknown
// phase, or --fault in a GSTREAM_FAULTS=OFF build, exits 2.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/snapshot.h"
#include "persist/checkpoint.h"
#include "persist/sketch_io.h"
#include "sketch/count_sketch.h"
#include "stream/generators.h"
#include "util/fault.h"
#include "util/random.h"

namespace gstream {
namespace {

struct Flags {
  std::string mode = "run";
  std::string ckpt;
  std::string out;
  uint64_t seed = 42;
  uint64_t stream_seed = 7;
  uint64_t domain = 1 << 20;
  size_t items = 5000;
  size_t rows = 5;
  size_t buckets = 1024;
  size_t k = 32;
  size_t shards = 3;
  uint64_t interval = 8 * kStreamBatchSize;
  uint64_t kill_after = 0;  // 0 = never
  bool resume = false;
  // --stats=json: dump the final process-wide metrics-registry snapshot
  // (obs JSON schema) to stdout after the run summary.
  bool stats_json = false;
  const char* fault_site = nullptr;  // the kAtomicWriteSites entry to arm
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (ParseFlag(a, "--mode", &v)) f.mode = v;
    else if (ParseFlag(a, "--ckpt", &v)) f.ckpt = v;
    else if (ParseFlag(a, "--out", &v)) f.out = v;
    else if (ParseFlag(a, "--seed", &v)) f.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--stream-seed", &v)) f.stream_seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--domain", &v)) f.domain = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--items", &v)) f.items = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--rows", &v)) f.rows = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--buckets", &v)) f.buckets = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--k", &v)) f.k = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--shards", &v)) f.shards = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--interval", &v)) f.interval = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--kill-after", &v)) f.kill_after = std::strtoull(v.c_str(), nullptr, 10);
    else if (std::strcmp(a, "--resume") == 0) f.resume = true;
    else if (ParseFlag(a, "--stats", &v)) {
      if (v == "json") f.stats_json = true;
      else { std::fprintf(stderr, "ckpt_ingest: unknown --stats=%s\n", v.c_str()); std::exit(2); }
    }
    else if (ParseFlag(a, "--fault", &v)) {
      if (!fault::kEnabled) { std::fprintf(stderr, "ckpt_ingest: --fault=%s: fault injection is compiled out (GSTREAM_FAULTS=OFF)\n", v.c_str()); std::exit(2); }
      for (const char* site : kAtomicWriteSites) {
        if (std::strrchr(site, '/') + 1 == v) f.fault_site = site;
      }
      if (f.fault_site == nullptr) { std::fprintf(stderr, "ckpt_ingest: unknown --fault=%s\n", v.c_str()); std::exit(2); }
    } else {
      std::fprintf(stderr, "ckpt_ingest: unknown flag %s\n", a);
      std::exit(2);
    }
  }
  return f;
}

Stream MakeCanonicalStream(const Flags& f) {
  Rng rng(f.stream_seed);
  StreamShapeOptions shape;
  shape.churn_pairs = 2000;
  Workload workload =
      MakeZipfWorkload(f.domain, f.items, 1.1, 50000, shape, rng);
  return std::move(workload.stream);
}

int Run(const Flags& f) {
  if (f.ckpt.empty() || f.out.empty()) {
    std::fprintf(stderr, "ckpt_ingest: --ckpt and --out required\n");
    return 2;
  }
  const Stream stream = MakeCanonicalStream(f);

  IngestEngineOptions engine_options;
  engine_options.shards = f.shards;
  engine_options.policy = PartitionPolicy::kRoundRobinChunks;
  ShardedIngestor<CountSketchTopK> ingest(engine_options, [&f](size_t) {
    Rng rng(f.seed);  // same seed per shard => mergeable replicas
    return CountSketchTopK(CountSketchOptions{f.rows, f.buckets}, f.k, rng);
  });
  ingest.Open(f.shards);

  uint64_t start = 0;
  if (f.resume) {
    CheckpointImage image;
    LoadStatus status = LoadCheckpoint(f.ckpt, &image);
    if (status.ok()) status = RestoreIngestor(image, &ingest);
    if (status.ok()) {
      start = image.cursor;
      std::printf("resumed from %s at cursor %llu\n", f.ckpt.c_str(),
                  static_cast<unsigned long long>(start));
    } else {
      std::fprintf(stderr, "ckpt_ingest: checkpoint unusable (%s: %s); "
                           "starting over\n",
                   LoadErrorName(status.error), status.message.c_str());
    }
  }

  CheckpointOptions ckpt_options;
  ckpt_options.path = f.ckpt;
  ckpt_options.interval_updates = f.interval;
  if (f.fault_site != nullptr) {
    fault::Registry::Get().Arm(/*seed=*/0, {{f.fault_site, 1.0, 0, 1}});
  }

  const uint64_t kill_after = f.kill_after;
  const uint64_t cursor = RunWithCheckpoints<CountSketchTopK>(
      ingest, stream, start, ckpt_options, [kill_after](uint64_t c) {
        if (kill_after != 0 && c >= kill_after) {
          // Crash for real: no destructors, no flushes.  The durable state
          // is whatever the just-completed atomic rename left behind.
          std::raise(SIGKILL);
        }
        return true;
      });
  const auto print_stats_json = [&f] {
    // One JSON object: the armed torn-write phase by name ("none" on a
    // clean run) plus the process-wide metrics snapshot.  Printed on the
    // torn-write stop path too, so a harness driving --fault can pin the
    // phase from the same output it already parses.
    if (f.stats_json) {
      std::printf("{\"fault_phase\": \"%s\", \"obs\": %s}\n",
                  f.fault_site == nullptr ? "none"
                                          : std::strrchr(f.fault_site, '/') + 1,
                  obs::CurrentSnapshotJson().c_str());
    }
  };
  if (cursor < stream.length()) {
    std::fprintf(stderr,
                 "ckpt_ingest: stopped at cursor %llu of %llu "
                 "(checkpoint write failed)\n",
                 static_cast<unsigned long long>(cursor),
                 static_cast<unsigned long long>(stream.length()));
    print_stats_json();
    return 1;
  }

  CountSketchTopK& merged = ingest.Close();
  if (!SaveSketch(merged, f.out)) {
    std::fprintf(stderr, "ckpt_ingest: cannot write %s\n", f.out.c_str());
    return 1;
  }
  const IngestStats& stats = ingest.stats();
  std::printf("done: %llu updates, %llu chunks, %llu stalls -> %s\n",
              static_cast<unsigned long long>(stats.updates_submitted),
              static_cast<unsigned long long>(stats.chunks_committed),
              static_cast<unsigned long long>(stats.producer_stalls),
              f.out.c_str());
  print_stats_json();
  return 0;
}

}  // namespace
}  // namespace gstream

int main(int argc, char** argv) {
  const gstream::Flags flags = gstream::ParseFlags(argc, argv);
  return gstream::Run(flags);
}
