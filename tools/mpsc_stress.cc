// Multi-producer ingest stress checker: the from-the-outside proof that
// N concurrent producers are bit-exact.
//
// Regenerates a deterministic Zipfian turnstile stream from --stream-seed,
// feeds it twice -- once through a plain sequential CountSketch, once
// through the engine with --producers threads each owning a ProducerHandle
// and a contiguous slice of the stream -- and then compares the two
// counter arrays for equality.  By linearity of the sketch the two must be
// byte-identical no matter how the OS interleaves the producers; any
// difference is an engine concurrency bug, reported with the first
// diverging counter and a nonzero exit so CI and bisect scripts can treat
// the binary as a pass/fail oracle.
//
// Conservation invariants ride along (sum of per-shard routed updates ==
// sum of per-producer submitted updates == stream length; stall counts and
// stall nanoseconds agree on whether backpressure happened; ring
// high-water bounded by the ring capacity), so a run that is bit-exact but
// miscounts its own accounting still fails.
//
// Flags: --updates=N --producers=N --shards=N --policy=rr|hash --pin
//        --stream-seed=N --sketch-seed=N --stats=json
// --stats=json prints one object after the verdict: the engine's
// IngestStats ("ingest") and the metrics-registry snapshot ("obs").
//
// Exit codes: 0 pass, 1 mismatch, 2 bad flags.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/sharded_ingestor.h"
#include "obs/snapshot.h"
#include "sketch/count_sketch.h"
#include "stream/stream.h"
#include "util/random.h"
#include "tool_common.h"

namespace gstream {
namespace {

constexpr uint64_t kDomain = uint64_t{1} << 20;
constexpr size_t kItems = 20000;
constexpr double kZipf = 1.1;

struct Flags {
  size_t updates = 2000000;
  size_t producers = 4;
  size_t shards = 4;
  PartitionPolicy policy = PartitionPolicy::kRoundRobinChunks;
  bool pin = false;
  uint64_t stream_seed = 0xbe9c;
  uint64_t sketch_seed = 1;
  bool stats_json = false;
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (ParseFlag(a, "--updates", &v)) f.updates = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--producers", &v)) f.producers = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--shards", &v)) f.shards = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--stream-seed", &v)) f.stream_seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--sketch-seed", &v)) f.sketch_seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (std::strcmp(a, "--pin") == 0) f.pin = true;
    else if (ParseFlag(a, "--policy", &v)) {
      if (v == "rr") f.policy = PartitionPolicy::kRoundRobinChunks;
      else if (v == "hash") f.policy = PartitionPolicy::kHashItem;
      else { std::fprintf(stderr, "mpsc_stress: unknown --policy=%s\n", v.c_str()); std::exit(2); }
    }
    else if (ParseFlag(a, "--stats", &v)) {
      if (v == "json") f.stats_json = true;
      else { std::fprintf(stderr, "mpsc_stress: unknown --stats=%s\n", v.c_str()); std::exit(2); }
    } else {
      std::fprintf(stderr, "mpsc_stress: unknown flag %s\n", a);
      std::exit(2);
    }
  }
  if (f.producers == 0 || f.shards == 0) {
    std::fprintf(stderr, "mpsc_stress: --producers and --shards must be >= 1\n");
    std::exit(2);
  }
  return f;
}

// Same shape as the bench workload: Zipfian ranks spread over the domain,
// 5% of updates turnstile deltas in [-3, 3] \ {0}.
Stream MakeStream(const Flags& f) {
  Rng rng(f.stream_seed);
  std::vector<double> cdf(kItems);
  double total = 0.0;
  for (size_t r = 0; r < kItems; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipf);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  Stream stream(kDomain);
  for (size_t i = 0; i < f.updates; ++i) {
    const double u = rng.UniformDouble();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const ItemId item =
        (static_cast<ItemId>(rank) * 0x9e3779b97f4a7c15ULL) % kDomain;
    int64_t delta = 1;
    if (rng.Bernoulli(0.05)) {
      delta = rng.UniformInt(1, 3) * (rng.Bernoulli(0.5) ? 1 : -1);
    }
    stream.Append(item, delta);
  }
  return stream;
}

int Fail(const char* what) {
  std::fprintf(stderr, "mpsc_stress: FAIL: %s\n", what);
  return 1;
}

int Run(const Flags& f) {
  const Stream stream = MakeStream(f);

  // Sequential reference: one sketch, one thread, stream order.
  Rng ref_rng(f.sketch_seed);
  CountSketch reference(CountSketchOptions{5, 1024}, ref_rng);
  ProcessStream(reference, stream);

  // Concurrent run: one handle per producer thread, contiguous slices.
  IngestEngineOptions options;
  options.shards = f.shards;
  options.policy = f.policy;
  options.max_producers = f.producers;
  options.pin_threads = f.pin;
  ShardedIngestor<CountSketch> ingest(options, [&f](size_t) {
    Rng rng(f.sketch_seed);
    return CountSketch(CountSketchOptions{5, 1024}, rng);
  });
  ingest.Open();
  const Update* const updates = stream.updates().data();
  const size_t total = stream.length();
  const size_t producers = f.producers;
  std::vector<const ProducerHandle*> handles(producers, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (size_t t = 0; t < producers; ++t) {
    const size_t begin = total * t / producers;
    const size_t end = total * (t + 1) / producers;
    threads.emplace_back([&ingest, &handles, updates, t, begin, end] {
      ProducerHandle* const handle = ingest.AddProducer();
      handles[t] = handle;
      handle->Submit(updates + begin, end - begin);
      handle->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  CountSketch& merged = ingest.Close();

  // Bit-exactness: every counter identical to the sequential reference.
  const auto& got = merged.counters();
  const auto& want = reference.counters();
  if (got.size() != want.size()) return Fail("counter array size differs");
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      std::fprintf(stderr,
                   "mpsc_stress: FAIL: counter %zu differs: got %lld want "
                   "%lld\n",
                   i, static_cast<long long>(got[i]),
                   static_cast<long long>(want[i]));
      return 1;
    }
  }

  // Conservation: nothing dropped, nothing invented, accounting coherent.
  const IngestStats stats = ingest.stats();
  if (stats.updates_submitted != total) return Fail("updates_submitted != stream length");
  uint64_t routed = 0;
  for (const uint64_t n : stats.shard_updates) routed += n;
  if (routed != total) return Fail("sum(shard_updates) != stream length");
  uint64_t submitted = 0, stalls = 0, stall_ns = 0;
  for (const ProducerHandle* handle : handles) {
    submitted += handle->stats().updates_submitted;
    stalls += handle->stats().producer_stalls;
    stall_ns += handle->stats().producer_stall_ns;
  }
  if (submitted != total) return Fail("sum(producer updates) != stream length");
  if (stalls != stats.producer_stalls) return Fail("per-producer stall counts do not sum to aggregate");
  if ((stalls > 0) != (stall_ns > 0)) return Fail("stall count and stall time disagree");
  if (stats.shard_ring_highwater.size() != f.shards) return Fail("high-water array size != shards");
  for (const uint64_t hw : stats.shard_ring_highwater) {
    if (hw > options.ring_chunks) return Fail("ring high-water exceeds capacity");
  }

  std::printf(
      "mpsc_stress: PASS: %zu updates, %zu producers x %zu shards (%s%s): "
      "bit-exact, %llu chunks, %llu stalls (%llu ns)\n",
      total, producers, f.shards,
      f.policy == PartitionPolicy::kHashItem ? "hash" : "rr",
      f.pin ? ", pinned" : "",
      static_cast<unsigned long long>(stats.chunks_committed),
      static_cast<unsigned long long>(stats.producer_stalls),
      static_cast<unsigned long long>(stats.producer_stall_ns));
  if (f.stats_json) {
    std::printf("{\"ingest\": %s, \"obs\": %s}\n",
                IngestStatsJson(stats).c_str(),
                obs::CurrentSnapshotJson().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace gstream

int main(int argc, char** argv) {
  const gstream::Flags flags = gstream::ParseFlags(argc, argv);
  return gstream::Run(flags);
}
