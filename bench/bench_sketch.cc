// The sketch-throughput benchmark behind BENCH_sketch.json.
//
// Measures the stream->sketch hot path on a Zipfian turnstile stream for
// every sketch in the library, in four variants each:
//   * seed_single  -- a frozen replica of the pre-batching per-update loop
//     (one hash object per row, hardware `%` bucket reduction), kept here
//     so future PRs always compare against the original baseline;
//   * single       -- the current Update() path (SoA banks + fastrange);
//   * batched      -- UpdateBatch() driven by Stream::ForEachBatch, with
//     the kernel layer pinned to the scalar reference tier
//     (ForceIsaTier), so the number is comparable across hosts and to the
//     pre-SIMD trajectory;
//   * batched_simd -- the same batched path under CPUID dispatch (the
//     production default, recorded as workload.isa_tier);
// plus the CountSketch EstimateAll decode (count_sketch/decode), the
// end-to-end one-pass g-sum pipeline (single vs batched), the
// one-pass heavy hitter sequential vs engine-fed (`one_pass_hh/batched`
// vs `one_pass_hh/sharded{1,4}`, exercising the candidate-union merge),
// and, for CountSketch, the sharded ingestion engine at 1/2/4/8 worker
// threads (`sharded4_deadline` reruns the 4-shard config under
// OverloadPolicy::kDeadline to price the bounded-backpressure
// bookkeeping) -- the Open -> Submit -> Close -> merge lifecycle of
// src/engine/.
//
// Run via the `bench` CMake target or bench/run_all.sh; flags:
//   --out PATH     JSON output path (default BENCH_sketch.json)
//   --trace PATH   also record engine lifecycle spans and write them as
//                  chrome://tracing trace-event JSON (docs/observability.md)
//   --updates N    CountSketch stream length (default 10000000)
//   --quick        kernel-work perf loop: 1M-update main stream, 10x
//                  smaller satellite streams, no thread-scaling sweep
//   --threads N    thread-scaling sweep ceiling: for t = 1..N, t producer
//                  threads feed t shards through the multi-producer front
//                  end; recorded as the report's "scaling" block
//                  (default 4, capped at 8)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "core/gnp_sketch.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "core/gsum.h"
#include "core/one_pass_hh.h"
#include "core/recursive_sketch.h"
#include "engine/sharded_ingestor.h"
#include "gfunc/catalog.h"
#include "persist/checkpoint.h"
#include "sketch/ams.h"
#include "sketch/count_sketch.h"
#include "sketch/linear_sketch.h"
#include "stream/stream.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/simd/simd_dispatch.h"

namespace gstream {
namespace {

using bench::BenchReport;
using bench::BenchResult;
using bench::Measure;

constexpr uint64_t kDomain = uint64_t{1} << 20;
constexpr size_t kItems = 100000;
constexpr double kZipf = 1.1;

// ---------------------------------------------------------------------------
// Frozen seed baselines: the per-update path exactly as the seed commit had
// it -- one polynomial-hash object per row, the item reduced mod p on every
// call, Horner with per-step conditional subtractions, the bucket chosen
// with the hardware `%` divide, and the hash evaluation out of line (in the
// seed it lived in hash.cc, a cross-TU call from the sketches).  Do not
// "optimize" these; they are the yardstick every BENCH_sketch.json speedup
// is measured against.
// ---------------------------------------------------------------------------

inline uint64_t SeedModMersenne61(__uint128_t x) {
  x = (x & kMersenne61) + (x >> 61);
  x = (x & kMersenne61) + (x >> 61);
  uint64_t r = static_cast<uint64_t>(x);
  if (r >= kMersenne61) r -= kMersenne61;
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

class SeedKWiseHash {
 public:
  SeedKWiseHash(int k, Rng& rng) {
    coeffs_.resize(static_cast<size_t>(k));
    for (uint64_t& c : coeffs_) c = rng.UniformUint64(kMersenne61);
    if (k > 1 && coeffs_.back() == 0) coeffs_.back() = 1;
  }

  __attribute__((noinline)) uint64_t operator()(uint64_t x) const {
    const uint64_t xm = x % kMersenne61;
    uint64_t acc = coeffs_.back();
    for (size_t i = coeffs_.size() - 1; i-- > 0;) {
      acc = SeedModMersenne61(static_cast<__uint128_t>(acc) * xm);
      acc += coeffs_[i];
      if (acc >= kMersenne61) acc -= kMersenne61;
    }
    return acc;
  }

 private:
  std::vector<uint64_t> coeffs_;
};

class SeedCountSketch {
 public:
  SeedCountSketch(size_t rows, size_t buckets, Rng& rng)
      : rows_(rows), buckets_(buckets) {
    for (size_t j = 0; j < rows; ++j) {
      bucket_hashes_.emplace_back(2, rng);
      sign_hashes_.emplace_back(4, rng);
    }
    counters_.assign(rows * buckets, 0);
  }

  void Update(ItemId item, int64_t delta) {
    for (size_t j = 0; j < rows_; ++j) {
      const uint64_t bucket = bucket_hashes_[j](item) % buckets_;
      const int64_t sd = (sign_hashes_[j](item) & 1) ? delta : -delta;
      counters_[j * buckets_ + bucket] += sd;
    }
  }

  size_t SpaceBytes() const {
    return counters_.size() * sizeof(int64_t) +
           (rows_ * 6 + rows_) * sizeof(uint64_t);
  }

 private:
  size_t rows_;
  size_t buckets_;
  std::vector<SeedKWiseHash> bucket_hashes_;
  std::vector<SeedKWiseHash> sign_hashes_;
  std::vector<int64_t> counters_;
};

class SeedAms {
 public:
  SeedAms(size_t group_size, size_t groups, Rng& rng) {
    const size_t total = group_size * groups;
    for (size_t i = 0; i < total; ++i) sign_hashes_.emplace_back(4, rng);
    sums_.assign(total, 0);
  }

  void Update(ItemId item, int64_t delta) {
    for (size_t i = 0; i < sums_.size(); ++i) {
      sums_[i] += (sign_hashes_[i](item) & 1) ? delta : -delta;
    }
  }

  size_t SpaceBytes() const {
    return sums_.size() * sizeof(int64_t) +
           sign_hashes_.size() * 4 * sizeof(uint64_t);
  }

 private:
  std::vector<SeedKWiseHash> sign_hashes_;
  std::vector<int64_t> sums_;
};

// ---------------------------------------------------------------------------
// Workload: Zipfian item draws (inverse-CDF over kItems ranks), ~5% of
// updates carrying turnstile deltas in [-3, 3] instead of +1.
// ---------------------------------------------------------------------------

// First "model name" line of /proc/cpuinfo, or "unknown" -- recorded in
// the JSON workload metadata so BENCH numbers are comparable across hosts.
std::string CpuModelString() {
  FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[256];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        const char* start = colon + 1;
        while (*start == ' ' || *start == '\t') ++start;
        model = start;
        while (!model.empty() &&
               (model.back() == '\n' || model.back() == '\r')) {
          model.pop_back();
        }
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

// Wraps Measure with snapshot-delta attribution against a shared registry
// histogram: the delta between the before/after snapshots is exactly the
// samples this variant's runs recorded, so one process-wide histogram
// yields per-variant batch-latency percentiles.  Pass the histogram the
// variant's drive path records into ("sketch/batch_ns" for ForEachBatch
// drives, "engine/sink_batch_ns" for engine-fed ones), or nullptr for
// per-update variants.
template <typename Fn>
BenchResult MeasureBatched(obs::Histogram* hist, const std::string& name,
                           size_t updates, size_t repeats, Fn&& fn) {
  obs::HistogramSnapshot before;
  if (hist != nullptr) before = hist->Snapshot();
  BenchResult result = Measure(name, updates, repeats, std::forward<Fn>(fn));
  if (hist != nullptr) {
    result.batch_ns = hist->Snapshot();
    result.batch_ns.SubtractBaseline(before);
  }
  return result;
}

// Runs `fn` with the kernel layer pinned to the scalar reference tier,
// restoring CPUID dispatch afterwards.
template <typename Fn>
BenchResult MeasureScalarTier(obs::Histogram* hist, const std::string& name,
                              size_t updates, size_t repeats, Fn&& fn) {
  simd::ForceIsaTier(simd::IsaTier::kScalar);
  BenchResult result =
      MeasureBatched(hist, name, updates, repeats, std::forward<Fn>(fn));
  simd::ClearForcedIsaTier();
  return result;
}

Stream MakeZipfStream(size_t updates, double zipf, Rng& rng) {
  std::vector<double> cdf(kItems);
  double total = 0.0;
  for (size_t r = 0; r < kItems; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), zipf);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  Stream stream(kDomain);
  for (size_t i = 0; i < updates; ++i) {
    const double u = rng.UniformDouble();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    // Spread ranks over the domain so bucket hashing sees realistic ids.
    const ItemId item = (static_cast<ItemId>(rank) * 0x9e3779b97f4a7c15ULL) %
                        kDomain;
    int64_t delta = 1;
    if (rng.Bernoulli(0.05)) {
      delta = rng.UniformInt(1, 3) * (rng.Bernoulli(0.5) ? 1 : -1);
    }
    stream.Append(item, delta);
  }
  return stream;
}

template <typename SketchT>
size_t DriveSingle(SketchT& sketch, const Stream& stream) {
  for (const Update& u : stream.updates()) sketch.Update(u.item, u.delta);
  return sketch.SpaceBytes();
}

size_t DriveBatched(LinearSketch& sketch, const Stream& stream) {
  ProcessStream(sketch, stream);
  return sketch.SpaceBytes();
}

// One sharded pass: replicas from `make`, `shards` workers, merge at close.
// Measures the full Open -> Submit -> Close -> merge lifecycle, i.e. what a
// caller replacing ProcessStream with the engine actually pays.  When
// `stats_out` is given, the run's ingest accounting (producer stalls,
// per-shard routing) is copied out for the JSON report.
template <typename MakeFn>
size_t DriveSharded(const Stream& stream, size_t shards, MakeFn&& make,
                    IngestStats* stats_out = nullptr,
                    OverloadPolicy overload = OverloadPolicy::kBlock) {
  IngestEngineOptions options;
  options.shards = shards;
  options.overload = overload;
  // A generous budget: the deadline variant measures the policy's
  // bookkeeping overhead on a healthy engine, not actual load shedding --
  // a timeout here would make the throughput numbers incomparable.
  options.stall_budget_ns = 1'000'000'000;
  using SketchT = decltype(make(size_t{0}));
  ShardedIngestor<SketchT> ingest(options, make);
  ingest.Open();
  const SubmitResult r = ingest.SubmitStream(stream);
  GSTREAM_CHECK(r.ok());
  GSTREAM_CHECK_EQ(r.accepted, stream.length());
  SketchT& merged = ingest.Close();
  if (stats_out != nullptr) *stats_out = ingest.stats();
  return merged.SpaceBytes();
}

// One multi-producer pass for the --threads sweep: `threads` producer
// threads, each with its own ProducerHandle, feed `threads` shards with
// contiguous slices of the stream, then the engine
// closes and merges.  Returns the full lifecycle's accounting -- the
// engine aggregate plus the per-producer split -- alongside the merged
// sketch's space, so the timed best run can donate its stats to the
// report's scaling block.
struct MultiProducerRun {
  size_t space_bytes = 0;
  IngestStats stats;
  std::vector<uint64_t> producer_updates;
  std::vector<uint64_t> producer_stalls;
  std::vector<uint64_t> producer_stall_ns;
};

MultiProducerRun DriveMultiProducer(const Stream& stream, size_t threads) {
  IngestEngineOptions options;
  options.shards = threads;
  options.max_producers = threads;
  ShardedIngestor<CountSketch> ingest(options, [](size_t) {
    Rng rng(1);
    return CountSketch(CountSketchOptions{5, 1024}, rng);
  });
  ingest.Open();
  const Update* const updates = stream.updates().data();
  const size_t total = stream.length();
  std::vector<ProducerHandle*> handles(threads, nullptr);
  std::vector<std::thread> producers;
  producers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    const size_t begin = total * t / threads;
    const size_t end = total * (t + 1) / threads;
    producers.emplace_back([&ingest, &handles, updates, t, begin, end] {
      ProducerHandle* const handle = ingest.AddProducer();
      handles[t] = handle;  // disjoint slot per thread
      handle->Submit(updates + begin, end - begin);
      handle->Close();
    });
  }
  for (std::thread& p : producers) p.join();
  CountSketch& merged = ingest.Close();

  MultiProducerRun run;
  run.space_bytes = merged.SpaceBytes();
  run.stats = ingest.stats();
  run.producer_updates.assign(threads, 0);
  run.producer_stalls.assign(threads, 0);
  run.producer_stall_ns.assign(threads, 0);
  for (const ProducerHandle* handle : handles) {
    // Safe cross-thread read: the producer joined, and Close() released
    // the handle's stats before setting closed().
    run.producer_updates[handle->index()] = handle->stats().updates_submitted;
    run.producer_stalls[handle->index()] = handle->stats().producer_stalls;
    run.producer_stall_ns[handle->index()] = handle->stats().producer_stall_ns;
  }
  return run;
}

int Run(int argc, char** argv) {
  std::string out_path = "BENCH_sketch.json";
  std::string trace_path;
  size_t cs_updates = 10000000;
  size_t divisor = 1;
  size_t max_threads = 4;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--updates") == 0 && i + 1 < argc) {
      cs_updates = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      max_threads = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
      max_threads = std::min(std::max<size_t>(max_threads, 1), size_t{8});
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }
  if (!trace_path.empty()) obs::TraceLog::Get().Enable();
  // The two batch-latency histograms the drive paths record into: every
  // ForEachBatch kernel call lands in sketch/batch_ns (sampled), every
  // engine worker sink call in engine/sink_batch_ns.  Snapshot deltas
  // around each Measure attribute them per variant.
  obs::Histogram* const sketch_batch_ns =
      obs::Registry::Get().GetHistogram("sketch/batch_ns");
  obs::Histogram* const engine_batch_ns =
      obs::Registry::Get().GetHistogram("engine/sink_batch_ns");
  // --quick is the kernel-work perf loop: a 1M-update main stream,
  // 10x-smaller satellite streams, and no thread-scaling sweep, so one
  // full report lands in seconds instead of minutes.
  if (quick) {
    cs_updates = std::min<size_t>(cs_updates, 1000000);
    divisor = 10;
  }
  const size_t ams_updates = 2000000 / divisor;
  const size_t gnp_updates = 1000000 / divisor;
  const size_t gsum_updates = 200000 / divisor;

  Rng stream_rng(0xbe9c);
  std::fprintf(stderr, "generating %zu-update Zipfian stream...\n",
               cs_updates);
  const Stream stream = MakeZipfStream(cs_updates, kZipf, stream_rng);
  // Cost-scaled prefixes for the more expensive sketches.
  Stream ams_stream(kDomain);
  Stream gnp_stream(kDomain);
  Stream gsum_stream(kDomain);
  for (size_t i = 0; i < std::min(ams_updates, stream.length()); ++i) {
    ams_stream.Append(stream.updates()[i].item, stream.updates()[i].delta);
  }
  for (size_t i = 0; i < std::min(gnp_updates, stream.length()); ++i) {
    gnp_stream.Append(stream.updates()[i].item, stream.updates()[i].delta);
  }
  for (size_t i = 0; i < std::min(gsum_updates, stream.length()); ++i) {
    gsum_stream.Append(stream.updates()[i].item, stream.updates()[i].delta);
  }

  BenchReport report;
  report.SetWorkload(cs_updates, kDomain, kItems, kZipf);
  report.SetEnvironment(simd::IsaTierName(simd::ActiveIsaTier()),
                        CpuModelString());
  const size_t repeats = 5;

  // CountSketch (rows 5, buckets 1024).
  report.Add(Measure("count_sketch/seed_single", stream.length(), repeats,
                     [&] {
                       Rng rng(1);
                       SeedCountSketch cs(5, 1024, rng);
                       return DriveSingle(cs, stream);
                     }));
  report.Add(Measure("count_sketch/single", stream.length(), repeats, [&] {
    Rng rng(1);
    CountSketch cs(CountSketchOptions{5, 1024}, rng);
    return DriveSingle(cs, stream);
  }));
  // One shared body per batched/batched_simd pair: the speedup keys and
  // the CI assertions rest on the variants running *identical* code under
  // different kernel tiers, so the identity is kept structural.
  const auto run_cs_batched = [&] {
    Rng rng(1);
    CountSketch cs(CountSketchOptions{5, 1024}, rng);
    return DriveBatched(cs, stream);
  };
  report.Add(MeasureScalarTier(sketch_batch_ns, "count_sketch/batched",
                               stream.length(), repeats, run_cs_batched));
  report.Add(MeasureBatched(sketch_batch_ns, "count_sketch/batched_simd",
                            stream.length(), repeats, run_cs_batched));

  // Sharded ingestion engine scaling (1/2/4/8 workers): the full Open ->
  // Submit -> Close -> merge lifecycle per run.  Scaling is real only on
  // multi-core hosts; on a single-core runner these bound the engine's
  // overhead instead (see bench/README.md).
  IngestStats sharded4_stats;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    // The 4-shard run donates its ingest accounting (producer stalls,
    // per-shard chunk/update routing) to the JSON workload section.
    IngestStats* stats_out = shards == 4 ? &sharded4_stats : nullptr;
    report.Add(MeasureBatched(
        engine_batch_ns, "count_sketch/sharded" + std::to_string(shards),
        stream.length(), repeats, [&, shards, stats_out] {
          return DriveSharded(
              stream, shards,
              [](size_t) {
                Rng rng(1);
                return CountSketch(CountSketchOptions{5, 1024}, rng);
              },
              stats_out);
        }));
  }
  report.SetIngest("count_sketch/sharded4",
                   OverloadPolicyName(OverloadPolicy::kBlock), sharded4_stats);
  // Same 4-shard lifecycle under kDeadline with a budget no healthy run
  // hits: what the bounded-backpressure bookkeeping (deadline arithmetic
  // on the stall path, SubmitResult accounting) costs relative to kBlock.
  // DriveSharded CHECKs the run stayed lossless, so the number is a pure
  // overhead comparison; CI asserts the ratio stays within noise.
  report.Add(MeasureBatched(
      engine_batch_ns, "count_sketch/sharded4_deadline", stream.length(),
      repeats, [&] {
        return DriveSharded(
            stream, 4,
            [](size_t) {
              Rng rng(1);
              return CountSketch(CountSketchOptions{5, 1024}, rng);
            },
            nullptr, OverloadPolicy::kDeadline);
      }));

  // Thread-scaling sweep (--threads): for each t, t producer threads feed
  // t shards through the multi-producer front end.  Real speedup needs
  // cores; on a single-core host the sweep instead bounds the concurrency
  // overhead (stall time, ring high-water) -- either way the scaling block
  // records what this host actually did.  Best-of-3 per point; the best
  // run donates its stats.  Skipped under --quick (the report then has no
  // scaling block), which is most of what makes --quick seconds-fast.
  if (!quick) {
    std::vector<bench::ScalingEntry> scaling;
    for (size_t t = 1; t <= max_threads; ++t) {
      std::fprintf(stderr, "scaling sweep: %zu producer(s) x %zu shard(s)\n",
                   t, t);
      bench::ScalingEntry entry;
      entry.threads = t;
      entry.shards = t;
      entry.updates = stream.length();
      entry.seconds = -1.0;
      for (size_t r = 0; r < 3; ++r) {
        bench::WallTimer timer;
        MultiProducerRun run = DriveMultiProducer(stream, t);
        const double s = timer.Seconds();
        if (entry.seconds < 0.0 || s < entry.seconds) {
          entry.seconds = s;
          entry.stats = std::move(run.stats);
          entry.producer_updates = std::move(run.producer_updates);
          entry.producer_stalls = std::move(run.producer_stalls);
          entry.producer_stall_ns = std::move(run.producer_stall_ns);
        }
      }
      entry.updates_per_sec =
          entry.seconds > 0.0
              ? static_cast<double>(entry.updates) / entry.seconds
              : 0.0;
      scaling.push_back(std::move(entry));
    }
    report.SetScaling("count_sketch/mpsc", std::move(scaling));
  }

  // AMS (16 x 5 estimators).
  report.Add(Measure("ams/seed_single", ams_stream.length(), repeats, [&] {
    Rng rng(3);
    SeedAms ams(16, 5, rng);
    return DriveSingle(ams, ams_stream);
  }));
  report.Add(Measure("ams/single", ams_stream.length(), repeats, [&] {
    Rng rng(3);
    AmsSketch ams(AmsOptions{16, 5}, rng);
    return DriveSingle(ams, ams_stream);
  }));
  const auto run_ams_batched = [&] {
    Rng rng(3);
    AmsSketch ams(AmsOptions{16, 5}, rng);
    return DriveBatched(ams, ams_stream);
  };
  report.Add(MeasureScalarTier(sketch_batch_ns, "ams/batched",
                               ams_stream.length(), repeats,
                               run_ams_batched));
  report.Add(MeasureBatched(sketch_batch_ns, "ams/batched_simd",
                            ams_stream.length(), repeats, run_ams_batched));

  // The decode: EstimateAll over large probe batches under dispatch.
  {
    Rng rng(1);
    CountSketch cs(CountSketchOptions{5, 1024}, rng);
    DriveBatched(cs, stream);
    std::vector<ItemId> probes(1 << 16);
    Rng probe_rng(0xdec0de);
    for (ItemId& p : probes) p = probe_rng.UniformUint64(kDomain);
    const size_t decode_rounds = 64;
    const auto run_decode = [&] {
      int64_t sink = 0;
      std::vector<int64_t> est;
      for (size_t r = 0; r < decode_rounds; ++r) {
        est = cs.EstimateAll(probes);
        sink ^= est[r % est.size()];
      }
      return static_cast<size_t>(sink & 1) + cs.SpaceBytes();
    };
    const size_t decode_probes = probes.size() * decode_rounds;
    report.Add(MeasureBatched(nullptr, "count_sketch/decode", decode_probes,
                              repeats, run_decode));
  }

  // g_np sketch (64 substreams, 24 trials, 20 id bits).
  GnpSketchOptions gnp_options;
  gnp_options.id_bits = 20;
  report.Add(Measure("gnp/single", gnp_stream.length(), repeats, [&] {
    Rng rng(4);
    GnpHeavyHitter gnp(gnp_options, rng);
    return DriveSingle(gnp, gnp_stream);
  }));
  report.Add(MeasureBatched(sketch_batch_ns, "gnp/batched",
                            gnp_stream.length(), repeats, [&] {
                              Rng rng(4);
                              GnpHeavyHitter gnp(gnp_options, rng);
                              return DriveBatched(gnp, gnp_stream);
                            }));

  // One-pass heavy hitter (CountSketchTopK tracker + AMS), sequential
  // batched vs engine-fed: sharded1 bounds the engine overhead for a
  // tracker-bearing consumer (candidate-union merge at close), sharded4
  // shows the scaling on multi-core hosts.  Same stream prefix as g-sum.
  OnePassHHOptions hh_options;
  hh_options.count_sketch = CountSketchOptions{5, 1024};
  hh_options.ams = AmsOptions{16, 5};
  hh_options.candidates = 48;
  report.Add(MeasureBatched(sketch_batch_ns, "one_pass_hh/batched",
                            gsum_stream.length(), repeats, [&] {
                              const OnePassHeavyHitter hh = ProcessOnePassHH(
                                  hh_options, 5, gsum_stream);
                              return hh.SpaceBytes();
                            }));
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    report.Add(MeasureBatched(
        engine_batch_ns, "one_pass_hh/sharded" + std::to_string(shards),
        gsum_stream.length(), repeats, [&, shards] {
          IngestEngineOptions engine_options;
          engine_options.shards = shards;
          const OnePassHeavyHitter hh = ProcessStreamSharded(
              gsum_stream, engine_options, [&](size_t) {
                Rng rng(5);  // same seed per shard => shared hashes
                return OnePassHeavyHitter(hh_options, rng);
              });
          return hh.SpaceBytes();
        }));
  }

  // One whole Theorem-13 recursive stack (6 levels of OnePassHH over the
  // same geometry as one_pass_hh above), sequential batched vs whole-stack
  // sharded through the engine: every shard runs the entire recursion on
  // its partition and the stacks fold at close via the per-level merges.
  // sharded1 bounds the engine + whole-stack merge overhead; sharded4
  // shows the scaling on multi-core hosts.
  const GHeavyHitterFactory recursive_factory = [&hh_options](int /*level*/,
                                                              Rng& rng) {
    return std::make_unique<OnePassHeavyHitter>(hh_options, rng);
  };
  constexpr int kRecursiveLevels = 6;
  report.Add(MeasureBatched(
      sketch_batch_ns, "recursive_gsum/batched", gsum_stream.length(),
      repeats, [&] {
        Rng rng(6);
        RecursiveGSum stack(kRecursiveLevels, recursive_factory, rng);
        gsum_stream.ForEachBatch(kStreamBatchSize,
                                 [&](const Update* ups, size_t n) {
                                   stack.UpdateBatch(ups, n);
                                 });
        return stack.SpaceBytes();
      }));
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    report.Add(MeasureBatched(
        engine_batch_ns, "recursive_gsum/sharded" + std::to_string(shards),
        gsum_stream.length(), repeats, [&, shards] {
          IngestEngineOptions engine_options;
          engine_options.shards = shards;
          ShardedIngestor<RecursiveGSum> ingest(
              engine_options, [&recursive_factory](size_t) {
                Rng rng(6);
                return RecursiveGSum(kRecursiveLevels, recursive_factory, rng);
              });
          ingest.Open();
          ingest.SubmitStream(gsum_stream);
          return ingest.Close().SpaceBytes();
        }));
  }

  // End-to-end one-pass g-sum pipeline (3 repetitions of the recursive
  // sketch over CountSketchTopK + AMS per level).
  GSumOptions gsum_options;
  gsum_options.passes = 1;
  gsum_options.cs_buckets = 1024;
  gsum_options.candidates = 48;
  gsum_options.repetitions = 3;
  gsum_options.ams = AmsOptions{8, 5};
  report.Add(Measure("gsum/single", gsum_stream.length(), repeats, [&] {
    GSumEstimator est(MakePower(2.0), kDomain, gsum_options);
    for (const Update& u : gsum_stream.updates()) est.Update(u.item, u.delta);
    return est.SpaceBytes();
  }));
  report.Add(MeasureBatched(sketch_batch_ns, "gsum/batched",
                            gsum_stream.length(), repeats, [&] {
                              GSumEstimator est(MakePower(2.0), kDomain,
                                                gsum_options);
                              gsum_stream.ForEachBatch(
                                  kStreamBatchSize,
                                  [&](const Update* ups, size_t n) {
                                    est.UpdateBatch(ups, n);
                                  });
                              return est.SpaceBytes();
                            }));

  // Durability tax (docs/persistence.md): the checkpointed ingestion the
  // crash/restart tools run, swept over the checkpoint interval Daly-style
  // -- shorter intervals bound the work lost to a crash, longer ones
  // amortize the quiesce + serialize + fsync cost.  `no_ckpt` is the same
  // engine feed with the checkpoints elided, so the interval ratios
  // isolate what durability itself costs.
  const std::string ckpt_path = "/tmp/gstream_bench_ckpt.gckp";
  const auto make_topk = [](size_t) {
    Rng rng(5);
    return CountSketchTopK(CountSketchOptions{5, 1024}, 32, rng);
  };
  const auto run_ckpt = [&](uint64_t interval) {
    IngestEngineOptions engine_options;
    engine_options.shards = 3;
    ShardedIngestor<CountSketchTopK> ingest(engine_options, make_topk);
    ingest.Open();
    if (interval == 0) {
      ingest.SubmitStream(gsum_stream);
    } else {
      CheckpointOptions options;
      options.path = ckpt_path;
      options.interval_updates = interval;
      RunWithCheckpoints<CountSketchTopK>(ingest, gsum_stream, 0, options);
    }
    return ingest.Close().SpaceBytes();
  };
  report.Add(MeasureBatched(engine_batch_ns, "persist/no_ckpt",
                            gsum_stream.length(), repeats,
                            [&] { return run_ckpt(0); }));
  for (const uint64_t chunks : {uint64_t{4}, uint64_t{16}, uint64_t{64}}) {
    const uint64_t interval = chunks * kStreamBatchSize;
    report.Add(MeasureBatched(
        engine_batch_ns, "persist/ckpt_interval" + std::to_string(interval),
        gsum_stream.length(), repeats,
        [&, interval] { return run_ckpt(interval); }));
  }
  std::remove(ckpt_path.c_str());

  report.AddSpeedup("count_sketch_batched_vs_seed", "count_sketch/batched",
                    "count_sketch/seed_single");
  // The SIMD dispatch win: identical batched code, scalar tier vs the best
  // tier this host runs (>= 1.0 by construction; ~1.7x on AVX-512 IFMA).
  report.AddSpeedup("count_sketch_batched_simd_vs_batched",
                    "count_sketch/batched_simd", "count_sketch/batched");
  report.AddSpeedup("ams_batched_simd_vs_batched", "ams/batched_simd",
                    "ams/batched");
  // Engine overhead ratios compare like with like: the sharded workers run
  // the dispatched kernels, so the denominator is batched_simd -- and the
  // key names say so (the pre-SIMD *_vs_batched series ended with PR 4;
  // a renamed key beats one that silently changed meaning).
  report.AddSpeedup("count_sketch_sharded2_vs_batched_simd",
                    "count_sketch/sharded2", "count_sketch/batched_simd");
  report.AddSpeedup("count_sketch_sharded4_vs_batched_simd",
                    "count_sketch/sharded4", "count_sketch/batched_simd");
  report.AddSpeedup("count_sketch_sharded8_vs_batched_simd",
                    "count_sketch/sharded8", "count_sketch/batched_simd");
  report.AddSpeedup("count_sketch_sharded4_vs_seed", "count_sketch/sharded4",
                    "count_sketch/seed_single");
  // ~1.0 when healthy: kDeadline differs from kBlock only in stall-path
  // arithmetic, which a lossless run barely touches.
  report.AddSpeedup("count_sketch_sharded4_deadline_vs_sharded4",
                    "count_sketch/sharded4_deadline", "count_sketch/sharded4");
  report.AddSpeedup("count_sketch_single_vs_seed", "count_sketch/single",
                    "count_sketch/seed_single");
  report.AddSpeedup("ams_batched_vs_seed", "ams/batched", "ams/seed_single");
  report.AddSpeedup("gnp_batched_vs_single", "gnp/batched", "gnp/single");
  report.AddSpeedup("gsum_batched_vs_single", "gsum/batched", "gsum/single");
  report.AddSpeedup("one_pass_hh_sharded1_vs_batched", "one_pass_hh/sharded1",
                    "one_pass_hh/batched");
  report.AddSpeedup("one_pass_hh_sharded4_vs_batched", "one_pass_hh/sharded4",
                    "one_pass_hh/batched");
  report.AddSpeedup("recursive_gsum_sharded1_vs_batched",
                    "recursive_gsum/sharded1", "recursive_gsum/batched");
  report.AddSpeedup("recursive_gsum_sharded4_vs_batched",
                    "recursive_gsum/sharded4", "recursive_gsum/batched");
  for (const uint64_t chunks : {uint64_t{4}, uint64_t{16}, uint64_t{64}}) {
    const std::string interval = std::to_string(chunks * kStreamBatchSize);
    report.AddSpeedup("persist_ckpt_interval" + interval + "_vs_no_ckpt",
                      "persist/ckpt_interval" + interval, "persist/no_ckpt");
  }

  // The whole-process registry view rides along in the report ("obs"
  // block, indented to match WriteJson's layout); empty-but-valid under
  // GSTREAM_OBS=OFF.
  report.SetObs(obs::CurrentSnapshotJson("  "));

  report.PrintTable(stdout);
  if (!report.WriteJson(out_path)) return 1;
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  if (!trace_path.empty()) {
    obs::TraceLog::Get().Disable();
    if (!obs::TraceLog::Get().Write(trace_path)) {
      std::fprintf(stderr, "failed to write trace %s\n", trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%zu events)\n", trace_path.c_str(),
                 obs::TraceLog::Get().EventCount());
  }
  return 0;
}

}  // namespace
}  // namespace gstream

int main(int argc, char** argv) { return gstream::Run(argc, argv); }
