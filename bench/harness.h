// Benchmark harness for the sketch hot paths: wall-clock timing,
// updates/sec accounting, and a JSON report (BENCH_sketch.json) so every PR
// leaves a machine-readable perf trajectory behind.
//
// The JSON schema (see bench/README.md):
//
//   {
//     "schema": "gstream-bench-v1",
//     "workload": {"updates": ..., "domain": ..., "items": ...,
//                  "zipf_exponent": ..., "isa_tier": "avx512",
//                  "cpu_model": "..."},
//     "results": [
//       {"name": "count_sketch/batched", "updates": N, "seconds": s,
//        "updates_per_sec": N/s, "space_bytes": B}, ...
//     ],
//     "speedups": {"count_sketch_batched_vs_seed": r, ...}
//   }
//
// Results are keyed "<sketch>/<variant>"; the canonical variants are
// `seed_single` (the pre-batching per-update loop, kept as a frozen
// baseline), `single` (current Update), and `batched` (UpdateBatch via
// Stream::ForEachBatch).

#ifndef GSTREAM_BENCH_HARNESS_H_
#define GSTREAM_BENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "engine/ingest_engine.h"
#include "obs/metrics.h"

namespace gstream {
namespace bench {

// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}
  void Restart() { start_ = Clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// One timed measurement.
struct BenchResult {
  std::string name;        // "<sketch>/<variant>"
  size_t updates = 0;      // stream updates processed
  double seconds = 0.0;    // wall time of the measured loop (best of N)
  double updates_per_sec = 0.0;
  size_t space_bytes = 0;  // sketch state after the run
  // Per-batch kernel latency attributed to this variant (snapshot delta of
  // the registry histogram around the measured runs; empty when the
  // variant has no batched drive or GSTREAM_OBS=OFF).  Serialized as a
  // "batch_ns" percentile object in the JSON report.
  obs::HistogramSnapshot batch_ns;
};

// One point of the thread-scaling sweep (--threads): t producer threads
// feeding t shards through the multi-producer front end, with the engine's
// aggregated stats and the per-producer split from the timed (best) run.
struct ScalingEntry {
  size_t threads = 0;  // producers (= shards in the sweep)
  size_t shards = 0;
  size_t updates = 0;
  double seconds = 0.0;  // best-of-N wall time of the full lifecycle
  double updates_per_sec = 0.0;
  // Aggregated engine stats from the best-timed run: shard_updates gives
  // per-shard throughput (shard_updates[i] / seconds), producer_stall_ns
  // quantifies backpressure, shard_ring_highwater the queue depth.
  IngestStats stats;
  // Per-producer split of the same run (index = producer lane).
  std::vector<uint64_t> producer_updates;
  std::vector<uint64_t> producer_stalls;
  std::vector<uint64_t> producer_stall_ns;
};

// Accumulates results and derived speedups, prints a human-readable table,
// and serializes the report as JSON.
class BenchReport {
 public:
  // Workload description recorded in the JSON header.
  void SetWorkload(size_t updates, uint64_t domain, size_t items,
                   double zipf_exponent);

  // Host environment recorded alongside the workload: the dispatched SIMD
  // tier ("scalar"/"avx2"/"avx512") and the CPU model string, so
  // BENCH_sketch.json numbers are comparable across hosts.
  void SetEnvironment(const std::string& isa_tier,
                      const std::string& cpu_model);

  // Engine ingest accounting from one sharded run (`benchmark` names which
  // one, `overload_policy` its OverloadPolicyName): producer stalls (count
  // and total blocked ns), chunk/update routing, shed/applied accounting
  // (the conservation halves, so an overload regression shows up as
  // nonzero updates_shed under the default policy), and ring-occupancy
  // high-water per shard.  Recorded in the JSON so engine scheduling
  // regressions -- a shard starving, the producer blocking on full rings
  // -- are visible next to the throughput numbers they would explain.
  void SetIngest(const std::string& benchmark, const std::string& overload_policy,
                 const IngestStats& stats);

  // The thread-scaling sweep (`benchmark` names the driven workload).
  // Serialized as the report's "scaling" block; entries should be ordered
  // by thread count with entry 0 at 1 thread, the per-entry speedup_vs_1
  // baseline.
  void SetScaling(const std::string& benchmark,
                  std::vector<ScalingEntry> entries);

  // A pre-rendered registry-snapshot JSON object (obs::SnapshotJson with
  // this report's indentation) embedded verbatim as the report's "obs"
  // block: the whole-process metrics view next to the per-variant numbers.
  void SetObs(std::string obs_json);

  void Add(BenchResult result);

  // Records speedups[key] = updates_per_sec(numerator) /
  // updates_per_sec(denominator); both must have been Add()ed.
  void AddSpeedup(const std::string& key, const std::string& numerator,
                  const std::string& denominator);

  const std::vector<BenchResult>& results() const { return results_; }
  const std::vector<std::pair<std::string, double>>& speedups() const {
    return speedups_;
  }

  // Aligned throughput table on `out`.
  void PrintTable(FILE* out) const;

  // Writes the report to `path`; returns false (with a message on stderr)
  // on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  const BenchResult* Find(const std::string& name) const;

  size_t workload_updates_ = 0;
  uint64_t workload_domain_ = 0;
  size_t workload_items_ = 0;
  double workload_zipf_ = 0.0;
  std::string isa_tier_ = "unknown";
  std::string cpu_model_ = "unknown";
  bool has_ingest_ = false;
  std::string ingest_benchmark_;
  std::string ingest_overload_policy_;
  IngestStats ingest_stats_;
  std::string scaling_benchmark_;
  std::vector<ScalingEntry> scaling_entries_;
  std::string obs_json_;
  std::vector<BenchResult> results_;
  std::vector<std::pair<std::string, double>> speedups_;
};

// Times `fn` `repeats` times and returns the best run as a BenchResult --
// best-of-N suppresses scheduler noise, which matters on the single-core
// CI runners.  `fn` must process `updates` stream updates and return the
// sketch's SpaceBytes().
template <typename Fn>
BenchResult Measure(const std::string& name, size_t updates, size_t repeats,
                    Fn&& fn) {
  BenchResult result;
  result.name = name;
  result.updates = updates;
  result.seconds = -1.0;
  for (size_t r = 0; r < repeats; ++r) {
    WallTimer timer;
    result.space_bytes = fn();
    const double s = timer.Seconds();
    if (result.seconds < 0.0 || s < result.seconds) result.seconds = s;
  }
  result.updates_per_sec =
      result.seconds > 0.0 ? static_cast<double>(updates) / result.seconds
                           : 0.0;
  return result;
}

}  // namespace bench
}  // namespace gstream

#endif  // GSTREAM_BENCH_HARNESS_H_
