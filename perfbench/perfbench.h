// Shared declarations of the end-to-end benchmark binary (README.md has the
// workloads, the metrics and the layer -> metric -> workload map).
//
// The binary runs one workload per process.  `--mode e2e` measures the
// untraced end-to-end figures; `--mode layers` additionally repeats the run
// with span recording on, times every stage in isolation on the workload's
// own chunks and state, and reports the per-layer figures.  run.py wraps
// both modes into the benchmark's result line.

#ifndef GSTREAM_PERFBENCH_PERFBENCH_H_
#define GSTREAM_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/ingest_engine.h"
#include "obs/metrics.h"
#include "stream/stream.h"

namespace gstream {
namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 1.0;  // measured time of one timed run
  bool layers = false;   // --mode layers
  std::string dir;       // scratch directory for files the run writes
  int setups = 3;        // set-up repetitions behind setup_s
};

// Named figures in insertion order (printed as one JSON object).
using Metrics = std::vector<std::pair<std::string, double>>;

// Everything one timed run accumulates.  Times are nanoseconds.
struct Tally {
  uint64_t updates = 0;  // updates through the full pipeline
  uint64_t wall_ns = 0;  // timed region, excluding correctness checks
  // Answer cycles, which partition the timed region: the wall time between
  // consecutive answers, and the updates each cycle ingested.
  std::vector<double> cycle_ms;
  std::vector<uint64_t> cycle_updates;
  // The tail percentile the workload reports: fixed per workload, the
  // highest of p99.9/p99/p90/p50 with at least ten cycles beyond it at the
  // workload's usual cycle count, so the metric does not change meaning
  // when one run's count crosses a boundary.
  double tail_p = 0.5;

  // Engine accounting, summed over every engine the run opened.
  uint64_t engines = 0;
  uint64_t engine_ns = 0;  // engine lifetimes, Open through Close
  uint64_t submit_ns = 0;  // producer time inside Submit
  uint64_t producer_stalls = 0;
  uint64_t producer_stall_ns = 0;
  uint64_t ring_highwater = 0;  // max over engines and shards
  std::vector<uint64_t> shard_updates;
  uint64_t updates_shed = 0;
  uint64_t chunks = 0;
  uint64_t drain_ns = 0;
  uint64_t merge_ns = 0;
  uint64_t merges = 0;

  // Stream and persist stages the pipeline crosses.
  uint64_t load_ns = 0;
  uint64_t file_bytes = 0;
  uint64_t write_ns = 0;
  uint64_t writes = 0;
  uint64_t write_bytes = 0;  // bytes of the last write

  // Decode stages on the answer path.
  uint64_t estimate_ns = 0;
  uint64_t estimates = 0;
  uint64_t cover_ns = 0;
  uint64_t covers = 0;

  // Correctness: every attempted operation, every failed one, and why.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  // Properties of the final merged state.
  uint64_t sketch_bytes = 0;
  double gsum_rel_error = 0.0;
  double hh_recall = 0.0;

  // Records one answer cycle.
  void AddCycle(uint64_t ns, uint64_t n);
  // Records one pass/fail check; a failure keeps its reason.
  void Check(bool ok, const std::string& what);
  // Folds one closed engine's counters and checks the lossless contract:
  // nothing shed, every submitted update applied, no engine error.
  void AddEngine(const IngestStats& stats, uint64_t expected,
                 const EngineError& error);
};

// One workload: set-up, the timed pipeline, and the isolated stage timings.
class Workload {
 public:
  virtual ~Workload() = default;
  // Generates (and records) the inputs and builds the sketch prototypes.
  virtual void Setup(const Args& args) = 0;
  // Runs whole answer cycles until `seconds` have been measured.  The
  // final cycle's state is checked against a reference.
  virtual Tally Run(double seconds) = 0;
  // Per-layer stage timings in isolation on the workload's own data.
  virtual Metrics Layers() = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// Monotonic nanoseconds.
inline uint64_t NowNs() { return obs::NowNs(); }

// The bench_sketch workload generator: Zipf-`kZipf` item draws over
// kItems ranks spread across a 2^20 domain, ~5 % of updates carrying a
// turnstile delta in +-[1, 3] instead of +1.
Stream MakeZipfStream(size_t updates, uint64_t seed);

// Median of a non-empty sample (copied).
double Median(std::vector<double> values);

// Keeps the optimizer from discarding a computed value.
template <typename T>
inline void KeepAlive(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// Times `fn` (which processes `work` units per call) repeatedly for at
// least `min_seconds` and at least `min_calls` calls; returns ns per unit.
template <typename Fn>
double NsPerUnit(double min_seconds, int min_calls, uint64_t work, Fn&& fn) {
  uint64_t total_ns = 0;
  uint64_t calls = 0;
  const uint64_t budget = static_cast<uint64_t>(min_seconds * 1e9);
  while (calls < static_cast<uint64_t>(min_calls) || total_ns < budget) {
    const uint64_t t0 = NowNs();
    fn();
    total_ns += NowNs() - t0;
    ++calls;
  }
  return static_cast<double>(total_ns) /
         (static_cast<double>(calls) * static_cast<double>(work));
}

// Median of `reps` timings of `fn`, in milliseconds.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const uint64_t t0 = NowNs();
    fn();
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  return Median(ms);
}

}  // namespace perfbench
}  // namespace gstream

#endif  // GSTREAM_PERFBENCH_PERFBENCH_H_
