// GSumEstimator: the library's top-level entry point for (g, eps)-SUM.
//
// Composes the machinery of the paper end-to-end: a recursive sketch
// (Theorem 13) over per-level heavy-hitter sketches -- Algorithm 2 for one
// pass, Algorithm 1 for two passes -- with independent repetitions medianed
// for amplification, and the envelope H(M) computed from the function
// itself.  Space is reported honestly via SpaceBytes().
//
// Typical use:
//
//   GSumOptions opts;
//   opts.passes = 1;
//   GSumEstimator est(MakeX2Log(), /*domain=*/1 << 16, opts);
//   double approx = est.Process(stream);
//
// The estimator is itself a shardable unit (Replicate / MergeFrom), so the
// ingestion engine runs it -- every pass, every repetition's whole stack --
// across N shards exactly as it runs a CountSketch:
//
//   GSumEstimator merged = ProcessStreamSharded(
//       stream, IngestEngineOptions{}, [&](size_t /*shard*/) {
//         return GSumEstimator(MakeX2Log(), 1 << 16, opts);
//       });
//   double approx = merged.Estimate();
//
// The sketch state is linear and independent of g up to the candidate
// decode, so one processed sketch can be decoded under many functions via
// EstimateForG -- the observation behind the maximum-likelihood
// application (paper §1.1.1, implemented in core/mle.h).

#ifndef GSTREAM_CORE_GSUM_H_
#define GSTREAM_CORE_GSUM_H_

#include <memory>
#include <vector>

#include "core/recursive_sketch.h"
#include "gfunc/catalog.h"
#include "sketch/ams.h"
#include "sketch/count_sketch.h"

namespace gstream {

struct GSumOptions {
  // 1 (Algorithm 2 per level) or 2 (Algorithm 1 per level).
  int passes = 1;
  // Cover accuracy driving the one-pass pruning interval.
  double epsilon = 0.2;
  // CountSketch geometry per level.
  size_t cs_rows = 5;
  size_t cs_buckets = 512;
  // Candidate ids tracked per level.
  size_t candidates = 48;
  // Subsampling depth; -1 derives ceil(log2 domain) - floor(log2
  // candidates), clamped to >= 1, so the deepest level is fully coverable.
  int levels = -1;
  // Independent repetitions whose estimates are medianed (success
  // amplification; keep odd).
  size_t repetitions = 5;
  // AMS sketch geometry (one-pass pruning only).
  AmsOptions ams;
  // H(M) envelope; -1 computes it from g over [0, envelope_domain].
  double h_envelope = -1.0;
  int64_t envelope_domain = int64_t{1} << 16;
  uint64_t seed = 0x9b1e;
};

class GSumEstimator {
 public:
  // `domain` is the universe size n of the streams to be processed.
  GSumEstimator(GFunctionPtr g, uint64_t domain, const GSumOptions& options);

  int passes() const { return options_.passes; }
  int levels() const { return reps_.front().levels(); }
  double h_envelope() const { return h_envelope_; }

  // Incremental interface: feed every update once per pass, calling
  // AdvancePass() between the passes of a two-pass configuration.
  // UpdateBatch is the hot path (Process drives it in
  // kStreamBatchSize chunks); it fans the chunk out to every repetition's
  // batched recursive sketch.
  void Update(ItemId item, int64_t delta);
  void UpdateBatch(const gstream::Update* updates, size_t n);
  void AdvancePass();

  // Median-of-repetitions estimate under the bound function.
  double Estimate() const { return EstimateForG(*g_); }

  // Decodes the shared sketch under a different function.  Covers carrying
  // frequencies are re-evaluated under `other`; valid because the sketch
  // state is g-independent.
  double EstimateForG(const GFunction& other) const;

  // Convenience: runs the configured number of passes over `stream`
  // sequentially on a freshly constructed estimator and returns
  // Estimate().
  double Process(const Stream& stream);

  // Deep copy of every repetition's stack (RecursiveGSum::Replicate) --
  // fresh, or frozen between passes -- for the sharded ingestion engine.
  GSumEstimator Replicate() const;

  // Folds a same-seed replica that processed a disjoint shard of the
  // current pass's stream, repetition by repetition.  The repetition
  // counts must agree, and each stack's fingerprint-guarded merge refuses
  // a replica built from a different seed.
  void MergeFrom(const GSumEstimator& other);

  size_t SpaceBytes() const;

 private:
  GSumEstimator() = default;  // Replicate() fills every field

  GFunctionPtr g_;
  GSumOptions options_;
  double h_envelope_ = 1.0;
  std::vector<RecursiveGSum> reps_;
};

}  // namespace gstream

#endif  // GSTREAM_CORE_GSUM_H_
