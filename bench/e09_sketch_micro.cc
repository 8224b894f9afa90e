// Experiment E9 (docs/experiments.md): substrate micro-benchmarks
// (google-benchmark).
//
// Throughput of the primitive operations every experiment rests on:
// k-wise hashing, CountSketch / AMS updates and queries,
// nested subsampling, and the full estimator update path.

#include <benchmark/benchmark.h>

#include "core/gsum.h"
#include "sketch/ams.h"
#include "sketch/count_sketch.h"
#include "sketch/subsampler.h"
#include "util/hash.h"
#include "util/random.h"

namespace gstream {
namespace {

void BM_KWiseHashEval(benchmark::State& state) {
  Rng rng(1);
  const KWiseHashBank bank(static_cast<int>(state.range(0)), /*rows=*/1, rng);
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.EvalRow(0, ReduceToField(++x)));
  }
}
BENCHMARK(BM_KWiseHashEval)->Arg(2)->Arg(4);

void BM_CountSketchUpdate(benchmark::State& state) {
  Rng rng(2);
  CountSketch cs(
      CountSketchOptions{static_cast<size_t>(state.range(0)), 1024}, rng);
  uint64_t x = 0;
  for (auto _ : state) {
    cs.Update(++x & 0xffff, 1);
  }
}
BENCHMARK(BM_CountSketchUpdate)->Arg(3)->Arg(5)->Arg(7);

void BM_CountSketchEstimate(benchmark::State& state) {
  Rng rng(3);
  CountSketch cs(CountSketchOptions{5, 1024}, rng);
  for (uint64_t i = 0; i < 10000; ++i) cs.Update(i, 1 + (i % 7));
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs.Estimate(++x & 0xffff));
  }
}
BENCHMARK(BM_CountSketchEstimate);

void BM_CountSketchTopKUpdate(benchmark::State& state) {
  Rng rng(4);
  CountSketchTopK topk(CountSketchOptions{5, 1024}, 48, rng);
  uint64_t x = 0;
  for (auto _ : state) {
    topk.Update(++x & 0xffff, 1);
  }
}
BENCHMARK(BM_CountSketchTopKUpdate);

void BM_AmsUpdate(benchmark::State& state) {
  Rng rng(6);
  AmsSketch ams(
      AmsOptions{static_cast<size_t>(state.range(0)), 5}, rng);
  uint64_t x = 0;
  for (auto _ : state) {
    ams.Update(++x & 0xffff, 1);
  }
}
BENCHMARK(BM_AmsUpdate)->Arg(8)->Arg(32);

void BM_SubsamplerLevelOf(benchmark::State& state) {
  Rng rng(7);
  NestedSubsampler sampler(16, rng);
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.LevelOf(++x & 0xfffff));
  }
}
BENCHMARK(BM_SubsamplerLevelOf);

void BM_GSumEstimatorUpdate(benchmark::State& state) {
  GSumOptions options;
  options.passes = 1;
  options.cs_buckets = 1024;
  options.candidates = 48;
  options.repetitions = static_cast<size_t>(state.range(0));
  options.ams = {8, 5};
  GSumEstimator estimator(MakePower(2.0), 1 << 16, options);
  uint64_t x = 0;
  for (auto _ : state) {
    estimator.Update(++x & 0xffff, 1);
  }
}
BENCHMARK(BM_GSumEstimatorUpdate)->Arg(1)->Arg(5);

}  // namespace
}  // namespace gstream

BENCHMARK_MAIN();
