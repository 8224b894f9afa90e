// Statistical verification of the end-to-end g-SUM guarantee, engine-fed
// runs included.
//
// The engine tests pin sharded == sequential bit-exactly in the no-pruning
// regime; this suite pins the *accuracy guarantee* in the realistic
// pruning regime, where whole-stack sharding is only statistically (not
// bit-) equivalent: over >= 12 seeds each of Zipfian and
// adversarial-deletion turnstile streams, half run sequentially and half
// through whole-stack sharded ingestion (ProcessStreamSharded over the
// whole GSumEstimator over shard counts 2..8),
//
//   (1) ACCURACY: the median relative error per (family, ingest mode)
//       bucket stays within the configured eps target -- the operating
//       accuracy the repo's gsum tests pin for the sequential path, now
//       required of the engine-fed path too;
//   (2) TAIL: the fraction of runs whose error exceeds 2x the target is
//       reported and checked against the configured delta budget (the
//       median-of-repetitions amplification makes gross failures rare);
//   (3) PARITY: engine-fed runs must not be systematically worse than
//       sequential runs -- the median-error gap between the two modes
//       stays within the noise band.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/gsum.h"
#include "engine/sharded_ingestor.h"
#include "gfunc/catalog.h"
#include "stream/exact.h"
#include "stream/generators.h"
#include "util/stats.h"

namespace gstream {
namespace {

constexpr uint64_t kBaseSeed = 0x95d0;
constexpr size_t kSeedsPerFamily = 12;
// Operating accuracy of the configured estimator (median-of-5 repetitions;
// the same target tests/core/gsum_test.cc pins sequentially).
constexpr double kEpsTarget = 0.3;
// Budget for runs past 2x the target across the whole suite.
constexpr double kDeltaBudget = 0.1;

enum class Family { kZipf, kAdversarialDeletion };

const char* FamilyName(Family f) {
  return f == Family::kZipf ? "zipf" : "adversarial_deletion";
}

Workload MakeFamilyWorkload(Family family, uint64_t seed) {
  Rng rng(seed);
  StreamShapeOptions shape;
  shape.churn_pairs = 300;
  switch (family) {
    case Family::kZipf:
      return MakeZipfWorkload(1 << 13, 1000, 1.5, 30000, shape, rng);
    case Family::kAdversarialDeletion: {
      // A skewed net vector plus decoys pumped far above every true heavy
      // item and deleted back to a light frequency: per-level trackers
      // must evict mid-stream "heavies" at every subsampling depth.
      Workload w = MakeZipfWorkload(1 << 13, 800, 1.4, 20000, shape, rng);
      for (ItemId d = 6000; d < 6010; ++d) w.stream.Append(d, 50000);
      for (ItemId d = 6000; d < 6010; ++d) {
        w.stream.Append(d, -49997);
        // Net +3 *on top of* whatever Zipf frequency the generator may
        // already have placed at this id -- the decoy ids are random Zipf
        // placements' neighbors, so collisions do happen.
        w.frequencies[d] += 3;
      }
      return w;
    }
  }
  std::abort();  // unreachable
}

struct ModeStats {
  std::vector<double> errors;
  size_t tail_failures = 0;  // error > 2 * kEpsTarget
};

void RunFamily(Family family, ModeStats& sequential, ModeStats& engine_fed) {
  const GFunctionPtr g = MakePower(2.0);
  for (size_t s = 0; s < kSeedsPerFamily; ++s) {
    const uint64_t seed = kBaseSeed + 1000 * static_cast<uint64_t>(family) +
                          s;
    const Workload w = MakeFamilyWorkload(family, seed);
    const double truth = ExactGSum(w.frequencies, g->AsCallable());
    const bool sharded = (s % 2 == 1);

    GSumOptions options;
    options.passes = 1;
    options.cs_buckets = 1024;
    options.candidates = 48;
    options.repetitions = 5;
    options.ams = {32, 5};
    options.seed = seed;
    double estimate = 0.0;
    if (sharded) {
      IngestEngineOptions engine_options;
      engine_options.shards = 2 + (s / 2) % 7;  // 2..8
      estimate = ProcessStreamSharded(w.stream, engine_options, [&](size_t) {
                   return GSumEstimator(g, w.stream.domain(), options);
                 }).Estimate();
    } else {
      GSumEstimator estimator(g, w.stream.domain(), options);
      estimate = estimator.Process(w.stream);
    }
    const double error = RelativeError(estimate, truth);

    ModeStats& stats = sharded ? engine_fed : sequential;
    stats.errors.push_back(error);
    if (error > 2.0 * kEpsTarget) {
      ++stats.tail_failures;
      ADD_FAILURE() << FamilyName(family) << " seed " << s
                    << (sharded ? " (engine-fed)" : " (sequential)")
                    << ": relative error " << error << " past 2x target "
                    << 2.0 * kEpsTarget;
    }
  }
}

TEST(GSumVerificationTest, EngineFedAccuracyMatchesConfiguredTarget) {
  ModeStats sequential, engine_fed;
  RunFamily(Family::kZipf, sequential, engine_fed);
  RunFamily(Family::kAdversarialDeletion, sequential, engine_fed);

  ASSERT_FALSE(sequential.errors.empty());
  ASSERT_FALSE(engine_fed.errors.empty());
  const double seq_median = Median(sequential.errors);
  const double eng_median = Median(engine_fed.errors);

  // (1) Accuracy per ingest mode.
  EXPECT_LE(seq_median, kEpsTarget);
  EXPECT_LE(eng_median, kEpsTarget);

  // (2) Tail failures against the configured budget, over all runs.
  const size_t runs = sequential.errors.size() + engine_fed.errors.size();
  const double tail_rate =
      static_cast<double>(sequential.tail_failures +
                          engine_fed.tail_failures) /
      static_cast<double>(runs);
  EXPECT_LE(tail_rate, kDeltaBudget);

  // (3) Whole-stack sharding must not systematically degrade the decode:
  // the candidate-union merges may admit different borderline candidates
  // than the sequential maintenance trajectory, but the median error gap
  // stays within the noise band.
  EXPECT_LE(eng_median, seq_median + 0.1);

  std::printf(
      "gsum verify: %zu runs (%zu sequential, %zu engine-fed), median error "
      "%.4f sequential vs %.4f engine-fed (target %.2f), tail rate %.4f "
      "(budget %.2f)\n",
      runs, sequential.errors.size(), engine_fed.errors.size(), seq_median,
      eng_median, kEpsTarget, tail_rate, kDeltaBudget);
  RecordProperty("sequential_median_error_x1e4",
                 static_cast<int>(seq_median * 1e4));
  RecordProperty("engine_fed_median_error_x1e4",
                 static_cast<int>(eng_median * 1e4));
}

}  // namespace
}  // namespace gstream
