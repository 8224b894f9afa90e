// Statistical verification of the heavy-hitter guarantees, end to end.
//
// The unit tests pin bit-exactness (batch == single, sharded == sequential)
// and anecdotal recall on one seed; this suite pins the *guarantees*:
// over >= 20 seeds each of Zipfian, uniform, and adversarial-deletion
// turnstile streams,
//
//   (1) RECALL: every true (g, lambda)-heavy hitter (Definition 11,
//       computed exactly from the frequency vector) appears in the cover
//       of both the two-pass (Algorithm 1) and one-pass (Algorithm 2)
//       algorithms, with zero misses tolerated across all seeds;
//   (2) PRUNING THRESHOLD: no one-pass survivor reports an estimate at or
//       below the pruning radius E -- an item the stability test could not
//       certify must not appear (for the predictable g = x^2 any estimate
//       <= E fails some probe);
//   (3) WEIGHTS: two-pass weights are exact (eps = 0); one-pass estimates
//       stay within the CountSketch error bound 4 sqrt(F2 / b) of the true
//       frequency, a per-item event of probability >> 1 - kDelta whose
//       measured failure rate is reported against the configured kDelta.
//
// Half the seeds run through the sharded ingestion engine
// (ProcessStreamSharded), so the statistical guarantees are exercised on the
// engine-fed path too, not just the sequential one.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "core/one_pass_hh.h"
#include "core/two_pass_hh.h"
#include "engine/sharded_ingestor.h"
#include "gfunc/catalog.h"
#include "stream/exact.h"
#include "stream/generators.h"

namespace gstream {
namespace {

constexpr uint64_t kBaseSeed = 0x5a7e;
constexpr size_t kSeedsPerFamily = 20;
constexpr double kLambda = 0.05;  // heaviness threshold of Definition 11
// Configured per-entry failure budget for the statistical (high-
// probability, not deterministic) estimate-accuracy check.
constexpr double kDelta = 0.05;

struct SuiteStats {
  size_t runs = 0;
  size_t true_heavy_total = 0;
  size_t two_pass_misses = 0;
  size_t one_pass_misses = 0;
  size_t one_pass_entries = 0;
  size_t threshold_violations = 0;   // survivors at/below the pruning radius
  size_t accuracy_violations = 0;    // |v_hat - v| beyond 4 sqrt(F2/b)
};

enum class Family { kZipf, kUniform, kAdversarialDeletion };

const char* FamilyName(Family f) {
  switch (f) {
    case Family::kZipf: return "zipf";
    case Family::kUniform: return "uniform";
    case Family::kAdversarialDeletion: return "adversarial_deletion";
  }
  return "?";
}

// Zipfian / uniform streams with turnstile churn; the adversarial family
// additionally pumps 20 decoy items far above every true heavy hitter and
// then deletes them back to a light frequency, so the trackers must evict
// mid-stream "heavies" whose final frequency is small.
Workload MakeFamilyWorkload(Family family, uint64_t seed) {
  Rng rng(seed);
  StreamShapeOptions shape;
  shape.churn_pairs = 250;
  switch (family) {
    case Family::kZipf:
      return MakeZipfWorkload(1 << 12, 400, 1.3, 50000, shape, rng);
    case Family::kUniform:
      return MakeUniformWorkload(1 << 12, 500, 1, 200, shape, rng);
    case Family::kAdversarialDeletion: {
      FrequencyMap freq;
      for (ItemId i = 0; i < 250; ++i) {
        freq[i] = 1 + static_cast<int64_t>(i % 5);
      }
      freq[3000] = 25000;
      freq[3001] = 18000;
      Workload w = MakeStreamFromFrequencies(1 << 12, freq, shape, rng);
      // Decoys: inflated above every true heavy, then deleted to net 5.
      for (ItemId d = 3500; d < 3520; ++d) w.stream.Append(d, 40000);
      for (ItemId d = 3500; d < 3520; ++d) {
        w.stream.Append(d, -39995);
        w.frequencies[d] = 5;
      }
      return w;
    }
  }
  std::abort();  // unreachable: all Family values handled above
}

// Every pass of a heavy hitter sharded through the ingestion engine
// (round-robin chunks) across same-seed replicas.
template <typename HH, typename Options>
HH ShardedHH(const Options& options, uint64_t seed, const Stream& stream,
             size_t shards) {
  IngestEngineOptions engine_options;
  engine_options.shards = shards;
  return ProcessStreamSharded(stream, engine_options, [&](size_t) {
    Rng rng(seed);
    return HH(options, rng);
  });
}

int64_t TrueFrequency(const FrequencyMap& freq, ItemId item) {
  const auto it = freq.find(item);
  return it == freq.end() ? 0 : it->second;
}

void RunFamily(Family family, SuiteStats& stats) {
  const GFunctionPtr g = MakePower(2.0);
  for (size_t s = 0; s < kSeedsPerFamily; ++s) {
    const uint64_t seed = kBaseSeed + 1000 * static_cast<uint64_t>(family) +
                          s;
    const Workload w = MakeFamilyWorkload(family, seed);
    const auto true_heavy =
        ExactGHeavyHitters(w.frequencies, g->AsCallable(), kLambda);
    const double f2_true = ExactMoment(w.frequencies, 2.0);
    // Every other seed routes through the sharded ingestion engine.
    const bool sharded = (s % 2 == 1);

    // --- Two-pass (Algorithm 1): recall with exact weights. ---
    TwoPassHHOptions two_pass;
    two_pass.count_sketch = {5, 1024};
    two_pass.candidates = 32;
    const TwoPassHeavyHitter hh2 =
        sharded ? ShardedHH<TwoPassHeavyHitter>(two_pass, seed, w.stream, 3)
                : ProcessTwoPassHH(two_pass, seed, w.stream);
    std::unordered_set<ItemId> covered2;
    for (const GCoverEntry& e : hh2.Cover(*g)) {
      covered2.insert(e.item);
      EXPECT_EQ(e.frequency, TrueFrequency(w.frequencies, e.item))
          << FamilyName(family) << " seed " << s
          << ": two-pass tabulation not exact for item " << e.item;
    }
    for (const auto& [item, value] : true_heavy) {
      if (!covered2.contains(item)) {
        ++stats.two_pass_misses;
        ADD_FAILURE() << FamilyName(family) << " seed " << s
                      << ": two-pass missed true heavy hitter " << item
                      << " (v=" << value << ")";
      }
    }

    // --- One-pass (Algorithm 2): recall, pruning threshold, accuracy. ---
    OnePassHHOptions one_pass;
    one_pass.count_sketch = {5, 4096};
    one_pass.ams = {32, 5};
    one_pass.candidates = 32;
    one_pass.epsilon = 0.25;
    one_pass.h_envelope = 1.0;
    const OnePassHeavyHitter hh1 =
        sharded ? ShardedHH<OnePassHeavyHitter>(one_pass, seed, w.stream, 3)
                : ProcessOnePassHH(one_pass, seed, w.stream);
    const int64_t radius = hh1.PruningRadius();
    const double err_bound = 4.0 * std::sqrt(
        f2_true / static_cast<double>(one_pass.count_sketch.buckets));
    std::unordered_set<ItemId> covered1;
    for (const GCoverEntry& e : hh1.Cover(*g)) {
      covered1.insert(e.item);
      ++stats.one_pass_entries;
      // (2) No survivor at or below the pruning radius: g = x^2 cannot be
      // certified stable on an interval containing 0.
      if (radius > 0 && std::llabs(e.frequency) <= radius) {
        ++stats.threshold_violations;
        ADD_FAILURE() << FamilyName(family) << " seed " << s << ": item "
                      << e.item << " survived with |estimate| "
                      << std::llabs(e.frequency)
                      << " <= pruning radius " << radius;
      }
      // (3) Statistical: the estimate is within the CountSketch error
      // bound of the truth (rate checked against kDelta at the end).
      const double err = std::fabs(
          static_cast<double>(e.frequency) -
          static_cast<double>(TrueFrequency(w.frequencies, e.item)));
      if (err > err_bound) ++stats.accuracy_violations;
    }
    for (const auto& [item, value] : true_heavy) {
      if (!covered1.contains(item)) {
        ++stats.one_pass_misses;
        ADD_FAILURE() << FamilyName(family) << " seed " << s
                      << ": one-pass missed true heavy hitter " << item
                      << " (v=" << value << ")";
      }
    }

    ++stats.runs;
    stats.true_heavy_total += true_heavy.size();
  }
}

TEST(HHVerificationTest, RecallAndPruningGuaranteesAcrossSeeds) {
  SuiteStats stats;
  RunFamily(Family::kZipf, stats);
  RunFamily(Family::kUniform, stats);
  RunFamily(Family::kAdversarialDeletion, stats);

  // (1) Zero tolerance on recall, per the paper's guarantee for a
  // predictable g (Lemma 21 / Theorem 3).
  EXPECT_EQ(stats.two_pass_misses, 0u);
  EXPECT_EQ(stats.one_pass_misses, 0u);
  // (2) Zero tolerance on the pruning threshold (deterministic property of
  // the decode for g = x^2).
  EXPECT_EQ(stats.threshold_violations, 0u);
  // (3) Measured failure rate of the statistical accuracy check, reported
  // against the configured delta.
  const double measured_rate =
      stats.one_pass_entries == 0
          ? 0.0
          : static_cast<double>(stats.accuracy_violations) /
                static_cast<double>(stats.one_pass_entries);
  EXPECT_LE(measured_rate, kDelta)
      << stats.accuracy_violations << " of " << stats.one_pass_entries
      << " one-pass estimates exceeded the 4 sqrt(F2/b) bound";

  RecordProperty("runs", static_cast<int>(stats.runs));
  RecordProperty("true_heavy_total",
                 static_cast<int>(stats.true_heavy_total));
  RecordProperty("one_pass_entries",
                 static_cast<int>(stats.one_pass_entries));
  RecordProperty("accuracy_violations",
                 static_cast<int>(stats.accuracy_violations));
  std::printf(
      "verify: %zu runs, %zu true heavy hitters, 0 missed (2-pass and "
      "1-pass); %zu one-pass cover entries, %zu past the error bound "
      "(measured rate %.4f vs configured delta %.2f)\n",
      stats.runs, stats.true_heavy_total, stats.one_pass_entries,
      stats.accuracy_violations, measured_rate, kDelta);
}

// The merged decode must satisfy the same guarantees as the sequential one
// on the *same* stream -- a direct A/B at every shard count on one seed
// per family, pinning that engine-fed heavy hitters lose nothing.
TEST(HHVerificationTest, ShardedDecodeRecallMatchesSequential) {
  const GFunctionPtr g = MakePower(2.0);
  for (const Family family : {Family::kZipf, Family::kAdversarialDeletion}) {
    const uint64_t seed = kBaseSeed + 77 + static_cast<uint64_t>(family);
    const Workload w = MakeFamilyWorkload(family, seed);
    const auto true_heavy =
        ExactGHeavyHitters(w.frequencies, g->AsCallable(), kLambda);
    ASSERT_FALSE(true_heavy.empty());
    for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      TwoPassHHOptions options;
      options.count_sketch = {5, 1024};
      options.candidates = 32;
      const TwoPassHeavyHitter hh =
          ShardedHH<TwoPassHeavyHitter>(options, seed, w.stream, shards);
      std::unordered_set<ItemId> covered;
      for (const GCoverEntry& e : hh.Cover(*g)) covered.insert(e.item);
      for (const auto& [item, value] : true_heavy) {
        EXPECT_TRUE(covered.contains(item))
            << FamilyName(family) << " shards " << shards
            << ": merged decode missed heavy item " << item;
      }
    }
  }
}

}  // namespace
}  // namespace gstream
