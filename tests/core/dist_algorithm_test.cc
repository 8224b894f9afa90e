#include "core/dist_algorithm.h"

#include <gtest/gtest.h>

#include "comm/dist_problem.h"

namespace gstream {
namespace {

DistAlgorithmOptions Pieces(size_t t) {
  DistAlgorithmOptions options;
  options.pieces = t;
  return options;
}

TEST(DistAlgorithmTest, CombinationNormMatchesTheory) {
  Rng rng(1);
  // 2*3 - 5 = 1: q = 3.
  DistStreamingAlgorithm alg({5, 3}, 1, Pieces(64), rng);
  EXPECT_EQ(alg.combination_norm(), 3);
}

TEST(DistAlgorithmTest, NormGrowsWithGapFamily) {
  Rng rng(2);
  // (2k+1, 2) -> d=1 needs k+1 terms.
  int64_t previous = 0;
  for (int64_t k = 1; k <= 6; ++k) {
    DistStreamingAlgorithm alg({2 * k + 1, 2}, 1, Pieces(64), rng);
    EXPECT_EQ(alg.combination_norm(), k + 1);
    EXPECT_GT(alg.combination_norm(), previous);
    previous = alg.combination_norm();
  }
}

TEST(DistAlgorithmTest, MultiplicityBoundSoundByConstruction) {
  Rng rng(3);
  // Larger q admits a larger sound Z.
  DistStreamingAlgorithm tight({5, 3}, 1, Pieces(64), rng);
  DistStreamingAlgorithm loose({17, 2}, 1, Pieces(64), rng);
  EXPECT_GE(loose.multiplicity_bound(), tight.multiplicity_bound());
  EXPECT_GE(tight.multiplicity_bound(), 0);
}

TEST(DistAlgorithmTest, DetectsPlantedTargetManyPieces) {
  // With one piece per coordinate the signed multiplicities are 0/1 and
  // detection is certain whenever Z >= 1 holds; use a q-rich pair.
  Rng rng(4);
  DistInstanceParams params;
  params.n = 1 << 10;
  params.density = 0.3;
  params.allowed = {17, 2};
  params.target = 1;
  int detected = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    DistStreamingAlgorithm alg(params.allowed, params.target,
                               Pieces(params.n * 4), rng);
    const DistInstance instance = MakeDistInstance(params, true, rng);
    ProcessStream(alg, instance.stream);
    if (alg.DetectsTarget()) ++detected;
  }
  EXPECT_GE(detected, 18);
}

TEST(DistAlgorithmTest, NoFalsePositivesWithoutTarget) {
  // Soundness is unconditional on V0 instances *when multiplicities stay
  // within Z*; with t >= 4n they essentially always do.
  Rng rng(5);
  DistInstanceParams params;
  params.n = 1 << 10;
  params.density = 0.3;
  params.allowed = {17, 2};
  params.target = 1;
  int false_positives = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    DistStreamingAlgorithm alg(params.allowed, params.target,
                               Pieces(params.n * 4), rng);
    const DistInstance instance = MakeDistInstance(params, false, rng);
    ProcessStream(alg, instance.stream);
    if (alg.DetectsTarget()) ++false_positives;
  }
  EXPECT_LE(false_positives, 2);
}

TEST(DistAlgorithmTest, FewPiecesDegradeGracefully) {
  // With far fewer pieces than n/q^2 the promise |z| <= Z breaks and the
  // algorithm loses soundness -- the lower-bound side of Theorem 51.
  Rng rng(6);
  DistInstanceParams params;
  params.n = 1 << 10;
  params.density = 0.5;
  params.allowed = {5, 3};  // q = 3 -> tiny tolerance
  params.target = 1;
  int wrong = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    DistStreamingAlgorithm alg(params.allowed, params.target, Pieces(4),
                               rng);
    const DistInstance no_target = MakeDistInstance(params, false, rng);
    ProcessStream(alg, no_target.stream);
    if (alg.DetectsTarget()) ++wrong;  // false positive
  }
  // Not asserting failure -- asserting the *possibility* is realized often
  // under-resourced: most trials misfire at t=4.
  EXPECT_GE(wrong, 10);
}

TEST(DistAlgorithmTest, ModulusContributionsVanish) {
  // Items at +-modulus frequency never trigger detection regardless of
  // count: they are 0 mod a.
  Rng rng(7);
  DistStreamingAlgorithm alg({8, 3}, 2, Pieces(8), rng);
  ASSERT_EQ(alg.modulus(), 8);
  Stream stream(256);
  for (ItemId i = 0; i < 256; ++i) stream.Append(i, (i % 2) ? 8 : -8);
  ProcessStream(alg, stream);
  EXPECT_FALSE(alg.DetectsTarget());
}

TEST(DistAlgorithmTest, SpaceScalesWithPieces) {
  Rng rng(8);
  DistStreamingAlgorithm small({5, 3}, 1, Pieces(16), rng);
  DistStreamingAlgorithm big({5, 3}, 1, Pieces(1024), rng);
  EXPECT_GT(big.SpaceBytes(), small.SpaceBytes() * 32);
}

TEST(DistAlgorithmTest, CountersPinnedAfterFixedStream) {
  // Pins the piece and sign hash draws: a fixed seed and stream must keep
  // producing these counters (and this space) whatever layout holds the
  // hash coefficients.
  Rng rng(0xd157);
  DistStreamingAlgorithm alg({5, 3}, 1, Pieces(64), rng);
  Rng stream_rng(0x5eed);
  Stream stream(1 << 12);
  for (ItemId i = 0; i < (1 << 12); ++i) {
    stream.Append(i, stream_rng.UniformInt(-5, 5));
  }
  ProcessStream(alg, stream);
  uint64_t digest = kFnvOffsetBasis;
  for (const int64_t c : alg.counters()) {
    digest = FnvFold(digest, static_cast<uint64_t>(c));
  }
  EXPECT_EQ(digest, 0x0a88c81f6f2dfb71ULL);
  EXPECT_EQ(alg.SpaceBytes(), 576u);
}

TEST(DistAlgorithmDeathTest, TargetMustBeCombination) {
  Rng rng(9);
  // gcd(4, 6) = 2 does not divide 3.
  EXPECT_DEATH(DistStreamingAlgorithm({4, 6}, 3, Pieces(8), rng),
               "GSTREAM_CHECK");
}

TEST(DistAlgorithmDeathTest, TargetMustNotBeAllowed) {
  Rng rng(10);
  EXPECT_DEATH(DistStreamingAlgorithm({5, 3}, 3, Pieces(8), rng),
               "GSTREAM_CHECK");
}

}  // namespace
}  // namespace gstream
