#include "util/hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "util/random.h"

namespace gstream {
namespace {

TEST(ModMersenne61Test, SmallValuesUnchanged) {
  EXPECT_EQ(ModMersenne61(0), 0u);
  EXPECT_EQ(ModMersenne61(1), 1u);
  EXPECT_EQ(ModMersenne61(kMersenne61 - 1), kMersenne61 - 1);
}

TEST(ModMersenne61Test, ModulusMapsToZero) {
  EXPECT_EQ(ModMersenne61(kMersenne61), 0u);
  EXPECT_EQ(ModMersenne61(static_cast<__uint128_t>(kMersenne61) * 2), 0u);
  EXPECT_EQ(ModMersenne61(static_cast<__uint128_t>(kMersenne61) *
                          kMersenne61),
            0u);
}

TEST(ModMersenne61Test, AgreesWithNaiveModOnRandomInputs) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const __uint128_t x =
        (static_cast<__uint128_t>(rng.NextUint64()) << 64) | rng.NextUint64();
    EXPECT_EQ(ModMersenne61(x),
              static_cast<uint64_t>(x % kMersenne61));
  }
}

TEST(MulMod61Test, MatchesNaive128BitProduct) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t a = rng.UniformUint64(kMersenne61);
    const uint64_t b = rng.UniformUint64(kMersenne61);
    const __uint128_t p = static_cast<__uint128_t>(a) * b;
    EXPECT_EQ(MulMod61(a, b), static_cast<uint64_t>(p % kMersenne61));
  }
}

// Every hash the library draws is a KWiseHashBank row; these helpers read
// one row the way its callers do: a bucket by fastrange, a sign or a
// Bernoulli bit from the low bit.
uint64_t Hash(const KWiseHashBank& bank, uint64_t x, size_t row = 0) {
  return bank.EvalRow(row, ReduceToField(x));
}

uint64_t Bucket(const KWiseHashBank& bank, uint64_t x, uint64_t range) {
  return FastRange61(Hash(bank, x), range);
}

int Sign(const KWiseHashBank& bank, uint64_t x) {
  return (Hash(bank, x) & 1) ? +1 : -1;
}

bool Bernoulli(const KWiseHashBank& bank, uint64_t x) {
  return (Hash(bank, x) & 1) != 0;
}

TEST(KWiseHashTest, DeterministicGivenSeed) {
  Rng rng1(7), rng2(7);
  KWiseHashBank h1(4, 1, rng1), h2(4, 1, rng2);
  for (uint64_t x = 0; x < 100; ++x) {
    EXPECT_EQ(Hash(h1, x), Hash(h2, x));
  }
}

TEST(KWiseHashTest, IndependentDrawsDiffer) {
  Rng rng(7);
  KWiseHashBank h1(4, 1, rng), h2(4, 1, rng);
  int equal = 0;
  for (uint64_t x = 0; x < 100; ++x) {
    if (Hash(h1, x) == Hash(h2, x)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(KWiseHashTest, SpaceIsKWords) {
  Rng rng(9);
  for (int k = 1; k <= 6; ++k) {
    KWiseHashBank h(k, 1, rng);
    EXPECT_EQ(h.SpaceBytes(), static_cast<size_t>(k) * sizeof(uint64_t));
    EXPECT_EQ(h.independence(), k);
  }
}

TEST(KWiseHashTest, ConstantHashForKOne) {
  Rng rng(11);
  KWiseHashBank h(1, 1, rng);
  const uint64_t v = Hash(h, 0);
  for (uint64_t x = 1; x < 50; ++x) EXPECT_EQ(Hash(h, x), v);
}

TEST(KWiseHashTest, BankDrawsRowByRow) {
  // A bank of R rows draws what R one-row banks draw in sequence, so a
  // caller may group or split its hashes without moving any later draw.
  Rng whole_rng(41), split_rng(41);
  const KWiseHashBank whole(4, 3, whole_rng);
  for (size_t r = 0; r < 3; ++r) {
    const KWiseHashBank single(4, 1, split_rng);
    for (int d = 0; d < 4; ++d) {
      EXPECT_EQ(whole.DegreeCoeffs(d)[r], single.DegreeCoeffs(d)[0]);
    }
  }
  EXPECT_EQ(whole_rng.NextUint64(), split_rng.NextUint64());
}

TEST(KWiseHashTest, EmptyBankDrawsNothing) {
  Rng rng(43), untouched(43);
  const KWiseHashBank empty(2, 0, rng);
  EXPECT_EQ(empty.rows(), 0u);
  EXPECT_EQ(empty.SpaceBytes(), 0u);
  EXPECT_EQ(rng.NextUint64(), untouched.NextUint64());
}

TEST(KWiseHashTest, Eval2WiseMatchesHornerOnBankRows) {
  Rng rng(47);
  const KWiseHashBank bank(2, 8, rng);
  for (size_t r = 0; r < bank.rows(); ++r) {
    for (uint64_t x : {uint64_t{0}, uint64_t{1}, uint64_t{0x9e3779b9},
                       kMersenne61 - 1, kMersenne61, ~uint64_t{0}}) {
      EXPECT_EQ(Eval2Wise(bank.DegreeCoeffs(0)[r], bank.DegreeCoeffs(1)[r],
                          ReduceToFieldLazy(x)),
                Hash(bank, x, r));
    }
  }
}

TEST(BucketHashTest, StaysInRange) {
  Rng rng(13);
  KWiseHashBank h(2, 1, rng);
  for (uint64_t x = 0; x < 5000; ++x) {
    EXPECT_LT(Bucket(h, x, 37), 37u);
  }
}

TEST(BucketHashTest, RoughlyUniformAcrossBuckets) {
  Rng rng(17);
  const uint64_t buckets = 16;
  KWiseHashBank h(2, 1, rng);
  std::vector<int> counts(buckets, 0);
  const int draws = 32000;
  for (int x = 0; x < draws; ++x) {
    ++counts[Bucket(h, static_cast<uint64_t>(x), buckets)];
  }
  const double expected = static_cast<double>(draws) / buckets;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 60.0);
}

TEST(FastRange61Test, MatchesMultiplyShiftDefinition) {
  // Pins the reduction formula floor(h * range / 2^61) so the bucket layout
  // stays stable across refactors (sketch determinism depends on it).
  EXPECT_EQ(FastRange61(0, 37), 0u);
  EXPECT_EQ(FastRange61(kMersenne61 - 1, 37), 36u);
  const uint64_t h = uint64_t{1} << 60;  // halfway through the domain
  EXPECT_EQ(FastRange61(h, 10), 5u);
  for (uint64_t range : {1ull, 2ull, 37ull, 1024ull}) {
    for (uint64_t x :
         {uint64_t{0}, uint64_t{12345}, (uint64_t{1} << 45) + 17,
          kMersenne61 - 2}) {
      EXPECT_EQ(FastRange61(x, range),
                static_cast<uint64_t>(
                    (static_cast<__uint128_t>(x) * range) >> 61));
      EXPECT_LT(FastRange61(x, range), range);
    }
  }
}

TEST(FastRange61Test, BucketBiasWithinDocumentedBound) {
  // FastRange61 maps [0, 2^61) onto contiguous bucket preimages of size
  // floor(2^61/range) or ceil(2^61/range); over the field [0, 2^61 - 1) the
  // per-bucket probability deviates from 1/range by at most
  // (range + 1) / 2^61.  Verify the preimage-size claim exactly by locating
  // every bucket boundary: bucket b starts at ceil(b * 2^61 / range).
  const uint64_t range = 37;
  const __uint128_t domain = static_cast<__uint128_t>(1) << 61;
  uint64_t prev_start = 0;
  uint64_t min_width = ~uint64_t{0};
  uint64_t max_width = 0;
  for (uint64_t b = 1; b <= range; ++b) {
    const uint64_t start =
        b == range
            ? static_cast<uint64_t>(domain)
            : static_cast<uint64_t>((domain * b + range - 1) / range);
    if (b < range) {
      // The boundary really separates bucket b-1 from bucket b.
      EXPECT_EQ(FastRange61(start - 1, range), b - 1);
      EXPECT_EQ(FastRange61(start, range), b);
    }
    const uint64_t width = start - prev_start;
    min_width = std::min(min_width, width);
    max_width = std::max(max_width, width);
    prev_start = start;
  }
  const uint64_t floor_width = static_cast<uint64_t>(domain / range);
  EXPECT_GE(min_width, floor_width);
  EXPECT_LE(max_width, floor_width + 1);
}

TEST(BucketHashTest, FastRangeDistributionMatchesModuloQuality) {
  // The fastrange switch must not cost statistical quality: a pairwise
  // bucket hash over sequential keys should fill buckets to within a few
  // standard deviations of uniform, same as the modulo reduction it
  // replaced.
  Rng rng(29);
  const uint64_t buckets = 64;
  KWiseHashBank h(2, 1, rng);
  std::vector<int> counts(buckets, 0);
  const int draws = 1 << 18;
  for (int x = 0; x < draws; ++x) {
    ++counts[Bucket(h, static_cast<uint64_t>(x), buckets)];
  }
  const double expected = static_cast<double>(draws) / buckets;
  const double sd = std::sqrt(expected);
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, 6.0 * sd);
  }
}

TEST(SignHashTest, BalancedSigns) {
  Rng rng(19);
  KWiseHashBank s(4, 1, rng);
  int plus = 0;
  const int draws = 20000;
  for (int x = 0; x < draws; ++x) {
    const int v = Sign(s, static_cast<uint64_t>(x));
    ASSERT_TRUE(v == 1 || v == -1);
    if (v == 1) ++plus;
  }
  EXPECT_NEAR(static_cast<double>(plus) / draws, 0.5, 0.02);
}

TEST(SignHashTest, PairwiseProductsUnbiased) {
  // 4-wise independence implies E[s(x)s(y)] = 0 for x != y; estimate the
  // worst pairwise correlation over a few fixed pairs.
  Rng rng(23);
  const int trials = 400;
  const int pairs = 6;
  std::vector<double> sums(pairs, 0.0);
  for (int t = 0; t < trials; ++t) {
    KWiseHashBank s(4, 1, rng);
    for (int p = 0; p < pairs; ++p) {
      sums[p] += Sign(s, static_cast<uint64_t>(2 * p)) *
                 Sign(s, static_cast<uint64_t>(2 * p + 1));
    }
  }
  for (int p = 0; p < pairs; ++p) {
    EXPECT_NEAR(sums[p] / trials, 0.0, 0.2) << "pair " << p;
  }
}

TEST(BernoulliHashTest, HalfDensity) {
  Rng rng(29);
  KWiseHashBank b(2, 1, rng);
  int ones = 0;
  const int draws = 20000;
  for (int x = 0; x < draws; ++x) {
    if (Bernoulli(b, static_cast<uint64_t>(x))) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / draws, 0.5, 0.02);
}

TEST(BernoulliHashTest, PairwiseJointFrequencies) {
  // Pairwise independence: P(b(x)=1, b(y)=1) = 1/4 over the hash draw.
  Rng rng(31);
  const int trials = 4000;
  int joint = 0;
  for (int t = 0; t < trials; ++t) {
    KWiseHashBank b(2, 1, rng);
    if (Bernoulli(b, 12345) && Bernoulli(b, 67890)) ++joint;
  }
  EXPECT_NEAR(static_cast<double>(joint) / trials, 0.25, 0.03);
}

// Empirical 2-wise independence of a pairwise row: collision probability of
// distinct keys into B buckets should be ~1/B over hash draws.
TEST(KWiseHashTest, PairwiseCollisionProbability) {
  Rng rng(37);
  const uint64_t buckets = 64;
  const int trials = 8000;
  int collisions = 0;
  for (int t = 0; t < trials; ++t) {
    KWiseHashBank h(2, 1, rng);
    if (Bucket(h, 111, buckets) == Bucket(h, 222, buckets)) ++collisions;
  }
  EXPECT_NEAR(static_cast<double>(collisions) / trials, 1.0 / buckets,
              0.01);
}

}  // namespace
}  // namespace gstream
