// Robustness of the property checkers: the clear-cut catalog verdicts must
// be stable across probe parameters (alpha, seed, random-pair budget, and
// reasonable domain sizes).  These tests guard the finite-domain
// instantiation of the asymptotic definitions (the finite-domain
// substitutions in docs/experiments.md) against threshold brittleness.

#include <gtest/gtest.h>

#include "gfunc/properties.h"
#include "gfunc/catalog.h"

namespace gstream {
namespace {

struct Probe {
  double alpha;
  uint64_t seed;
  size_t random_pairs;
};

class CheckerRobustness : public ::testing::TestWithParam<Probe> {};

TEST_P(CheckerRobustness, QuadraticAlwaysSlowJumping) {
  const Probe p = GetParam();
  PropertyCheckOptions options;
  options.domain_max = 1 << 16;
  options.alpha = p.alpha;
  options.seed = p.seed;
  options.random_pairs = p.random_pairs;
  EXPECT_TRUE(CheckSlowJumping(*MakePower(2.0), options).holds);
  EXPECT_TRUE(CheckSlowDropping(*MakePower(2.0), options).holds);
}

TEST_P(CheckerRobustness, CubicNeverSlowJumping) {
  const Probe p = GetParam();
  PropertyCheckOptions options;
  options.domain_max = 1 << 16;
  options.alpha = p.alpha;
  options.seed = p.seed;
  options.random_pairs = p.random_pairs;
  EXPECT_FALSE(CheckSlowJumping(*MakePower(3.0), options).holds);
}

TEST_P(CheckerRobustness, InverseNeverSlowDropping) {
  const Probe p = GetParam();
  PropertyCheckOptions options;
  options.domain_max = 1 << 16;
  options.alpha = p.alpha;
  options.seed = p.seed;
  options.random_pairs = p.random_pairs;
  EXPECT_FALSE(CheckSlowDropping(*MakeInversePoly(1.0), options).holds);
}

TEST_P(CheckerRobustness, GnpNeverSlowDropping) {
  const Probe p = GetParam();
  PropertyCheckOptions options;
  options.domain_max = 1 << 16;
  options.alpha = p.alpha;
  options.seed = p.seed;
  options.random_pairs = p.random_pairs;
  EXPECT_FALSE(CheckSlowDropping(*MakeGnp(), options).holds);
}

INSTANTIATE_TEST_SUITE_P(
    ProbeGrid, CheckerRobustness,
    // alpha below ~0.2 would need a deeper domain: x^2's adjacent-pair
    // violations of Def. 6 die out only at x ~ 4^{1/alpha}, which must sit
    // below the persistence cutoff (docs/experiments.md).
    ::testing::Values(Probe{0.25, 0x5eed, 50000}, Probe{0.25, 7, 50000},
                      Probe{0.25, 0x5eed, 5000}, Probe{0.4, 0x5eed, 50000},
                      Probe{0.2, 99, 20000}),
    [](const ::testing::TestParamInfo<Probe>& info) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "alpha%02d_seed%llu_pairs%zu",
                    static_cast<int>(info.param.alpha * 100),
                    static_cast<unsigned long long>(info.param.seed),
                    info.param.random_pairs);
      return std::string(buf);
    });

// Domain-size stability for the unambiguous functions: verdicts should not
// flip between 2^14 and 2^18 for functions whose violating pairs (or lack
// thereof) appear at every scale.
class DomainStability : public ::testing::TestWithParam<int> {};

TEST_P(DomainStability, StableVerdicts) {
  PropertyCheckOptions options;
  options.domain_max = int64_t{1} << GetParam();
  EXPECT_TRUE(CheckSlowJumping(*MakePower(1.0), options).holds);
  EXPECT_TRUE(CheckSlowDropping(*MakeIndicator(), options).holds);
  EXPECT_TRUE(CheckPredictable(*MakePower(2.0), options).holds);
  EXPECT_FALSE(CheckSlowJumping(*MakePower(3.0), options).holds);
  EXPECT_FALSE(CheckSlowDropping(*MakeInversePoly(0.5), options).holds);
  EXPECT_FALSE(CheckPredictable(*MakeSinModulated(), options).holds);
}

INSTANTIATE_TEST_SUITE_P(Domains, DomainStability,
                         ::testing::Values(14, 16, 18),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "pow2_" + std::to_string(info.param);
                         });

// The nearly periodic screen must be stable too.
class NearlyPeriodicStability : public ::testing::TestWithParam<int> {};

TEST_P(NearlyPeriodicStability, GnpAlwaysPasses) {
  PropertyCheckOptions options;
  options.domain_max = int64_t{1} << GetParam();
  EXPECT_TRUE(CheckNearlyPeriodic(*MakeGnp(), options).holds);
  EXPECT_FALSE(CheckNearlyPeriodic(*MakeInversePoly(1.0), options).holds);
}

INSTANTIATE_TEST_SUITE_P(Domains, NearlyPeriodicStability,
                         ::testing::Values(14, 16, 18),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "pow2_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace gstream
