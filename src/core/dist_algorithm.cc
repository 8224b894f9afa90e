#include "core/dist_algorithm.h"

#include <algorithm>
#include <functional>

#include "util/logging.h"
#include "util/math_util.h"

namespace gstream {
namespace {

// Residues mod `modulus` of sum_j z_j u_j with |z_j| <= bound, u ranging
// over `others` (multiples of the modulus vanish).
std::unordered_set<int64_t> AchievableResidues(
    const std::vector<int64_t>& others, int64_t modulus, int64_t bound) {
  std::unordered_set<int64_t> residues;
  std::function<void(size_t, int64_t)> enumerate = [&](size_t idx,
                                                       int64_t residue) {
    if (idx == others.size()) {
      residues.insert(((residue % modulus) + modulus) % modulus);
      return;
    }
    for (int64_t z = -bound; z <= bound; ++z) {
      enumerate(idx + 1, residue + z * others[idx]);
    }
  };
  enumerate(0, 0);
  return residues;
}

bool ResiduesSeparated(const std::unordered_set<int64_t>& s0, int64_t target,
                       int64_t modulus) {
  for (const int64_t r : s0) {
    for (const int64_t sign : {+1, -1}) {
      const int64_t shifted =
          (((r + sign * target) % modulus) + modulus) % modulus;
      if (s0.contains(shifted)) return false;
    }
  }
  return true;
}

}  // namespace

DistStreamingAlgorithm::DistStreamingAlgorithm(
    std::vector<int64_t> allowed, int64_t target,
    const DistAlgorithmOptions& options, Rng& rng)
    : allowed_(std::move(allowed)),
      target_(target),
      piece_bank_(/*k=*/2, /*rows=*/1, rng),
      sign_bank_(/*k=*/4, /*rows=*/1, rng) {
  GSTREAM_CHECK_GE(options.pieces, 1u);
  GSTREAM_CHECK(!allowed_.empty());
  GSTREAM_CHECK_GT(target_, 0);
  for (int64_t u : allowed_) {
    GSTREAM_CHECK_GT(u, 0);
    GSTREAM_CHECK_NE(u, target_);
  }

  const auto combination = MinimalCombination(allowed_, target_);
  GSTREAM_CHECK(combination.has_value());
  combination_norm_ = combination->l1_norm;

  // Choose the modulus and the multiplicity bound Z together: over every
  // candidate modulus a in u, find the largest Z <= cap for which
  // S_0(Z) and (S_0(Z) +- d) mod a stay disjoint -- the exact soundness
  // condition of the decision rule.  The paper's minimality argument
  // (Theorem 48) guarantees Z ~ q/4 is attainable; deriving Z by
  // construction keeps the rule sound for every input without trusting
  // the constant.
  constexpr int64_t kZCap = 64;
  modulus_ = 0;
  multiplicity_bound_ = -1;
  for (const int64_t a : allowed_) {
    std::vector<int64_t> others;
    for (int64_t u : allowed_) {
      if (u != a) others.push_back(u);
    }
    int64_t best_z = -1;
    for (int64_t z = 0; z <= kZCap; ++z) {
      const auto s0 = AchievableResidues(others, a, z);
      if (!ResiduesSeparated(s0, target_, a)) break;
      best_z = z;
    }
    if (best_z > multiplicity_bound_ ||
        (best_z == multiplicity_bound_ && a > modulus_)) {
      multiplicity_bound_ = best_z;
      modulus_ = a;
    }
  }
  // At least Z = 0 must be sound for some modulus, else d is
  // indistinguishable mod every candidate and the reduction does not apply.
  GSTREAM_CHECK_GE(multiplicity_bound_, 0);
  if (options.multiplicity_bound > 0) {
    multiplicity_bound_ =
        std::min(multiplicity_bound_, options.multiplicity_bound);
  }

  std::vector<int64_t> others;
  for (int64_t u : allowed_) {
    if (u != modulus_) others.push_back(u);
  }
  achievable_residues_ =
      AchievableResidues(others, modulus_, multiplicity_bound_);

  counters_.assign(options.pieces, 0);
}

void DistStreamingAlgorithm::Update(ItemId item, int64_t delta) {
  const uint64_t xm = ReduceToField(item);
  const uint64_t piece = FastRange61(
      Eval2Wise(piece_bank_.DegreeCoeffs(0)[0],
                piece_bank_.DegreeCoeffs(1)[0], xm),
      counters_.size());
  counters_[piece] += (sign_bank_.EvalRow(0, xm) & 1) ? delta : -delta;
}

bool DistStreamingAlgorithm::DetectsTarget() const {
  for (const int64_t c : counters_) {
    const int64_t residue = ((c % modulus_) + modulus_) % modulus_;
    if (!achievable_residues_.contains(residue)) return true;
  }
  return false;
}

size_t DistStreamingAlgorithm::SpaceBytes() const {
  // The piece hash's bytes include its range word.
  return counters_.size() * sizeof(int64_t) + piece_bank_.SpaceBytes() +
         sizeof(uint64_t) + sign_bank_.SpaceBytes() +
         achievable_residues_.size() * sizeof(int64_t);
}

}  // namespace gstream
