// The streaming upper bound for the ShortLinearCombination problem
// (paper Proposition 49 / Theorem 51): the (u, d)-DIST decision algorithm.
//
// Setting (Definitions 45/50): every nonzero frequency is promised to be
// +-u_1, ..., +-u_r, except possibly one coordinate holding +-d.  Decide
// whether the +-d coordinate is present.
//
// The algorithm partitions the universe into t pieces and keeps, per piece,
// a single signed counter C_i = sum_l xi_l v_l with 4-wise independent
// signs xi in {-1,+1}.  Let a = max(u).  With t = O-tilde(n / q^2) pieces
// -- q the minimal L1 norm with sum q_j u_j = d (util/math_util.h) -- each
// piece's counter satisfies, with high probability,
//
//    C_i mod a  in  S_0 = { sum_j z_j u_j mod a : |z_j| <= Z }
//
// when d is absent, where Z < |q|/2 bounds the signed multiplicities; the
// minimality of q makes the residue (S_0 +- d) mod a disjoint from S_0, so
// any piece whose residue falls outside S_0 certifies the presence of d.
// The matching lower bound Omega(n / q^2) is Theorem 51; experiment E6
// sweeps t against q to exhibit both sides.

#ifndef GSTREAM_CORE_DIST_ALGORITHM_H_
#define GSTREAM_CORE_DIST_ALGORITHM_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sketch/linear_sketch.h"
#include "util/hash.h"
#include "util/random.h"

namespace gstream {

struct DistAlgorithmOptions {
  // Number of pieces t the universe is partitioned into.
  size_t pieces = 64;
  // Optional cap on the signed multiplicity bound Z assumed per piece; the
  // constructor derives the largest sound Z by residue enumeration and
  // takes the minimum with this cap when positive.
  int64_t multiplicity_bound = 0;
};

class DistStreamingAlgorithm : public LinearSketch {
 public:
  // `allowed` = the u vector (positive, distinct), `target` = d > 0 with
  // d not in `allowed`.  Aborts if no linear combination of u equals d (the
  // problem is then trivially decidable by other means).
  DistStreamingAlgorithm(std::vector<int64_t> allowed, int64_t target,
                         const DistAlgorithmOptions& options, Rng& rng);

  void Update(ItemId item, int64_t delta) override;

  // True iff some piece's residue certifies a +-d coordinate.
  bool DetectsTarget() const;

  // The minimal-combination norm q governing the Omega(n/q^2) bound.
  int64_t combination_norm() const { return combination_norm_; }

  // The modulus a and multiplicity bound Z the constructor settled on.
  int64_t modulus() const { return modulus_; }
  int64_t multiplicity_bound() const { return multiplicity_bound_; }

  size_t SpaceBytes() const override;

  // Raw per-piece counters C_i; used by the hash-pinning tests.
  const std::vector<int64_t>& counters() const { return counters_; }

 private:
  std::vector<int64_t> allowed_;
  int64_t target_;
  int64_t modulus_;  // chosen from `allowed` to maximize the sound Z
  int64_t combination_norm_;
  int64_t multiplicity_bound_;
  std::unordered_set<int64_t> achievable_residues_;  // S_0
  KWiseHashBank piece_bank_;  // one 2-wise row: partition into pieces
  KWiseHashBank sign_bank_;   // one 4-wise row: xi from its low bit
  std::vector<int64_t> counters_;
};

}  // namespace gstream

#endif  // GSTREAM_CORE_DIST_ALGORITHM_H_
