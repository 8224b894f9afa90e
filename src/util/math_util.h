// The minimal integer combination behind the ShortLinearCombination
// machinery (Appendix C of the paper).

#ifndef GSTREAM_UTIL_MATH_UTIL_H_
#define GSTREAM_UTIL_MATH_UTIL_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace gstream {

// A solution to sum_i q_i * u_i == d minimizing the L1 norm q = sum_i |q_i|.
struct LinearCombination {
  std::vector<int64_t> coefficients;  // q_1 .. q_r, aligned with u
  int64_t l1_norm = 0;                // sum |q_i|
};

// Finds the minimal-L1 integer combination of `u` equal to `d`, the quantity
// q that governs the (u,d)-DIST communication bound Omega(n/q^2) in
// Theorem 51 of the paper.
//
// Implemented as breadth-first search over partial sums: states are integer
// values reachable from 0 by adding +-u_i, edge cost 1; the search is capped
// at `max_terms` total terms (default 64) and prunes partial sums outside
// [-B, B] where B = |d| + max|u_i| * max_terms.  Returns nullopt when no
// combination with at most `max_terms` terms exists (in particular when
// gcd(u) does not divide d).
std::optional<LinearCombination> MinimalCombination(
    const std::vector<int64_t>& u, int64_t d, int max_terms = 64);

}  // namespace gstream

#endif  // GSTREAM_UTIL_MATH_UTIL_H_
