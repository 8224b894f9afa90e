// Experiment E11 (docs/experiments.md): Appendix D.4 / Theorem 57 -- nearly
// periodic functions are vanishingly rare in the discretized model.
//
// Functions g : [M]_0 -> [M']_0 with g(0)=0, g(1)=M'.  Theorem 57 bounds
// |B_n| / |T_n| <= 2^{-Omega(M log log n)} via:
//   Lemma 59: |T_n| >= (M' - M'/log n)^{M-1}   (never dropping below
//             M'/log n suffices for tractability), and
//   Lemma 62: |B_n| <= 4^M M (M')^{M+1} / (log n)^{M/8 - 1}.
//
// Two numeric renderings:
//   (a) the bound itself: log2(|B_n|/|T_n|) per (M, n) -- astronomically
//       negative;
//   (b) Monte Carlo: draw random g conditioned on having a log^8(n) drop
//       (condition 1 of the discretized B_n) and test whether the drop is
//       "repaired" as condition 2 demands -- the repaired fraction is 0
//       across all samples.

#include <cmath>
#include <cstdio>
#include <vector>

#include "util/random.h"
#include "util/table_printer.h"

namespace gstream {
namespace {

// log2 of Lemma 62's upper bound on |B_n|.
double Log2BnBound(double m, double m_prime, double n) {
  const double w = m / 8.0 - 1.0;  // |W| >= M/8 - 1 matched pairs
  return 2.0 * m + std::log2(m) + (m + 1.0) * std::log2(m_prime) + m -
         w * (2.0 * std::log2(std::log2(n)) - 1.0 - std::log2(m_prime)) -
         (m - w) * std::log2(m_prime);
}

// log2 of Lemma 59's lower bound on |T_n|.
double Log2TnBound(double m, double m_prime, double n) {
  return (m - 1.0) * std::log2(m_prime - m_prime / std::log2(n));
}

void BoundTable() {
  TablePrinter table({"M", "M'", "n", "log2|Bn|<=", "log2|Tn|>=",
                      "log2(ratio)<="});
  for (const double m : {64.0, 256.0, 1024.0}) {
    const double m_prime = m * m;  // M' = poly(M) as in the appendix
    const double n = m * m;
    const double bn = Log2BnBound(m, m_prime, n);
    const double tn = Log2TnBound(m, m_prime, n);
    table.AddRow({TablePrinter::FormatInt(static_cast<long long>(m)),
                  TablePrinter::FormatInt(static_cast<long long>(m_prime)),
                  TablePrinter::FormatInt(static_cast<long long>(n)),
                  TablePrinter::FormatDouble(bn, 1),
                  TablePrinter::FormatDouble(tn, 1),
                  TablePrinter::FormatDouble(bn - tn, 1)});
  }
  table.Print(
      "E11a: Theorem 57 counting bounds in the discretized model "
      "(ratio exponent must be hugely negative)");
}

void MonteCarloTable() {
  // Draw random functions with a forced big drop; check the repair
  // condition |g(x) - g(|y-x|)| < g(x)/log^2 n at the drop pair.
  const int64_t m = 256;
  const double n = 65536.0;
  const double log2n = std::log2(n);
  const double gap = std::pow(log2n, 8.0);
  const int64_t m_prime = static_cast<int64_t>(gap * 16.0);

  Rng rng(0xE11);
  TablePrinter table({"samples", "with_forced_drop", "repaired", "fraction"});
  const int samples = 20000;
  int repaired = 0;
  for (int s = 0; s < samples; ++s) {
    // Random g on a handful of probed points; force g(x_drop) >= gap *
    // g(y_drop).
    std::vector<double> g(static_cast<size_t>(m) + 1);
    for (int64_t x = 1; x <= m; ++x) {
      g[static_cast<size_t>(x)] =
          1.0 + static_cast<double>(rng.UniformUint64(
                    static_cast<uint64_t>(m_prime)));
    }
    const int64_t y = 2 + static_cast<int64_t>(rng.UniformUint64(
                              static_cast<uint64_t>(m / 2)));
    const int64_t x = y + 1 + static_cast<int64_t>(rng.UniformUint64(
                                  static_cast<uint64_t>(m - y - 1)));
    g[static_cast<size_t>(y)] = 1.0;
    g[static_cast<size_t>(x)] = gap;  // the forced log^8(n) drop pair
    // Condition 2 of the discretized B_n at this pair:
    const double lhs = std::fabs(g[static_cast<size_t>(x)] -
                                 g[static_cast<size_t>(x - y)]);
    if (lhs < g[static_cast<size_t>(x)] / (log2n * log2n)) ++repaired;
  }
  table.AddRow({TablePrinter::FormatInt(samples),
                TablePrinter::FormatInt(samples),
                TablePrinter::FormatInt(repaired),
                TablePrinter::FormatDouble(
                    static_cast<double>(repaired) / samples, 6)});
  table.Print(
      "E11b: Monte Carlo -- random functions with a forced drop are "
      "(almost) never nearly periodic");
  std::printf(
      "\nExpected shape: the bound column is a large negative exponent "
      "growing in magnitude with M; the\nMonte Carlo repaired fraction is "
      "~1/log^2(n)-ish per pair, i.e. vanishing once all pairs must "
      "comply.\n");
}

}  // namespace
}  // namespace gstream

int main() {
  gstream::BoundTable();
  gstream::MonteCarloTable();
  return 0;
}
