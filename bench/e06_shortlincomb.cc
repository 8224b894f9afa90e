// Experiment E6 (docs/experiments.md): the ShortLinearCombination / (u,d)-DIST
// problem (paper Appendix C, Theorems 48/51, Proposition 49).
//
// The family u = (2k+1, 2), d = 1 has minimal-combination norm q = k+1, so
// the communication bound Omega(n/q^2) *weakens* as k grows and the
// streaming algorithm needs fewer counters.  We sweep the number of pieces
// t against k and report the balanced success rate (detect planted d, no
// false positive); the crossover where each row reaches high success moves
// left as q grows -- the paper's dependence on q made visible.

#include <cstdio>
#include <vector>

#include "comm/dist_problem.h"
#include "core/dist_algorithm.h"
#include "util/table_printer.h"

namespace gstream {
namespace {

void RunExperiment() {
  const uint64_t n = 1 << 12;
  const int trials = 16;  // per class (with + without target)

  TablePrinter table({"u", "d", "q", "Z", "pieces", "space",
                      "success_rate"});
  for (const int64_t k : {1, 2, 4, 8, 16}) {
    const std::vector<int64_t> allowed = {2 * k + 1, 2};
    const int64_t target = 1;
    for (const size_t pieces : {64u, 256u, 1024u, 4096u, 16384u}) {
      Rng rng(0xE06 + static_cast<uint64_t>(k));
      int correct = 0;
      int64_t q = 0, z = 0;
      size_t space = 0;
      for (int t = 0; t < trials; ++t) {
        for (const bool plant : {false, true}) {
          DistAlgorithmOptions options;
          options.pieces = pieces;
          DistStreamingAlgorithm alg(allowed, target, options, rng);
          q = alg.combination_norm();
          z = alg.multiplicity_bound();
          space = alg.SpaceBytes();
          DistInstanceParams params;
          params.n = n;
          params.density = 0.4;
          params.allowed = allowed;
          params.target = target;
          const DistInstance inst = MakeDistInstance(params, plant, rng);
          ProcessStream(alg, inst.stream);
          if (alg.DetectsTarget() == plant) ++correct;
        }
      }
      char u_str[32];
      std::snprintf(u_str, sizeof(u_str), "{%lld,2}",
                    static_cast<long long>(2 * k + 1));
      table.AddRow({u_str, "1", TablePrinter::FormatInt(q),
                    TablePrinter::FormatInt(z),
                    TablePrinter::FormatInt(static_cast<long long>(pieces)),
                    TablePrinter::FormatBytes(space),
                    TablePrinter::FormatDouble(
                        static_cast<double>(correct) / (2.0 * trials), 3)});
    }
  }
  table.Print(
      "E6: (u,d)-DIST success vs counters t for growing minimal "
      "combination norm q (n = 4096)");
  std::printf(
      "\nExpected shape: each u-family's success climbs to ~1.0 as t "
      "grows; the t needed shrinks as q\n(and the sound multiplicity "
      "bound Z) grows -- the Theta(n/q^2) dependence of Theorem 51.\n");
}

}  // namespace
}  // namespace gstream

int main() {
  gstream::RunExperiment();
  return 0;
}
