// Experiment E8 (docs/experiments.md): Theorem 13's cost profile.
//
// The recursive sketch turns a heavy-hitter subroutine into a g-SUM
// estimator at an O(log n) multiplicative space overhead (one subroutine
// instance per subsampling level).  Sweeping the domain size at fixed
// per-level geometry shows: space grows logarithmically with n (the level
// count), per-update cost stays roughly flat (expected O(1) levels touched
// per update thanks to geometric subsampling), and accuracy holds.

#include <chrono>
#include <cstdio>
#include <vector>

#include "core/gsum.h"
#include "stream/exact.h"
#include "stream/generators.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace gstream {
namespace {

void RunExperiment() {
  const GFunctionPtr g = MakePower(2.0);
  TablePrinter table({"n", "levels", "space", "ns_per_update",
                      "median_err"});
  for (const uint64_t domain :
       {uint64_t{1} << 12, uint64_t{1} << 14, uint64_t{1} << 16,
        uint64_t{1} << 18}) {
    Rng data_rng(0xE08);
    const size_t items = domain / 8;
    const Workload w = MakeZipfWorkload(domain, items, 1.5, 40000,
                                        StreamShapeOptions{}, data_rng);
    const double truth = ExactGSum(w.frequencies, g->AsCallable());

    std::vector<double> errors;
    size_t space = 0;
    int levels = 0;
    double ns_per_update = 0.0;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      GSumOptions options;
      options.passes = 1;
      options.cs_buckets = 1024;
      options.candidates = 48;
      options.repetitions = 5;
      options.ams = {8, 5};
      options.seed = seed;
      GSumEstimator estimator(g, domain, options);
      const auto start = std::chrono::steady_clock::now();
      const double estimate = estimator.Process(w.stream);
      const auto stop = std::chrono::steady_clock::now();
      errors.push_back(RelativeError(estimate, truth));
      space = estimator.SpaceBytes();
      levels = estimator.levels();
      ns_per_update =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(stop -
                                                                    start)
                  .count()) /
          static_cast<double>(w.stream.length());
    }
    table.AddRow({TablePrinter::FormatInt(static_cast<long long>(domain)),
                  TablePrinter::FormatInt(levels),
                  TablePrinter::FormatBytes(space),
                  TablePrinter::FormatDouble(ns_per_update, 0),
                  TablePrinter::FormatDouble(Median(errors), 4)});
  }
  table.Print(
      "E8: recursive sketch scaling with domain size (fixed per-level "
      "geometry, g = x^2, Zipf 1.5)");
  std::printf(
      "\nExpected shape: levels (and hence space) grow ~log2(n) while "
      "per-update time stays roughly flat\nand the error column stays "
      "below ~0.2 at every n.\n");
}

}  // namespace
}  // namespace gstream

int main() {
  gstream::RunExperiment();
  return 0;
}
