// Experiment E2 (docs/experiments.md): Theorem 3 vs Theorem 2 --
// predictability is needed in one pass but not in two.
//
// Streams concentrate mass at scales where (2+sin x) x^2 and
// (2+sin sqrt(x)) x^2 are locally volatile: a +-1 (resp. +-O(sqrt(x)))
// frequency error flips g by a constant factor.  The one-pass algorithm
// must prune those candidates (or mis-weigh them); the two-pass algorithm
// tabulates exact frequencies and is immune.  Control row: the predictable
// modulation (2+sin log(1+x)) x^2, where both pass counts succeed.

#include <cstdio>
#include <vector>

#include "core/gsum.h"
#include "stream/exact.h"
#include "stream/generators.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace gstream {
namespace {

// Mass at volatile points: frequencies near odd multiples where sin sits
// at a trough/peak, plus background.
Workload VolatileWorkload(uint64_t domain, Rng& rng) {
  std::vector<HistogramBucket> buckets = {
      {11, 150},    // sin(11) ~ -1.0: maximally volatile for (2+sin x)x^2
      {355, 60},    // sin(355) ~ -0.97
      {2485, 30},   // sin(2485) ~ -0.9996
      {3, 300},     // light background
  };
  return MakeHistogramWorkload(domain, buckets, StreamShapeOptions{}, rng);
}

void RunCase(const GFunctionPtr& g, const Workload& w, TablePrinter& table) {
  const double truth = ExactGSum(w.frequencies, g->AsCallable());
  for (const int passes : {1, 2}) {
    std::vector<double> errors;
    size_t space = 0;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      GSumOptions options;
      options.passes = passes;
      options.cs_buckets = 2048;
      options.candidates = 64;
      options.repetitions = 5;
      options.epsilon = 0.1;
      options.seed = 0xE02 + seed;
      GSumEstimator estimator(g, w.stream.domain(), options);
      errors.push_back(RelativeError(estimator.Process(w.stream), truth));
      space = estimator.SpaceBytes();
    }
    const ErrorSummary s = SummarizeErrors(errors, 0.15);
    table.AddRow({g->name(), passes == 1 ? "1" : "2",
                  TablePrinter::FormatBytes(space),
                  TablePrinter::FormatDouble(s.median_rel_error, 4),
                  TablePrinter::FormatDouble(s.max_rel_error, 4),
                  TablePrinter::FormatDouble(s.fraction_within_target, 2)});
  }
}

void RunExperiment() {
  Rng rng(0xE02);
  const Workload w = VolatileWorkload(1 << 13, rng);

  TablePrinter table(
      {"g", "passes", "space", "median_err", "max_err", "frac<=0.15"});
  RunCase(MakeSinModulated(), w, table);
  RunCase(MakeSinSqrtModulated(), w, table);
  RunCase(MakeSinLogModulated(), w, table);  // control: predictable
  table.Print(
      "E2: one pass vs two passes on volatile-scale streams "
      "(Theorems 2 and 3)");
  std::printf(
      "\nExpected shape: for the two non-predictable modulations the "
      "2-pass error is small while the\n1-pass error is several times "
      "larger; the predictable control succeeds in both modes.\n");
}

}  // namespace
}  // namespace gstream

int main() {
  gstream::RunExperiment();
  return 0;
}
