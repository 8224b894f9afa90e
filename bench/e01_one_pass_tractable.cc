// Experiment E1 (docs/experiments.md): Theorem 2, positive direction.
//
// Every 1-pass tractable catalog function reaches small relative error on
// skewed turnstile streams with a sketch whose size is a tiny fraction of
// the stream footprint, and accuracy improves as the sketch grows.  The
// "figure" is the error-vs-space series per function; the qualitative
// claim reproduced: all series drop below the epsilon target at
// sub-linear space, uniformly across the tractable class.

#include <cstdio>
#include <vector>

#include "core/gsum.h"
#include "stream/exact.h"
#include "stream/generators.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace gstream {
namespace {

struct SketchBudget {
  size_t buckets;
  size_t candidates;
};

void RunExperiment() {
  const uint64_t domain = 1 << 16;
  const size_t items = 6000;
  const int trials = 3;
  const double target = 0.2;

  const std::vector<GFunctionPtr> functions = {
      MakePower(1.0),       MakePower(1.5),
      MakePower(2.0),       MakeX2Log(),
      MakeSinLogModulated(), MakeExpSqrtLog(),
      MakeSpamClickFee(16), MakePoissonMixtureNll(0.95, 0.5, 8.0)};
  const std::vector<SketchBudget> budgets = {
      {256, 24}, {1024, 48}, {4096, 64}};

  Rng data_rng(0xE01);
  StreamShapeOptions shape;
  shape.churn_pairs = 2000;
  const Workload w =
      MakeZipfWorkload(domain, items, 1.5, 50000, shape, data_rng);

  TablePrinter table({"g", "buckets", "space", "median_err", "p90_err",
                      "frac<=0.2"});
  for (const GFunctionPtr& g : functions) {
    const double truth = ExactGSum(w.frequencies, g->AsCallable());
    for (const SketchBudget& budget : budgets) {
      std::vector<double> errors;
      size_t space = 0;
      for (int t = 0; t < trials; ++t) {
        GSumOptions options;
        options.passes = 1;
        options.cs_buckets = budget.buckets;
        options.candidates = budget.candidates;
        options.repetitions = 5;
        options.ams = {8, 5};
        options.seed = 0x5111 + static_cast<uint64_t>(t);
        GSumEstimator estimator(g, domain, options);
        const double estimate = estimator.Process(w.stream);
        errors.push_back(RelativeError(estimate, truth));
        space = estimator.SpaceBytes();
      }
      const ErrorSummary s = SummarizeErrors(errors, target);
      table.AddRow({g->name(), TablePrinter::FormatInt(budget.buckets),
                    TablePrinter::FormatBytes(space),
                    TablePrinter::FormatDouble(s.median_rel_error, 4),
                    TablePrinter::FormatDouble(s.p90_rel_error, 4),
                    TablePrinter::FormatDouble(s.fraction_within_target, 2)});
    }
  }
  table.Print(
      "E1: one-pass g-SUM accuracy vs sketch size, 1-pass tractable "
      "functions (Zipf 1.5 turnstile stream, n=2^16)");

  // Space scaling: the sketch footprint is flat in the number of distinct
  // items while the exact baseline grows linearly -- the sub-linearity the
  // zero-one law is about.
  TablePrinter scaling({"g", "distinct_items", "exact_bytes",
                        "sketch_bytes", "median_err"});
  for (const GFunctionPtr& g : {MakePower(2.0), MakeX2Log()}) {
    for (const size_t n_items : {4000u, 32000u, 128000u}) {
      Rng rng(0xE01B);
      const uint64_t big_domain = uint64_t{1} << 20;
      const Workload wl = MakeZipfWorkload(big_domain, n_items, 1.5, 50000,
                                           StreamShapeOptions{}, rng);
      const double truth = ExactGSum(wl.frequencies, g->AsCallable());
      std::vector<double> errors;
      size_t space = 0;
      for (int t = 0; t < trials; ++t) {
        GSumOptions options;
        options.passes = 1;
        options.cs_buckets = 1024;
        options.candidates = 48;
        options.repetitions = 5;
        options.ams = {8, 5};
        options.seed = 0x511B + static_cast<uint64_t>(t);
        GSumEstimator estimator(g, big_domain, options);
        errors.push_back(
            RelativeError(estimator.Process(wl.stream), truth));
        space = estimator.SpaceBytes();
      }
      const size_t exact_bytes =
          wl.frequencies.size() * (sizeof(ItemId) + sizeof(int64_t));
      scaling.AddRow(
          {g->name(), TablePrinter::FormatInt(static_cast<long long>(n_items)),
           TablePrinter::FormatBytes(exact_bytes),
           TablePrinter::FormatBytes(space),
           TablePrinter::FormatDouble(Median(errors), 4)});
    }
  }
  scaling.Print(
      "E1b: sketch vs exact baseline as distinct items grow 32x "
      "(fixed sketch geometry, n=2^20)");
  std::printf(
      "\nExpected shape: every function's median error falls well below "
      "0.2 by the largest budget in E1;\nin E1b the exact baseline grows "
      "~32x while the sketch stays flat at steady accuracy.\n");
}

}  // namespace
}  // namespace gstream

int main() {
  gstream::RunExperiment();
  return 0;
}
