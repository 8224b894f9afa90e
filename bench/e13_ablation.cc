// Experiment E13 (extension): ablations of the design choices
// docs/experiments.md lists.
//
//  (a) Pruning interval (core/one_pass_hh.cc): the paper term (eps/2H)
//      sqrt(F2) vs the configured-sketch term sqrt(F2/b) vs their min
//      (shipped) vs no pruning at all.  Two workloads: a smooth tractable
//      one (x^2, Zipf) where over-pruning hurts, and a volatile one
//      ((2+sin x) x^2 histogram) where under-pruning hurts.  Only the
//      shipped min() is good on both.
//  (b) Median amplification: repetitions 1/3/5/9 vs p90 error.
//  (c) Candidates per level: cover capacity vs error.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/gsum.h"
#include "stream/exact.h"
#include "stream/generators.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace gstream {
namespace {

// (a) is emulated through the public surface: "paper-only" by setting
// buckets so large that sqrt(F2/b) would be the binding term and then
// overriding h_envelope to make the paper term tiny -- and "no pruning"
// by h_envelope so large the radius collapses to 0 (vacuous check).
// "sketch-only" corresponds to h_envelope = 1 with small epsilon.
struct PruningVariant {
  const char* name;
  double h_envelope;  // -1 = computed from g (the shipped default)
  double epsilon;
};

void PruningAblation() {
  TablePrinter table({"workload", "variant", "median_err", "p90_err"});

  Rng rng(0xE13);
  const Workload smooth = MakeZipfWorkload(1 << 13, 1200, 1.5, 40000,
                                           StreamShapeOptions{}, rng);
  // The volatile workload needs a heavy light-item background: CountSketch
  // collisions must actually perturb the estimates (by a few units --
  // enough to flip (2+sin x)), otherwise "no pruning" silently wins by
  // decoding exact frequencies.
  // Frequency 2493 sits at sin ~ -0.99 (deep trough): an estimate off by
  // a couple of units flips g by up to 3x, and the error does NOT average
  // out (a trough is one-sided -- all perturbations overestimate).
  const Workload volatile_w = MakeHistogramWorkload(
      1 << 13, {{11, 200}, {2493, 40}, {3, 400}, {2, 3000}, {1, 3000}},
      StreamShapeOptions{}, rng);

  const std::vector<PruningVariant> variants = {
      {"shipped(min)", -1.0, 0.2},
      {"paper-only(H=1)", 1.0, 0.2},
      // Radius ~0: every candidate kept regardless of stability.
      {"no-pruning(H=1e12)", 1e12, 0.2},
  };

  struct Case {
    const char* label;
    const Workload* w;
    GFunctionPtr g;
  };
  const Case cases[] = {
      {"smooth: x^2 Zipf", &smooth, MakePower(2.0)},
      {"volatile: (2+sin x)x^2", &volatile_w, MakeSinModulated()},
  };
  for (const Case& c : cases) {
    const double truth = ExactGSum(c.w->frequencies, c.g->AsCallable());
    for (const PruningVariant& v : variants) {
      std::vector<double> errors;
      for (uint64_t seed = 1; seed <= 5; ++seed) {
        GSumOptions options;
        options.passes = 1;
        options.cs_buckets = 1024;
        options.candidates = 48;
        options.repetitions = 5;
        options.ams = {8, 5};
        options.epsilon = v.epsilon;
        options.h_envelope = v.h_envelope;
        options.seed = 0x1313 + seed;
        GSumEstimator estimator(c.g, c.w->stream.domain(), options);
        errors.push_back(
            RelativeError(estimator.Process(c.w->stream), truth));
      }
      table.AddRow({c.label, v.name,
                    TablePrinter::FormatDouble(Median(errors), 4),
                    TablePrinter::FormatDouble(Quantile(errors, 0.9), 4)});
    }
  }
  table.Print(
      "E13a: pruning-interval ablation (volatile workloads need pruning, "
      "smooth ones need it bounded by the sketch error)");
}

void RepetitionAblation() {
  Rng rng(0xE13B);
  const Workload w = MakeZipfWorkload(1 << 13, 1200, 1.5, 40000,
                                      StreamShapeOptions{}, rng);
  const GFunctionPtr g = MakeX2Log();
  const double truth = ExactGSum(w.frequencies, g->AsCallable());
  TablePrinter table({"repetitions", "space", "median_err", "p90_err"});
  for (const size_t reps : {1u, 3u, 5u, 9u}) {
    std::vector<double> errors;
    size_t space = 0;
    for (uint64_t seed = 1; seed <= 9; ++seed) {
      GSumOptions options;
      options.passes = 1;
      options.cs_buckets = 512;
      options.candidates = 32;
      options.repetitions = reps;
      options.ams = {8, 5};
      options.seed = 0x1414 + seed;
      GSumEstimator estimator(g, w.stream.domain(), options);
      errors.push_back(RelativeError(estimator.Process(w.stream), truth));
      space = estimator.SpaceBytes();
    }
    table.AddRow({TablePrinter::FormatInt(static_cast<long long>(reps)),
                  TablePrinter::FormatBytes(space),
                  TablePrinter::FormatDouble(Median(errors), 4),
                  TablePrinter::FormatDouble(Quantile(errors, 0.9), 4)});
  }
  table.Print("E13b: median amplification (tail error buys space linearly)");
}

void CandidateAblation() {
  Rng rng(0xE13C);
  const Workload w = MakeZipfWorkload(1 << 13, 1200, 1.5, 40000,
                                      StreamShapeOptions{}, rng);
  const GFunctionPtr g = MakePower(2.0);
  const double truth = ExactGSum(w.frequencies, g->AsCallable());
  TablePrinter table({"candidates", "levels", "space", "median_err"});
  for (const size_t candidates : {8u, 16u, 48u, 128u}) {
    std::vector<double> errors;
    size_t space = 0;
    int levels = 0;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      GSumOptions options;
      options.passes = 1;
      options.cs_buckets = 1024;
      options.candidates = candidates;
      options.repetitions = 5;
      options.ams = {8, 5};
      options.seed = 0x1515 + seed;
      GSumEstimator estimator(g, w.stream.domain(), options);
      errors.push_back(RelativeError(estimator.Process(w.stream), truth));
      space = estimator.SpaceBytes();
      levels = estimator.levels();
    }
    table.AddRow(
        {TablePrinter::FormatInt(static_cast<long long>(candidates)),
         TablePrinter::FormatInt(levels), TablePrinter::FormatBytes(space),
         TablePrinter::FormatDouble(Median(errors), 4)});
  }
  table.Print(
      "E13c: candidates per level (cover capacity vs recursion depth)");
}

}  // namespace
}  // namespace gstream

int main() {
  gstream::PruningAblation();
  gstream::RepetitionAblation();
  gstream::CandidateAblation();
  std::printf(
      "\nExpected shape: E13a -- on the volatile workload no variant "
      "wins (Theorem 2 says none can):\nwithout pruning the trough "
      "perturbations silently corrupt the answer (~0.5 error), with "
      "pruning the\nalgorithm refuses to certify the unstable mass "
      "(error ~1.0, a *detectable* failure).  On smooth\ndata pruning "
      "costs a few percent over none -- the price of the certificate.  "
      "E13b -- p90 error\ndrops from 1 to 5 repetitions at linear space "
      "cost.  E13c -- more candidates mean fewer levels\nand steadier "
      "error.\n");
  return 0;
}
