// Experiment E12 (extension; docs/experiments.md): Lemma 27 -- the
// multi-pass wall.
//
// Predictability failures are repaired by a second pass (E2), but
// slow-dropping failures are not repairable by ANY constant number of
// passes: for g = 1/x the Lemma 27 two-player DISJ reduction defeats the
// 2-pass estimator exactly as the 1-pass one, while a tractable control
// function on the same stream shape is easy in either mode.

#include <cstdio>
#include <vector>

#include "comm/multipass.h"
#include "core/gsum.h"
#include "gfunc/catalog.h"
#include "util/table_printer.h"

namespace gstream {
namespace {

constexpr int kTrials = 24;

double Lemma27Success(const GFunctionPtr& g, uint64_t n,
                      const Lemma27Shape& shape, int passes,
                      size_t buckets, size_t* space_out) {
  Rng rng(0xE12);
  int correct = 0;
  for (int t = 0; t < kTrials; ++t) {
    // Exactly balanced classes so chance level is exactly 1/2.
    const TwoPartyDisjInstance inst =
        MakeTwoPartyDisjInstance(n, /*intersecting=*/(t % 2 == 0), rng);
    const Stream stream = BuildLemma27Stream(inst, n, shape);
    GSumOptions options;
    options.passes = passes;
    options.cs_buckets = buckets;
    options.candidates = 32;
    options.repetitions = 3;
    options.ams = {8, 5};
    options.seed = 0x1212 + static_cast<uint64_t>(t);
    GSumEstimator estimator(g, n, options);
    const double estimate = estimator.Process(stream);
    const Lemma27Outcomes o = ComputeLemma27Outcomes(*g, inst, n, shape);
    if (DecideLemma27Intersecting(estimate, o) == inst.intersecting) {
      ++correct;
    }
    *space_out = estimator.SpaceBytes();
  }
  return static_cast<double>(correct) / kTrials;
}

void RunExperiment() {
  const uint64_t n = 512;
  TablePrinter table(
      {"g", "passes", "buckets", "space", "success_rate"});
  // Lemma 27 shape for 1/x: x = 1 (g large), y = n (g tiny): the decisive
  // item is the single frequency-1 coordinate hidden among frequency-n
  // and frequency-(n+1) coordinates.
  const Lemma27Shape shape{/*x_frequency=*/1,
                           /*y_frequency=*/static_cast<int64_t>(n)};
  for (const int passes : {1, 2}) {
    for (const size_t buckets : {512u, 4096u}) {
      size_t space = 0;
      const double s = Lemma27Success(MakeInversePoly(1.0), n, shape,
                                      passes, buckets, &space);
      table.AddRow({"x^-1.00", passes == 1 ? "1" : "2",
                    TablePrinter::FormatInt(static_cast<long long>(buckets)),
                    TablePrinter::FormatBytes(space),
                    TablePrinter::FormatDouble(s, 3)});
    }
  }
  // Control: x^2 on the same stream shape.  The two outcomes differ by
  // ~g(n+1) - g(n) - g(1) which is ~2n out of a total ~n^3-scale sum --
  // a vanishing gap, so instead use the E3-style planted-item control to
  // show the 2-pass budget is not inherently weak.
  for (const int passes : {1, 2}) {
    size_t space = 0;
    Rng rng(0xE12C);
    int correct = 0;
    for (int t = 0; t < kTrials; ++t) {
      const bool planted = rng.Bernoulli(0.5);
      FrequencyMap freq;
      for (ItemId i = 0; i < n; ++i) freq[i] = 1;
      if (planted) freq[n + 1] = 64;
      Stream stream(n + 2);
      for (const auto& [item, value] : freq) stream.Append(item, value);
      GSumOptions options;
      options.passes = passes;
      options.cs_buckets = 512;
      options.candidates = 32;
      options.repetitions = 3;
      options.seed = 0x1213 + static_cast<uint64_t>(t);
      GSumEstimator estimator(MakePower(2.0), n + 2, options);
      const double estimate = estimator.Process(stream);
      if ((estimate > static_cast<double>(n) + 2048.0) == planted) {
        ++correct;
      }
      space = estimator.SpaceBytes();
    }
    table.AddRow({"x^2.00 (control)", passes == 1 ? "1" : "2", "512",
                  TablePrinter::FormatBytes(space),
                  TablePrinter::FormatDouble(
                      static_cast<double>(correct) / kTrials, 3)});
  }
  table.Print(
      "E12: Lemma 27 -- slow-dropping failures defeat multi-pass "
      "estimators (DISJ(n,2) reduction, n=512)");
  std::printf(
      "\nExpected shape: for 1/x success stays ~0.5 in BOTH pass modes at "
      "every budget (contrast E2,\nwhere the second pass repaired "
      "predictability); the tractable control is ~1.0 in both modes.\n");
}

}  // namespace
}  // namespace gstream

int main() {
  gstream::RunExperiment();
  return 0;
}
