// Experiment E3 (docs/experiments.md): the negative side of the zero-one laws.
//
// For each intractable catalog function we realize the paper's
// communication reduction as actual streams and run the real estimator as
// the distinguishing protocol:
//
//   g = 1/x           Lemma 23 (INDEX):    Alice's items at frequency n,
//                                          Bob adds one +1.
//   g = x^3           Lemma 24 (DISJ+IND): players at frequency x, index
//                                          player tops the common item up
//                                          to frequency y.
//   (2+sin sqrt x)x^2 Lemma 25 (INDEX):    Alice at y_k, Bob adds x_k at a
//                                          phase-flipping offset.
//
// In every case the two possible g-SUM outcomes differ by a constant
// factor, yet the streaming distinguisher stays near coin-flipping as its
// sketch grows -- the information needed is Omega(n^alpha) bits.  The
// control task gives a *tractable* function an equally-gapped instance
// (presence of one F2-dominant item under x^2), which the same budgets
// solve almost perfectly.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "comm/disjointness.h"
#include "comm/index_problem.h"
#include "core/gsum.h"
#include "stream/exact.h"
#include "stream/generators.h"
#include "util/table_printer.h"

namespace gstream {
namespace {

constexpr int kTrials = 24;

GSumOptions Budget(size_t buckets, uint64_t seed) {
  GSumOptions options;
  options.passes = 1;
  options.cs_buckets = buckets;
  options.candidates = 32;
  options.repetitions = 3;
  options.ams = {8, 5};
  options.seed = seed;
  return options;
}

// Success rate of the estimator-as-protocol on Lemma 23 / Lemma 25 INDEX
// reduction instances.
double IndexReductionSuccess(const GFunctionPtr& g, uint64_t n,
                             const IndexReductionShape& shape,
                             size_t buckets, size_t* space_out) {
  Rng rng(0xE03);
  int correct = 0;
  for (int t = 0; t < kTrials; ++t) {
    const IndexInstance inst = MakeIndexInstance(n, rng);
    const Stream stream = BuildIndexReductionStream(inst, shape);
    GSumEstimator estimator(g, stream.domain(),
                            Budget(buckets, 7000 + static_cast<uint64_t>(t)));
    const double estimate = estimator.Process(stream);
    const DistinguishingOutcomes o =
        IndexReductionOutcomes(*g, inst.alice_set.size(), shape);
    if (DecideIntersecting(estimate, o) == inst.intersecting) ++correct;
    *space_out = estimator.SpaceBytes();
  }
  return static_cast<double>(correct) / kTrials;
}

double DisjReductionSuccess(const GFunctionPtr& g, uint64_t n,
                            size_t players, const DisjPlusIndShape& shape,
                            size_t buckets, size_t* space_out) {
  Rng rng(0xE04);
  int correct = 0;
  for (int t = 0; t < kTrials; ++t) {
    const DisjInstance inst = MakeDisjInstance(n, players, 0.5, rng);
    const Stream stream = BuildDisjPlusIndStream(inst, shape);
    size_t total = 0;
    for (const auto& set : inst.sets) total += set.size();
    GSumEstimator estimator(g, stream.domain(),
                            Budget(buckets, 9000 + static_cast<uint64_t>(t)));
    const double estimate = estimator.Process(stream);
    const DisjOutcomes o = DisjPlusIndOutcomes(*g, total, players, shape);
    if (DecideDisjIntersecting(estimate, o) == inst.intersecting) ++correct;
    *space_out = estimator.SpaceBytes();
  }
  return static_cast<double>(correct) / kTrials;
}

// Control: distinguish presence of one F2-dominant item under g = x^2 with
// a comparable relative gap.
double ControlSuccess(size_t buckets, size_t* space_out) {
  const GFunctionPtr g = MakePower(2.0);
  Rng rng(0xE05);
  int correct = 0;
  for (int t = 0; t < kTrials; ++t) {
    const bool planted = rng.Bernoulli(0.5);
    FrequencyMap freq;
    for (ItemId i = 0; i < 512; ++i) freq[i] = 1;
    if (planted) freq[600] = 64;
    const Workload w =
        MakeStreamFromFrequencies(1024, freq, StreamShapeOptions{}, rng);
    GSumEstimator estimator(
        g, w.stream.domain(),
        Budget(buckets, 11000 + static_cast<uint64_t>(t)));
    const double estimate = estimator.Process(w.stream);
    const double mid = 512.0 + 4096.0 / 2.0;
    if ((estimate > mid) == planted) ++correct;
    *space_out = estimator.SpaceBytes();
  }
  return static_cast<double>(correct) / kTrials;
}

void RunExperiment() {
  const std::vector<size_t> budgets = {128, 512, 2048, 8192};
  TablePrinter table(
      {"task", "g", "reduction", "space", "success_rate"});

  for (const size_t buckets : budgets) {
    size_t space = 0;
    const double s = IndexReductionSuccess(
        MakeInversePoly(1.0), 512,
        IndexReductionShape{/*alice_frequency=*/512, /*bob_frequency=*/1},
        buckets, &space);
    table.AddRow({"drop-hidden-item", "x^-1.00", "Lemma23/INDEX",
                  TablePrinter::FormatBytes(space),
                  TablePrinter::FormatDouble(s, 3)});
  }
  // Lemma 24 parameterization: s players at frequency x, planted item at
  // y = s*x, universe n = s^{2+alpha} x^alpha.  The planted item's F2
  // share is s^2 / n, shrinking polynomially as the instance grows, so at
  // *fixed* sketch size the distinguisher decays toward coin flipping --
  // the Omega(y^alpha) bound materializing as an n-sweep.
  for (const uint64_t n : {uint64_t{1} << 10, uint64_t{1} << 12,
                           uint64_t{1} << 14}) {
    const size_t players = 4;
    // Solve n = s^{2.25} x^{0.25} for x (alpha = 0.25).
    const double x_freq_d =
        std::pow(static_cast<double>(n) / std::pow(4.0, 2.25), 4.0);
    const int64_t x_freq = static_cast<int64_t>(x_freq_d);
    size_t space = 0;
    const double s = DisjReductionSuccess(
        MakePower(3.0), n, players,
        DisjPlusIndShape{/*per_player_frequency=*/x_freq,
                         /*index_frequency=*/0},
        /*buckets=*/2048, &space);
    table.AddRow({"fast-jump-item n=" + std::to_string(n), "x^3.00",
                  "Lemma24/DISJ+IND", TablePrinter::FormatBytes(space),
                  TablePrinter::FormatDouble(s, 3)});
  }
  for (const size_t buckets : budgets) {
    size_t space = 0;
    // Lemma 25 shape: y_k = 1256 << x_k = 40000, chosen at a phase flip.
    const double s = IndexReductionSuccess(
        MakeSinSqrtModulated(), 64,
        IndexReductionShape{/*alice_frequency=*/1256,
                            /*bob_frequency=*/40000},
        buckets, &space);
    table.AddRow({"unpredictable-shift", "(2+sin sqrt(x))x^2",
                  "Lemma25/INDEX", TablePrinter::FormatBytes(space),
                  TablePrinter::FormatDouble(s, 3)});
  }
  for (const size_t buckets : budgets) {
    size_t space = 0;
    const double s = ControlSuccess(buckets, &space);
    table.AddRow({"control-heavy-item", "x^2.00", "(tractable control)",
                  TablePrinter::FormatBytes(space),
                  TablePrinter::FormatDouble(s, 3)});
  }

  table.Print(
      "E3: streaming distinguishers on the paper's lower-bound reductions "
      "(success over 24 balanced instances)");
  std::printf(
      "\nExpected shape: the Lemma 23 / Lemma 25 rows hover near 0.5 at "
      "every budget (the sketch cannot\nsee the decisive coordinate); the "
      "Lemma 24 sweep decays toward 0.5 as the instance grows at fixed\n"
      "space; the tractable control reaches ~1.0 already at small "
      "budgets.\n");
}

}  // namespace
}  // namespace gstream

int main() {
  gstream::RunExperiment();
  return 0;
}
