// Experiment E4 (docs/experiments.md): the heavy-hitter reduction machinery of
// Section 3.1 / Lemma 18.
//
// For slow-jumping, slow-dropping g every (g, lambda)-heavy hitter is an
// F2 heavy hitter at heaviness lambda / H(M), so CountSketch-based covers
// find them.  We plant multi-heavy workloads and measure recall (fraction
// of true (g, lambda)-heavy items covered) and weight accuracy for both
// Algorithm 1 (2-pass) and Algorithm 2 (1-pass) across lambda.

#include <cstdio>
#include <unordered_map>
#include <vector>

#include "core/one_pass_hh.h"
#include "core/two_pass_hh.h"
#include "gfunc/catalog.h"
#include "gfunc/envelope.h"
#include "stream/exact.h"
#include "stream/generators.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace gstream {
namespace {

Workload MultiHeavyWorkload(Rng& rng) {
  FrequencyMap freq;
  // Background: 2000 light items.
  for (ItemId i = 0; i < 2000; ++i) {
    freq[i] = rng.UniformInt(1, 30);
  }
  // Planted heavies across two decades.
  const std::vector<int64_t> heavies = {120000, 60000, 30000, 15000, 8000};
  for (size_t k = 0; k < heavies.size(); ++k) {
    freq[10000 + k] = heavies[k];
  }
  return MakeStreamFromFrequencies(1 << 14, freq, StreamShapeOptions{}, rng);
}

struct CoverStats {
  double recall = 0.0;
  double median_weight_err = 0.0;
  size_t cover_size = 0;
  size_t space = 0;
};

CoverStats Evaluate(const GCover& cover, const Workload& w,
                    const GFunctionPtr& g, double lambda, size_t space) {
  const auto heavy =
      ExactGHeavyHitters(w.frequencies, g->AsCallable(), lambda);
  std::unordered_map<ItemId, double> cover_weights;
  for (const GCoverEntry& e : cover) cover_weights[e.item] = e.g_value;
  size_t hit = 0;
  std::vector<double> weight_errors;
  for (const auto& [item, value] : heavy) {
    const auto it = cover_weights.find(item);
    if (it == cover_weights.end()) continue;
    ++hit;
    weight_errors.push_back(
        RelativeError(it->second, g->ValueAbs(value)));
  }
  CoverStats stats;
  stats.recall = heavy.empty()
                     ? 1.0
                     : static_cast<double>(hit) / heavy.size();
  stats.median_weight_err =
      weight_errors.empty() ? 0.0 : Median(weight_errors);
  stats.cover_size = cover.size();
  stats.space = space;
  return stats;
}

void RunExperiment() {
  Rng data_rng(0xE04);
  const Workload w = MultiHeavyWorkload(data_rng);

  TablePrinter table({"g", "algorithm", "lambda", "recall",
                      "median_w_err", "cover_size", "space"});
  const std::vector<double> lambdas = {0.2, 0.05, 0.01};
  for (const GFunctionPtr& g :
       {MakePower(2.0), MakeX2Log(), MakeSinLogModulated()}) {
    const double h =
        HEnvelope(EvaluateTable(*g, 1 << 18));
    for (const double lambda : lambdas) {
      // Two-pass (Algorithm 1).
      {
        Rng rng(0x1E04);
        TwoPassHHOptions options;
        options.count_sketch = {5, 2048};
        options.candidates = 64;
        TwoPassHeavyHitter hh(options, rng);
        ProcessStream(hh, w.stream);
        hh.AdvancePass();
        ProcessStream(hh, w.stream);
        const CoverStats s =
            Evaluate(hh.Cover(*g), w, g, lambda, hh.SpaceBytes());
        table.AddRow({g->name(), "2-pass(Alg1)",
                      TablePrinter::FormatDouble(lambda, 2),
                      TablePrinter::FormatDouble(s.recall, 3),
                      TablePrinter::FormatDouble(s.median_weight_err, 4),
                      TablePrinter::FormatInt(
                          static_cast<long long>(s.cover_size)),
                      TablePrinter::FormatBytes(s.space)});
      }
      // One-pass (Algorithm 2).
      {
        Rng rng(0x2E04);
        OnePassHHOptions options;
        options.count_sketch = {5, 2048};
        options.ams = {16, 5};
        options.candidates = 64;
        options.epsilon = 0.25;
        options.h_envelope = h;
        OnePassHeavyHitter hh(options, rng);
        ProcessStream(hh, w.stream);
        const CoverStats s =
            Evaluate(hh.Cover(*g), w, g, lambda, hh.SpaceBytes());
        table.AddRow({g->name(), "1-pass(Alg2)",
                      TablePrinter::FormatDouble(lambda, 2),
                      TablePrinter::FormatDouble(s.recall, 3),
                      TablePrinter::FormatDouble(s.median_weight_err, 4),
                      TablePrinter::FormatInt(
                          static_cast<long long>(s.cover_size)),
                      TablePrinter::FormatBytes(s.space)});
      }
    }
  }
  table.Print(
      "E4: (g, lambda)-heavy hitter recall and weight accuracy, "
      "Algorithms 1 and 2 (planted heavies over light background)");
  std::printf(
      "\nExpected shape: recall 1.0 at lambda >= 0.05 for both algorithms "
      "(Lemma 18); 2-pass weights are\nexact (err 0), 1-pass weights are "
      "within the configured epsilon.\n");
}

}  // namespace
}  // namespace gstream

int main() {
  gstream::RunExperiment();
  return 0;
}
