// Experiment E10 (docs/experiments.md): the "nearly all functions" table.
//
// Runs the Definitions 6-8 property checkers and the Definition 9 nearly
// periodic screen over the whole catalog on the deep probe domain, prints
// the resulting classification next to the paper's ground truth, and
// reports the envelope H(M) that drives the algorithms' space (Lemma 17:
// sub-polynomial for tractable functions, polynomial blow-up otherwise).

#include <cstdio>
#include <string>

#include "gfunc/classifier.h"
#include "util/table_printer.h"

namespace gstream {
namespace {

std::string Mark(bool b) { return b ? "yes" : "no"; }

void RunExperiment() {
  TablePrinter table({"g", "slow_jump", "slow_drop", "predictable",
                      "nearly_periodic", "H(M)", "verdict", "paper",
                      "agree"});
  int agreements = 0;
  int total = 0;
  for (const CatalogEntry& entry : BuiltinCatalog()) {
    PropertyCheckOptions options;
    if (entry.classify_domain_hint > 0) {
      options.domain_max = entry.classify_domain_hint;
    }
    const ClassificationResult r = Classify(*entry.g, options);
    const bool agree = r.verdict == entry.expected_verdict;
    ++total;
    if (agree) ++agreements;
    char h[32];
    if (r.h_envelope < 1e6) {
      std::snprintf(h, sizeof(h), "%.1f", r.h_envelope);
    } else {
      std::snprintf(h, sizeof(h), "%.1e", r.h_envelope);
    }
    table.AddRow({entry.g->name(), Mark(r.slow_jumping.holds),
                  Mark(r.slow_dropping.holds), Mark(r.predictable.holds),
                  Mark(r.nearly_periodic.holds), h,
                  VerdictName(r.verdict),
                  VerdictName(entry.expected_verdict),
                  agree ? "yes" : "NO"});
  }
  table.Print(
      "E10: zero-one-law classification of the catalog (Definitions 6-9, "
      "probe domain 2^20)");
  std::printf("\nAgreement with the paper's worked examples: %d / %d.\n",
              agreements, total);
}

}  // namespace
}  // namespace gstream

int main() {
  gstream::RunExperiment();
  return 0;
}
