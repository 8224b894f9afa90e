// Summary statistics used by tests and the experiment harness.

#ifndef GSTREAM_UTIL_STATS_H_
#define GSTREAM_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace gstream {

// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& xs);

// The q-quantile (0 <= q <= 1) by nearest-rank on a sorted copy.
double Quantile(std::vector<double> xs, double q);

// Median (0.5-quantile).
double Median(std::vector<double> xs);

// |estimate - truth| / max(|truth|, tiny); the error measure used throughout
// the experiments.  Returns |estimate| when truth == 0.
double RelativeError(double estimate, double truth);

// Aggregate of repeated trials of an estimator against ground truth.
struct ErrorSummary {
  size_t trials = 0;
  double mean_rel_error = 0.0;
  double median_rel_error = 0.0;
  double p90_rel_error = 0.0;
  double max_rel_error = 0.0;
  // Fraction of trials within the target relative error (set by caller).
  double fraction_within_target = 0.0;
};

// Builds an ErrorSummary from per-trial relative errors, counting the
// fraction of trials with error <= target.
ErrorSummary SummarizeErrors(const std::vector<double>& rel_errors,
                             double target);

}  // namespace gstream

#endif  // GSTREAM_UTIL_STATS_H_
