#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/logging.h"

namespace gstream {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Quantile(std::vector<double> xs, double q) {
  GSTREAM_CHECK(!xs.empty());
  GSTREAM_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(xs.begin(), xs.end());
  const double rank = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

double RelativeError(double estimate, double truth) {
  if (truth == 0.0) return std::fabs(estimate);
  return std::fabs(estimate - truth) / std::fabs(truth);
}

ErrorSummary SummarizeErrors(const std::vector<double>& rel_errors,
                             double target) {
  ErrorSummary s;
  s.trials = rel_errors.size();
  if (rel_errors.empty()) return s;
  s.mean_rel_error = Mean(rel_errors);
  s.median_rel_error = Median(rel_errors);
  s.p90_rel_error = Quantile(rel_errors, 0.9);
  s.max_rel_error = *std::max_element(rel_errors.begin(), rel_errors.end());
  size_t within = 0;
  for (double e : rel_errors) {
    if (e <= target) ++within;
  }
  s.fraction_within_target =
      static_cast<double>(within) / static_cast<double>(s.trials);
  return s;
}

}  // namespace gstream
