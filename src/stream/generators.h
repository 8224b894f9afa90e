// Synthetic workload generators.
//
// Every experiment in this repository runs on synthetic streams (the paper
// evaluates nothing empirically; see docs/experiments.md).  The generators
// below cover the regimes the theory cares about: skewed (Zipf) frequency
// vectors where heavy hitters exist, flat (uniform) vectors where nothing
// is heavy, exact frequency histograms used by the lower-bound reductions,
// planted heavy hitters, and turnstile insert/delete churn that exercises
// negative deltas without changing the final frequency vector.

#ifndef GSTREAM_STREAM_GENERATORS_H_
#define GSTREAM_STREAM_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "stream/stream.h"
#include "util/random.h"

namespace gstream {

// Options shared by the frequency-vector-based generators.
struct StreamShapeOptions {
  // Emit each frequency as that many +-1 unit updates instead of a single
  // aggregated update.  Slower but exercises long streams.
  bool unit_updates = false;
  // Shuffle the emitted updates into a random arrival order.
  bool shuffle = true;
  // Insert matched (+d, -d) churn pairs touching random items; the final
  // frequency vector is unchanged but the stream becomes strictly turnstile.
  size_t churn_pairs = 0;
  // Magnitude of churn deltas.
  int64_t churn_magnitude = 3;
};

// A generated workload: the stream plus its intended frequency vector.
struct Workload {
  Stream stream;
  FrequencyMap frequencies;
};

// Builds a stream realizing exactly the given frequency vector, subject to
// `options` (churn, shuffling, unit updates).
Workload MakeStreamFromFrequencies(uint64_t domain, const FrequencyMap& freq,
                                   const StreamShapeOptions& options,
                                   Rng& rng);

// Zipf-distributed frequencies: item ranked r gets frequency
// round(max_frequency / r^exponent), for `num_items` items placed at random
// ids in [0, domain).  Frequencies below 1 are clamped to 1.
Workload MakeZipfWorkload(uint64_t domain, size_t num_items,
                          double exponent, int64_t max_frequency,
                          const StreamShapeOptions& options, Rng& rng);

// Uniform frequencies drawn i.i.d. from [lo, hi] for `num_items` random ids.
Workload MakeUniformWorkload(uint64_t domain, size_t num_items, int64_t lo,
                             int64_t hi, const StreamShapeOptions& options,
                             Rng& rng);

// A frequency histogram: `buckets[k] = {frequency, item_count}` places
// item_count distinct items at exactly that frequency.  This is the shape
// used by every communication reduction in the paper (e.g. |A| items at
// frequency n plus one item at frequency x in Lemma 23).
struct HistogramBucket {
  int64_t frequency = 0;
  size_t item_count = 0;
};
Workload MakeHistogramWorkload(uint64_t domain,
                               const std::vector<HistogramBucket>& buckets,
                               const StreamShapeOptions& options, Rng& rng);

// A planted heavy hitter: `background_items` items with frequencies uniform
// in [1, background_max] plus one item at `heavy_frequency`.  Returns the
// planted item id in `heavy_id`.
Workload MakePlantedHeavyHitterWorkload(uint64_t domain,
                                        size_t background_items,
                                        int64_t background_max,
                                        int64_t heavy_frequency,
                                        const StreamShapeOptions& options,
                                        Rng& rng, ItemId* heavy_id);

// Draws `num_samples` i.i.d. samples from the discrete distribution given by
// `pmf` (values 0..pmf.size()-1, weights need not be normalized) and streams
// them as unit increments onto random distinct item slots: the frequency of
// slot i is the i-th sample's multiplicity pattern used by the
// log-likelihood application (§1.1.1): coordinate i of the vector holds the
// i-th sample value.
Workload MakeIidSampleWorkload(uint64_t domain, size_t num_samples,
                               const std::vector<double>& pmf,
                               const StreamShapeOptions& options, Rng& rng);

}  // namespace gstream

#endif  // GSTREAM_STREAM_GENERATORS_H_
