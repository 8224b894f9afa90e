// Exact (non-streaming) baselines: ground truth for every experiment.

#ifndef GSTREAM_STREAM_EXACT_H_
#define GSTREAM_STREAM_EXACT_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sketch/linear_sketch.h"
#include "stream/stream.h"

namespace gstream {

namespace persist {
struct SketchSerde;  // durable wire format (persist/sketch_io.h)
}  // namespace persist

// The exact frequency vector as a linear sketch: linear space, zero error.
// Exists so the exact baseline rides the same infrastructure as the
// approximate sketches -- ProcessStream drives it through UpdateBatch,
// ShardedIngestor can fan a stream across exact replicas, and MergeFrom
// folds shards together (no fingerprint needed: there is no hashing, so
// any two instances are mergeable).  The two-pass heavy hitter's pass-2
// tabulation and ExactFrequencies() are built on the same contract.
class ExactFrequencySketch : public LinearSketch {
 public:
  ExactFrequencySketch() = default;

  void Update(ItemId item, int64_t delta) override { freq_[item] += delta; }

  // Batched kernel: one hash probe per *run* of equal items instead of one
  // per update.  Aggregated generator output and sorted replays repeat
  // items back-to-back, and node-based map storage keeps the cached slot
  // pointer valid across rehashes.  Bit-identical to the sequential loop.
  void UpdateBatch(const gstream::Update* updates, size_t n) override;

  // Sums another instance's frequencies into this one (exact linearity).
  void MergeFrom(const ExactFrequencySketch& other);

  // The frequency vector with zero-net items pruned -- the same contract
  // as ExactFrequencies().
  FrequencyMap Frequencies() const;

  size_t SpaceBytes() const override {
    return freq_.size() * (sizeof(ItemId) + sizeof(int64_t));
  }

 private:
  friend struct persist::SketchSerde;

  FrequencyMap freq_;
};

// A function of one variable applied to |v_i|; implementations come from
// gfunc/ but exact computation only needs the call signature.
using GCallable = std::function<double(int64_t)>;

// Exact g-SUM: sum_i g(|v_i|) over nonzero frequencies (g(0)=0 by the
// paper's normalization, so zero frequencies contribute nothing).
double ExactGSum(const FrequencyMap& freq, const GCallable& g);

// Exact frequency moment F_p = sum |v_i|^p (p >= 0; F_0 counts distinct
// items with nonzero frequency).
double ExactMoment(const FrequencyMap& freq, double p);

// Items that are (g, lambda)-heavy per Definition 11: g(|v_j|) >=
// lambda * sum_{i != j} g(|v_i|).  Returned sorted by decreasing g-value.
std::vector<std::pair<ItemId, int64_t>> ExactGHeavyHitters(
    const FrequencyMap& freq, const GCallable& g, double lambda);

}  // namespace gstream

#endif  // GSTREAM_STREAM_EXACT_H_
